#!/usr/bin/env python3
"""Hold the library crates to one public path per item, each with an outside user.

`pub` in this workspace means "used from outside the crate", and each public
item has exactly one public path. A crate's modules are private unless a
file outside the crate names one by path; the crate root's `pub use` list is
its API, and a module that stays `pub` is reached through that module alone.

The check scans the non-test text of every library crate's `src` (a file's
text up to its `#[cfg(test)] mod tests`, skipping items that are themselves
`#[cfg(test)]`) and fails on:

  - a `pub mod` that no outside path names (`vstream_tcp::segment::X`, or a
    `use vstream_tcp::{segment, ..}` group);
  - a second public path: a `pub use` of an item from a module that is
    itself public, or from another crate;
  - a `pub fn`, a `pub struct/enum/const/type/trait/static`, or a `pub`
    field whose name appears as a word in no file outside its crate;
  - an allow-list entry that no longer excuses anything: its item is gone,
    or it has gained an outside user;
  - a process global: a `static` (of any crate, the `repro` binary's too)
    whose type holds a `Mutex`, `RwLock`, `Atomic*`, `OnceLock` or
    `LazyLock`, unless the `STATICS` list names it with a reason — and a
    `STATICS` entry that names no such static. State a run needs is passed
    as a value (`figures::Run`); the five globals left are pinned by the
    benchmark driver, which calls the functions behind them, until ROADMAP
    item 1 releases them.

"Outside" is:

  - the `src` of every other crate under `crates/` (the `repro` binary too),
  - `crates/*/tests` (integration tests are crates of their own),
  - `tests/` and `examples/` at the root,
  - `benchmark/driver/src` (the repo benchmark builds against `crates/*`).

A word match can only miss an unused item (a same-named use of another item
hides it), never flag a used one. The allow-list below names the exceptions;
each entry says why.

Usage: python3 scripts/check_pub_api.py [--list]
  exit 0 when every rule holds, exit 1 (and one `crate path:line kind name`
  line per finding) otherwise.
  --list prints one count per kind (modules, root re-exports, fns,
  types/consts, fields), the process statics and the non-test source line
  count.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The `repro` binary has no library API of its own.
BINARY_CRATES = {"bench"}

DRIVER_PINNED = "driver-pinned; ROADMAP item 1 releases it"
SIGNATURE = "named by a public signature: "

# (kind, crate directory, name) -> why it is public although a rule above
# would flag it. Kinds: "mod" (name = module path below the crate root),
# "reexport" (name = the re-exported item), "fn", "item", "field".
ALLOW = {
    ("reexport", "core", "SessionScratch"): DRIVER_PINNED,
    ("reexport", "core", "collector"):
        "repro does not depend on vstream-obs, and the driver names vstream_obs::collector",
    ("item", "obs", "SpanRecord"): SIGNATURE + "collector::end_span and Ledger::spans",
    ("item", "obs", "ProfileMetrics"): SIGNATURE + "Metrics::profile_mut",
    ("item", "net", "LinkStats"): SIGNATURE + "Link::stats",
    ("item", "analysis", "AnalysisOutput"): SIGNATURE + "AnalysisFold::finish",
    ("item", "core", "Validation"): SIGNATURE + "the field CampaignReport::validation",
    ("item", "core", "MatrixCell"): SIGNATURE + "figures::table1_strategy_matrix",
    ("item", "app", "NetflixMode"): SIGNATURE + "the field NetflixConfig::mode",
    ("item", "core", "SwitchRateQuery"): SIGNATURE + "the field SessionQuery::switch_rate",
    ("item", "core", "Series"): SIGNATURE + "the field FigureData::series",
}

PINNED_STATIC = "driver-pinned: benchmark/driver calls {}; ROADMAP item 1 releases it"

# (crate directory, module path, name) -> why this process global stands.
STATICS = {
    ("core", "cache", "ACTIVE"): PINNED_STATIC.format("cache::install"),
    ("core", "cache", "STORE"): PINNED_STATIC.format("cache::install and cache::len"),
    ("core", "flight", "CONFIG"): PINNED_STATIC.format("flight::{install, uninstall}"),
    ("obs", "collector", "ACTIVE"): PINNED_STATIC.format("collector::{install, take}"),
    ("obs", "collector", "STATE"): PINNED_STATIC.format("collector::{install, take}"),
}

KINDS = ("mod", "reexport", "fn", "item", "field")

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
MOD = re.compile(rf"^\s*(pub\s+)?mod\s+({IDENT})")
PUB_FN = re.compile(rf"^\s*pub\s+(?:const\s+)?(?:unsafe\s+)?fn\s+({IDENT})")
PUB_ITEM = re.compile(
    rf"^\s*pub\s+(?:(?:struct|enum|type|trait|union)\s+({IDENT})|(?:const|static)\s+({IDENT})\s*:)")
PUB_FIELD = re.compile(rf"^\s*pub\s+({IDENT})\s*:")
PUB_USE = re.compile(r"^\s*pub\s+use\s+([^;]+);", re.M)
USE = re.compile(r"\buse\s+([^;{}]*(?:\{[^;]*\})?)\s*;")
TEST_MOD = re.compile(r"^#\[cfg\(test\)\]\s*(?:mod\s+\w+)?")
STATIC = re.compile(rf"^\s*(?:pub(?:\([^)]*\))?\s+)?static\s+(?:mut\s+)?({IDENT})\s*:([^=]*)")
GLOBAL_TYPE = re.compile(r"\b(?:Mutex|RwLock|Atomic\w+|OnceLock|LazyLock)\b")


def rust_files(path):
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def non_test_lines(path):
    """The lines of `path` before its `#[cfg(test)] mod ...` block."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if not TEST_MOD.match(line):
            continue
        rest = line[len("#[cfg(test)]"):].strip()
        following = rest or (lines[i + 1].strip() if i + 1 < len(lines) else "")
        if following.startswith("mod ") or following.startswith("pub mod "):
            return lines[:i]
    return lines


def test_gated(lines, i):
    """Whether the attributes and comments above line `i` include `#[cfg(test)]`."""
    j = i - 1
    while j >= 0:
        prev = lines[j].strip()
        if not (prev.startswith("#[") or prev.startswith("//")):
            return False
        if prev.startswith("#[cfg(test)]"):
            return True
        j -= 1
    return False


def expand_use(tree):
    """The paths a use tree names: `a::{b, c::{d as e}}` -> a::b, a::c::d."""
    tree = re.sub(r"\s+", " ", tree)
    tree = re.sub(r"\s*(::|\{|\}|,)\s*", r"\1", tree).strip()
    out = []

    def walk(prefix, s):
        i = s.find("{")
        if i < 0:
            path = (prefix + s).split(" as ")[0]
            if path.endswith("::self"):
                path = path[: -len("::self")]
            out.append(path)
            return
        head, inner = s[:i], s[i + 1:s.rindex("}")]
        depth, start = 0, 0
        for k, ch in enumerate(inner + ","):
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
            elif ch == "," and depth == 0:
                if inner[start:k]:
                    walk(prefix + head, inner[start:k])
                start = k + 1

    walk("", tree)
    return out


def module_path(crate_src, path):
    """`src/a/mod.rs` and `src/a.rs` -> ["a"]; `src/lib.rs` -> []."""
    rel = os.path.relpath(path, crate_src)[: -len(".rs")].split(os.sep)
    if rel[-1] in ("lib", "main", "mod"):
        rel = rel[:-1]
    return rel


class Crate:
    def __init__(self, ident):
        self.ident = ident
        self.files = []  # (relative path, module path, non-test lines)
        self.mods = {}   # module path -> (is pub, file, line)


def load(root):
    crates_dir = os.path.join(root, "crates")
    crates = {}
    for d in sorted(os.listdir(crates_dir)):
        manifest = os.path.join(crates_dir, d, "Cargo.toml")
        if not os.path.isfile(manifest):
            continue
        with open(manifest, encoding="utf-8") as f:
            name = re.search(r'^name\s*=\s*"([^"]+)"', f.read(), re.M).group(1)
        crate = crates[d] = Crate(name.replace("-", "_"))
        src = os.path.join(crates_dir, d, "src")
        for path in rust_files(src):
            mpath = module_path(src, path)
            lines = non_test_lines(path)
            crate.files.append((os.path.relpath(path, root), mpath, lines))
            for i, line in enumerate(lines):
                m = MOD.match(line)
                if m and not test_gated(lines, i):
                    crate.mods["::".join(mpath + [m.group(2)])] = (
                        bool(m.group(1)), os.path.relpath(path, root), i + 1)
    return crates


def outside_text(root, crates):
    """Per crate: the words and the workspace paths that files outside it name."""
    extra = []
    for c in crates:
        extra += rust_files(os.path.join(root, "crates", c, "tests"))
    for d in ("tests", "examples", os.path.join("benchmark", "driver", "src")):
        extra += rust_files(os.path.join(root, d))
    texts = {c: [] for c in crates}
    shared = []
    for path in extra:
        with open(path, encoding="utf-8") as f:
            shared.append(f.read())
    for c in crates:
        for path in rust_files(os.path.join(root, "crates", c, "src")):
            with open(path, encoding="utf-8") as f:
                texts[c].append(f.read())
    idents = "|".join(sorted({k.ident for k in crates.values()}, key=len, reverse=True))
    inline = re.compile(rf"\b(?:{idents})(?:::{IDENT})+")

    def scan(text):
        words = set(re.findall(IDENT, text))
        paths = set(inline.findall(text))
        for m in USE.finditer(text):
            paths.update(expand_use(m.group(1)))
        return words, paths

    scanned = {c: scan("\n".join(texts[c])) for c in crates}
    shared_words, shared_paths = scan("\n".join(shared))
    out = {}
    for c in crates:
        words, paths = set(shared_words), set(shared_paths)
        for o in crates:
            if o != c:
                words |= scanned[o][0]
                paths |= scanned[o][1]
        out[c] = (words, paths)
    return out


def is_public_module(crate, parts):
    """Whether the module at `parts` and every module above it is `pub`."""
    for k in range(1, len(parts) + 1):
        entry = crate.mods.get("::".join(parts[:k]))
        if entry is None or not entry[0]:
            return False
    return True


def findings(root, allow):
    """(counts, flagged, stale): flagged is [(crate, file, line, kind, name)]."""
    crates = load(root)
    outside = outside_text(root, crates)
    idents = {k.ident for k in crates.values()}
    counts = dict.fromkeys(KINDS, 0)
    counts["lines"] = 0
    candidates = []  # (crate, file, line, kind, name, used outside)

    for c, crate in crates.items():
        words, paths = outside[c]
        for rel, mpath, lines in crate.files:
            counts["lines"] += len(lines)
        if c in BINARY_CRATES:
            continue
        for mod, (public, rel, line) in crate.mods.items():
            if not public:
                continue
            counts["mod"] += 1
            full = f"{crate.ident}::{mod}"
            named = any(p == full or p.startswith(full + "::") for p in paths)
            candidates.append((c, rel, line, "mod", mod, named))
        for rel, mpath, lines in crate.files:
            text = "\n".join(lines)
            for m in PUB_USE.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                if test_gated(lines, line - 1):
                    continue
                for path in expand_use(m.group(1)):
                    parts = path.split("::")
                    if not mpath:
                        counts["reexport"] += 1
                    if parts[0] in idents:
                        second = True
                    else:
                        if parts[0] == "crate":
                            parts = parts[1:]
                        elif parts[0] == "self":
                            parts = mpath + parts[1:]
                        elif parts[0] == "super":
                            parts = mpath[:-1] + parts[1:]
                        else:
                            parts = mpath + parts
                        second = is_public_module(crate, parts[:-1])
                    candidates.append((c, rel, line, "reexport", path.split("::")[-1], not second))
            for i, line in enumerate(lines):
                for kind, regex in (("fn", PUB_FN), ("item", PUB_ITEM), ("field", PUB_FIELD)):
                    m = regex.match(line)
                    if not m or test_gated(lines, i):
                        continue
                    name = next(g for g in m.groups() if g)
                    counts[kind] += 1
                    candidates.append((c, rel, i + 1, kind, name, name in words))
                    break

    flagged, excused = [], set()
    for c, rel, line, kind, name, ok in candidates:
        if ok:
            continue
        if (kind, c, name) in allow:
            excused.add((kind, c, name))
            continue
        flagged.append((c, rel, line, kind, name))
    stale = sorted(k for k in allow if k not in excused)
    return counts, flagged, stale


def process_statics(root, allow):
    """(count, flagged, stale) of the non-test process globals under crates/*/src.

    flagged is [(crate, file, line, name)] for a global `allow` does not
    name; stale is the `allow` keys that name none.
    """
    found = []
    for c, crate in load(root).items():
        for rel, mpath, lines in crate.files:
            for i, line in enumerate(lines):
                m = STATIC.match(line)
                if m and GLOBAL_TYPE.search(m.group(2)) and not test_gated(lines, i):
                    found.append((c, "::".join(mpath), m.group(1), rel, i + 1))
    flagged = [(c, rel, line, name) for c, mod, name, rel, line in found
               if (c, mod, name) not in allow]
    named = {(c, mod, name) for c, mod, name, _, _ in found}
    return len(found), flagged, sorted(k for k in allow if k not in named)


MESSAGES = {
    "mod": "pub mod that no outside path names: make it private",
    "reexport": "second public path: re-export only from private modules of the same crate",
    "fn": "pub fn with no user outside its crate: make it pub(crate)",
    "item": "pub item with no user outside its crate: make it pub(crate)",
    "field": "pub field with no user outside its crate: make it pub(crate)",
}


def main(argv):
    counts, flagged, stale = findings(ROOT, ALLOW)
    n_statics, globals_flagged, globals_stale = process_statics(ROOT, STATICS)
    if "--list" in argv:
        print(f"pub mods: {counts['mod']}")
        print(f"root re-exports: {counts['reexport']}")
        print(f"non-test pub fns: {counts['fn']}")
        print(f"non-test pub types/consts: {counts['item']}")
        print(f"non-test pub fields: {counts['field']}")
        print(f"non-test process statics: {n_statics}")
        print(f"non-test lines of crates/*/src: {counts['lines']}")
    for c, rel, line, kind, name in flagged:
        print(f"{c} {rel}:{line} {kind} {name}: {MESSAGES[kind]}")
    for kind, c, name in stale:
        print(f"{c} ALLOW {kind} {name}: stale allow-list entry (gone, or no longer needs it)")
    for c, rel, line, name in globals_flagged:
        print(f"{c} {rel}:{line} static {name}: process global: pass the state as a value, "
              "or add a STATICS entry with a reason")
    for c, mod, name in globals_stale:
        print(f"{c} STATICS {mod}::{name}: stale entry (no such process global)")
    flagged += globals_flagged
    stale += globals_stale
    if flagged or stale:
        print(f"check_pub_api: {len(flagged)} finding(s), {len(stale)} stale allow-list "
              "entr(y/ies); fix the item, or add an allow-list entry with a reason",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

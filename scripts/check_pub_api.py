#!/usr/bin/env python3
"""List the `pub fn`s of the library crates that nothing outside their crate names.

`pub` in this workspace means "called from outside the crate". A function
that only its own crate calls is `pub(crate)` (or private); one that only
tests call is deleted, moved behind `#[cfg(test)]`, or its tests are pointed
at the production observable instead.

The check scans every non-test `pub fn` in `crates/*/src` (a file's text up
to its `#[cfg(test)] mod tests`, skipping functions that are themselves
`#[cfg(test)]`) of the library crates, and fails when the function's name
appears as a word in no file outside its crate:

  - the `src` of every other crate under `crates/` (the `repro` binary too),
  - `crates/*/tests` (integration tests are crates of their own),
  - `tests/` and `examples/` at the root,
  - `benchmark/driver/src` (the repo benchmark builds against `crates/*`).

A word match can only miss an unused function (a same-named caller of
another function hides it), never flag a used one, so the check cannot fail
a function that has a caller. The allow-list below names the functions that
are public although no file outside the crate names them; each entry says
why.

Usage: python3 scripts/check_pub_api.py [--list]
  exit 0 when every function has an outside caller or an allow-list entry,
  exit 1 (and one `crate path:line name` line per function) otherwise.
  --list prints the count of non-test `pub fn`s and non-test source lines.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The `repro` binary has no library API of its own.
BINARY_CRATES = {"bench"}

# (crate directory, function name) -> why it stays `pub` without a caller
# that names it outside the crate.
ALLOW = {
}

PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+)?(?:unsafe\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
TEST_MOD = re.compile(r"^#\[cfg\(test\)\]\s*(?:mod\s+\w+)?")


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


def pub_fns(lines):
    """(line number, name) of each `pub fn` not gated by `#[cfg(test)]`."""
    out = []
    for i, line in enumerate(lines):
        m = PUB_FN.match(line)
        if not m:
            continue
        j = i - 1
        gated = False
        while j >= 0:
            prev = lines[j].strip()
            if prev.startswith("#[") or prev.startswith("///") or prev.startswith("//"):
                if prev.startswith("#[cfg(test)]"):
                    gated = True
                j -= 1
                continue
            break
        if not gated:
            out.append((i + 1, m.group(1)))
    return out


def words(path):
    with open(path, encoding="utf-8") as f:
        return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", f.read()))


def main():
    crates_dir = os.path.join(ROOT, "crates")
    crates = sorted(d for d in os.listdir(crates_dir)
                    if os.path.isfile(os.path.join(crates_dir, d, "Cargo.toml")))

    # Words per crate `src`, plus the callers that are crates of their own.
    src_words = {c: set() for c in crates}
    for c in crates:
        for path in rust_files(os.path.join(crates_dir, c, "src")):
            src_words[c] |= words(path)
    outside = set()
    for c in crates:
        for path in rust_files(os.path.join(crates_dir, c, "tests")):
            outside |= words(path)
    for d in ("tests", "examples", os.path.join("benchmark", "driver", "src")):
        for path in rust_files(os.path.join(ROOT, d)):
            outside |= words(path)

    total_fns = 0
    total_lines = 0
    unused = []
    for c in crates:
        seen = outside.union(*(src_words[o] for o in crates if o != c))
        for path in rust_files(os.path.join(crates_dir, c, "src")):
            lines = non_test_lines(path)
            total_lines += len(lines)
            if c in BINARY_CRATES:
                continue
            for line, name in pub_fns(lines):
                total_fns += 1
                if name in seen or (c, name) in ALLOW:
                    continue
                unused.append((c, os.path.relpath(path, ROOT), line, name))

    if "--list" in sys.argv[1:]:
        print(f"non-test pub fns: {total_fns}")
        print(f"non-test lines of crates/*/src: {total_lines}")
    for c, path, line, name in unused:
        print(f"{c} {path}:{line} {name}")
    if unused:
        print(f"check_pub_api: {len(unused)} pub fn(s) have no caller outside their crate; "
              "make them pub(crate), or add an allow-list entry with a reason",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

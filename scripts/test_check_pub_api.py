#!/usr/bin/env python3
"""Unit tests for scripts/check_pub_api.py: each rule in a failing and a fixed form.

Every test writes a tiny workspace (library crates `vstream-a` and
`vstream-b`, and callers under the root `tests/`) into a temp directory,
points the script's `ROOT` and `ALLOW` at it, and runs the check.

Usage: python3 scripts/test_check_pub_api.py
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_pub_api  # noqa: E402


def workspace(root, files):
    """Writes `files` ({relative path: text}) plus one manifest per crate."""
    for path, text in files.items():
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as f:
            f.write(text)
    for crate in ("a", "b"):
        manifest = os.path.join(root, "crates", crate, "Cargo.toml")
        os.makedirs(os.path.dirname(manifest), exist_ok=True)
        with open(manifest, "w", encoding="utf-8") as f:
            f.write(f'[package]\nname = "vstream-{crate}"\n')


class CheckPubApi(unittest.TestCase):
    def run_check(self, files, allow=None, statics=None):
        """(exit code, stdout) of the check over a workspace of `files`."""
        with tempfile.TemporaryDirectory() as root:
            workspace(root, files)
            saved = check_pub_api.ROOT, check_pub_api.ALLOW, check_pub_api.STATICS
            check_pub_api.ROOT, check_pub_api.ALLOW = root, allow or {}
            check_pub_api.STATICS = statics or {}
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = check_pub_api.main([])
            finally:
                check_pub_api.ROOT, check_pub_api.ALLOW, check_pub_api.STATICS = saved
        return code, out.getvalue()

    def assert_clean(self, files, allow=None, statics=None):
        code, out = self.run_check(files, allow, statics)
        self.assertEqual((code, out), (0, ""))

    def test_pub_mod_without_an_outside_path(self):
        caller = {"tests/caller.rs": "fn go() { vstream_a::helper(); }\n"}
        inner = {"crates/a/src/inner.rs": "pub fn helper() {}\n"}
        code, out = self.run_check({
            **caller, **inner,
            "crates/a/src/lib.rs": "pub mod inner;\npub use inner::helper;\n",
        })
        self.assertEqual(code, 1)
        self.assertIn("mod inner:", out)
        self.assert_clean({
            **caller, **inner,
            "crates/a/src/lib.rs": "mod inner;\npub use inner::helper;\n",
        })

    def test_doubly_exported_item(self):
        inner = {"crates/a/src/inner.rs": "pub fn helper() {}\n"}
        caller = {"tests/caller.rs": "fn go() { vstream_a::inner::helper(); }\n"}
        code, out = self.run_check({
            **caller, **inner,
            "crates/a/src/lib.rs": "pub mod inner;\npub use inner::helper;\n",
        })
        self.assertEqual(code, 1)
        self.assertIn("reexport helper:", out)
        self.assertNotIn("mod inner:", out)

        # A re-export from another crate is a second path as well.
        code, out = self.run_check({
            **inner,
            "crates/a/src/lib.rs": "pub mod inner;\n",
            "crates/b/src/lib.rs": "pub use vstream_a::inner::{self, helper};\n",
        })
        self.assertEqual(code, 1)
        self.assertIn("crates/b/src/lib.rs:1 reexport helper:", out)
        self.assertIn("crates/b/src/lib.rs:1 reexport inner:", out)

        self.assert_clean({**caller, **inner, "crates/a/src/lib.rs": "pub mod inner;\n"})

    def test_unused_pub_field_and_item(self):
        caller = {"tests/caller.rs": "fn go(c: vstream_a::Cfg) -> u32 { c.used }\n"}
        code, out = self.run_check({
            **caller,
            "crates/a/src/lib.rs":
                "pub struct Cfg {\n    pub used: u32,\n    pub spare: u32,\n}\n"
                "pub const LIMIT: u32 = 3;\n",
        })
        self.assertEqual(code, 1)
        self.assertIn("crates/a/src/lib.rs:3 field spare:", out)
        self.assertIn("crates/a/src/lib.rs:5 item LIMIT:", out)
        self.assertNotIn(" used:", out)
        self.assert_clean({
            **caller,
            "crates/a/src/lib.rs":
                "pub struct Cfg {\n    pub used: u32,\n    pub(crate) spare: u32,\n}\n"
                "pub(crate) const LIMIT: u32 = 3;\n",
        })

    def test_stale_allow_entry(self):
        caller = {"tests/caller.rs": "fn go(c: vstream_a::Cfg) -> u32 { c.used }\n"}
        spare = ("field", "a", "spare")
        public = {**caller, "crates/a/src/lib.rs":
                  "pub struct Cfg {\n    pub used: u32,\n    pub spare: u32,\n}\n"}
        private = {**caller, "crates/a/src/lib.rs":
                   "pub struct Cfg {\n    pub used: u32,\n    pub(crate) spare: u32,\n}\n"}

        # An entry whose item is no longer public excuses nothing.
        code, out = self.run_check(private, {spare: "a reason"})
        self.assertEqual(code, 1)
        self.assertIn("ALLOW field spare: stale", out)

        # Nor does one whose item has gained an outside user.
        used = {**public, "tests/caller.rs":
                "fn go(c: vstream_a::Cfg) -> u32 { c.used + c.spare }\n"}
        code, out = self.run_check(used, {spare: "a reason"})
        self.assertEqual(code, 1)
        self.assertIn("ALLOW field spare: stale", out)

        # An entry that excuses a public, outside-unused field holds.
        self.assert_clean(public, {spare: "a reason"})

    def test_process_globals(self):
        lib = {"crates/a/src/lib.rs": "mod state;\n"}
        state = (
            "use std::sync::{atomic::AtomicUsize, Mutex, OnceLock};\n"
            "static JOBS: AtomicUsize = AtomicUsize::new(0);\n"
            "pub(crate) static TABLE: Mutex<Vec<u8>> = Mutex::new(Vec::new());\n"
            "fn store() {\n    static STORE: OnceLock<u8> = OnceLock::new();\n}\n"
            "static NAME: &str = \"plain data is no global state\";\n"
            "#[cfg(test)]\nstatic SEEN: AtomicUsize = AtomicUsize::new(0);\n"
        )
        code, out = self.run_check({**lib, "crates/a/src/state.rs": state})
        self.assertEqual(code, 1)
        self.assertIn("crates/a/src/state.rs:2 static JOBS: process global", out)
        self.assertIn("crates/a/src/state.rs:3 static TABLE: process global", out)
        self.assertIn("crates/a/src/state.rs:5 static STORE: process global", out)
        self.assertNotIn("NAME", out)
        self.assertNotIn("SEEN", out)

        # Each global named with a reason passes, keyed by module path.
        pinned = {("a", "state", name): "a reason" for name in ("JOBS", "TABLE", "STORE")}
        self.assert_clean({**lib, "crates/a/src/state.rs": state}, statics=pinned)

        # An entry whose global is gone is stale, as is one under the wrong module.
        code, out = self.run_check({**lib, "crates/a/src/state.rs": "\n"},
                                   statics={("a", "state", "JOBS"): "a reason"})
        self.assertEqual(code, 1)
        self.assertIn("a STATICS state::JOBS: stale", out)
        code, out = self.run_check({**lib, "crates/a/src/state.rs": state},
                                   statics={**pinned, ("a", "other", "JOBS"): "a reason"})
        self.assertEqual(code, 1)
        self.assertIn("a STATICS other::JOBS: stale", out)

    def test_list_counts_each_kind(self):
        with tempfile.TemporaryDirectory() as root:
            workspace(root, {
                "crates/a/src/lib.rs": "mod inner;\npub use inner::Cfg;\n",
                "crates/a/src/inner.rs": "pub struct Cfg {\n    pub used: u32,\n}\n",
                "tests/caller.rs": "fn go(c: vstream_a::Cfg) -> u32 { c.used }\n",
            })
            counts, flagged, stale = check_pub_api.findings(root, {})
        self.assertEqual((flagged, stale), ([], []))
        self.assertEqual(counts, {"mod": 0, "reexport": 1, "fn": 0, "item": 1, "field": 1,
                                  "lines": 5})

    def test_expand_use(self):
        self.assertEqual(
            check_pub_api.expand_use("a::{b, c::{self, d as e}, f}"),
            ["a::b", "a::c", "a::c::d", "a::f"])


if __name__ == "__main__":
    unittest.main()

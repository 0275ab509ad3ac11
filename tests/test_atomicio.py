"""The atomic write helper: either the old artifact or the new one.

Every on-disk artifact leaves the process through
:func:`repro.atomicio.atomic_write_text`; these tests pin its contract —
round-trip fidelity, temp-file hygiene, and (via the in-process chaos
monkey at the ``artifact.*`` kill sites) the either-old-or-new property
when the process dies between the temp write and the rename.
"""

import json
from pathlib import Path

import pytest

from repro.atomicio import atomic_write_json, atomic_write_text, fsync_dir
from repro.chaos import ChaosCrash, ChaosMonkey, install, uninstall


class TestAtomicWriteText:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "artifact.txt"
        returned = atomic_write_text(target, "hello\n")
        assert returned == target
        assert target.read_text() == "hello\n"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_residue_on_success(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "x")
        atomic_write_text(target, "y")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    def test_accepts_str_paths(self, tmp_path):
        target = str(tmp_path / "artifact.txt")
        assert atomic_write_text(target, "s") == Path(target)


class TestAtomicWriteJson:
    def test_round_trip_sorted(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_json(target, {"b": 2, "a": 1})
        text = target.read_text()
        assert text == '{"a": 1, "b": 2}\n'
        assert json.loads(text) == {"a": 1, "b": 2}

    def test_dumps_kwargs_pass_through(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_json(target, {"a": 1}, indent=2)
        assert target.read_text() == '{\n  "a": 1\n}\n'


class TestCrashWindows:
    """Die inside the write; the previous artifact must survive whole."""

    def teardown_method(self):
        uninstall()

    def test_crash_before_replace_keeps_old_content(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "committed")
        install(ChaosMonkey("artifact.tmp_written", action="raise", hit=1))
        with pytest.raises(ChaosCrash):
            atomic_write_text(target, "never-lands")
        uninstall()
        assert target.read_text() == "committed"
        # The residue is the identifiable temp sibling, nothing else.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "artifact.txt", "artifact.txt.tmp",
        ]
        # The next successful write overwrites the residue.
        atomic_write_text(target, "recovered")
        assert target.read_text() == "recovered"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    def test_crash_before_replace_with_no_previous_artifact(self, tmp_path):
        target = tmp_path / "artifact.txt"
        install(ChaosMonkey("artifact.tmp_written", action="raise", hit=1))
        with pytest.raises(ChaosCrash):
            atomic_write_text(target, "never-lands")
        assert not target.exists()

    def test_crash_after_replace_keeps_new_content(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "old")
        install(ChaosMonkey("artifact.replaced", action="raise", hit=1))
        with pytest.raises(ChaosCrash):
            atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_content_is_never_torn(self, tmp_path):
        """At every crash window the artifact is one complete version."""
        target = tmp_path / "artifact.json"
        atomic_write_json(target, {"version": 1})
        for site in ("artifact.tmp_written", "artifact.replaced"):
            install(ChaosMonkey(site, action="raise", hit=1))
            with pytest.raises(ChaosCrash):
                atomic_write_json(target, {"version": 2})
            uninstall()
            assert json.loads(target.read_text()) in (
                {"version": 1}, {"version": 2},
            )


class TestFsyncDir:
    def test_tolerates_any_directory(self, tmp_path):
        fsync_dir(tmp_path)

    def test_tolerates_missing_directory(self, tmp_path):
        fsync_dir(tmp_path / "does-not-exist")

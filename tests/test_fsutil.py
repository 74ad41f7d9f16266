"""Tests for the crash-atomic file writer :func:`repro.fsutil.atomic_write_text`.

A reader of the target path sees either the old content or the new, never
a torn file, and a failed write leaves no temporary litter behind.
"""

from __future__ import annotations

import pytest

from repro.io import atomic_write_text


class TestAtomicWriteText:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "out.json", "content")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failure_leaves_target_intact_and_no_litter(
        self, tmp_path, monkeypatch
    ):
        import repro.fsutil as fsutil_module

        path = tmp_path / "out.json"
        atomic_write_text(path, "original")

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(fsutil_module.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_text(path, "replacement")
        monkeypatch.undo()
        assert path.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

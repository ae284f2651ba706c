"""Tests for the crash-safe write primitives (harness/fsutil.py)."""

import json

import pytest

from repro.harness.fsutil import atomic_write_bytes, atomic_write_json


def test_atomic_write_replaces_the_whole_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old content, longer than the new content\n")
    atomic_write_json(path, {"a": 1})
    assert json.loads(path.read_text()) == {"a": 1}
    assert path.read_text().endswith("}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, "not bytes")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


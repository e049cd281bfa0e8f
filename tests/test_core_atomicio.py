"""Tests for the shared atomic-write helper (repro.core.atomicio)."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.core.atomicio import (
    TEMP_STALE_SECONDS,
    remove_stale_temp_files,
    temp_name_for,
    write_text_atomic,
)


def test_write_creates_file_with_exact_content(tmp_path):
    path = str(tmp_path / "state.json")
    write_text_atomic(path, '{"a": 1}\n')
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.read() == '{"a": 1}\n'


def test_write_replaces_existing_content(tmp_path):
    path = str(tmp_path / "state.json")
    write_text_atomic(path, "old")
    write_text_atomic(path, "new")
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.read() == "new"


def test_temp_names_are_unique_per_call_not_per_process():
    # The PR 5 collision bug: a pid-only temp name means two threads
    # writing one destination share a temp file.  Every call must differ
    # even within one process.
    names = {temp_name_for("/x/state.json") for _ in range(64)}
    assert len(names) == 64
    for name in names:
        assert ".tmp." in name
        assert str(os.getpid()) in name


def test_only_stale_temp_files_are_removed(tmp_path):
    write_text_atomic(str(tmp_path / "state.json"), "payload")
    stale = temp_name_for(str(tmp_path / "state.json"))
    fresh = temp_name_for(str(tmp_path / "state.json"))
    for path in (stale, fresh):
        open(path, "x").close()
    now = time.time()
    os.utime(stale, (now - TEMP_STALE_SECONDS, now - TEMP_STALE_SECONDS))
    remove_stale_temp_files(str(tmp_path), now)
    assert sorted(os.listdir(tmp_path)) == sorted(["state.json", os.path.basename(fresh)])
    remove_stale_temp_files(str(tmp_path / "missing"))


def test_no_temp_files_left_behind(tmp_path):
    path = str(tmp_path / "state.json")
    for _ in range(5):
        write_text_atomic(path, "payload")
    assert sorted(os.listdir(tmp_path)) == ["state.json"]


def test_failed_write_removes_temp_and_preserves_original(tmp_path, monkeypatch):
    path = str(tmp_path / "state.json")
    write_text_atomic(path, "original")

    def explode(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", explode)
    with pytest.raises(OSError):
        write_text_atomic(path, "replacement")
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["state.json"]
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.read() == "original"


def test_write_fsyncs_the_destination_directory_after_the_rename(tmp_path, monkeypatch):
    # Without a directory fsync a crash right after the write returns can
    # lose the rename, leaving the old file (or none) behind.
    path = str(tmp_path / "state.json")
    real_fsync = os.fsync
    synced = []

    def recording_fsync(fd):
        status = os.fstat(fd)
        synced.append((status.st_dev, status.st_ino, os.path.exists(path)))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    write_text_atomic(path, "payload")
    directory = os.stat(str(tmp_path))
    assert (directory.st_dev, directory.st_ino, True) in synced


def test_concurrent_writers_to_one_path_never_corrupt_it(tmp_path):
    # Regression for the jobstore payload write: two executors finishing
    # the same job concurrently must each complete an intact write —
    # whichever lands last, the file is one writer's full payload.
    path = str(tmp_path / "shared.json")
    errors = []
    barrier = threading.Barrier(8)

    def writer(index):
        try:
            barrier.wait()
            for round_number in range(25):
                write_text_atomic(path, json.dumps({"writer": index, "round": round_number}))
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(index,)) for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)  # parses: no torn/interleaved bytes
    assert payload["round"] == 24
    assert sorted(os.listdir(tmp_path)) == ["shared.json"]

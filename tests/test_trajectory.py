"""Trajectory run metadata: the commit stamp and the dirty flag."""

import shutil
import subprocess

import pytest

from repro.runner.trajectory import run_metadata

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="git not installed")


def git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, capture_output=True, text=True, check=True).stdout


def test_dirty_flag_tracks_uncommitted_changes(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "module.py").write_text("x = 1\n")
    git(tmp_path, "add", "module.py")
    git(tmp_path, "commit", "-q", "-m", "seed")
    head = git(tmp_path, "rev-parse", "--short", "HEAD").strip()

    clean = run_metadata(tmp_path)
    assert clean["commit"] == head
    assert clean["dirty"] is False

    (tmp_path / "module.py").write_text("x = 2\n")
    dirty = run_metadata(tmp_path)
    assert dirty["commit"] == head  # same hash: the flag tells them apart
    assert dirty["dirty"] is True


def test_outside_a_checkout_is_unknown(tmp_path):
    meta = run_metadata(tmp_path / "missing")
    assert meta["commit"] == "unknown"
    assert meta["dirty"] is None

"""The scripts under tools/."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _paired_timing(parent, change, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_timing.py"), str(parent),
         str(change), "--workload", "sweep", "--seed", "1", *args],
        capture_output=True, text=True, timeout=60)


def test_paired_timing_of_a_tree_against_itself():
    """An A/A run: every round prints its ratio, then the summary line, and
    the outputs agree."""
    run = _paired_timing(SRC, SRC, "--jobs", "2", "--rounds", "2")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 3
    for r, line in enumerate(lines[:2], 1):
        assert re.fullmatch(rf"round {r}: parent \d+\.\d{{4}} s, change "
                            rf"\d+\.\d{{4}} s, ratio \d+\.\d{{3}}", line)
    assert re.fullmatch(r"median ratio \d+\.\d{3}, quartiles \d+\.\d{3}-\d+\.\d{3}, "
                        r"change won [012] of 2 rounds", lines[2])


def test_paired_timing_exits_1_when_the_outputs_differ(tmp_path):
    """A tree whose fit windows are narrower gives other outputs: the first
    round says so and the script exits 1."""
    change = tmp_path / "src"
    shutil.copytree(SRC / "wvsagnac", change / "wvsagnac",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spectral = change / "wvsagnac" / "spectral.py"
    text = spectral.read_text()
    assert "FIT_WINDOW_SIGMAS = 2.5" in text
    spectral.write_text(text.replace("FIT_WINDOW_SIGMAS = 2.5", "FIT_WINDOW_SIGMAS = 2.4"))
    run = _paired_timing(SRC, change, "--jobs", "1", "--rounds", "2")
    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("round 1: ")
    assert re.fullmatch(r"outputs differ: parent [0-9a-f]{16}, change [0-9a-f]{16}",
                        lines[1])
    assert len(lines) == 2


def _output_digest(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"), *map(str, args)],
        capture_output=True, text=True, timeout=60)


def test_output_digest_prints_its_usage_line_for_extra_arguments():
    run = _output_digest(SRC, SRC)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == "usage: python3 tools/output_digest.py [SRC_DIR]\n"


def test_tools_refuse_a_directory_without_the_package(tmp_path):
    """A source directory with no wvsagnac/__init__.py is named on one line,
    with exit code 2, before anything is imported from it or from bench/."""
    (tmp_path / "wvsagnac").mkdir()  # a package directory with no __init__.py
    for run, tool in ((_output_digest(tmp_path), "output_digest.py"),
                      (_paired_timing(SRC, tmp_path), "paired_timing.py"),
                      (_paired_timing(tmp_path, SRC), "paired_timing.py")):
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == f"{tool}: no wvsagnac package in {tmp_path.resolve()}\n"

"""Smoke tests of the scripts in ``scripts/``, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=300)


def test_dimension_table():
    done = run_script("dimension_table.py")
    assert done.returncode == 0, done.stderr
    table = {}
    for words in map(str.split, done.stdout.splitlines()):
        if words and words[0] == "space":
            header = words[1:]
        elif len(words) > 1 and words[1].isdigit():
            table[words[0]] = dict(zip(header, map(int, words[1:])))
    assert len(table) == 10
    assert table["ela3"]["so3"] == 2 and table["high2"]["d4"] == 10


def test_render_structures_ties_shear_diagonal():
    done = run_script("render_structures.py", "--space", "ela3")
    assert done.returncode == 0, done.stderr
    block = done.stdout.split("=== ela3 x so3 (dim 2) ===")[1].split("===")[0]
    shear = [line.split()[3:] for line in block.strip().splitlines()[4:7]]
    assert shear == [["C44", "0", "0"], ["0", "C44", "0"], ["0", "0", "C44"]]
    assert "with C11 = C12 + 2 C44" in block


@pytest.mark.parametrize("space", ["v1", "nosuch", "ELA3"])
def test_render_structures_refuses_unrenderable_space(space):
    done = run_script("render_structures.py", "--space", space)
    assert done.returncode == 2 and done.stdout == ""
    assert f"invalid choice: '{space}'" in done.stderr and "ela3" in done.stderr

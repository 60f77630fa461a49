"""The catalog outputs recorded in ``bench/reference.json`` still hold.

The file pins the dimension of every catalog pair and the structure JSON
of every pair whose space has a slot map.  It is read here as plain JSON;
nothing under ``bench/`` is imported or written.

``reference_displays.json``, next to this file, pins the text and LaTeX
displays of the same pairs byte for byte.  It maps each ``"space group"``
key of the structures table to ``{"text": report.to_text(), "latex":
report.to_latex()}``, written with ``json.dumps(..., indent=1,
ensure_ascii=False)`` from ``structure_report`` at commit db1d613, before
the display's tie convention moved into the slot loop.
"""

import json
from pathlib import Path

import pytest

from symtensor.characters import fix_dimension
from symtensor.groups import resolve_group
from symtensor.projector import structure_report
from symtensor.spaces import SPACES

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE.parent / "bench" / "reference.json").read_text())
DISPLAYS = json.loads((HERE / "reference_displays.json").read_text(encoding="utf-8"))
VALUE_TOL = 1e-9


def _pair(key: str):
    space, group = key.split()
    sp = SPACES[space]
    return sp, resolve_group(group, sp.n)


def _split_values(payload):
    """The payload with each ``value`` field set to None, and those values in order."""
    values = []

    def strip(item):
        if isinstance(item, dict):
            if "value" in item:
                values.append(item["value"])
            return {k: None if k == "value" else strip(v) for k, v in item.items()}
        return [strip(v) for v in item] if isinstance(item, list) else item

    return strip(payload), values


def test_reference_covers_the_catalog():
    assert len(REFERENCE["dims"]) == 124 and len(REFERENCE["structures"]) == 98
    assert sorted(DISPLAYS) == sorted(REFERENCE["structures"])


@pytest.mark.parametrize("key", sorted(REFERENCE["dims"]))
def test_dimension(key):
    assert fix_dimension(*_pair(key)) == REFERENCE["dims"][key]


@pytest.mark.parametrize("key", sorted(REFERENCE["structures"]))
def test_structure_json(key):
    report = structure_report(*_pair(key))
    got, got_values = _split_values(report.to_json())
    want, want_values = _split_values(REFERENCE["structures"][key])
    assert got == want
    assert len(got_values) == len(want_values)
    assert all(abs(g - w) <= VALUE_TOL for g, w in zip(got_values, want_values))
    assert report.unsnapped == 0
    assert report.to_text() == DISPLAYS[key]["text"]
    assert report.to_latex() == DISPLAYS[key]["latex"]

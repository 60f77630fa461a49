"""Render the symmetrized structure of every renderable (space, group) pair.

Usage: python scripts/render_structures.py [--format text|latex] [--space NAME]
"""

import argparse

from symtensor.groups import resolve_group
from symtensor.projector import structure_report
from symtensor.spaces import SPACES
from symtensor.voigt import STRUCTURE_MAPS

GROUPS_2D = ("o2", "d6", "d4", "d3", "d2", "z2")
GROUPS_3D = ("so3", "o2-e3", "so2-e3", "cubic", "d4", "d2")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--format", choices=("text", "latex"), default="text")
    parser.add_argument("--space", choices=sorted(STRUCTURE_MAPS), help="restrict to one space")
    args = parser.parse_args()

    for name in sorted(STRUCTURE_MAPS):
        if args.space and name != args.space:
            continue
        sp = SPACES[name]
        for gname in GROUPS_2D if sp.n == 2 else GROUPS_3D:
            rep = structure_report(sp, resolve_group(gname, sp.n))
            print(f"\n=== {name} x {gname} (dim {rep.dim}) ===")
            print(rep.to_latex() if args.format == "latex" else rep.to_text())


if __name__ == "__main__":
    main()

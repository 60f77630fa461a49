"""Print the fixed-subspace dimension of every catalog space under every
compatible catalog group.

Usage: python scripts/dimension_table.py
"""

from symtensor.characters import fix_dimension
from symtensor.groups import GROUPS_2D, GROUPS_3D, resolve_group
from symtensor.spaces import SPACES


def main() -> None:
    for ambient, group_names in ((2, GROUPS_2D), (3, GROUPS_3D)):
        spaces = [sp for sp in SPACES.values() if sp.n == ambient]
        header = f"{'space':8s}" + "".join(f"{g:>8s}" for g in group_names)
        print(f"\nambient R^{ambient}")
        print(header)
        print("-" * len(header))
        for sp in spaces:
            cells = [fix_dimension(sp, resolve_group(g, ambient)) for g in group_names]
            print(f"{sp.name:8s}" + "".join(f"{d:8d}" for d in cells))


if __name__ == "__main__":
    main()

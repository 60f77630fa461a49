"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/make_reference.py

Writes ``bench/reference.json``: the catalog pairs of ``catalog-sweep``
(``verification.ALL_PAIRS``), the fixed-subspace dimension of each pair,
the structure JSON of each pair whose space has a slot map, and the names
of the verification rows.  It was run once at a commit where
``verify-paper`` passes every row; it refuses to write if any row fails.
Run it again only when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import sys

from common import REFERENCE_PATH, pair_key


def main() -> int:
    from symtensor.characters import fix_dimension
    from symtensor.groups import resolve_group
    from symtensor.projector import structure_report
    from symtensor.spaces import SPACES
    from symtensor.verification import ALL_PAIRS, run_rows
    from symtensor.voigt import STRUCTURE_MAPS

    rows = list(run_rows())
    failed = [row.name for row, result in rows if not result.ok]
    if failed:
        print(f"refusing to record: {len(failed)} verification rows fail, e.g. {failed[0]!r}",
              file=sys.stderr)
        return 1
    dims, structures = {}, {}
    for space, group in ALL_PAIRS:
        sp = SPACES[space]
        g = resolve_group(group, sp.n)
        dims[pair_key(space, group)] = fix_dimension(sp, g)
        if space in STRUCTURE_MAPS:
            structures[pair_key(space, group)] = structure_report(sp, g).to_json()
    reference = {"pairs": [list(p) for p in ALL_PAIRS], "dims": dims,
                 "structures": structures, "rows": [row.name for row, _ in rows]}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH.name}: {len(dims)} pairs, {len(structures)} structures, "
          f"{len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())

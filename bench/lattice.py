"""Generator for the ``lattice-hole-verify`` input documents.

Each document is a 9×9 square lattice, the ambient graph, with edge weights
drawn uniformly from [0.9, 1.1]; the central 2×2 block is left out of the
kept set.  That leaves 77 kept vertices, 8 of them on the boundary of the
hole.  The ambient graph is neither a path nor complete, so heatpar takes
its ambient-spectral branch on these documents.  One workload seed gives
``COUNT`` documents, drawn from the seed and the document's index.

    python3 bench/lattice.py --seed 1 --out DIR     # writes DIR/lattice_hole_s1_0.json ...
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

SIDE = 9
HOLE = (3, 4)  # rows and columns of the 2×2 block left out
# narrow enough that the kernel's deviation from the reference, which the
# weights next to the hole set, moves by a few percent from seed to seed
WEIGHT_RANGE = (0.9, 1.1)
COUNT = 4  # documents per seed


def _name(r: int, c: int) -> str:
    return f"{r}_{c}"


def lattice_hole_document(seed: int, index: int = 0) -> dict:
    """One document as a dict; the same seed and index give the same document."""
    rng = np.random.default_rng([seed, index])
    cells = [(r, c) for r in range(SIDE) for c in range(SIDE)]
    hole = {(r, c) for r in HOLE for c in HOLE}
    edges = []
    for r, c in cells:
        for r2, c2 in ((r, c + 1), (r + 1, c)):
            if r2 < SIDE and c2 < SIDE:
                edges.append([_name(r, c), _name(r2, c2), float(rng.uniform(*WEIGHT_RANGE))])
    return {
        "vertices": [_name(r, c) for r, c in cells if (r, c) not in hole],
        "ambient": {
            "vertices": [_name(r, c) for r, c in cells if (r, c) in hole],
            "edges": edges,
            "removed": [],
            "frontier": [],
        },
    }


def write_documents(seed: int, out_dir: str) -> list[str]:
    """Write the seed's documents into ``out_dir`` and return their paths."""
    paths = []
    for index in range(COUNT):
        path = os.path.join(out_dir, f"lattice_hole_s{seed}_{index}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(lattice_hole_document(seed, index), f, indent=1)
            f.write("\n")
        paths.append(path)
    return paths


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write the document into")
    a = ap.parse_args()
    print("\n".join(write_documents(a.seed, a.out)))

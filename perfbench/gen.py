"""Seeded benchmark inputs, written with the benchmark's own numpy code.

The program under test sees only the files these functions write. Every
function is a pure function of its arguments, so one workload seed always
gives the same inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def planted_partition_edges(
    num_units: int, block_size: int, num_edges: int, intra_fraction: float, seed: int
) -> np.ndarray:
    """Sample a planted-partition graph in O(E) time and memory.

    ``intra_fraction`` of the ``num_edges`` sampled pairs join two members of
    one block, the rest join units of different blocks. Self-loops and
    duplicate pairs are dropped, so slightly fewer edges come back. Unit ids
    are permuted and the edges shuffled, so neither the file order nor the
    ids reveal the blocks. Returns an ``(E, 2)`` array with ``i < j`` rows.
    """
    rng = np.random.default_rng(seed)
    num_blocks = num_units // block_size
    n_intra = int(round(num_edges * intra_fraction))
    n_inter = num_edges - n_intra

    block = rng.integers(0, num_blocks, size=n_intra)
    intra = block[:, None] * block_size + rng.integers(0, block_size, size=(n_intra, 2))

    a = rng.integers(0, num_units, size=n_inter)
    # Shift b's block by 1..num_blocks-1 so the pair always crosses blocks.
    shift = rng.integers(1, num_blocks, size=n_inter) * block_size
    b = (a // block_size * block_size + shift) % num_units + rng.integers(0, block_size, size=n_inter)
    inter = np.column_stack([a, b])

    edges = np.concatenate([intra, inter])
    edges = edges[edges[:, 0] != edges[:, 1]]
    perm = rng.permutation(num_units)
    edges = np.sort(perm[edges], axis=1)
    keys = np.unique(edges[:, 0] * num_units + edges[:, 1])
    edges = np.column_stack([keys // num_units, keys % num_units])
    return edges[rng.permutation(len(edges))]


def write_edge_list(edges: np.ndarray, num_units: int, path: Path) -> None:
    """Write the ``N=<int>`` header and one ``i j`` line per edge."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N={num_units}\n")
        np.savetxt(fh, edges, fmt="%d %d")


def linear_outcomes(
    edges: np.ndarray, num_units: int, treatment: np.ndarray, gamma: float, seed: int
) -> np.ndarray:
    """Outcomes ``z_i + gamma * (treated share of i's neighbours) + N(0, 1)``."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    degree = np.bincount(src, minlength=num_units)
    treated = np.bincount(src, weights=treatment[dst], minlength=num_units)
    share = np.divide(treated, degree, out=np.zeros(num_units), where=degree > 0)
    noise = np.random.default_rng(seed).standard_normal(num_units)
    return treatment + gamma * share + noise


def write_outcomes(y: np.ndarray, path: Path) -> None:
    """Write ``unit_id,y`` with every digit a double needs to round-trip."""
    table = np.column_stack([np.arange(len(y)), y])
    np.savetxt(path, table, fmt=["%d", "%.17g"], delimiter=",", header="unit_id,y", comments="")

"""Potential-outcome models and observed-outcome realization.

Two outcome sources feed the estimators: fixed potential tables, where each
unit's outcome depends only on its own treatment, and a linear interference
model, where a unit also responds to the treated fraction of its neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._errors import ValidationError, check_fields, check_seed
from ._table import FLOAT, ID, read_id_table

if TYPE_CHECKING:
    from .graph import Graph


@dataclass(frozen=True)
class PotentialTable:
    """Fixed per-unit outcomes ``y1[i]`` under treatment and ``y0[i]`` under control."""

    y1: np.ndarray
    y0: np.ndarray

    def __post_init__(self) -> None:
        y1 = np.asarray(self.y1, dtype=np.float64)
        y0 = np.asarray(self.y0, dtype=np.float64)
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y0", y0)
        if y1.shape != y0.shape or y1.ndim != 1 or y1.size == 0:
            raise ValidationError("y1 and y0 must be equal-length non-empty vectors")
        if not (np.all(np.isfinite(y1)) and np.all(np.isfinite(y0))):
            raise ValidationError("potential outcomes must be finite")
        y1.setflags(write=False)
        y0.setflags(write=False)

    @property
    def num_units(self) -> int:
        return len(self.y1)

    @classmethod
    def constant_effect(cls, y0: np.ndarray, tau: float) -> "PotentialTable":
        y0 = np.asarray(y0, dtype=np.float64)
        return cls(y1=y0 + tau, y0=y0)


@dataclass(frozen=True)
class LinearInterferenceModel:
    """Outcome model ``y_i = alpha + beta * z_i + gamma * r_i + noise``.

    ``r_i`` is the treated fraction of unit i's neighborhood (0 for isolated
    units), so ``gamma`` carries all interference: the model satisfies the
    no-interference assumption exactly when ``gamma == 0``. Noise is i.i.d.
    normal with standard deviation ``noise_sd``.
    """

    alpha: float
    beta: float
    gamma: float
    noise_sd: float
    graph: "Graph"

    def __post_init__(self) -> None:
        check_fields(self, "model")
        if self.noise_sd < 0:
            raise ValidationError("noise_sd must be non-negative")

    @property
    def num_units(self) -> int:
        return self.graph.num_units

    def treated_neighbor_fractions(self, z: np.ndarray) -> np.ndarray:
        """Per-unit treated fraction of the neighborhood under assignment ``z``.

        ``z`` holds one 0/1 treatment per unit, or is an ``(R, N)`` stack of
        such rows; the result has the shape of ``z``. Isolated units get 0.

        One pass counts the treated neighbors of many rows at once. Each row
        gets a lane of ``bits = max degree .bit_length()`` bits in a 64-bit
        word, so a count never carries into the next lane, and each unit
        packs ``64 // bits`` rows into one word. Each word of rows then costs
        one gather over the adjacency and one segmented sum over the rows of
        units with at least one neighbor, O(N + E); the counts are exact, so
        every row equals its own one-row result bit for bit.

        Raises:
            ValidationError: If a row of ``z`` does not match the graph's
                length or holds a value other than 0 and 1.
        """
        z = np.asarray(z)
        rows = _assignment_rows(z, self.graph.num_units, "graph")
        nz, starts, deg = self._neighbor_rows
        out = np.zeros(rows.shape)
        if len(deg):
            # Every shift and mask operand is uint64: numpy 1.24 turns uint64
            # mixed with int64 into float64, which cannot be shifted.
            bits = int(deg.max()).bit_length()
            lanes = 64 // bits
            shifts = np.arange(lanes, dtype=np.uint64) * np.uint64(bits)
            mask = np.uint64((1 << bits) - 1)
            for first in range(0, len(rows), lanes):
                block = rows[first : first + lanes].astype(np.uint64)
                lane = shifts[: len(block), None]
                packed = (block << lane).sum(axis=0, dtype=np.uint64)
                counts = np.add.reduceat(packed[self.graph.adjacency_indices], starts)
                out[first : first + lanes, nz] = ((counts >> lane) & mask) / deg
        return out.reshape(z.shape)

    @cached_property
    def _neighbor_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ids of the units with a neighbor, where their adjacency rows
        start, and their degrees; the same for every assignment, so built once.

        reduceat returns an element, not 0, for an empty row and rejects a
        start past the end, so only non-empty rows start a segment. The ids
        are integers, not a boolean mask: writing a stack's rows through them
        took 46 us against 57 us for 8 rows at N = 4000.
        """
        deg = self.graph.degrees
        nz = np.flatnonzero(deg > 0)
        rows = (nz, self.graph.adjacency_indptr[:-1][nz], deg[nz])
        for arr in rows:
            arr.setflags(write=False)
        return rows


def _assignment_rows(z: np.ndarray, num_units: int, source: str) -> np.ndarray:
    """The ``(R, N)`` view of one 0/1 assignment row or of a stack of them;
    any other shape or value raises ValidationError."""
    rows = z[None] if z.ndim == 1 else z
    if rows.ndim != 2 or rows.shape[1] != num_units:
        raise ValidationError(f"assignment length does not match the {source}")
    if not np.all((rows == 0) | (rows == 1)):
        raise ValidationError("assignment must hold only 0 and 1")
    return rows


def realize_sutva(table: PotentialTable, z: np.ndarray) -> np.ndarray:
    """Select each unit's outcome by its own treatment: ``z_i ? y1_i : y0_i``.

    ``z`` holds one 0/1 treatment per unit, or is an ``(R, N)`` stack of
    such rows. Returns a read-only float64 array of the shape of ``z``,
    selected in one pass, so row r of a stack is the one-row call on
    ``z[r]`` bit for bit. Raises ValidationError if a row of ``z`` does not
    match the table's length or holds a value other than 0 and 1.
    """
    z = np.asarray(z)
    _assignment_rows(z, table.num_units, "potential table")
    y = np.where(z == 1, table.y1, table.y0)
    y.setflags(write=False)
    return y


def realize_linear(
    model: LinearInterferenceModel,
    z: np.ndarray,
    seed: int | np.random.SeedSequence | Sequence[int | np.random.SeedSequence] = 0,
) -> np.ndarray:
    """Draw outcomes from the linear interference model; deterministic per seed.

    ``z`` holds one 0/1 treatment per unit, with one ``seed``; or it is an
    ``(R, N)`` stack of such rows, with a sequence of R seeds, one per row.
    Returns a read-only float64 array of the shape of ``z``: one outcome per
    unit and row. Row r of a stack equals the one-row call on ``z[r]`` with
    ``seed[r]``, bit for bit: the neighbor counts of the whole stack come
    from one lane-packed pass (see
    :meth:`LinearInterferenceModel.treated_neighbor_fractions`), and each
    row's noise from its own generator. A noise-free model draws nothing
    from ``seed``.

    Raises:
        ValidationError: If ``z`` does not match the graph, or a noisy
            model gets a stack without one seed per row, or a seed that is
            neither a non-negative integer nor a ``SeedSequence``.
    """
    z = np.asarray(z)
    fractions = model.treated_neighbor_fractions(z)
    # alpha + beta * z + gamma * fractions, built in one array: the same
    # operations on the same operands as the expression, so the same bits.
    y = z.astype(np.float64)
    y *= model.beta
    y += model.alpha
    fractions *= model.gamma
    y += fractions
    if model.noise_sd > 0:
        if z.ndim == 1:
            seeds = [seed]
        elif np.ndim(seed) == 1 and len(seed) == len(z):
            seeds = seed
        else:
            raise ValidationError(f"a stack of {len(z)} assignments needs one seed per row")
        # One reused row, not an (R, N) array of noise.
        noise = np.empty(model.num_units)
        for row, s in zip(y.reshape(-1, model.num_units), seeds):
            if not isinstance(s, np.random.SeedSequence):
                check_seed(s)
            np.random.default_rng(s).standard_normal(out=noise)
            noise *= model.noise_sd
            row += noise
    y.setflags(write=False)
    return y


def load_outcomes(path: str | Path) -> np.ndarray:
    """Read a ``unit_id,y`` CSV into a dense vector indexed by unit id.

    Rows may come in any order; see ``_table`` for the accepted text.

    Raises:
        ValidationError: On a malformed field, a duplicated ``unit_id``, a
            non-finite outcome, or unit ids that are not contiguous from 0.
    """
    return read_id_table(path, {"unit_id": ID, "y": FLOAT}, empty="no outcomes")["y"]

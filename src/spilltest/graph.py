"""Immutable undirected graphs, block-model generation, and neighborhood queries.

The graph is the substrate every other module reads: unit ids are dense
integers ``0..N-1``, adjacency is stored in compressed sparse row form with
sorted neighbor lists so that iteration order is deterministic.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ._errors import ParseError, ValidationError, build_record, check_fields, check_seed, read_json

if TYPE_CHECKING:
    from .partition import Clustering

# Refuse block models whose units plus expected edges pass this point: a
# build peaks near 85 bytes per edge, so this is about 9 GB.
_MAX_UNITS_PLUS_EDGES = 100_000_000

# Only ASCII spaces and tabs may pad the "=", as between the ids of an edge.
_HEADER_RE = re.compile(r"^N[ \t]*=[ \t]*([0-9]+)$")
_UNIT_ID_RE = re.compile(r"[+-]?[0-9]+")
# The bytes an edge line may hold; a line with any other byte is a comment,
# a header or an error.
_EDGE_BYTES = np.zeros(256, dtype=bool)
_EDGE_BYTES[list(b"0123456789+-, \t\n")] = True
_INT64 = np.iinfo(np.int64)


class Graph:
    """Undirected simple graph: no self-loops, no parallel edges, symmetric.

    Instances are immutable after construction and safe to share across
    concurrent workers. Build one with :meth:`from_edges` or
    :func:`load_edge_list`.
    """

    __slots__ = ("_indptr", "_indices", "_sources")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        # Internal constructor: callers are expected to pass validated CSR
        # arrays (sorted, symmetric, simple). Use from_edges() instead.
        self._indptr = indptr
        self._indices = indices
        self._sources = None
        indptr.setflags(write=False)
        indices.setflags(write=False)

    @classmethod
    def from_edges(cls, num_units: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "Graph":
        """Build a graph from an edge list, deduplicating and symmetrizing.

        Args:
            num_units: Number of units N; all ids must lie in ``[0, N)``.
            edges: Iterable of ``(i, j)`` pairs or an ``(E, 2)`` integer array.

        Raises:
            ValidationError: On N < 1, out-of-range ids, or self-loops.
        """
        if num_units < 1:
            raise ValidationError(f"graph needs at least one unit, got N={num_units}")
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError("edges must be pairs of unit ids")
        if arr.size and arr.min() < 0:
            raise ValidationError("negative unit id in edge list")
        if arr.size and arr.max() >= num_units:
            raise ValidationError(f"unit id {int(arr.max())} out of range for N={num_units}")
        if arr.size and np.any(arr[:, 0] == arr[:, 1]):
            bad = int(arr[arr[:, 0] == arr[:, 1]][0, 0])
            raise ValidationError(f"self-loop on unit {bad}")
        return cls._from_valid_pairs(num_units, arr)

    @classmethod
    def _from_valid_pairs(cls, num_units: int, arr: np.ndarray) -> "Graph":
        # Symmetrize, deduplicate, and pack into CSR with sorted rows. A sort
        # and an adjacent-difference mask give np.unique's keys, much faster.
        if arr.size:
            i, j = arr[:, 0], arr[:, 1]
            keys = np.sort(np.concatenate([i * num_units + j, j * num_units + i]))
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            src, dst = np.divmod(keys, num_units)
        else:
            src = dst = np.empty(0, dtype=np.int64)
        counts = np.bincount(src, minlength=num_units)
        indptr = np.zeros(num_units + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst)

    @property
    def num_units(self) -> int:
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self._indices) // 2

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of unit ``i`` (read-only view)."""
        if not 0 <= i < self.num_units:
            raise ValidationError(f"unit id {i} out of range for N={self.num_units}")
        return self._indices[self._indptr[i] : self._indptr[i + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    @property
    def adjacency_indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def adjacency_indices(self) -> np.ndarray:
        return self._indices

    @property
    def adjacency_sources(self) -> np.ndarray:
        """Source unit of every entry of :attr:`adjacency_indices` (cached,
        read-only): ``np.repeat(np.arange(N), degrees)``."""
        if self._sources is None:
            sources = np.repeat(np.arange(self.num_units), self.degrees)
            sources.setflags(write=False)
            self._sources = sources
        return self._sources

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(E, 2)`` array with ``i < j`` rows."""
        src = self.adjacency_sources
        mask = src < self._indices
        return np.column_stack([src[mask], self._indices[mask]])

    def __repr__(self) -> str:
        return f"Graph(num_units={self.num_units}, num_edges={self.num_edges})"


@dataclass(frozen=True)
class SbmSpec:
    """Parameters of a balanced stochastic block model.

    ``num_blocks * block_size`` units are split into equal blocks; each
    unordered pair is an edge independently with probability ``p_intra``
    inside a block and ``p_inter`` across blocks.
    """

    num_blocks: int
    block_size: int
    p_intra: float
    p_inter: float
    seed: int

    def __post_init__(self) -> None:
        check_fields(self, "block-model spec")
        check_seed(self.seed, "block-model spec seed")
        if self.num_blocks < 1 or self.block_size < 1:
            raise ValidationError("num_blocks and block_size must be positive")
        if self.num_units > _MAX_UNITS_PLUS_EDGES:  # its pair count might pass the float range
            raise ValidationError(f"refusing a block model of {self.num_units} units (limit {_MAX_UNITS_PLUS_EDGES})")
        for name in ("p_intra", "p_inter"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name}={p} is not a probability")

    @property
    def num_units(self) -> int:
        return self.num_blocks * self.block_size

    @classmethod
    def from_json(cls, text: str | bytes) -> "SbmSpec":
        return build_record(cls, read_json(text, "block-model spec"), "block-model spec")


def generate_sbm(spec: SbmSpec) -> tuple[Graph, "Clustering"]:
    """Sample a stochastic block model and its ground-truth block clustering.

    Only the edges are drawn, by geometric skipping (Batagelj & Brandes,
    Phys. Rev. E 71, 036113, 2005), so a call costs O(N + E) time and memory
    rather than one coin per unit pair. The pairs ``i < j`` of each class
    (intra-block, then inter-block) are numbered row by row, and the gaps
    between kept slots are geometric draws; each pair is still an
    independent Bernoulli draw with its class's probability.

    Deterministic given ``spec.seed``: one generator draws the intra-block
    gaps and then the inter-block gaps, in that fixed order. Returns the graph
    together with the block map as a :class:`~spilltest.partition.Clustering`.

    Raises:
        ValidationError: When N plus the expected edge count exceeds
            100 million.
    """
    from .partition import Clustering

    n, s = spec.num_units, spec.block_size
    intra_pairs = spec.num_blocks * (s * (s - 1) // 2)
    inter_pairs = n * (n - 1) // 2 - intra_pairs
    expected = intra_pairs * spec.p_intra + inter_pairs * spec.p_inter
    if n + expected > _MAX_UNITS_PLUS_EDGES:
        raise ValidationError(
            f"refusing a block model of {n} units and {expected:.3g} expected edges "
            f"(limit {_MAX_UNITS_PLUS_EDGES} in all)"
        )
    rng = np.random.default_rng(spec.seed)
    rows = np.arange(n, dtype=np.int64)
    block_end = (rows // s + 1) * s
    # Unit i owns the candidates j > i of each class, as one run of ids:
    # (i, block_end) inside its block, [block_end, n) after it.
    graph = Graph._from_valid_pairs(n, np.concatenate([
        _kept_pairs(rng, spec.p_intra, rows + 1, block_end - rows - 1),
        _kept_pairs(rng, spec.p_inter, block_end, n - block_end),
    ]))
    assignment = np.repeat(np.arange(spec.num_blocks, dtype=np.int64), s)
    return graph, Clustering.from_assignment(assignment)


def _kept_pairs(rng: np.random.Generator, p: float, first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each pair ``(i, first[i] + k)``, ``0 <= k < count[i]``, kept with
    probability ``p``, as an ``(E, 2)`` array in row-major order."""
    starts = np.zeros(len(count) + 1, dtype=np.int64)
    np.cumsum(count, out=starts[1:])
    slots = _bernoulli_slots(rng, p, int(starts[-1]))
    owner = np.repeat(np.arange(len(count)), np.diff(np.searchsorted(slots, starts)))
    return np.column_stack([owner, first[owner] + slots - starts[owner]])


def _bernoulli_slots(rng: np.random.Generator, p: float, total: int) -> np.ndarray:
    """Sorted indices of the successes among ``total`` Bernoulli(p) trials.

    Draws the gaps between successes in batches sized to finish in one batch
    about every time. Each gap is clipped just past the last slot, which ends
    the loop and keeps the cumulative sum in int64 (numpy returns the int64
    maximum as the gap for a tiny ``p``).
    """
    if p <= 0.0 or total == 0:
        return np.empty(0, dtype=np.int64)
    found = []
    last = -1
    while last < total - 1:
        left = total - 1 - last
        mean = left * p
        size = min(int(mean + 4.0 * mean**0.5) + 16, _INT64.max // 2 // (left + 1))
        slots = last + np.cumsum(np.minimum(rng.geometric(p, size), left + 1))
        kept = slots[: np.searchsorted(slots, total)]
        found.append(kept)
        if len(kept) < size:
            break
        last = int(kept[-1])
    return np.concatenate(found)


def neighborhood_fractions(graph: Graph, clustering: "Clustering") -> np.ndarray:
    """Per-unit fraction of neighbors that share the unit's cluster.

    Isolated units have no neighborhood to average over; by convention they
    count as 0 ("no interference received"), which keeps the cluster-level
    mean well defined.
    """
    # An isolated unit has no same-cluster neighbor either: 0 / 1.
    return _same_cluster_counts(graph, clustering.assignment) / np.maximum(graph.degrees, 1)


def _same_cluster_counts(graph: Graph, assignment: np.ndarray) -> np.ndarray:
    """Per-unit count of neighbors in the unit's own cluster under
    ``assignment`` (one cluster id per unit), as int64."""
    src = graph.adjacency_sources
    same = assignment[src] == assignment[graph.adjacency_indices]
    return np.bincount(src[same], minlength=graph.num_units)


def load_edge_list(path: str | Path) -> Graph:
    """Read a graph from an edge-list file.

    The file is UTF-8 text in lines ended by LF, CRLF or CR. Each line, with
    surrounding ASCII whitespace stripped, is one of:

    - empty, or starting with ``#``: skipped;
    - ``N=<int>``, with optional ASCII spaces or tabs around ``=``: fixes the unit
      count N (the last such line wins; otherwise N is ``1 + max id``);
    - an edge: two unit ids separated by spaces, tabs or commas, where a
      comma counts as a space (``0,,1`` is an edge). A unit id is ASCII
      digits with an optional sign.

    An edge line holds no other character. Duplicate edges, in either
    direction, collapse to one.

    Raises:
        ParseError: A line that is none of these (message carries the line
            number).
        ValidationError: Negative ids, self-loops (with the line number), ids
            outside a declared N, no edges and no N=<int> header, N=0, or N
            plus the edge count above 100 million.
    """
    path = Path(path)
    data = path.read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    odd = np.flatnonzero(~_EDGE_BYTES[np.frombuffer(data, dtype=np.uint8)])
    declared_n: int | None = None
    if len(odd):
        # One step per line holding another byte (comments and headers);
        # each is blanked, so the bulk parse below skips it.
        blanked = bytearray(data)
        k = 0
        while k < len(odd):
            start = data.rfind(b"\n", 0, odd[k]) + 1
            end = data.find(b"\n", odd[k])
            end = len(data) if end < 0 else end
            try:
                line = data[start:end].strip().decode("utf-8")
            except UnicodeDecodeError:
                line = None
            header = _HEADER_RE.match(line) if line else None
            if header:
                declared_n = int(header.group(1))
            elif line is None or (line and not line.startswith("#")):
                raise _edge_list_error(path, data)
            blanked[start:end] = b" " * (end - start)
            k = int(np.searchsorted(odd, end))
        data = bytes(blanked)
    with warnings.catch_warnings():
        # Older numpy reads "1.0" into an integer column with a warning.
        warnings.simplefilter("error", DeprecationWarning)
        # A file without edges is handled below.
        warnings.simplefilter("ignore", UserWarning)
        try:
            pairs = np.loadtxt(
                io.BytesIO(data.replace(b",", b" ")), dtype=np.int64, comments=None, ndmin=2
            )
        except (ValueError, DeprecationWarning):
            raise _edge_list_error(path, data) from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.shape[1] != 2 or np.any(pairs < 0) or np.any(pairs[:, 0] == pairs[:, 1]):
        raise _edge_list_error(path, data)
    max_id = int(pairs.max()) if len(pairs) else -1
    if declared_n is None:
        if max_id < 0:
            raise ValidationError(f"{path}: no edges and no N=<int> header")
        num_units = max_id + 1
    else:
        if max_id >= declared_n:
            raise ValidationError(f"{path}: unit id {max_id} outside declared N={declared_n}")
        num_units = declared_n
    if num_units < 1:
        raise ValidationError(f"{path}: graph needs at least one unit, got N={num_units}")
    if num_units + len(pairs) > _MAX_UNITS_PLUS_EDGES:
        raise ValidationError(
            f"{path}: refusing a graph of {num_units} units and {len(pairs)} edges "
            f"(limit {_MAX_UNITS_PLUS_EDGES} in all)"
        )
    # Ids, self-loops and N are checked above, so the pairs go straight in.
    return Graph._from_valid_pairs(num_units, pairs)


def _edge_list_error(path: Path, data: bytes) -> ValidationError:
    """The error of the first line of ``data`` that :func:`load_edge_list`
    rejects, found by reading the lines one at a time."""
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.strip().decode("utf-8")
        except UnicodeDecodeError:
            return ParseError(f"{path}:{lineno}: line is not UTF-8 text")
        if not line or line.startswith("#") or _HEADER_RE.match(line):
            continue
        tokens = line.replace(",", " ").split()
        if len(tokens) != 2:
            return ParseError(f"{path}:{lineno}: expected two unit ids, got {line!r}")
        if not all(_UNIT_ID_RE.fullmatch(t) and _INT64.min <= int(t) <= _INT64.max for t in tokens):
            return ParseError(f"{path}:{lineno}: non-integer unit id in {line!r}")
        if not _EDGE_BYTES[np.frombuffer(raw, dtype=np.uint8)].all():
            return ParseError(f"{path}:{lineno}: unsupported separator in {line!r}")
        i, j = int(tokens[0]), int(tokens[1])
        if i < 0 or j < 0:
            return ValidationError(f"{path}:{lineno}: negative unit id in {line!r}")
        if i == j:
            return ValidationError(f"{path}:{lineno}: self-loop on unit {i}")
    return ParseError(f"{path}: malformed edge list")


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write a graph in the edge-list format read by :func:`load_edge_list`."""
    edges = graph.edge_array()
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"N={graph.num_units}\n")
        fh.write(("%d %d\n" * len(edges)) % tuple(edges.ravel().tolist()))

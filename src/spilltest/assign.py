"""The two-arm hierarchical randomization, its persisted form, and its checks.

A draw of the hierarchical design is three randomizations: clusters split
completely at random between two arms, then the units of one arm treated
completely at random (or by re-randomized Bernoulli coins), and whole
clusters of the other treated completely at random. ``_encode`` turns the
three 0/1 vectors into the two a draw is, as its saved file holds them:
each unit's arm and treatment, for one draw or a stack of enumerated ones.
Comparing the two arms' effect estimates is what powers the interference
test downstream. Drawing a stratified design and reloading it from saved
vectors split it into strata in one place, ``_per_stratum``, so both
refuse the same inputs.

Seeding discipline: a master seed expands into named substreams through
``numpy.random.SeedSequence.spawn`` — child 0 drives the cluster-to-arm
split, child 1 the individually randomized arm, child 2 the
cluster-randomized arm; stratified designs give each stratum its own spawned
child first. Substreams are independent, so redrawing one arm never perturbs
the other. A ``numpy.random.Generator`` given as the seed of
``hierarchical_assign`` drives all three randomizations in turn instead, and
is left advanced past them: consecutive calls on one generator are the
consecutive draws of a Monte Carlo study, with no substreams to spawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Literal, Sequence

import numpy as np

from ._errors import ValidationError, check_fields, check_seed
from ._table import BIT, ID, read_id_table, write_table
from .partition import Clustering, Stratification

ARM_CR = 1  # individually randomized arm
ARM_CBR = 0  # cluster-randomized arm

CrArmMechanism = Literal["complete", "bernoulli"]


def _seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    check_seed(seed)
    return np.random.SeedSequence(seed)


@dataclass(frozen=True)
class DesignCounts:
    """Arm and bucket sizes of a hierarchical design.

    ``n_*`` count units, ``m_*`` count clusters; the ``_t``/``_c`` suffixes
    split an arm into treated and control buckets. Balance (equal cluster
    sizes across arms) is part of the invariant because the analysis formulas
    assume these counts are constants.
    """

    n_cr: int
    n_cbr: int
    m_cr: int
    m_cbr: int
    n_cr_t: int
    n_cr_c: int
    m_cbr_t: int
    m_cbr_c: int

    def __post_init__(self) -> None:
        check_fields(self, "design count")
        for name, value in self.to_dict().items():
            if value < 1:
                raise ValidationError(f"design count {name}={value} must be >= 1")
        if self.n_cr_t + self.n_cr_c != self.n_cr:
            raise ValidationError("treated + control must equal the arm's unit count")
        if self.m_cbr_t + self.m_cbr_c != self.m_cbr:
            raise ValidationError("treated + control must equal the arm's cluster count")
        n, m = self.num_units, self.num_clusters
        if n % m != 0 or self.n_cr * m != n * self.m_cr or self.n_cbr * m != n * self.m_cbr:
            raise ValidationError(
                "unbalanced design: cluster size must equal n_cr/m_cr and n_cbr/m_cbr"
            )

    @property
    def num_units(self) -> int:
        return self.n_cr + self.n_cbr

    @property
    def num_clusters(self) -> int:
        return self.m_cr + self.m_cbr

    @property
    def cluster_size(self) -> int:
        return self.num_units // self.num_clusters

    @classmethod
    def symmetric(cls, num_units: int, num_clusters: int) -> "DesignCounts":
        """Default half/half design: equal arms, half treated within each arm.

        Odd counts anywhere are rejected rather than rounded; the variance
        formulas treat every count as a fixed constant.
        """
        if num_clusters % 2 != 0:
            raise ValidationError(f"symmetric design needs an even cluster count, got {num_clusters}")
        if num_units % num_clusters != 0:
            raise ValidationError(
                f"{num_units} units do not split evenly over {num_clusters} clusters"
            )
        m_arm = num_clusters // 2
        n_arm = num_units // 2
        if n_arm % 2 != 0:
            raise ValidationError(f"arm of {n_arm} units cannot be split half treated")
        if m_arm % 2 != 0:
            raise ValidationError(f"arm of {m_arm} clusters cannot be split half treated")
        return cls(
            n_cr=n_arm,
            n_cbr=n_arm,
            m_cr=m_arm,
            m_cbr=m_arm,
            n_cr_t=n_arm // 2,
            n_cr_c=n_arm // 2,
            m_cbr_t=m_arm // 2,
            m_cbr_c=m_arm - m_arm // 2,
        )

    def to_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class HierarchicalAssignment:
    """One draw of the two-arm design, with enough structure to analyze it.

    The draw is what ``save_assignment`` writes: ``unit_arm``, 1 on the
    individually randomized arm and 0 on the cluster-randomized arm and
    constant within clusters, and the 0/1 ``treatment``, constant within
    cluster-arm clusters.
    ``unit_ids`` maps back to global unit ids when the assignment covers a
    stratum rather than the whole population.
    """

    clustering: Clustering
    counts: DesignCounts
    unit_arm: np.ndarray
    treatment: np.ndarray
    provenance: str
    unit_ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.unit_ids is None:
            object.__setattr__(self, "unit_ids", self.clustering._unit_ids)
        for arr in (self.unit_arm, self.treatment, self.unit_ids):
            arr.setflags(write=False)


# What a randomization draws from: ``np.random.default_rng`` builds a
# generator from a seed and returns a given generator as it is.
RandomSource = int | np.random.SeedSequence | np.random.Generator


def _complete_randomization(num_units: int, n_t: int, seed: RandomSource) -> np.ndarray:
    """Treat exactly ``n_t`` of ``num_units`` units, uniformly at random."""
    if not 1 <= n_t <= num_units - 1:
        raise ValidationError(f"n_t={n_t} must leave both groups non-empty (N={num_units})")
    rng = np.random.default_rng(seed)
    z = np.zeros(num_units, dtype=np.int8)
    z[rng.choice(num_units, size=n_t, replace=False)] = 1
    return z


def _bernoulli_rerandomized(num_units: int, p: float, seed: RandomSource) -> np.ndarray:
    """Independent coin flips, redrawn until neither group is empty."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p={p} must lie strictly inside (0, 1)")
    rng = np.random.default_rng(seed)
    while True:
        z = (rng.random(num_units) < p).astype(np.int8)
        if 0 < int(z.sum()) < num_units:
            return z


def _require_balanced(clustering: Clustering, counts: DesignCounts | None = None) -> None:
    """Refuse unequal cluster sizes, and ``counts`` of another N or M."""
    if not clustering.is_balanced:
        raise ValidationError(
            "the design requires exactly equal cluster sizes; run rebalance() first "
            f"(sizes range {int(clustering.sizes.min())}..{int(clustering.sizes.max())})"
        )
    shape = (clustering.num_units, clustering.num_clusters)
    if counts is not None and (counts.num_units, counts.num_clusters) != shape:
        raise ValidationError("design counts do not match the clustering")


def _encode(
    clustering: Clustering, cluster_arm: np.ndarray, cr_z: np.ndarray, cbr_z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(unit_arm, treatment)`` of each cluster's arm, the 0/1 treatments of
    the unit arm's units and of the cluster arm's clusters, each in id order:
    one vector each for one draw, or one row per draw of a stack."""
    of = clustering.assignment
    # np.take along the last axis, not the equal ``cluster_arm[..., of]``:
    # the Ellipsis gather takes numpy's slow general indexing path. At
    # M = 200, N = 4000 one gather took 11.6 us against 4.8 us, and one draw
    # here 25.6 us against 15.5 us (numpy 2.4.6, one Xeon core).
    unit_arm = np.take(cluster_arm, of, axis=-1)
    cluster_z = np.zeros(cluster_arm.shape, dtype=np.int8)
    cluster_z[cluster_arm == ARM_CBR] = cbr_z.ravel()
    treatment = np.take(cluster_z, of, axis=-1)
    treatment[unit_arm == ARM_CR] = cr_z.ravel()
    return unit_arm, treatment


def _hierarchical_from_streams(
    clustering: Clustering,
    counts: DesignCounts,
    arm_stream: RandomSource,
    cr_stream: RandomSource,
    cbr_stream: RandomSource,
    cr_arm_mechanism: CrArmMechanism,
    provenance: str,
    unit_ids: np.ndarray | None = None,
) -> HierarchicalAssignment:
    # Each randomization draws from its stream, in this order; given three
    # streams, redrawing one cannot shift another's outcome.
    _require_balanced(clustering, counts)
    cluster_arm = _complete_randomization(counts.num_clusters, counts.m_cr, arm_stream)
    if cr_arm_mechanism == "complete":
        cr_z = _complete_randomization(counts.n_cr, counts.n_cr_t, cr_stream)
    elif cr_arm_mechanism == "bernoulli":
        cr_z = _bernoulli_rerandomized(counts.n_cr, counts.n_cr_t / counts.n_cr, cr_stream)
        # The coins treat a random number of units; the draw carries the
        # counts it realized, which the analysis checks its buckets against.
        n_cr_t = int(cr_z.sum())
        counts = replace(counts, n_cr_t=n_cr_t, n_cr_c=counts.n_cr - n_cr_t)
    else:
        raise ValidationError(f"unknown mechanism {cr_arm_mechanism!r}")
    cbr_z = _complete_randomization(counts.m_cbr, counts.m_cbr_t, cbr_stream)
    unit_arm, treatment = _encode(clustering, cluster_arm, cr_z, cbr_z)
    return HierarchicalAssignment(
        clustering=clustering,
        counts=counts,
        unit_arm=unit_arm,
        treatment=treatment,
        provenance=provenance,
        unit_ids=unit_ids,
    )


def hierarchical_assign(
    clustering: Clustering,
    counts: DesignCounts,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
    cr_arm_mechanism: CrArmMechanism = "complete",
) -> HierarchicalAssignment:
    """Draw the two-arm design: cluster arm split, then within-arm treatment.

    Clusters go to the individually randomized arm uniformly at random
    (``counts.m_cr`` of them). Conditional on the split, that arm's units are
    treated by complete randomization (or re-randomized Bernoulli with the
    matching treated fraction, after which the draw's ``counts`` hold the
    realized ``n_cr_t``/``n_cr_c``), and the other arm's clusters are split
    ``m_cbr_t`` treated / ``m_cbr_c`` control uniformly.

    An integer or ``SeedSequence`` seed spawns three substreams, one per
    randomization, and the provenance reads ``seed=<seed>``. A
    ``numpy.random.Generator`` draws the split, then the two within-arm
    randomizations, from itself, and is left advanced past them, so
    consecutive calls on one generator are independent draws of the design
    with no per-draw seeding cost; the provenance reads ``generator``.

    Raises:
        ValidationError: Unbalanced clustering (the analysis requires exactly
            equal cluster sizes) or counts inconsistent with it.
    """
    if isinstance(seed, np.random.Generator):
        return _hierarchical_from_streams(clustering, counts, seed, seed, seed, cr_arm_mechanism, "generator")
    return _hierarchical_from_streams(
        clustering, counts, *_seed_sequence(seed).spawn(3), cr_arm_mechanism, f"seed={seed}"
    )


def _sub_clustering(clustering: Clustering, stratification: Stratification) -> list[tuple]:
    """``(sub, unit_ids, cluster_ids)`` of each stratum, its global ids in id
    order and ``sub`` labeling a cluster by its rank among them, from one
    stable sort of the clusters by stratum and one of the units. The clusters
    must be of equal size: the unit cuts are the cluster cuts times it."""
    of, sizes = clustering.assignment, stratification.strata_sizes
    cluster_ids = np.argsort(stratification.stratum_of, kind="stable")
    unit_ids = np.argsort(stratification.stratum_of[of], kind="stable")
    rank = np.empty_like(cluster_ids)
    rank[cluster_ids] = np.arange(len(cluster_ids)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cuts = np.cumsum(sizes)[:-1]
    units = np.split(unit_ids, cuts * clustering.sizes[0])
    return [(Clustering(rank[of[u]]), u, c) for u, c in zip(units, np.split(cluster_ids, cuts))]


def _per_stratum(
    clustering: Clustering,
    stratification: Stratification,
    build: Callable[[int, Clustering, np.ndarray, np.ndarray], HierarchicalAssignment],
) -> list[HierarchicalAssignment]:
    """``build(s, sub, unit_ids, cluster_ids)`` of each stratum ``s``, ``sub`` relabeled from 0."""
    listed, m = len(stratification.stratum_of), clustering.num_clusters
    if listed != m:
        raise ValidationError(f"stratification does not cover the clustering of {m} clusters: it lists {listed}")
    _require_balanced(clustering)
    out: list[HierarchicalAssignment] = []
    for s, (sub, unit_ids, cluster_ids) in enumerate(_sub_clustering(clustering, stratification)):
        try:
            out.append(build(s, sub, unit_ids, cluster_ids))
        except ValidationError as exc:
            raise ValidationError(f"stratum {s}: {exc}") from exc
    return out


def stratified_hierarchical_assign(
    clustering: Clustering,
    stratification: Stratification,
    counts: Sequence[DesignCounts] | None = None,
    seed: int | np.random.SeedSequence = 0,
    cr_arm_mechanism: CrArmMechanism = "complete",
) -> list[HierarchicalAssignment]:
    """Run an independent hierarchical draw inside every stratum.

    ``counts`` gives one :class:`DesignCounts` per stratum; ``None`` uses the
    symmetric default in each. Each stratum draws from its own spawned seed
    substream, so strata are mutually independent.

    Raises:
        ValidationError: Naming the first stratum whose design is infeasible,
            or both lengths when ``counts`` is not one per stratum.
    """
    if counts is not None and len(counts) != stratification.num_strata:
        raise ValidationError(f"got {len(counts)} design counts for {stratification.num_strata} strata")
    streams = _seed_sequence(seed).spawn(stratification.num_strata)

    def draw(s: int, sub: Clustering, unit_ids: np.ndarray, _: np.ndarray) -> HierarchicalAssignment:
        stratum_counts = DesignCounts.symmetric(sub.num_units, sub.num_clusters) if counts is None else counts[s]
        return _hierarchical_from_streams(
            sub, stratum_counts, *streams[s].spawn(3), cr_arm_mechanism, f"seed={seed}", unit_ids
        )

    return _per_stratum(clustering, stratification, draw)


def _unit_ids(assignments: Sequence[HierarchicalAssignment]) -> np.ndarray:
    """The unit ids of ``assignments``, one per stratum, in their order, once
    they are checked to be the design's units 0..N-1, each exactly once."""
    ids = np.concatenate([a.unit_ids for a in assignments])
    n = len(ids)
    if n and ids.min() < 0:
        raise ValidationError(f"unit id {int(ids.min())} is negative; unit ids run 0..N-1")
    covered = np.bincount(ids, minlength=n)
    for bad in (covered > 1, covered[:n] == 0):
        if bad.any():
            u = int(np.argmax(bad))
            raise ValidationError(f"unit {u} is in {int(covered[u])} strata, not exactly one")
    return ids


def save_assignment(
    assignments: HierarchicalAssignment | Sequence[HierarchicalAssignment], path: str | Path
) -> None:
    """Persist as CSV with columns ``unit_id,arm,treatment`` (arm: cr | cbr),
    one row per unit in id order; the strata must hold units 0..N-1 once each."""
    if isinstance(assignments, HierarchicalAssignment):
        assignments = [assignments]
    units = _unit_ids(assignments)
    position = np.empty_like(units)
    position[units] = np.arange(len(units))
    arms = np.concatenate([a.unit_arm for a in assignments])[position]
    treatment = np.concatenate([a.treatment for a in assignments])[position]
    write_table(
        path,
        ["unit_id", "arm", "treatment"],
        [list(range(len(units))), np.where(arms == ARM_CR, "cr", "cbr").tolist(), treatment.tolist()],
        "%d,%s,%d\r\n",
    )


def load_assignment_vectors(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read ``unit_id,arm,treatment`` into dense (unit_arm, treatment) vectors.

    Rows may come in any order; ``arm`` is ``cr`` or ``cbr`` and
    ``treatment`` is 0 or 1 (see ``_table`` for the accepted text).

    Raises:
        ValidationError: Naming the file, and the line and field at fault.
    """
    table = read_id_table(
        path,
        {"unit_id": ID, "arm": {"cr": ARM_CR, "cbr": ARM_CBR}, "treatment": BIT},
        empty="no assignments",
    )
    return table["arm"], table["treatment"]


def _require_covered(clustering: Clustering, unit_arm: np.ndarray, treatment: np.ndarray) -> None:
    """Refuse saved vectors of another length than the clustering's."""
    n = clustering.num_units
    for vector in (unit_arm, treatment):
        if len(vector) != n:
            raise ValidationError(f"assignment covers {len(vector)} units but the clustering has {n}")


def assignment_from_vectors(
    clustering: Clustering,
    unit_arm: np.ndarray,
    treatment: np.ndarray,
    unit_ids: np.ndarray | None = None,
    cluster_ids: np.ndarray | None = None,
) -> HierarchicalAssignment:
    """Reconstruct a hierarchical assignment from persisted arm/treatment bits.

    Validates the structural invariants: arms constant within clusters,
    treatment constant within cluster-randomized clusters, and both groups
    non-empty in each arm. For a stratum, ``unit_ids`` and ``cluster_ids``
    give the global ids of its units and clusters; errors name the latter.
    The assignment's provenance is ``loaded``.
    """
    _require_covered(clustering, unit_arm, treatment)
    _require_balanced(clustering)
    unit_arm = np.asarray(unit_arm, dtype=np.int8)
    treatment = np.asarray(treatment, dtype=np.int8)
    m = clustering.num_clusters
    of = clustering.assignment
    # Each cluster's value is that of one of its units (whichever the scatter
    # keeps); a cluster holds one value when no unit differs from it.
    cluster_arm = np.empty(m, dtype=np.int8)
    cluster_arm[of] = unit_arm
    cluster_treatment = np.empty(m, dtype=np.int8)
    cluster_treatment[of] = treatment
    differs = np.stack([unit_arm != cluster_arm[of], treatment != cluster_treatment[of]])
    mixed_arm, mixed_treatment = clustering.cluster_sums(differs) > 0
    cbr = cluster_arm == ARM_CBR
    mixed_treatment &= cbr
    bad = np.flatnonzero(mixed_arm | mixed_treatment)
    if len(bad):
        c = int(bad[0])
        name = c if cluster_ids is None else int(cluster_ids[c])
        if mixed_arm[c]:
            raise ValidationError(f"cluster {name} spans both arms; assignment is corrupt")
        raise ValidationError(f"cluster-randomized cluster {name} has mixed treatment")
    m_cr = int(np.count_nonzero(cluster_arm == ARM_CR))
    m_cbr = m - m_cr
    cr_mask = unit_arm == ARM_CR
    n_cr = int(np.count_nonzero(cr_mask))
    n_cr_t = int(treatment[cr_mask].sum())
    m_cbr_t = int(np.count_nonzero(cbr & (cluster_treatment == 1)))
    counts = DesignCounts(
        n_cr=n_cr,
        n_cbr=clustering.num_units - n_cr,
        m_cr=m_cr,
        m_cbr=m_cbr,
        n_cr_t=n_cr_t,
        n_cr_c=n_cr - n_cr_t,
        m_cbr_t=m_cbr_t,
        m_cbr_c=m_cbr - m_cbr_t,
    )
    return HierarchicalAssignment(
        clustering=clustering,
        counts=counts,
        unit_arm=unit_arm,
        treatment=treatment,
        provenance="loaded",
        unit_ids=unit_ids,
    )


def stratified_assignment_from_vectors(
    clustering: Clustering, stratification: Stratification, unit_arm: np.ndarray, treatment: np.ndarray
) -> list[HierarchicalAssignment]:
    """:func:`assignment_from_vectors` of each stratum, split and refused as
    :func:`stratified_hierarchical_assign` splits and refuses the design."""
    _require_covered(clustering, unit_arm, treatment)

    def load(_: int, sub: Clustering, unit_ids: np.ndarray, cluster_ids: np.ndarray) -> HierarchicalAssignment:
        return assignment_from_vectors(sub, unit_arm[unit_ids], treatment[unit_ids], unit_ids, cluster_ids)

    return _per_stratum(clustering, stratification, load)

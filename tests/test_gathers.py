"""The draw encoder's and the estimator kernel's gathers against the plain
numpy forms they replaced.

``assign._encode`` gathers with ``np.take(..., axis=-1)`` where it read
``cluster_arm[..., of]``, and ``estimate._bucket`` with ``np.compress`` of
the flattened arrays where it read ``values[mask]``: the same elements in
the same order, through numpy's faster paths. The reference forms below are
those plain forms. The tests hold both gathers to them, and every study kind
to its reference-form report, byte for byte. The CI step "Bundled ratio
study keeps its bits" runs the bundled ratio study both ways on each numpy
the package supports, through :func:`reference_forms`.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from spilltest import Clustering, DesignCounts, SbmSpec, ValidationError, assign, estimate, oracle
from spilltest.assign import ARM_CBR, ARM_CR, hierarchical_assign
from spilltest.oracle import enumerate_hierarchical_assignments
from spilltest.sim import SimConfig, run_study


def reference_encode(
    clustering: Clustering, cluster_arm: np.ndarray, cr_z: np.ndarray, cbr_z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``assign._encode`` with the Ellipsis gathers it used to make."""
    of = clustering.assignment
    unit_arm = cluster_arm[..., of]
    cluster_z = np.zeros(cluster_arm.shape, dtype=np.int8)
    cluster_z[cluster_arm == ARM_CBR] = cbr_z.ravel()
    treatment = cluster_z[..., of]
    treatment[unit_arm == ARM_CR] = cr_z.ravel()
    return unit_arm, treatment


def reference_bucket(values: np.ndarray, mask: np.ndarray, size: int) -> np.ndarray:
    """``estimate._bucket`` with the 2-D boolean gather it used to make."""
    if (np.add.reduce(mask, axis=1, dtype=np.int32) != size).any():
        raise ValidationError("assignment does not match its design counts")
    return values[mask].reshape(len(values), size)


@contextlib.contextmanager
def reference_forms():
    """Run the package with the reference forms wherever it calls the two
    gathers: draws, enumerations and the estimator kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assign, "_encode", reference_encode)
        patch.setattr(oracle, "_encode", reference_encode)
        patch.setattr(estimate, "_bucket", reference_bucket)
        yield


def _same(fast: tuple[np.ndarray, ...], reference: tuple[np.ndarray, ...]) -> None:
    for a, b in zip(fast, reference, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# 8 clusters of 3, two treated clusters in each arm: 27,720 enumerated draws.
CLUSTERS_OF_3 = Clustering(np.repeat(np.arange(8), 3))
COUNTS_OF_3 = DesignCounts(n_cr=12, n_cbr=12, m_cr=4, m_cbr=4, n_cr_t=2, n_cr_c=10, m_cbr_t=2, m_cbr_c=2)


def _encode_inputs(rows: int | None, seed: int = 0):
    # One draw's three randomizations, or a stack of ``rows`` draws'.
    rng = np.random.default_rng(seed)
    c = COUNTS_OF_3

    def subsets(n: int, k: int) -> np.ndarray:
        z = np.zeros((rows or 1, n), dtype=np.int8)
        for row in z:
            row[rng.choice(n, size=k, replace=False)] = 1
        return z if rows else z[0]

    return subsets(c.num_clusters, c.m_cr), subsets(c.n_cr, c.n_cr_t), subsets(c.m_cbr, c.m_cbr_t)


@pytest.mark.parametrize("rows", [None, 1, 8])
def test_encode_equals_the_ellipsis_gather(rows):
    args = _encode_inputs(rows)
    _same(assign._encode(CLUSTERS_OF_3, *args), reference_encode(CLUSTERS_OF_3, *args))


def test_encode_equals_the_ellipsis_gather_on_non_contiguous_arms():
    cluster_arm, cr_z, cbr_z = _encode_inputs(16, seed=1)
    for arms in (np.asfortranarray(cluster_arm), cluster_arm[::2]):
        assert not arms.flags.c_contiguous
        args = (arms, cr_z[: len(arms)], cbr_z[: len(arms)])
        _same(assign._encode(CLUSTERS_OF_3, *args), reference_encode(CLUSTERS_OF_3, *args))


def test_encode_equals_the_ellipsis_gather_on_the_enumerated_stack(monkeypatch):
    calls = []

    def spy(*args):
        calls.append((args, encode(*args)))
        return calls[-1][1]

    encode = oracle._encode
    monkeypatch.setattr(oracle, "_encode", spy)
    enumerate_hierarchical_assignments(CLUSTERS_OF_3, COUNTS_OF_3)
    ((args, fast),) = calls
    assert len(fast[0]) == 27_720
    _same(fast, reference_encode(*args))


def _buckets(values: np.ndarray, mask: np.ndarray, size: int) -> None:
    _same((estimate._bucket(values, mask, size),), (reference_bucket(values, mask, size),))


def test_bucket_equals_the_boolean_gather_on_one_row_views():
    a = hierarchical_assign(CLUSTERS_OF_3, COUNTS_OF_3, seed=5)
    y = np.random.default_rng(2).normal(size=24)
    treated = (a.unit_arm == ARM_CR) & a.treatment.astype(bool)
    # The kernel's one-row call reads a gathered copy; a plain view is one too.
    for values in (y[None, a.unit_ids], y[None]):
        _buckets(values, treated[None], COUNTS_OF_3.n_cr_t)


def test_bucket_equals_the_boolean_gather_on_stacks_of_eight():
    unit_arm, treatment = assign._encode(CLUSTERS_OF_3, *_encode_inputs(8, seed=3))
    y = np.random.default_rng(3).normal(size=(8, 24))
    cr, z = unit_arm == ARM_CR, treatment.astype(bool)
    _buckets(y, cr & z, COUNTS_OF_3.n_cr_t)
    _buckets(y, cr & ~z, COUNTS_OF_3.n_cr_c)


def test_bucket_equals_the_boolean_gather_on_the_enumerated_stack():
    unit_arm, treatment = enumerate_hierarchical_assignments(CLUSTERS_OF_3, COUNTS_OF_3)
    y = np.random.default_rng(4).normal(size=unit_arm.shape)
    cr, z = unit_arm == ARM_CR, treatment.astype(bool)
    _buckets(y, cr & z, COUNTS_OF_3.n_cr_t)
    _buckets(y, cr & ~z, COUNTS_OF_3.n_cr_c)


def test_bucket_equals_the_boolean_gather_on_non_contiguous_inputs():
    # ravel copies these, in row-major order as the boolean gather reads them.
    unit_arm, treatment = assign._encode(CLUSTERS_OF_3, *_encode_inputs(16, seed=6))
    treated = (unit_arm == ARM_CR) & treatment.astype(bool)
    wide = np.random.default_rng(6).normal(size=(16, 48))
    for values, mask in [
        (np.asfortranarray(wide[:, :24]), treated),
        (wide[:, ::2], treated),
        (wide[::2, 1::2], treated[::2]),
        (wide[:, :24], np.asfortranarray(treated)),
        (wide[::2, :24], treated[::2][:, ::-1]),
    ]:
        assert not (values.flags.c_contiguous and mask.flags.c_contiguous)
        _buckets(values, mask, COUNTS_OF_3.n_cr_t)


STUDIES = {
    # 64 clusters of 64 units stack 8 draws; 21 replications end on a part stack.
    "ratio": SimConfig(study="ratio", replications=21, seed=4, num_clusters=64, cluster_size=64),
    "type1": SimConfig(
        study="type1", replications=21, seed=5, num_clusters=64, cluster_size=64, effect_unit_sd=0.5
    ),
    "power": SimConfig(
        study="power",
        replications=40,
        seed=6,
        sbm=(
            SbmSpec(num_blocks=8, block_size=10, p_intra=0.4, p_inter=0.04, seed=2),
            SbmSpec(num_blocks=8, block_size=120, p_intra=0.05, p_inter=0.005, seed=3),
        ),
        gamma_grid=(0.0, 1.0),
    ),
}


@pytest.mark.parametrize("study", list(STUDIES))
def test_study_reports_keep_their_bits_under_the_reference_forms(study):
    cfg = STUDIES[study]
    shipped = run_study(cfg).to_csv()
    with reference_forms():
        reference = run_study(cfg).to_csv()
    assert shipped == reference

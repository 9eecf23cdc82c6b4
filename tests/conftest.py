from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from spilltest import Clustering, DesignCounts, Graph
from spilltest.assign import ARM_CBR
from spilltest.oracle import load_design

# One (criterion, passed, detail) entry per acceptance criterion, printed at
# the end of the run so the acceptance suite reads as a checklist.
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def record_criterion(num: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((num, passed, detail))
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'} - {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, passed, detail in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {num:>2}: {'PASS' if passed else 'FAIL'} - {detail}")


def fixture_path(name: str) -> Path:
    return Path(str(resources.files("spilltest").joinpath("fixtures", name)))


def bincount_fractions(graph: Graph, z) -> np.ndarray:
    """The weighted-bincount kernel that ``treated_neighbor_fractions`` used
    before its segmented sum, kept as the one-row reference it must match."""
    z = np.asarray(z, dtype=np.float64)
    deg = graph.degrees
    src = graph.adjacency_sources
    treated = np.bincount(src, weights=z[graph.adjacency_indices], minlength=graph.num_units)
    out = np.zeros(graph.num_units)
    nz = deg > 0
    out[nz] = treated[nz] / deg[nz]
    return out


def cluster_bits(a) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's arm, and its treatment (-1 on unit-arm clusters), read
    from every member of the draw ``a``; raises ValueError for a cluster
    that spans both arms or a cluster-arm cluster of mixed treatment."""
    m = a.clustering.num_clusters
    arm = np.empty(m, dtype=np.int8)
    treatment = np.full(m, -1, dtype=np.int8)
    for c in range(m):
        members = a.clustering.assignment == c
        (arm[c],) = np.unique(a.unit_arm[members])
        if arm[c] == ARM_CBR:
            (treatment[c],) = np.unique(a.treatment[members])
    return arm, treatment


@pytest.fixture(scope="session")
def cliquepair_graph() -> Graph:
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    edges += [(3, 4)]
    return Graph.from_edges(8, edges)


@pytest.fixture(scope="session")
def oracle_design():
    """The bundled 8-unit / 4-cluster verification design, read by the
    loader that ``spilltest oracle`` uses."""
    return load_design(fixture_path("oracle8.json"))


@pytest.fixture(scope="session")
def bound_design():
    """Smallest design where every variance bucket holds >= 2 members."""
    clustering = Clustering.from_assignment(np.repeat(np.arange(6), 2))
    counts = DesignCounts(
        n_cr=4, n_cbr=8, m_cr=2, m_cbr=4, n_cr_t=2, n_cr_c=2, m_cbr_t=2, m_cbr_c=2
    )
    return clustering, counts

import math

import numpy as np
import pytest

from gossipbandits.config import ConfigError
from gossipbandits.graph import (
    GraphTopology,
    build_comm_matrix,
    build_topology,
    check_assumption,
    compute_mixing_rounds,
    load_edge_list,
    _comm_entries,
)

from helpers import bfs_connected, qr_eigvalsh, random_connected_adjacency


def graph_family():
    fam = [build_topology(kind, n) for kind in ("ring", "star", "path", "complete")
           for n in (4, 9, 20)]
    rng = np.random.default_rng(0)
    fam += [build_topology("erdos_renyi", 12, p=0.4, rng=rng) for _ in range(3)]
    return fam


def test_ring_adjacency_is_cycle():
    topo = build_topology("ring", 4)
    assert np.array_equal(topo.degrees, np.full(4, 2.0))
    for i in range(4):
        assert set(topo.neighbors(i)) == {(i + 1) % 4, (i - 1) % 4}


def test_star_degrees():
    topo = build_topology("star", 20)
    assert topo.degrees[0] == 19
    assert np.array_equal(topo.degrees[1:], np.ones(19))


def test_erdos_renyi_connected_against_bfs_oracle():
    rng = np.random.default_rng(7)
    topo = build_topology("erdos_renyi", 6, p=0.5, rng=rng)
    assert bfs_connected(topo.adjacency)
    # resampling is deterministic given the stream
    rng2 = np.random.default_rng(7)
    topo2 = build_topology("erdos_renyi", 6, p=0.5, rng=rng2)
    assert np.array_equal(topo.adjacency, topo2.adjacency)


def test_erdos_renyi_retry_budget():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="topology.p.*retry budget"):
        build_topology("erdos_renyi", 30, p=0.01, rng=rng, max_retries=5)


def test_topology_validation():
    with pytest.raises(ValueError, match="at least 3"):
        build_topology("ring", 2)
    with pytest.raises(ValueError, match="n >= 2"):
        build_topology("path", 1)
    with pytest.raises(ValueError, match="connected"):
        GraphTopology(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        GraphTopology(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="diagonal"):
        GraphTopology(np.eye(2))


def test_edge_list_roundtrip(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# a triangle plus a tail\n0 1\n1 2\n2 0\n2 3\n")
    topo = load_edge_list(str(path))
    assert topo.n_nodes == 4
    assert topo.degrees[2] == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="expected 'u v'"):
        load_edge_list(str(bad))


def test_explicit_topologies_come_from_edge_files(tmp_path):
    with pytest.raises(ValueError, match="load_edge_list"):
        build_topology("explicit", 4)
    # an edge given twice, in either direction, is one edge
    path = tmp_path / "square.txt"
    path.write_text("0 1\n1 0\n1 2\n2 3\n3 0\n0 1\n")
    topo = load_edge_list(str(path), 4)
    assert topo.kind == "explicit"
    assert np.array_equal(topo.adjacency, build_topology("ring", 4).adjacency)
    for text, message in [("0 1\n2 3\n", f"edge file {path}: graph is not connected"),
                          ("0 1\n1 1\n", f"{path}:2: invalid edge (1, 1): labels must be "
                                          "nonnegative and distinct"),
                          ("0 1\n1 5\n", f"edge file {path} spans 6 nodes, but N = 4")]:
        path.write_text(text)
        with pytest.raises(ConfigError) as caught:
            load_edge_list(str(path), 4)
        assert str(caught.value) == message


def test_ring4_comm_matrix_exact():
    comm = build_comm_matrix(build_topology("ring", 4))
    expected = np.full((4, 4), 1 / 3.0) - np.eye(4) / 3.0
    expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 0.0
    expected += np.eye(4) / 3.0
    assert np.allclose(comm.entries, expected, atol=1e-15)
    assert np.allclose(np.sort(comm.eigenvalues), [-1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-12)
    assert abs(comm.lambda2_abs - 1 / 3) < 1e-12


def test_complete_graph_is_exact_averaging():
    comm = build_comm_matrix(build_topology("complete", 20))
    assert np.allclose(comm.entries, np.full((20, 20), 1 / 20.0), atol=1e-15)
    assert comm.lambda2_abs == 0.0


def test_row_stochasticity_on_ones_vector():
    for topo in graph_family():
        comm = build_comm_matrix(topo)
        ones = np.ones(topo.n_nodes)
        assert np.allclose(comm.entries @ ones, ones, atol=1e-12)


def test_caption_scheme_spectral_constants():
    # the construction P = I - L/(dmax+1) reproduces the reference figures
    ring = build_comm_matrix(build_topology("ring", 20))
    assert abs(ring.lambda2_abs - 0.9674) < 5e-4
    star = build_comm_matrix(build_topology("star", 20))
    assert abs(star.lambda2_abs - 0.9500) < 5e-4


def test_normalized_scheme_fails_on_irregular_graphs():
    with pytest.raises(ValueError, match="row sums"):
        build_comm_matrix(build_topology("star", 20), "normalized_laplacian")
    with pytest.raises(ValueError, match="row sums"):
        build_comm_matrix(build_topology("path", 3), "normalized_laplacian")
    # regular graph: fine, but a different spectrum than the caption scheme
    ring = build_comm_matrix(build_topology("ring", 20), "normalized_laplacian")
    assert abs(ring.entries.sum(axis=1) - 1).max() < 1e-12
    assert ring.lambda2_abs > 0.98


def test_check_assumption_diagnoses_row_sums():
    topo = build_topology("path", 3)
    entries = _comm_entries(topo, "normalized_laplacian")
    problems = check_assumption(entries, topo)
    assert any("row sums" in p for p in problems)


def test_comm_matrix_solves_its_spectrum_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    comm = build_comm_matrix(build_topology("ring", 8))
    assert calls == [(8, 8)]
    assert comm.problems == []


def test_mixing_rounds_reference_values():
    assert compute_mixing_rounds(20, 1 / 21, 0.9674) == 26
    assert compute_mixing_rounds(20, 1 / 21, 0.9500) == 21
    assert compute_mixing_rounds(20, 1 / 21, 0.0) == 1


def test_mixing_rounds_monotonicity():
    for l2_lo, l2_hi in ((0.3, 0.5), (0.5, 0.9), (0.9, 0.99)):
        assert compute_mixing_rounds(20, 0.1, l2_lo) <= compute_mixing_rounds(20, 0.1, l2_hi)
    for n_lo, n_hi in ((4, 8), (8, 20)):
        assert compute_mixing_rounds(n_lo, 0.1, 0.8) <= compute_mixing_rounds(n_hi, 0.1, 0.8)
    for eps_hi, eps_lo in ((0.5, 0.2), (0.2, 0.05)):
        assert compute_mixing_rounds(12, eps_hi, 0.8) <= compute_mixing_rounds(12, eps_lo, 0.8)


def test_mixing_rounds_domain():
    with pytest.raises(ValueError):
        compute_mixing_rounds(10, 1.5, 0.5)
    with pytest.raises(ValueError):
        compute_mixing_rounds(10, 0.1, 1.0)


def _ring_path_lambda2(kind, n):
    """|lambda2| of the gossip matrix I - L / 3 of a ring or path of n >= 4
    nodes, from the closed-form Laplacian spectra 2 - 2 cos(2 pi k / n) of
    the ring and 2 - 2 cos(pi k / n) of the path."""
    angle = (2.0 if kind == "ring" else 1.0) * math.pi / n
    return (1.0 + 2.0 * math.cos(angle)) / 3.0


def test_mixing_rounds_cap_never_binds_on_rings_and_paths():
    """compute_mixing_rounds stops at its deviation bound, not at its
    s * acosh <= 60 cap, on rings and paths of up to 1000 nodes at the
    default eps = 1/(4d+1): the returned S satisfies the bound."""
    for kind in ("ring", "path"):
        for n in (4, 9, 40, 101):
            comm = build_comm_matrix(build_topology(kind, n))
            assert abs(_ring_path_lambda2(kind, n) - comm.lambda2_abs) <= 1e-12
        for n in range(4, 1001):
            lam2 = _ring_path_lambda2(kind, n)
            for d in (2, 5):
                eps = 1.0 / (4 * d + 1)
                s = compute_mixing_rounds(n, eps, lam2)
                stretch = s * math.acosh(1.0 / lam2)
                assert n * math.sqrt(1.0 - 1.0 / n) / math.cosh(stretch) <= eps, (kind, n, d)


def test_comm_matrix_structure_invariants():
    for topo in graph_family():
        comm = build_comm_matrix(topo)
        entries = comm.entries
        assert np.abs(entries.sum(axis=1) - 1).max() <= 1e-9
        assert np.abs(entries - entries.T).max() <= 1e-12
        off = entries * (1 - topo.adjacency) * (1 - np.eye(topo.n_nodes))
        assert np.all(off == 0)
        assert comm.lambda2_abs < 1.0


def test_laplacian_scheme_smallest_eigenvalue_bound():
    for topo in graph_family():
        comm = build_comm_matrix(topo)
        dmax = topo.max_degree
        floor = (1.0 - dmax) / (1.0 + dmax)
        assert comm.eigenvalues.min() >= floor - 1e-12
        assert comm.eigenvalues.min() > -1.0


def test_eigenvalues_match_qr_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        adjacency = random_connected_adjacency(n, 0.5, rng)
        comm = build_comm_matrix(GraphTopology(adjacency))
        oracle = qr_eigvalsh(comm.entries)
        assert np.abs(np.sort(comm.eigenvalues) - oracle).max() < 1e-8

"""Graph topologies, doubly stochastic gossip matrices, and mixing horizons."""

from __future__ import annotations

import math
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .config import TOPOLOGY_KINDS, ConfigError

ER_RETRIES = 200  # erdos_renyi draws before build_topology gives up


def _is_connected(adjacency):
    """Breadth-first reachability from node 0, one frontier of nodes at a time."""
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


class GraphTopology:
    """Undirected connected graph over N nodes, stored as a dense 0/1 adjacency matrix.

    Construction validates symmetry, zero diagonal, 0/1 entries and connectivity;
    disconnected graphs are rejected, never repaired.
    """

    def __init__(self, adjacency, kind="explicit"):
        adjacency = np.array(adjacency, dtype=float)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adjacency.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if not np.array_equal(adjacency, adjacency.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adjacency) != 0):
            raise ValueError("adjacency must have zero diagonal (no self-loops)")
        if not np.all((adjacency == 0) | (adjacency == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        if not _is_connected(adjacency):
            raise ValueError("graph is not connected")
        self.adjacency = adjacency
        self.n_nodes = adjacency.shape[0]
        self.kind = kind

    @property
    def degrees(self):
        return self.adjacency.sum(axis=1)

    @property
    def max_degree(self):
        return float(self.degrees.max())


def build_topology(kind, n, p=None, rng=None):
    """Construct a connected topology of the requested kind; an explicit
    topology comes from its edge file (``load_edge_list``).

    erdos_renyi draws edges i.i.d. with probability ``p`` from ``rng`` and
    resamples until connected. After ``ER_RETRIES`` draws without a connected
    graph it raises a ``ConfigError`` naming ``topology.p``, too small for ``n``.
    """
    if kind == "explicit":
        raise ValueError("an explicit topology is read from its edge file by load_edge_list")
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(f"unknown topology kind {kind!r}")
    if n < 2:
        raise ValueError("build_topology needs n >= 2")
    if kind == "ring":
        if n < 3:
            raise ValueError("ring needs at least 3 nodes")
        a = np.roll(np.eye(n), 1, axis=1)
        a = a + a.T
    elif kind == "path":
        a = np.eye(n, k=1) + np.eye(n, k=-1)
    elif kind == "star":
        a = np.zeros((n, n))
        a[0, 1:] = a[1:, 0] = 1
    elif kind == "complete":
        a = np.ones((n, n)) - np.eye(n)
    else:  # erdos_renyi
        if p is None or not 0 < p <= 1:
            raise ValueError("erdos_renyi needs p in (0, 1]")
        if rng is None:
            raise ValueError("erdos_renyi needs a seeded rng")
        iu = np.triu_indices(n, k=1)
        for _ in range(ER_RETRIES):
            a = np.zeros((n, n))
            a[iu] = rng.random(len(iu[0])) < p
            a = a + a.T
            if _is_connected(a):
                break
        else:
            raise ConfigError(
                f"topology.p = {p} is too small for N = {n}: erdos_renyi retry budget "
                f"exhausted after {ER_RETRIES} draws without a connected graph"
            )
    return GraphTopology(a, kind=kind)


def load_edge_list(path, n=None):
    """Load an explicit topology from a plain-text edge list, one "u v" pair per line.

    Nodes are 0..max label. When ``n`` is given the list must span exactly n
    nodes. A malformed line, a label that is not a nonnegative integer, a
    self-loop, an empty list, a node-count mismatch and a disconnected graph
    (a label in no edge among them) are configuration errors naming the
    file (and the line, where there is one), and so is a file that cannot be
    read as UTF-8 text.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read edge file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: edge file is not UTF-8 text ({exc.reason})") from exc
    edges = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{line_no}"
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"{where}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(f"{where}: node labels must be integers, got {line!r}") from None
        if u < 0 or v < 0 or u == v:
            raise ConfigError(f"{where}: invalid edge ({u}, {v}): labels must be "
                              "nonnegative and distinct")
        edges.append((u, v))
    if not edges:
        raise ConfigError(f"{path}: no edges found")
    inferred = max(max(u, v) for u, v in edges) + 1
    if n is not None and n != inferred:
        raise ConfigError(f"edge file {path} spans {inferred} nodes, but N = {n}")
    labels = np.unique(edges)
    if labels.size < inferred:
        # rejected before the adjacency is allocated: a huge label would not fit
        missing = np.flatnonzero(labels != np.arange(labels.size))[0]
        raise ConfigError(f"edge file {path}: node {missing} is in no edge, "
                          "so the graph is not connected")
    a = np.zeros((inferred, inferred))
    rows, cols = np.array(edges).T
    a[rows, cols] = a[cols, rows] = 1
    try:
        return GraphTopology(a)
    except ValueError as exc:
        raise ConfigError(f"edge file {path}: {exc}") from None


def _comm_entries(topology):
    """P = I - L / (d_max + 1), L the graph Laplacian: symmetric, zero off the
    graph, rows and columns summing to 1, and |lambda_2| < 1 when connected."""
    n = topology.n_nodes
    deg = topology.degrees
    dmax = topology.max_degree
    lap = np.diag(deg) - topology.adjacency
    return np.eye(n) - lap / (dmax + 1.0)


def _spectrum(entries):
    """Eigenvalues of the symmetrized matrix, sorted by decreasing magnitude."""
    eigs = np.linalg.eigvalsh((entries + entries.T) / 2.0)
    return eigs[np.argsort(-np.abs(eigs))]


class HolderBlock(NamedTuple):
    """Holders of one closed-neighborhood size k, which the gossip step mixes
    with one stacked product.

    ``holders`` (h,) lists the holders, ``rows`` (h, k) their neighborhoods
    and ``weights`` (h, 1, k) their gossip weights. ``window`` is True when
    the holders are consecutive and each one's neighborhood is the k = 2r + 1
    consecutive nodes centred on it, so that their rows can be read as a
    strided view, as in ring and path interiors; the rows of other blocks
    are gathered, such as ring and path ends and complete-graph holders.
    """

    holders: np.ndarray
    rows: np.ndarray
    weights: np.ndarray
    window: bool


def _holder_blocks(entries, neighborhoods):
    """Runs of at least two consecutive holders whose neighborhoods are the
    k = 2r + 1 nodes centred on them, of one k, become window blocks; the
    other holders of each neighborhood size form one gathered block."""

    def size_and_window(i):
        k = len(neighborhoods[i])  # an even k spans no centred window
        return k, np.array_equal(neighborhoods[i], np.arange(i - k // 2, i + k // 2 + 1))

    groups, gathered = [], {}
    for (k, window), run in groupby(range(len(neighborhoods)), size_and_window):
        run = list(run)
        if window and len(run) > 1:
            groups.append((run, True))
        else:
            gathered.setdefault(k, []).extend(run)
    blocks = []
    for holders, window in groups + [(run, False) for run in gathered.values()]:
        holders = np.array(holders)
        rows = np.array([neighborhoods[i] for i in holders])
        weights = entries[holders[:, None], rows].reshape(len(holders), 1, -1)
        blocks.append(HolderBlock(holders, rows, weights, window))
    return blocks


class CommMatrix:
    """Symmetric doubly stochastic gossip matrix respecting the graph structure.

    Construction computes the matrix for the topology (``_comm_entries``) and
    its eigenvalues once, sorted by magnitude and cached. The topology is not
    kept: its closed neighborhoods are the supports of the rows of ``entries``.
    Instances are immutable in spirit: safe to share read-only across realizations.
    """

    def __init__(self, topology):
        self.entries = _comm_entries(topology)
        self.n = topology.n_nodes
        self.eigenvalues = _spectrum(self.entries)
        lam2 = float(abs(self.eigenvalues[1])) if self.n > 1 else 0.0
        # exact-averaging matrices report a clean zero
        self.lambda2_abs = 0.0 if lam2 < 1e-12 else lam2
        neighborhoods = [np.flatnonzero(row) for row in topology.adjacency + np.eye(self.n)]
        self.blocks = _holder_blocks(self.entries, neighborhoods)


def build_comm_matrix(topology):
    """Build the gossip matrix for a topology, failing with a ConfigError when
    its |lambda_2| is not strictly below 1 in floating point, so that no
    mixing horizon exists."""
    comm = CommMatrix(topology)
    if comm.lambda2_abs >= 1.0 - 1e-12:
        raise ConfigError(
            f"gossip matrix of the {topology.kind} graph (N={topology.n_nodes}) has "
            f"|lambda_2| = {comm.lambda2_abs:.6f}, not strictly below 1"
        )
    return comm


def compute_mixing_rounds(n, epsilon, lambda2_abs):
    """Number of gossip rounds S after which averages are epsilon-accurate.

    Starts from log(2N/eps) / sqrt(2 log(1/|lambda2|)) rounded to the nearest
    round and floored at one, then extends the horizon until the worst-case
    deviation bound N / T_S(1/|lambda2|) * sqrt(1 - 1/N) provable from the
    second eigenvalue alone drops below epsilon. |lambda2| = 0 means one
    multiplication by the gossip matrix already averages exactly. An epsilon
    for which 2N/epsilon overflows is a ``ConfigError``."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 <= lambda2_abs < 1:
        raise ValueError("|lambda2| must lie in [0, 1)")
    if lambda2_abs == 0.0:
        return 1
    raw = math.log(2.0 * n / epsilon) / math.sqrt(2.0 * math.log(1.0 / lambda2_abs))
    if math.isinf(raw):
        raise ConfigError(f"epsilon {epsilon:g} is too small: 2N/epsilon overflows for N = {n}")
    s = max(1, int(math.floor(raw + 0.5)))
    acosh = math.acosh(1.0 / lambda2_abs)
    slack = math.sqrt(1.0 - 1.0 / n)
    while s * acosh <= 60.0 and n * slack / math.cosh(s * acosh) > epsilon:
        s += 1
    return s

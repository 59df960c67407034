"""Discrete pairwise Markov random fields and per-edge potential strengths.

A model is a set of discrete variables with strictly positive node potentials
plus strictly positive pairwise potentials on an undirected edge set. Edge
matrices are stored with a fixed orientation: rows are indexed by the state of
the lower-numbered endpoint. Everything downstream (message passing, bounds,
certificates) consumes the strength measures computed here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class ModelError(ValueError):
    """Invalid model structure or potential values."""


class GraphFormatError(ValueError):
    """Malformed graph text; the message carries the offending line number."""


class DirectedEdge(NamedTuple):
    src: int
    dst: int


def _as_positive_array(values, what):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ModelError(f"{what} must be strictly positive and finite")
    return arr


class PairwiseMRF:
    """Pairwise model over ``num_nodes`` discrete variables.

    Parameters
    ----------
    num_nodes : int
    edges : iterable of (i, j) pairs, i != j, no duplicates.
    cardinality : int or per-node sequence, each >= 2 (default 2).
    node_potentials : optional per-node positive vectors (default all ones).
    edge_potentials : optional mapping (i, j) -> positive matrix whose rows
        are indexed by the state of i as given; stored transposed when i > j.
        Default is an all-ones matrix per edge.
    """

    def __init__(self, num_nodes, edges, cardinality=2, node_potentials=None,
                 edge_potentials=None):
        if num_nodes < 1:
            raise ModelError("need at least one node")
        self.num_nodes = int(num_nodes)

        if isinstance(cardinality, (int, np.integer)):
            cards = [int(cardinality)] * self.num_nodes
        else:
            cards = [int(c) for c in cardinality]
            if len(cards) != self.num_nodes:
                raise ModelError("cardinality list length mismatch")
        if any(c < 2 for c in cards):
            raise ModelError("every cardinality must be at least 2")
        self.cards = cards

        self.edges: list[tuple[int, int]] = []
        self.edge_index: dict[tuple[int, int], int] = {}
        for pair in edges:
            i, j = int(pair[0]), int(pair[1])
            if i == j:
                raise ModelError(f"self loop on node {i}")
            if not (0 <= i < self.num_nodes and 0 <= j < self.num_nodes):
                raise ModelError(f"edge ({i}, {j}) references a missing node")
            key = (min(i, j), max(i, j))
            if key in self.edge_index:
                raise ModelError(f"duplicate edge {key}")
            self.edge_index[key] = len(self.edges)
            self.edges.append(key)
        # Read-only ends of directed_edges(): edge e ^ 1 is the reverse of e.
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        self.directed_src = ends.ravel()
        self.directed_dst = ends[:, ::-1].ravel()
        self.directed_src.flags.writeable = False
        self.directed_dst.flags.writeable = False

        if node_potentials is None:
            self.node_pot = [np.ones(c) for c in cards]
        else:
            if len(node_potentials) != self.num_nodes:
                raise ModelError("node potential count mismatch")
            self.node_pot = []
            for v, pot in enumerate(node_potentials):
                arr = _as_positive_array(pot, f"node potential {v}")
                if arr.shape != (cards[v],):
                    raise ModelError(f"node potential {v} has wrong length")
                self.node_pot.append(arr)

        self.edge_pot: list[np.ndarray] = []
        supplied = dict(edge_potentials) if edge_potentials else {}
        for lo, hi in self.edges:
            if (lo, hi) in supplied:
                mat = _as_positive_array(supplied.pop((lo, hi)), f"edge potential {(lo, hi)}")
            elif (hi, lo) in supplied:
                mat = _as_positive_array(supplied.pop((hi, lo)), f"edge potential {(hi, lo)}").T
            else:
                mat = np.ones((cards[lo], cards[hi]))
            if mat.shape != (cards[lo], cards[hi]):
                raise ModelError(f"edge potential {(lo, hi)} has shape {mat.shape}, "
                                 f"expected {(cards[lo], cards[hi])}")
            self.edge_pot.append(np.array(mat, dtype=float))
        if supplied:
            raise ModelError(f"edge potentials given for missing edges: {sorted(supplied)}")

        self._adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for lo, hi in self.edges:
            self._adj[lo].append(hi)
            self._adj[hi].append(lo)
        for lst in self._adj:
            lst.sort()

    # -- structure ---------------------------------------------------------

    def neighbors(self, v) -> list[int]:
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self._adj[v])

    @property
    def num_directed(self) -> int:
        return 2 * len(self.edges)

    def directed_edges(self) -> list[DirectedEdge]:
        """All messages in canonical order: (lo -> hi, hi -> lo) per edge."""
        out = []
        for lo, hi in self.edges:
            out.append(DirectedEdge(lo, hi))
            out.append(DirectedEdge(hi, lo))
        return out

    def directed_index(self, src, dst) -> int:
        lo, hi = min(src, dst), max(src, dst)
        try:
            m = self.edge_index[(lo, hi)]
        except KeyError:
            raise ModelError(f"no edge between {src} and {dst}") from None
        return 2 * m if src == lo else 2 * m + 1

    def non_backtracking_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Hashimoto's non-backtracking relation over directed edges.

        Directed edge g = (v -> u) feeds f = (u -> t) when v != t. Returns
        index arrays (seg, feed), one entry per pair with feed[i] feeding
        seg[i], sorted by (seg, feed). Weighted by edge strength this is the
        interaction matrix of Mooij & Kappen, "Sufficient conditions for
        convergence of the sum-product algorithm" (IEEE Trans. IT 2007).
        Built in O(sum of squared degrees).
        """
        src, dst = self.directed_src, self.directed_dst
        # Edges entering each node, in index order (stable sort).
        entering = np.argsort(dst, kind="stable")
        count = np.bincount(dst, minlength=self.num_nodes)
        first = np.cumsum(count) - count
        # Row f lists every edge entering src[f]; then f's reverse is dropped.
        width = count[src]
        seg = np.repeat(np.arange(self.num_directed), width)
        offset = np.arange(seg.size) - np.repeat(np.cumsum(width) - width,
                                                 width)
        feed = entering[first[src[seg]] + offset]
        keep = feed != (seg ^ 1)
        return seg[keep], feed[keep]

    def edge_matrix(self, t, s) -> np.ndarray:
        """Edge potential with rows indexed by states of t, columns by s."""
        lo, hi = min(t, s), max(t, s)
        mat = self.edge_pot[self.edge_index[(lo, hi)]]
        return mat if t == lo else mat.T

    def copy(self) -> "PairwiseMRF":
        return PairwiseMRF(
            self.num_nodes,
            list(self.edges),
            list(self.cards),
            [p.copy() for p in self.node_pot],
            {e: m.copy() for e, m in zip(self.edges, self.edge_pot)},
        )

    def __repr__(self):
        return (f"PairwiseMRF(num_nodes={self.num_nodes}, "
                f"edges={len(self.edges)}, cards={sorted(set(self.cards))})")


# -- strength measures -----------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def _measures(stack) -> np.ndarray:
    """Every strength measure of a (B, a, b) stack of potentials at once.

    Returns a (6, B) array whose rows are, per potential: d (the pairwise
    strength), the raw dynamic range, the row and column summed strengths,
    sigma and N. Each row is the elementwise formula of the measure's
    one-matrix function below, which calls this with B = 1. A measure too
    large for a float reads inf or NaN, without a warning.
    """
    stack = _as_positive_array(stack, "edge potential")
    count = stack.shape[0]
    # log(M[a,c] M[b,d] / (M[b,c] M[a,d])) over every quadruple, per matrix.
    logm = np.log(stack)
    cross = (logm[:, :, None, :, None] + logm[:, None, :, None, :]
             - logm[:, None, :, :, None] - logm[:, :, None, None, :])
    top = cross.reshape(count, -1).max(axis=1)
    flat = stack.reshape(count, -1)
    rows = stack.sum(axis=2)
    cols = stack.sum(axis=1)
    sigma = 1.0 - np.exp(-top)
    root = np.sqrt(1.0 - sigma)
    return np.stack((
        np.exp(0.25 * top),
        np.sqrt(flat.max(axis=1) / flat.min(axis=1)),
        np.sqrt(rows.max(axis=1) / rows.min(axis=1)),
        np.sqrt(cols.max(axis=1) / cols.min(axis=1)),
        sigma,
        (1.0 - root) / (1.0 + root),
    ))


def _measure(edge_potential, row) -> float:
    mat = np.asarray(edge_potential, dtype=float)
    return float(_measures(mat[None])[row, 0])


def potential_strength(edge_potential) -> float:
    """Pairwise strength d with separable per-variable factors divided out.

    d**4 equals the largest cross ratio M[a,c]M[b,d] / (M[b,c]M[a,d]); any
    row or column rescaling cancels inside the ratio, so d is the strength
    of the hardest non-separable core of the potential.
    """
    return _measure(edge_potential, 0)


def plain_strength(edge_potential) -> float:
    """Raw dynamic range sqrt(max / min); diagnostic, not scale invariant."""
    return _measure(edge_potential, 1)


def marginal_strength(edge_potential, axis) -> float:
    """Dynamic range of the potential after summing out one variable.

    axis names the summed-out index exactly as in numpy: axis=1 sums columns,
    leaving a function of the row variable.
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    return _measure(edge_potential, 2 if axis == 1 else 3)


def heskes_strength(edge_potential) -> float:
    """sigma in [0, 1): one minus the reciprocal of the largest cross ratio."""
    return _measure(edge_potential, 4)


def mooij_strength(edge_potential) -> float:
    """N(psi) in [0, 1), computed through sigma.

    Identically equal to (d*d - 1)/(d*d + 1) with d = potential_strength,
    which the tests cross-check.
    """
    return _measure(edge_potential, 5)


class StrengthTable:
    """Per-edge strength measures for one model.

    Arrays are aligned with ``model.edges``. ``d_star_row[m]`` is the summed
    strength for messages sent by the lower-numbered endpoint of edge m,
    ``d_star_col[m]`` for the opposite direction. Edges whose potentials
    share a shape are measured in one batched call.
    """

    def __init__(self, model: PairwiseMRF):
        self.model = model
        table = np.empty((6, len(model.edges)))
        by_shape: dict[tuple, list[int]] = {}
        for m, mat in enumerate(model.edge_pot):
            by_shape.setdefault(mat.shape, []).append(m)
        for group in by_shape.values():
            table[:, group] = _measures(
                np.stack([model.edge_pot[m] for m in group]))
        (self.d_pair, self.d_plain, self.d_star_row, self.d_star_col,
         self.sigma, self.n_strength) = table
        self._check(table)

    def _check(self, table):
        if not np.isfinite(table).all():
            raise ModelError("a strength measure overflows a float")
        slack = 1.0 + 1e-9
        if np.any(self.d_pair < 1.0 - 1e-12):
            raise ModelError("pairwise strength below 1")
        # The summed strength is capped by the raw dynamic range, not by the
        # minimized strength: a separable potential can have d_pair = 1 with
        # unequal sums.
        if (np.any(self.d_star_row > self.d_plain * slack)
                or np.any(self.d_star_col > self.d_plain * slack)):
            raise ModelError("summed strength exceeds raw dynamic range")
        if np.any((self.sigma < 0.0) | (self.sigma >= 1.0)):
            raise ModelError("sigma out of [0, 1)")
        if np.any((self.n_strength < 0.0) | (self.n_strength >= 1.0)):
            raise ModelError("interaction weight out of [0, 1)")
        np.maximum(self.d_pair, 1.0, out=self.d_pair)
        np.maximum(self.d_star_row, 1.0, out=self.d_star_row)
        np.maximum(self.d_star_col, 1.0, out=self.d_star_col)

    def _edge(self, i, j) -> int:
        key = (min(i, j), max(i, j))
        try:
            return self.model.edge_index[key]
        except KeyError:
            raise ModelError(f"no edge between {i} and {j}") from None

    def pair(self, i, j) -> float:
        return float(self.d_pair[self._edge(i, j)])

    def star(self, t, s) -> float:
        """Summed strength for the message t -> s."""
        m = self._edge(t, s)
        return float(self.d_star_row[m] if t < s else self.d_star_col[m])

    def directed_product(self, t, s) -> float:
        """d_pair * d_star for the message t -> s; the contraction driver."""
        return self.pair(t, s) * self.star(t, s)

    def weight(self, i, j) -> float:
        return float(self.n_strength[self._edge(i, j)])

    def directed_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``directed_product`` and ``pair ** 2`` for every directed edge, in
        ``model.directed_edges()`` order."""
        star = np.column_stack((self.d_star_row, self.d_star_col)).ravel()
        # Python's float power, bit-equal to pair(t, s) ** 2; d * d is not.
        squared = [d ** 2 for d in self.d_pair.tolist()]
        return np.repeat(self.d_pair, 2) * star, np.repeat(squared, 2)


def compute_strengths(model: PairwiseMRF) -> StrengthTable:
    return StrengthTable(model)


# -- generators ------------------------------------------------------------


def symmetric_binary_potential(eta) -> np.ndarray:
    eta = float(eta)
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie strictly between 0 and 1")
    return np.array([[eta, 1.0 - eta], [1.0 - eta, eta]])


def _uniform_binary(num_nodes, edges, eta) -> PairwiseMRF:
    pot = symmetric_binary_potential(eta)
    return PairwiseMRF(num_nodes, edges, 2,
                       edge_potentials={e: pot.copy() for e in edges})


def complete_graph(n, eta) -> PairwiseMRF:
    if n < 2:
        raise ValueError("complete graph needs at least 2 nodes")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _uniform_binary(n, edges, eta)


def k4_minus_edge(eta) -> PairwiseMRF:
    """Complete graph on 4 nodes with the edge between nodes 2 and 3 removed."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    return _uniform_binary(4, edges, eta)


def cycle_graph(n, eta) -> PairwiseMRF:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _uniform_binary(n, edges, eta)


def chain_graph(n, eta) -> PairwiseMRF:
    if n < 2:
        raise ValueError("chain needs at least 2 nodes")
    edges = [(i, i + 1) for i in range(n - 1)]
    return _uniform_binary(n, edges, eta)


def grid_graph(rows, cols, eta, wrap=False) -> PairwiseMRF:
    """rows x cols lattice; with wrap=True both dimensions close into rings."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs at least 2 nodes")
    idx = lambda r, c: r * cols + c
    seen = set()
    edges = []

    def add(a, b):
        key = (min(a, b), max(a, b))
        if a != b and key not in seen:
            seen.add(key)
            edges.append(key)

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                add(idx(r, c), idx(r, c + 1))
            elif wrap and cols > 2:
                add(idx(r, c), idx(r, 0))
            if r + 1 < rows:
                add(idx(r, c), idx(r + 1, c))
            elif wrap and rows > 2:
                add(idx(r, c), idx(0, c))
    return _uniform_binary(rows * cols, edges, eta)


def torus_graph(rows, cols, eta) -> PairwiseMRF:
    return grid_graph(rows, cols, eta, wrap=True)


def random_tree(n, eta, seed=0) -> PairwiseMRF:
    """Random tree by attaching each node to a uniformly chosen earlier node."""
    if n < 2:
        raise ValueError("tree needs at least 2 nodes")
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    return _uniform_binary(n, edges, eta)


def with_uniform_binary(model: PairwiseMRF, eta) -> PairwiseMRF:
    """Same topology as ``model``, all potentials replaced by the symmetric
    binary pair potential at ``eta`` and uniform node potentials."""
    return _uniform_binary(model.num_nodes, list(model.edges), eta)


def build_generator(kind: str, eta) -> PairwiseMRF:
    """Build a named topology, e.g. ``complete:4``, ``torus:3x3``, ``k4minus``.

    Recognized forms: complete:N, cycle:N, chain:N, grid:RxC, torus:RxC,
    k4minus, tree:N or tree:N:SEED.
    """
    parts = kind.strip().lower().split(":")
    name, args = parts[0], parts[1:]
    try:
        if name == "k4minus" and not args:
            return k4_minus_edge(eta)
        if name == "complete" and len(args) == 1:
            return complete_graph(int(args[0]), eta)
        if name == "cycle" and len(args) == 1:
            return cycle_graph(int(args[0]), eta)
        if name == "chain" and len(args) == 1:
            return chain_graph(int(args[0]), eta)
        if name in ("grid", "torus") and len(args) == 1:
            r, _, c = args[0].partition("x")
            if name == "grid":
                return grid_graph(int(r), int(c), eta)
            return torus_graph(int(r), int(c), eta)
        if name == "tree" and len(args) in (1, 2):
            seed = int(args[1]) if len(args) == 2 else 0
            return random_tree(int(args[0]), eta, seed)
    except ValueError as exc:
        raise ValueError(f"bad generator spec {kind!r}: {exc}") from None
    raise ValueError(f"unknown generator spec {kind!r}")


# -- text format -----------------------------------------------------------


def parse_graph_text(text: str) -> PairwiseMRF:
    """Parse the line-oriented graph format.

    Lines: ``nodes N``, ``card i k``, ``node i v0 v1 ...``,
    ``edge i j m00 m01 ...`` (row major, rows indexed by the state of i).
    '#' starts a comment; blank lines are ignored. ``nodes`` must come first.
    """
    num = None
    cards: dict[int, int] = {}
    node_lines: dict[int, tuple[int, list[float]]] = {}
    edge_lines: list[tuple[int, int, int, list[float]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw = tokens[0].lower()

        def bad(msg):
            return GraphFormatError(f"line {lineno}: {msg}")

        if kw == "nodes":
            if num is not None:
                raise bad("duplicate nodes line")
            if len(tokens) != 2:
                raise bad("expected: nodes N")
            try:
                num = int(tokens[1])
            except ValueError:
                raise bad(f"bad node count {tokens[1]!r}") from None
            if num < 1:
                raise bad("node count must be positive")
            continue
        if num is None:
            raise bad("the nodes line must come first")
        if kw == "card":
            if len(tokens) != 3:
                raise bad("expected: card i k")
            try:
                i, k = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise bad("card takes two integers") from None
            if not 0 <= i < num:
                raise bad(f"node {i} out of range")
            if i in node_lines:
                raise bad(f"card for node {i} must precede its node line")
            cards[i] = k
        elif kw == "node":
            if len(tokens) < 3:
                raise bad("expected: node i v0 v1 ...")
            try:
                i = int(tokens[1])
                vals = [float(x) for x in tokens[2:]]
            except ValueError:
                raise bad("bad number in node line") from None
            if not 0 <= i < num:
                raise bad(f"node {i} out of range")
            node_lines[i] = (lineno, vals)
        elif kw == "edge":
            if len(tokens) < 4:
                raise bad("expected: edge i j m00 m01 ...")
            try:
                i, j = int(tokens[1]), int(tokens[2])
                vals = [float(x) for x in tokens[3:]]
            except ValueError:
                raise bad("bad number in edge line") from None
            edge_lines.append((lineno, i, j, vals))
        else:
            raise bad(f"unknown keyword {tokens[0]!r}")

    if num is None:
        raise GraphFormatError("missing nodes line")

    card_list = [cards.get(i, 2) for i in range(num)]
    for i, (lineno, vals) in node_lines.items():
        if len(vals) != card_list[i]:
            raise GraphFormatError(
                f"line {lineno}: node {i} has {len(vals)} values, "
                f"expected {card_list[i]}")

    node_pots = [node_lines[i][1] if i in node_lines else [1.0] * card_list[i]
                 for i in range(num)]

    edges = []
    edge_pots = {}
    for lineno, i, j, vals in edge_lines:
        if not (0 <= i < num and 0 <= j < num):
            raise GraphFormatError(f"line {lineno}: edge ({i}, {j}) out of range")
        if i == j:
            raise GraphFormatError(f"line {lineno}: self loop on node {i}")
        ki, kj = card_list[i], card_list[j]
        if len(vals) != ki * kj:
            raise GraphFormatError(
                f"line {lineno}: edge ({i}, {j}) has {len(vals)} values, "
                f"expected {ki * kj}")
        key = (min(i, j), max(i, j))
        if key in edge_pots:
            raise GraphFormatError(f"line {lineno}: duplicate edge {key}")
        mat = np.array(vals).reshape(ki, kj)
        edge_pots[key] = mat if i < j else mat.T
        edges.append(key)

    try:
        return PairwiseMRF(num, edges, card_list, node_pots, edge_pots)
    except ModelError as exc:
        raise GraphFormatError(str(exc)) from None


def parse_graph_file(path) -> PairwiseMRF:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def format_graph_text(model: PairwiseMRF) -> str:
    lines = [f"nodes {model.num_nodes}"]
    for v, c in enumerate(model.cards):
        if c != 2:
            lines.append(f"card {v} {c}")
    for v, pot in enumerate(model.node_pot):
        if not np.allclose(pot, 1.0):
            lines.append("node " + str(v) + " " + " ".join(repr(float(x)) for x in pot))
    for (lo, hi), mat in zip(model.edges, model.edge_pot):
        flat = " ".join(repr(float(x)) for x in mat.ravel())
        lines.append(f"edge {lo} {hi} {flat}")
    return "\n".join(lines) + "\n"


def write_graph_file(model: PairwiseMRF, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(model))

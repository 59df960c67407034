"""Discrete pairwise Markov random fields and per-edge potential strengths.

A model is a set of discrete variables with strictly positive node potentials
plus strictly positive pairwise potentials on an undirected edge set. Edge
matrices are stored with a fixed orientation: rows are indexed by the state of
the lower-numbered endpoint. Potentials of one shape share one stacked array,
so validating, measuring and taking logs cost a few array operations per
shape, not per edge. Everything downstream (message passing, bounds,
certificates) consumes the strength measures computed here.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np


class ModelError(ValueError):
    """Invalid model structure or potential values."""


class GraphFormatError(ValueError):
    """Malformed graph text; the message carries the offending line number."""


class EnumerationLimitError(ValueError):
    """An enumeration above its budget: joint states or self-avoiding walks."""


# Most self-avoiding walks out of one node, the empty walk too, that an
# enumeration follows: grid:5x5 has up to 153,745, complete:10 986,410.
_MAX_WALKS = 200000


class DirectedEdge(NamedTuple):
    src: int
    dst: int


def _check_cards(cards) -> None:
    if any(c < 2 for c in cards):
        raise ModelError("every cardinality must be at least 2")


def _faulty(stack) -> np.ndarray:
    """Per item of a stack, whether an entry is not strictly positive and
    finite (NaN included)."""
    ok = (stack > 0.0) & (stack < np.inf)
    return ~ok.reshape(len(stack), -1).all(axis=1)


def _stacks(shapes, arrays, what, names, bad_shape):
    """Items grouped by shape, {shape: (members, stack)} in order of first
    use, checked by ``_check_stacks``. ``arrays[i]`` is item i's given
    array, or None for all ones; an array of another shape is stacked as
    ones and reported as ``bad_shape(i)`` unless its entries are at fault.
    """
    groups: dict = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(i)
    stacks = {}
    fault = np.zeros(len(shapes), dtype=np.int8)  # 1: entries, 2: shape
    for shape, members in groups.items():
        ones = np.ones(shape)
        fill = []
        for i in members:
            arr = arrays[i]
            if arr is not None and arr.shape != shape:
                fault[i] = 1 if not arr.size or _faulty(arr[None])[0] else 2
                arr = None
            fill.append(ones if arr is None else arr)
        stacks[shape] = (np.array(members, dtype=np.intp), np.array(fill))
    _check_stacks(stacks, what, names, fault, bad_shape)
    return stacks


def _check_stacks(stacks, what, names, fault=None, bad_shape=None):
    """Freeze each stack and raise the ModelError of the first item at
    fault: entries not strictly positive and finite, found in one pass per
    stack, before a wrong shape (``fault`` 2)."""
    fault = np.zeros(len(names), dtype=np.int8) if fault is None else fault
    for members, stack in stacks.values():
        stack.flags.writeable = False  # a model's derived tables read it
        fault[members[_faulty(stack)]] = 1
    if fault.any():
        i = int(np.argmax(fault != 0))
        raise ModelError(f"{what} potential {names[i]} must be strictly "
                         "positive and finite" if fault[i] == 1
                         else bad_shape(i))


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

    Potentials are stored per shape: ``edge_stacks`` maps each (rows, cols)
    shape to its edge indices and one (g, rows, cols) array, and
    ``node_stacks`` maps each (card,) to its nodes and one (g, card) array.
    ``edge_pot[m]`` and ``node_pot[v]`` are read-only views into them. Each
    stack is checked in one pass; the first fault in node order, then edge
    order, is reported, an edge's entries before its shape.
    """

    def __init__(self, num_nodes, edges, cardinality=2, node_potentials=None,
                 edge_potentials=None):
        if num_nodes < 1:
            raise ModelError("need at least one node")
        n = int(num_nodes)

        if isinstance(cardinality, (int, np.integer)):
            cards = [int(cardinality)] * n
        else:
            cards = [int(c) for c in cardinality]
            if len(cards) != n:
                raise ModelError("cardinality list length mismatch")
        _check_cards(cards)

        edge_index: dict[tuple[int, int], int] = {}
        for pair in edges:
            i, j = int(pair[0]), int(pair[1])
            if i == j:
                raise ModelError(f"self loop on node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ModelError(f"edge ({i}, {j}) references a missing node")
            key = (min(i, j), max(i, j))
            if key in edge_index:
                raise ModelError(f"duplicate edge {key}")
            edge_index[key] = len(edge_index)

        if node_potentials is None:
            node_given = [None] * n
        else:
            if len(node_potentials) != n:
                raise ModelError("node potential count mismatch")
            node_given = [np.asarray(p, dtype=float) for p in node_potentials]
        node_stacks = _stacks([(c,) for c in cards], node_given, "node",
                              range(n), lambda v: f"node potential {v} has "
                                                  "wrong length")

        supplied = dict(edge_potentials) if edge_potentials else {}
        given, keys = [], []  # per edge: its array as stored, the key given
        for lo, hi in edge_index:
            key = (lo, hi) if (lo, hi) in supplied else (hi, lo)
            if key in supplied:
                mat = np.asarray(supplied.pop(key), dtype=float)
                given.append(mat if key[0] == lo else mat.T)
            else:
                given.append(None)
            keys.append(key)
        shapes = [(cards[lo], cards[hi]) for lo, hi in edge_index]
        edge_stacks = _stacks(
            shapes, given, "edge", keys,
            lambda m: f"edge potential {list(edge_index)[m]} has shape "
                      f"{given[m].shape}, expected {shapes[m]}")
        if supplied:
            raise ModelError(f"edge potentials given for missing edges: {sorted(supplied)}")
        self._adopt(n, cards, edge_index, node_stacks, edge_stacks)

    def _adopt(self, num_nodes, cards, edge_index, node_stacks,
               edge_stacks) -> None:
        """Set every field from checked parts: ``edge_index`` maps each
        (lo, hi) edge to its index, in index order, and the frozen stacks
        hold the potentials. Every constructor ends here."""
        self.num_nodes, self.cards = num_nodes, cards
        self.edges: list[tuple[int, int]] = list(edge_index)
        self.edge_index = edge_index
        # Read-only ends of directed_edges(): edge e ^ 1 is the reverse of e.
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        self.directed_src = ends.ravel()
        self.directed_dst = ends[:, ::-1].ravel()
        self.directed_src.flags.writeable = False
        self.directed_dst.flags.writeable = False
        self.node_stacks, self.edge_stacks = node_stacks, edge_stacks
        self.node_pot = [None] * num_nodes
        self.edge_pot = [None] * len(self.edges)
        for stacks, views in ((node_stacks, self.node_pot),
                              (edge_stacks, self.edge_pot)):
            for members, stack in stacks.values():
                for i, view in zip(members.tolist(), stack):
                    views[i] = view

        self._adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for lo, hi in self.edges:
            self._adj[lo].append(hi)
            self._adj[hi].append(lo)
        for lst in self._adj:
            lst.sort()

    # -- structure ---------------------------------------------------------

    def neighbors(self, v) -> list[int]:
        return self._adj[v]

    @property
    def num_directed(self) -> int:
        return 2 * len(self.edges)

    def directed_edges(self) -> list[DirectedEdge]:
        """All messages in canonical order: (lo -> hi, hi -> lo) per edge."""
        return list(map(DirectedEdge, self.directed_src.tolist(),
                        self.directed_dst.tolist()))

    def directed_index(self, src, dst) -> int:
        lo, hi = min(src, dst), max(src, dst)
        try:
            m = self.edge_index[(lo, hi)]
        except KeyError:
            raise ModelError(f"no edge between {src} and {dst}") from None
        return 2 * m if src == lo else 2 * m + 1

    @cached_property
    def in_edge_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (V, width) tables of each node's in-edges, padded with
        the index n_dir, width the largest in-degree or 1: in index order,
        which sweeps add them in, and in ``neighbors`` order, which beliefs
        and ``update_message`` add them in."""
        dst = self.directed_dst
        degree = np.bincount(dst, minlength=self.num_nodes)
        first = np.cumsum(degree) - degree
        width = max(int(degree.max(initial=0)), 1)

        def table(order):  # edges by target, in ``order`` within a target
            out = np.full((self.num_nodes, width), self.num_directed)
            out[dst[order], np.arange(order.size) - first[dst[order]]] = order
            out.flags.writeable = False
            return out

        return (table(np.argsort(dst, kind="stable")),
                table(np.lexsort((self.directed_src, dst))))

    @cached_property
    def strengths(self) -> "StrengthTable":
        """The per-edge strength table every bound, certificate and residual
        run reads, built by ``compute_strengths`` on first use."""
        return compute_strengths(self)

    @cached_property
    def non_backtracking_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Hashimoto's non-backtracking relation over directed edges.

        Directed edge g = (v -> u) feeds f = (u -> t) when v != t. Read-only
        index arrays (seg, feed), one entry per pair with feed[i] feeding
        seg[i], sorted by (seg, feed); the feeds of f are u's row of the
        index-order in-edge table less padding and f's reverse. Weighted by
        edge strength this is the interaction matrix of Mooij & Kappen,
        "Sufficient conditions for convergence of the sum-product
        algorithm" (IEEE Trans. IT 2007).
        """
        rows = self.in_edge_tables[0][self.directed_src]
        seg = np.repeat(np.arange(self.num_directed), rows.shape[1])
        feed = rows.ravel()
        keep = (feed != self.num_directed) & (feed != (seg ^ 1))
        seg, feed = seg[keep], feed[keep]
        seg.flags.writeable = feed.flags.writeable = False
        return seg, feed

    def edge_matrix(self, t, s) -> np.ndarray:
        """Edge potential with rows indexed by states of t, columns by s."""
        lo, hi = min(t, s), max(t, s)
        mat = self.edge_pot[self.edge_index[(lo, hi)]]
        return mat if t == lo else mat.T

    def copy(self) -> "PairwiseMRF":
        out = PairwiseMRF.__new__(PairwiseMRF)  # shares the frozen stacks
        out._adopt(self.num_nodes, list(self.cards), dict(self.edge_index),
                   dict(self.node_stacks), dict(self.edge_stacks))
        return out

    def __repr__(self):
        return (f"PairwiseMRF(num_nodes={self.num_nodes}, "
                f"edges={len(self.edges)}, cards={sorted(set(self.cards))})")


# -- strength measures -----------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def _measures(stack) -> np.ndarray:
    """Every strength measure of a (B, a, b) stack of potentials at once.

    Returns a (6, B) array whose rows are, per potential: d (the pairwise
    strength), the raw dynamic range, the row and column summed strengths,
    sigma and N, as ``StrengthTable`` defines them. A measure too large for
    a float reads inf or NaN, without a warning. The entries must be
    strictly positive and finite.
    """
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


class StrengthTable:
    """Per-edge strength measures of one model, read as ``model.strengths``.

    Arrays follow ``model.edges``; M is an edge potential, its rows indexed
    by the state of the lower-numbered endpoint. ``d_pair`` is the pairwise
    strength d, whose fourth power is the largest cross ratio
    M[a,c] M[b,d] / (M[b,c] M[a,d]): any row or column rescaling cancels in
    it, so d measures the hardest non-separable core of M. ``d_plain`` is
    the raw dynamic range sqrt(max / min), not scale invariant.
    ``d_star_row`` is the range of M with its columns summed out (numpy
    axis=1): the summed strength of the messages the lower endpoint sends.
    ``d_star_col`` sums the rows out (axis=0), for the other direction.
    ``sigma`` in [0, 1) is Heskes' one minus the reciprocal of the largest
    cross ratio. ``n_strength`` in [0, 1) is N of Mooij & Kappen, computed
    through sigma, and equals (d**2 - 1)/(d**2 + 1). d and the summed
    strengths are at least 1.

    ``dd`` (d * d_star) and ``d2`` (d ** 2) are per directed edge, in
    ``model.directed_edges()`` order. Shape stacks are measured in slices
    of bounded memory. Every array is read-only: a model's readers share it.
    """

    def __init__(self, model: PairwiseMRF):
        self.model = model
        table = np.empty((6, len(model.edges)))
        for members, stack in model.edge_stacks.values():
            step = max(1, _CROSS_SLICE // stack[0].size ** 2)
            for lo in range(0, len(members), step):
                rows = slice(lo, lo + step)
                table[:, members[rows]] = _measures(stack[rows])
        (self.d_pair, self.d_plain, self.d_star_row, self.d_star_col,
         self.sigma, self.n_strength) = table
        self._check(table)
        star = np.column_stack((self.d_star_row, self.d_star_col)).ravel()
        self.dd = np.repeat(self.d_pair, 2) * star
        # Python's float power: bit-equal to pair(t, s) ** 2; d * d is not.
        self.d2 = np.repeat([d ** 2 for d in self.d_pair.tolist()], 2)
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

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
        for row in (self.d_pair, self.d_star_row, self.d_star_col):
            np.maximum(row, 1.0, out=row)

    def _edge(self, i, j) -> int:
        return self.model.directed_index(i, j) >> 1

    def pair(self, i, j) -> float:
        return float(self.d_pair[self._edge(i, j)])

    def weight(self, i, j) -> float:
        return float(self.n_strength[self._edge(i, j)])


def compute_strengths(model: PairwiseMRF) -> StrengthTable:
    return StrengthTable(model)


def _strengths_of(model: PairwiseMRF, strengths) -> StrengthTable:
    """``strengths`` if measured on ``model``; ``model.strengths`` if None."""
    if strengths is None:
        return model.strengths
    if strengths.model is not model:
        raise ValueError("strengths were measured on another model")
    return strengths


# -- generators ------------------------------------------------------------


def _uniform_binary(num_nodes, edges, eta) -> PairwiseMRF:
    """Binary model on ``edges``, each carrying the symmetric pair potential
    [[eta, 1 - eta], [1 - eta, eta]], with uniform node potentials."""
    eta = float(eta)
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie strictly between 0 and 1")
    pot = np.array([[eta, 1.0 - eta], [1.0 - eta, eta]])
    return PairwiseMRF(num_nodes, edges, 2,
                       edge_potentials=dict.fromkeys(edges, pot))


def with_uniform_binary(model: PairwiseMRF, eta) -> PairwiseMRF:
    """Same topology as ``model``, all potentials replaced by the symmetric
    binary pair potential at ``eta`` and uniform node potentials."""
    return _uniform_binary(model.num_nodes, list(model.edges), eta)


# Size caps on a generator spec (grid:100x100 fits) and on a graph file's
# ``nodes`` line, checked before anything is built.
_MAX_NODES, _MAX_EDGES = 10000, 20000


def _topology(name: str, args: list) -> tuple[int, list] | None:
    """``(num_nodes, edges)`` of the spec form ``name`` with arguments
    ``args``, or None if no form takes them. The size is checked against
    the caps, then against the form's fewest nodes, before any edge is
    listed."""
    if name == "k4minus" and not args:
        return 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    if (name not in ("complete", "cycle", "chain", "grid", "torus", "tree")
            or len(args) != 1 and (name, len(args)) != ("tree", 2)):
        return None
    if name in ("grid", "torus"):
        r, _, c = args[0].partition("x")
        rows, cols = int(r), int(c)
        # At most two edges a node; without a row or a column there is no
        # grid, whatever the product.
        n, most = rows * cols, 2 * rows * cols
        count = n if rows > 0 and cols > 0 else 0
    else:
        seed = int(args[1]) if len(args) == 2 else 0
        n = count = int(args[0])
        # A cycle, chain or tree has at most as many edges as nodes.
        most = n * (n - 1) // 2 if name == "complete" else n
    if n > _MAX_NODES or most > _MAX_EDGES:
        raise ValueError(f"{n} nodes and {most} edges: the limits are "
                         f"{_MAX_NODES} and {_MAX_EDGES}")
    least = 3 if name == "cycle" else 2
    if count < least:
        form = {"complete": "complete graph", "torus": "grid"}.get(name, name)
        raise ValueError(f"{form} needs at least {least} nodes")
    if name == "complete":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if name == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    if name == "chain":
        return n, [(i, i + 1) for i in range(n - 1)]
    if name == "tree":
        rng = np.random.default_rng(seed)
        return n, [(int(rng.integers(0, v)), v) for v in range(1, n)]
    wrap = name == "torus"
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols or (wrap and cols > 2):
                edges.append((v, r * cols + (c + 1) % cols))
            if r + 1 < rows or (wrap and rows > 2):
                edges.append((v, (r + 1) % rows * cols + c))
    return n, edges


def build_generator(kind: str, eta) -> PairwiseMRF:
    """Build a named topology, e.g. ``complete:4``, ``torus:3x3``, ``k4minus``,
    every edge carrying the symmetric binary potential at ``eta``.

    Recognized forms: complete:N, cycle:N, chain:N, grid:RxC, torus:RxC,
    k4minus (complete:4 less the edge between nodes 2 and 3), tree:N or
    tree:N:SEED. Grid and torus nodes are numbered row-major; a torus closes
    each dimension of more than two nodes into a ring, so torus:2x3 wraps
    its rows alone. A tree attaches each node v >= 1 to an earlier node
    drawn uniformly by ``numpy.random.default_rng(SEED)`` (SEED 0 if not
    given). At most 10,000 nodes and 20,000 edges. A bad spec raises a
    ValueError naming it; an eta outside (0, 1) raises one naming eta.
    """
    parts = kind.strip().lower().split(":")
    try:
        topology = _topology(parts[0], parts[1:])
    except ValueError as exc:
        raise ValueError(f"bad generator spec {kind!r}: {exc}") from None
    if topology is None:
        raise ValueError(f"unknown generator spec {kind!r}")
    return _uniform_binary(*topology, eta)


# -- text format -----------------------------------------------------------

# Largest cardinality a graph file may give. ``StrengthTable`` measures at
# most ``_CROSS_SLICE`` cross ratios (8 MB) per call, whatever the edge
# count; at 32 states one edge fills that, at 64 one edge would take 134 MB.
_MAX_CARD, _CROSS_SLICE = 32, 1 << 20


class _LineFault(Exception):
    """A fault of the graph line being read; the parser adds its number."""


def parse_graph_text(text: str) -> PairwiseMRF:
    """Parse the line-oriented graph format.

    Lines: ``nodes N``, ``card i k``, ``node i v0 v1 ...``,
    ``edge i j m00 m01 ...`` (row major, rows indexed by the state of i).
    '#' starts a comment; blank lines are ignored. ``nodes`` must come first,
    and a node has at most one ``card`` and one ``node`` line. The values
    go straight into the model's shape stacks, in edge and node order.
    """
    num = None
    cards: dict[int, int] = {}
    node_lines: dict[int, tuple[int, list[float]]] = {}
    edge_lines: list[tuple[int, int, int, list[float]]] = []
    edge_index: dict[tuple[int, int], int] = {}
    edge_flat: dict = {}  # per shape: members, values in stored order
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if "#" in raw:
                raw = raw[:raw.index("#")]
            tokens = raw.split()
            if not tokens:
                continue
            kw = tokens[0].lower()
            if kw == "nodes":
                if num is not None:
                    raise _LineFault("duplicate nodes line")
                if len(tokens) != 2:
                    raise _LineFault("expected: nodes N")
                try:
                    num = int(tokens[1])
                except ValueError:
                    raise _LineFault(f"bad node count {tokens[1]!r}") from None
                if num < 1:
                    raise _LineFault("node count must be positive")
                if num > _MAX_NODES:
                    raise _LineFault(f"node count {num} is above the limit "
                                     f"of {_MAX_NODES}")
                continue
            if num is None:
                raise _LineFault("the nodes line must come first")
            if kw == "card":
                if len(tokens) != 3:
                    raise _LineFault("expected: card i k")
                try:
                    i, k = int(tokens[1]), int(tokens[2])
                except ValueError:
                    raise _LineFault("card takes two integers") from None
                if not 0 <= i < num:
                    raise _LineFault(f"node {i} out of range")
                if k > _MAX_CARD:
                    raise _LineFault(f"cardinality {k} is above the limit "
                                     f"of {_MAX_CARD}")
                if i in cards:
                    raise _LineFault(f"duplicate card line for node {i}")
                if i in node_lines:
                    raise _LineFault(f"card for node {i} must precede its "
                                     "node line")
                cards[i] = k
            elif kw == "node":
                if len(tokens) < 3:
                    raise _LineFault("expected: node i v0 v1 ...")
                try:
                    i = int(tokens[1])
                    vals = list(map(float, tokens[2:]))
                except ValueError:
                    raise _LineFault("bad number in node line") from None
                if not 0 <= i < num:
                    raise _LineFault(f"node {i} out of range")
                if i in node_lines:
                    raise _LineFault(f"duplicate node line for node {i}")
                node_lines[i] = (lineno, vals)
            elif kw == "edge":
                if len(tokens) < 4:
                    raise _LineFault("expected: edge i j m00 m01 ...")
                try:
                    i, j = int(tokens[1]), int(tokens[2])
                    vals = list(map(float, tokens[3:]))
                except ValueError:
                    raise _LineFault("bad number in edge line") from None
                edge_lines.append((lineno, i, j, vals))
            else:
                raise _LineFault(f"unknown keyword {tokens[0]!r}")

        if num is None:
            raise GraphFormatError("missing nodes line")
        card_list = [cards.get(i, 2) for i in range(num)]
        for i, (lineno, vals) in node_lines.items():
            if len(vals) != card_list[i]:
                raise _LineFault(f"node {i} has {len(vals)} values, "
                                 f"expected {card_list[i]}")
        for lineno, i, j, vals in edge_lines:
            if not (0 <= i < num and 0 <= j < num):
                raise _LineFault(f"edge ({i}, {j}) out of range")
            if i == j:
                raise _LineFault(f"self loop on node {i}")
            ki, kj = card_list[i], card_list[j]
            if len(vals) != ki * kj:
                raise _LineFault(f"edge ({i}, {j}) has {len(vals)} values, "
                                 f"expected {ki * kj}")
            key = (i, j) if i < j else (j, i)
            if key in edge_index:
                raise _LineFault(f"duplicate edge {key}")
            members, flat = edge_flat.setdefault(
                (ki, kj) if i < j else (kj, ki), ([], []))
            members.append(len(edge_index))
            edge_index[key] = len(edge_index)
            # A line from the higher node gives its rows first: transpose.
            flat.extend(vals if i < j else
                        [x for row in range(kj) for x in vals[row::kj]])
    except _LineFault as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from None

    node_flat: dict = {}
    for v, k in enumerate(card_list):
        members, flat = node_flat.setdefault((k,), ([], []))
        members.append(v)
        flat.extend(node_lines[v][1] if v in node_lines else [1.0] * k)
    try:
        _check_cards(card_list)  # as the model would, before any reshape
        node_stacks, edge_stacks = (
            {shape: (np.array(members, dtype=np.intp),
                     np.array(flat).reshape((len(members),) + shape))
             for shape, (members, flat) in groups.items()}
            for groups in (node_flat, edge_flat))
        _check_stacks(node_stacks, "node", range(num))
        _check_stacks(edge_stacks, "edge", list(edge_index))
    except ModelError as exc:
        raise GraphFormatError(str(exc)) from None
    model = PairwiseMRF.__new__(PairwiseMRF)
    model._adopt(num, card_list, edge_index, node_stacks, edge_stacks)
    return model


def parse_graph_file(path) -> PairwiseMRF:
    """Parse a graph file, UTF-8 with or without a byte-order mark."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason} at "
                               f"byte {exc.start})") from None
    return parse_graph_text(text)


def format_graph_text(model: PairwiseMRF) -> str:
    lines = [f"nodes {model.num_nodes}"]
    for v, c in enumerate(model.cards):
        if c != 2:
            lines.append(f"card {v} {c}")
    for v, pot in enumerate(model.node_pot):
        if not np.all(pot == 1.0):
            lines.append("node " + str(v) + " " + " ".join(repr(float(x)) for x in pot))
    for (lo, hi), mat in zip(model.edges, model.edge_pot):
        flat = " ".join(repr(float(x)) for x in mat.ravel())
        lines.append(f"edge {lo} {hi} {flat}")
    return "\n".join(lines) + "\n"


def write_graph_file(model: PairwiseMRF, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(model))

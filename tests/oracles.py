"""Slow reference implementations used to pin expected values in the tests.

Everything in this file is written with plain Python loops and itertools on
purpose, so that the vectorized library code is always checked against an
independent route. Keep this module free of loopybp imports.
"""

import itertools
import math
import types


def enumerate_marginals(cards, node_pots, edge_pots):
    """Exact node marginals by summing the joint weight over every configuration.

    cards: list of state counts per node.
    node_pots: list of per-node weight lists.
    edge_pots: dict mapping (i, j) with i < j to a nested list M[x_i][x_j].
    """
    n = len(cards)
    totals = [[0.0] * cards[v] for v in range(n)]
    z = 0.0
    for config in itertools.product(*[range(c) for c in cards]):
        w = 1.0
        for v in range(n):
            w *= node_pots[v][config[v]]
        for (i, j), mat in edge_pots.items():
            w *= mat[config[i]][config[j]]
        z += w
        for v in range(n):
            totals[v][config[v]] += w
    return [[t / z for t in row] for row in totals]


def minimized_strength(mat):
    """Strength with separable row/column factors divided out.

    Brute force over every quadruple (a, b, c, d): the largest value of
    mat[a][c] * mat[b][d] / (mat[b][c] * mat[a][d]), reported to the 1/4 power.
    """
    rows = range(len(mat))
    cols = range(len(mat[0]))
    best = 1.0
    for a in rows:
        for b in rows:
            for c in cols:
                for d in cols:
                    r = (mat[a][c] * mat[b][d]) / (mat[b][c] * mat[a][d])
                    if r > best:
                        best = r
    return best ** 0.25


def plain_strength(mat):
    flat = [x for row in mat for x in row]
    return math.sqrt(max(flat) / min(flat))


def summed_strength(mat, axis):
    """Strength of the vector obtained by summing out one index of mat."""
    if axis == 0:
        sums = [sum(mat[a][c] for a in range(len(mat))) for c in range(len(mat[0]))]
    else:
        sums = [sum(row) for row in mat]
    return math.sqrt(max(sums) / min(sums))


def cross_ratio_sigma(mat):
    """1 - 1/(largest cross ratio), by full enumeration."""
    rows = range(len(mat))
    cols = range(len(mat[0]))
    best = 1.0
    for a in rows:
        for b in rows:
            for c in cols:
                for d in cols:
                    r = (mat[a][c] * mat[b][d]) / (mat[b][c] * mat[a][d])
                    if r > best:
                        best = r
    return 1.0 - 1.0 / best


def update_once(cards, node_pots, edge_mats, adjacency, messages, t, s):
    """One message update t -> s with dict-of-list messages.

    edge_mats: dict (t, s) -> matrix rows indexed by the state of t.
    messages: dict (u, v) -> list over the states of v.
    """
    mat = edge_mats[(t, s)]
    out = []
    for xs in range(cards[s]):
        acc = 0.0
        for xt in range(cards[t]):
            w = mat[xt][xs] * node_pots[t][xt]
            for u in adjacency[t]:
                if u != s:
                    w *= messages[(u, t)][xt]
            acc += w
        out.append(acc)
    z = sum(out)
    return [x / z for x in out]


def non_backtracking_pairs(directed):
    """Every pair (f, g) of directed-edge indices where g = (v, u) feeds
    f = (u, t) with v != t, by a double loop over all pairs of edges.

    directed: list of (src, dst) tuples, one per directed edge.
    """
    pairs = []
    for f, (u, t) in enumerate(directed):
        for g, (v, w) in enumerate(directed):
            if w == u and v != t:
                pairs.append((f, g))
    return pairs


def interaction_matrix(directed, weight):
    """Nested-list matrix: row (i, j) holds weight(p, i) in column (p, i) for
    every p adjacent to i except j."""
    n = len(directed)
    mat = [[0.0] * n for _ in range(n)]
    for f, (i, j) in enumerate(directed):
        for g, (p, q) in enumerate(directed):
            if q == i and p != j:
                mat[f][g] = weight(p, i)
    return mat


def count_saw_walks(adjacency, root):
    """Number of self-avoiding walks from root, counting the empty walk."""

    def extend(node, visited):
        total = 1
        for nxt in adjacency[node]:
            if nxt not in visited:
                total += extend(nxt, visited | {nxt})
        return total

    return extend(root, {root})


class Tree:
    """A rooted tree of model labels with nodes in creation order, parents
    first; the shape of loopybp's computation trees (``nodes`` with
    ``label``, ``parent``, ``depth`` and ``children``)."""

    def __init__(self, model, kind, root):
        self.model = model
        self.kind = kind
        self.nodes = [types.SimpleNamespace(label=root, parent=None, depth=0,
                                            children=[])]

    def add_child(self, parent, label):
        self.nodes.append(types.SimpleNamespace(
            label=label, parent=parent, depth=self.nodes[parent].depth + 1,
            children=[]))
        self.nodes[parent].children.append(len(self.nodes) - 1)
        return len(self.nodes) - 1

    def __len__(self):
        return len(self.nodes)

    @property
    def depth(self):
        return max(node.depth for node in self.nodes)


def bethe_tree(model, root, depth):
    """All non-backtracking paths of length <= depth out of root, as a Tree.

    Internal nodes replicate the original neighbor structure minus the
    parent; leaves sit at depth exactly ``depth`` unless a node has no
    neighbor besides its parent.
    """
    tree = Tree(model, f"bethe({depth})", root)
    frontier = [0]
    for _ in range(depth):
        grown = []
        for idx in frontier:
            node = tree.nodes[idx]
            parent = None if node.parent is None else tree.nodes[node.parent].label
            for u in model.neighbors(node.label):
                if u != parent:
                    grown.append(tree.add_child(idx, u))
        frontier = grown
    return tree


def label_counts(tree):
    """How many tree nodes carry each model label."""
    counts = {}
    for node in tree.nodes:
        counts[node.label] = counts.get(node.label, 0) + 1
    return counts


def text_dump(tree):
    """One line per node in depth-first order, indented two spaces a level."""
    lines = []

    def walk(idx):
        node = tree.nodes[idx]
        lines.append("  " * node.depth + str(node.label))
        for c in node.children:
            walk(c)

    walk(0)
    return "\n".join(lines)


def tree_marginal(tree):
    """Exact root marginal of a computation tree, as a list.

    The edge between a tree node and its parent carries the model's
    potential between their labels. One upward pass in reverse creation
    order (children before parents), each message normalized to sum 1.
    """
    model = tree.model
    upward = [None] * len(tree.nodes)
    for idx in range(len(tree.nodes) - 1, -1, -1):
        node = tree.nodes[idx]
        b = [float(p) for p in model.node_pot[node.label]]
        for c in node.children:
            b = [x * y for x, y in zip(b, upward[c])]
        if node.parent is None:
            z = sum(b)
            return [x / z for x in b]
        mat = model.edge_matrix(node.label, tree.nodes[node.parent].label)
        msg = [sum(b[i] * float(mat[i][j]) for i in range(len(b)))
               for j in range(len(mat[0]))]
        z = sum(msg)
        upward[idx] = [x / z for x in msg]
    raise AssertionError("tree has no root")


def bisect_root(f, lo, hi, tol=1e-14):
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_map(x, a, b, k):
    num = a * x ** k + b * (1.0 - x) ** k
    den = (a + b) * (x ** k + (1.0 - x) ** k)
    return num / den


def scalar_fixed_point(a, b, k):
    """The fixed point of the scalar map above 1/2, or None if only 1/2 exists."""
    f = lambda x: scalar_map(x, a, b, k) - x
    probe = 0.5 + 1e-6
    if f(probe) <= 0.0:
        return None
    return bisect_root(f, probe, 1.0 - 1e-12)

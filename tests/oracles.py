"""Slow reference implementations used to pin expected values in the tests.

Everything in this file is written with plain Python loops and itertools on
purpose, so that the vectorized library code is always checked against an
independent route. Keep this module free of loopybp imports.
"""

import itertools
import math


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


def enumerate_pair_marginal(cards, node_pots, edge_pots, i, j):
    """Exact joint marginal of the pair (i, j), i < j, as a nested list."""
    n = len(cards)
    table = [[0.0] * cards[j] for _ in range(cards[i])]
    z = 0.0
    for config in itertools.product(*[range(c) for c in cards]):
        w = 1.0
        for v in range(n):
            w *= node_pots[v][config[v]]
        for (a, b), mat in edge_pots.items():
            w *= mat[config[a]][config[b]]
        z += w
        table[config[i]][config[j]] += w
    return [[t / z for t in row] for row in table]


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

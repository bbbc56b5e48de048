"""Hot integer kernels, vectorized with numpy.

Three operations dominate runtime on large groups: orbit closure under a
set of permutations (generator cover and conjugacy classes), Light's
associativity test of a Cayley table over a generating set, and the
exhaustive power-map scan used by the brute-force cut decider.  The orbit
kernel is Shiloach-Vishkin hooking plus pointer jumping: O(log n) rounds of
whole-array numpy operations, whatever the cycle lengths.
"""

from __future__ import annotations

import math

import numpy as np

# There is one backend; perfbench/run.py:stamp records this flag in every result.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# orbit closure: connected components of x ~ p[x] over a stack of permutations
# ---------------------------------------------------------------------------

def orbit_labels(perms: np.ndarray) -> np.ndarray:
    """Label every index with the smallest index reachable via ``perms``.

    ``perms`` is a (k, n) int array of permutations of 0..n-1; indices x and
    perms[i, x] land in the same component.  Shiloach-Vishkin hooking plus
    pointer jumping (*J. Algorithms* 3, 1982): while some edge x -- p[x]
    joins two stars, each star's root hooks onto the smallest root across
    its edges, then pointer jumping flattens the trees back into stars.
    Every star merges each round, so there are O(log n) rounds.  A label
    never exceeds its index and only decreases, so each component ends
    labelled by its minimum element.
    """
    perms = np.ascontiguousarray(perms, dtype=np.int32)
    if perms.ndim != 2:
        perms = perms.reshape(1, -1)
    labels = np.arange(perms.shape[1], dtype=np.int32)
    if perms.size == 0:
        return labels
    src = np.tile(labels, perms.shape[0])
    dst = perms.ravel()
    while True:
        lu, lv = labels[src], labels[dst]
        cross = lu != lv
        if not cross.any():
            return labels
        lu, lv = lu[cross], lv[cross]
        np.minimum.at(labels, lu, lv)
        np.minimum.at(labels, lv, lu)
        while True:
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up


# ---------------------------------------------------------------------------
# Light's associativity test over a generating set
# ---------------------------------------------------------------------------

def first_bad_triple(table: np.ndarray, gens):
    """Return the first (x, g, y) with g in ``gens`` and (xg)y != x(gy), or None.

    Light's test (Clifford & Preston, *Algebraic Theory of Semigroups* I, §1.2):
    the g with (xg)y = x(gy) for all x, y are closed under the product, so if
    ``gens`` reach every element from the identity by right multiplication,
    None means the table is associative.  Two n x n gathers per generator.
    """
    table = np.ascontiguousarray(table, dtype=np.int32)
    for g in gens:
        lhs = table[table[:, g], :]
        rhs = table[:, table[g, :]]
        if not np.array_equal(lhs, rhs):
            x, y = np.argwhere(lhs != rhs)[0]
            return int(x), int(g), int(y)
    return None


# ---------------------------------------------------------------------------
# brute-force cut scan over a dense table
# ---------------------------------------------------------------------------

def cut_witness_scan(table: np.ndarray, inv: np.ndarray):
    """Exhaustive power-map scan of every element of a Cayley table.

    For each x (ascending) and each exponent j coprime to the order of x
    (ascending), tests whether x^j lies in the conjugacy class of x or of
    x^-1, with both classes recomputed from scratch by conjugating x with
    every group element.  Returns (witness_elements, witness_exponents):
    the first failing exponent per failing element.
    """
    table = np.ascontiguousarray(table, dtype=np.int32)
    inv = np.ascontiguousarray(inv, dtype=np.int32)
    n = table.shape[0]
    wx, wj = [], []
    for x in range(1, n):
        gx = table[:, x]
        mask = np.zeros(n, dtype=bool)
        mask[table[gx, inv]] = True
        ginvx = table[:, inv[x]]
        mask[table[ginvx, inv]] = True
        # order of x by repeated multiplication
        m = 1
        y = int(x)
        while y != 0:
            y = int(table[y, x])
            m += 1
        y = int(x)
        for j in range(2, m):
            y = int(table[y, x])
            if math.gcd(j, m) == 1 and not mask[y]:
                wx.append(x)
                wj.append(j)
                break
    return (np.asarray(wx, dtype=np.int32), np.asarray(wj, dtype=np.int32))

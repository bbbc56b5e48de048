"""Hot integer kernels, vectorized with numpy, and the one row-block budget.

Three operations dominate runtime on large groups: orbit closure under a
set of permutations (generator cover, cosets and conjugacy classes),
Light's associativity test of a Cayley table over a generating set, and
the exhaustive power-map scan used by the brute-force cut decider.  The
orbit kernel is Shiloach-Vishkin hooking plus pointer jumping: O(log n)
rounds of whole-array numpy operations, whatever the cycle lengths; it
extends a labelling it is given, one generator at a time if need be.  The
scan reads only the table, in three whole-array passes: one order walk over
all elements at once, which looks for the identity only at divisors of the
order and yields the inverses, the classes in row blocks, and one witness
walk over all elements at once.
Every blocked pass of the package takes its rows from ``row_blocks``, one
budget for all.
"""

from __future__ import annotations

import numpy as np

# There is one backend; perfbench/run.py:stamp records this flag in every result.
USE_NUMBA = False

# Most bytes of intermediates one block of a whole-array pass holds.
BLOCK_BYTES = 1 << 20


def row_blocks(stop: int, row_bytes: int, start: int = 0):
    """Slices of rows start..stop-1, >= 1 row and ~BLOCK_BYTES (read per call) at ``row_bytes`` each."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return (slice(lo, min(lo + step, stop)) for lo in range(start, stop, step))


# ---------------------------------------------------------------------------
# orbit closure: connected components of x ~ p[x] over a stack of permutations
# ---------------------------------------------------------------------------

def orbit_labels(perms: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray:
    """Label every index with the smallest index reachable via ``perms``.

    ``perms`` is a (k, n) int array of permutations of 0..n-1; indices x and
    perms[i, x] land in the same component.  ``labels``, when given, is a
    labelling to extend (each label the least member of its class, as
    returned here), which gives what one call over both stacks gives.
    Shiloach-Vishkin hooking plus pointer jumping (*J. Algorithms* 3, 1982):
    while some edge x -- p[x] joins two stars, each star's root hooks onto
    the smallest root across its edges, then pointer jumping flattens the
    trees back into stars.  Every star merges each round, so there are
    O(log n) rounds.  A label never exceeds its index and only decreases,
    so each component ends labelled by its minimum element.
    """
    perms = np.ascontiguousarray(perms, dtype=np.int32)
    labels = np.array(np.arange(perms.shape[1]) if labels is None else labels, dtype=np.int32)
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
    None means the table is associative.  Two gathers of the table per
    generator, in row blocks.
    """
    table = np.ascontiguousarray(table, dtype=np.int32)
    n = table.shape[0]
    for g in gens:
        right, left = table[:, g], table[g]
        for rows in row_blocks(n, 12 * n):
            differ = table[right[rows]] != table[rows][:, left]
            if differ.any():
                x, y = np.argwhere(differ)[0]
                return int(rows.start + x), int(g), int(y)
    return None


# ---------------------------------------------------------------------------
# brute-force cut scan over a dense table
# ---------------------------------------------------------------------------

def cut_witness_scan(table: np.ndarray):
    """Exhaustive power-map scan of every element of a Cayley table.

    For each x (ascending) and each exponent j coprime to the order m of x
    (ascending, j = 2..m-1), tests whether x^j lies in the conjugacy class
    of x or of x^-1.  Returns (witness_elements, witness_exponents): the
    first failing exponent per failing element.  Only ``table`` is read, in
    three whole-array passes:

    - orders: one walk x, x^2, ... over all x at once, one gather per
      exponent k; by Lagrange's theorem x^k can be 0 only when k divides n,
      so only those k are compared with 0, and x leaves the walk there with
      its order m and its inverse x^(m-1), the power before;
    - classes: every x is labelled by its least conjugate g*x*g^-1 over
      every g, the conjugations formed afresh in row blocks of g;
    - witnesses: one walk x^j over all x at once; x^j is in the class of x
      or of x^-1 exactly when the lesser of the labels of x^j and x^-j is
      x's own.  x leaves at its first coprime j whose power is not, or when
      j + 1 reaches m; the walk is compacted only at such a j.

    A row block holds about BLOCK_BYTES of intermediates and the walks a
    few arrays of n entries, so the table is the only order x order array.
    """
    table = np.ascontiguousarray(table, dtype=np.int32)
    n = table.shape[0]
    orders = np.ones(n, dtype=np.int64)
    inv = np.zeros(n, dtype=np.int32)
    live = y = np.arange(1, n)
    k = 1
    while live.size:
        k += 1
        before, y = y, table[y, live]
        if n % k == 0:
            done = y == 0
            if done.any():
                orders[live[done]] = k
                inv[live[done]] = before[done]
                keep = ~done
                live, y = live[keep], y[keep]

    least = np.arange(n, dtype=np.int32)
    # each entry of a block is an int32 conjugate gathered through an int64 index
    for rows in row_blocks(n, 12 * n):
        conjugates = table[table[rows], inv[rows, None]]
        np.minimum(least, conjugates.min(axis=0), out=least)
    pair = np.minimum(least, least[inv])

    exponents = np.zeros(n, dtype=np.int32)
    live = y = np.nonzero(orders > 2)[0]
    m, own = orders[live], pair[live]
    ends = set(m.tolist())  # some walk ends after exponent j only when j + 1 is in here
    j = 1
    while live.size:
        j += 1
        y = table[y, live]
        miss = (pair[y] != own).nonzero()[0]
        escaped = miss[np.gcd(j, m[miss]) == 1]
        if escaped.size or j + 1 in ends:
            exponents[live[escaped]] = j
            keep = j + 1 < m
            keep[escaped] = False
            live, y, m, own = live[keep], y[keep], m[keep], own[keep]
    wx = np.nonzero(exponents)[0].astype(np.int32)
    return wx, exponents[wx]

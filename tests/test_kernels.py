"""The numpy kernels against brute-force references and known verdicts."""

import numpy as np
import pytest

from conftest import reference_witness_scan
from cutlab._kernels import cut_witness_scan, first_bad_triple, orbit_labels
from cutlab.constructors import (
    abelian,
    construct,
    cyclic,
    dicyclic,
    heisenberg,
    metacyclic,
    product,
    symmetric,
)
from cutlab.corpus import builtin_corpus
from cutlab.cut_engine import decide_cut
from cutlab.errors import NotAGroup
from cutlab.group_core import build_from_table, greedy_generators


def _random_perms(rng, k, n):
    return np.stack([rng.permutation(n) for _ in range(k)]).astype(np.int32)


def _long_cycles(rng, n, k):
    """A random permutation of n points made of k cycles of random lengths in random order."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    order = rng.permutation(n)
    perm = np.empty(n, dtype=np.int32)
    for cyc in np.split(order, cuts):
        perm[cyc] = np.roll(cyc, -1)
    return perm


def _transpositions(rng, n, k):
    """The identity on n points with k random pairs swapped."""
    perm = np.arange(n, dtype=np.int32)
    for x, y in rng.integers(0, n, (k, 2)):
        perm[[x, y]] = perm[[y, x]]
    return perm


def test_orbit_labels_extends_a_starting_labelling():
    """Extending the labelling of one stack by another labels what one call over both stacks labels."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 300))
        pool = [_transpositions(rng, n, int(rng.integers(1, n // 4 + 2))) for _ in range(3)]
        pool += [rng.permutation(n).astype(np.int32), np.arange(n, dtype=np.int32)]
        picks = [rng.choice(len(pool), int(rng.integers(0, 3))) for _ in range(2)]
        first, second = (np.array([pool[i] for i in p], dtype=np.int32).reshape(-1, n) for p in picks)
        start = orbit_labels(first)
        start.flags.writeable = False  # the starting labelling is read, not written
        want = orbit_labels(np.concatenate([first, second]))
        assert orbit_labels(second, start).tolist() == want.tolist()
    # one perm at a time, as a walk that adopts generators extends its labels
    perms = np.stack([_transpositions(rng, 500, 60) for _ in range(6)])
    labels = orbit_labels(perms[:0])
    assert labels.tolist() == list(range(500))
    for i in range(len(perms)):
        labels = orbit_labels(perms[i:i + 1], labels)
        assert labels.tolist() == orbit_labels(perms[:i + 1]).tolist()


def test_orbit_labels_matches_bruteforce_components():
    rng = np.random.default_rng(7)
    stacks = []
    for trial in range(5):
        n = int(rng.integers(2, 60))
        stacks.append(_random_perms(rng, int(rng.integers(1, 4)), n))
    # long cycles in random order: min-label propagation needed one round per step here
    stacks += [
        _long_cycles(rng, 4096, 1)[None, :],
        _long_cycles(rng, 8192, 3)[None, :],
        np.stack([_long_cycles(rng, 6000, 5), _long_cycles(rng, 6000, 40)]),
        _random_perms(rng, 2, 5000),
    ]
    for perms in stacks:
        n = perms.shape[1]
        labels = orbit_labels(perms)
        # brute-force union-find for comparison
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for p in perms:
            for x in range(n):
                ra, rb = find(x), find(int(p[x]))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        expected = [find(x) for x in range(n)]
        # normalize both to min-of-component
        comp = {}
        for x in range(n):
            comp.setdefault(expected[x], []).append(x)
        minlab = {root: min(xs) for root, xs in comp.items()}
        assert [minlab[expected[x]] for x in range(n)] == list(labels)


def test_first_bad_triple():
    n = 7
    good = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    assert first_bad_triple(good.astype(np.int32), (1,)) is None
    bad = good.copy()
    bad[2, 3] = (bad[2, 3] + 1) % n
    found = first_bad_triple(bad.astype(np.int32), (1,))
    assert found is not None
    i, j, k = found
    assert bad[bad[i, j], k] != bad[i, bad[j, k]]


def _scan_all_triples(table):
    """The O(n^3) reference: the lexicographically first (i, j, k) with (ij)k != i(jk)."""
    for i in range(len(table)):
        lhs = table[table[i], :]
        rhs = table[i][table]
        if not np.array_equal(lhs, rhs):
            j, k = np.argwhere(lhs != rhs)[0]
            return int(i), int(j), int(k)
    return None


# group tables of orders 2..39 to relabel and perturb
SMALL_GROUPS = (
    [cyclic(n) for n in range(2, 40)]
    + [metacyclic(m, 2, m - 1) for m in range(3, 20)]
    + [dicyclic(n) for n in range(2, 10)]
    + [abelian([2, 2]), abelian([2, 4]), abelian([3, 3]), abelian([2, 2, 2]), abelian([2, 2, 6])]
    + [symmetric(3), symmetric(4), heisenberg(3), product(symmetric(3), cyclic(5))]
)


def _symbol_cycle(table, s, t, r):
    """Cells of the s/t cycle through the s in row r, or None if it meets row or column 0.

    Each row and column holds one s and one t, so the cells holding either
    symbol split into cycles; exchanging s and t along one keeps a Latin square.
    """
    where = np.argsort(table, axis=1)  # where[row, symbol] = column
    cells = []
    while True:
        c = int(where[r, s])
        c2 = int(where[r, t])
        if 0 in (r, c, c2):
            return None
        cells += [(r, c), (r, c2)]
        r = int(np.nonzero(table[:, c2] == s)[0][0])
        if (r, int(where[r, s])) == cells[0]:
            return cells


def _swap_symbol_cycle(table, rng, intercalate):
    """Exchange two symbols along one cycle that avoids the identity row and column.

    With ``intercalate`` only 2 x 2 cycles qualify.  Returns None when the
    random tries find no such cycle.
    """
    n = len(table)
    for _ in range(50 if n > 2 else 0):
        s, t = rng.choice(np.arange(1, n), size=2, replace=False)
        cells = _symbol_cycle(table, int(s), int(t), int(rng.integers(1, n)))
        if cells is None or (intercalate and len(cells) != 4):
            continue
        out = table.copy()
        for r, c in cells:
            out[r, c] = s + t - out[r, c]
        return out
    return None


def test_first_bad_triple_matches_full_scan_on_random_latin_squares():
    """Light's test over greedy generators gives the O(n^3) scan's verdict."""
    rng = np.random.default_rng(2024)
    tables = {spec: construct(spec).dense_table() for spec in SMALL_GROUPS}
    verdicts = {kind: set() for kind in ("group", "intercalate", "loop")}
    for _ in range(300):
        base = tables[SMALL_GROUPS[int(rng.integers(len(SMALL_GROUPS)))]]
        n = len(base)
        relabel = np.concatenate([[0], 1 + rng.permutation(n - 1)])
        table = relabel[base][np.ix_(np.argsort(relabel), np.argsort(relabel))]
        kind = ("group", "intercalate", "loop")[int(rng.integers(3))]
        swaps = {"group": 0, "intercalate": 1, "loop": int(rng.integers(1, 4))}[kind]
        for _ in range(swaps):
            swapped = _swap_symbol_cycle(table, rng, kind == "intercalate")
            if swapped is not None:
                table = swapped
        assert (np.sort(table, axis=0) == np.arange(n)[:, None]).all()
        assert (np.sort(table, axis=1) == np.arange(n)[None, :]).all()
        assert (table[0] == np.arange(n)).all() and (table[:, 0] == np.arange(n)).all()

        reference = _scan_all_triples(table)
        found = first_bad_triple(table, greedy_generators(table))
        assert (found is None) == (reference is None)
        if found is None:
            build_from_table(n, table)
        else:
            x, g, y = found
            assert table[table[x, g], y] != table[x, table[g, y]]
            with pytest.raises(NotAGroup, match="associativity"):
                build_from_table(n, table)
        verdicts[kind].add(reference is None)
    assert verdicts["group"] == {True}
    assert False in verdicts["intercalate"] and False in verdicts["loop"]


@pytest.mark.parametrize(
    "spec, expect_cut",
    [
        (metacyclic(12, 2, 5), True),
        (metacyclic(9, 9, 4), False),
        (dicyclic(4), False),
        (heisenberg(3), True),
    ],
)
def test_cut_witness_scan_backends_agree(spec, expect_cut):
    """The whole-array brute-force scan and the class-based decider give one verdict."""
    G = construct(spec)
    wx, wj = cut_witness_scan(G.dense_table())
    assert (len(wx) == 0) == expect_cut == decide_cut(G).has_cut
    assert len(wx) == len(wj)


def _scan_inputs(G):
    """The table and, for the reference, its inverses read off the identity column."""
    table = G.dense_table()
    return table, np.argmax(table == 0, axis=1).astype(np.int32)


# element orders far apart among the divisors of the order: long walks between identity tests
GAP_GROUPS = (cyclic(251), cyclic(254), metacyclic(127, 2, 126), dicyclic(29))


def test_cut_witness_scan_matches_the_scalar_reference(sweep_groups):
    """The same (elements, exponents) arrays as the one-element-at-a-time scan."""
    groups = [construct(e.spec) for e in builtin_corpus()] + [G for _, G in sweep_groups[7]]
    groups += [construct(cyclic(1)), construct(cyclic(2))]
    groups += [construct(spec) for spec in GAP_GROUPS]
    failing = 0
    for G in groups:
        table, inv = _scan_inputs(G)
        got, want = cut_witness_scan(table), reference_witness_scan(table, inv)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), G.name
        failing += len(got[0]) > 0
    assert len(groups) == 137 + 260 + 2 + 4
    assert 0 < failing < len(groups)


@pytest.mark.parametrize(
    "spec",
    [metacyclic(9, 9, 4), dicyclic(4), symmetric(4), product(symmetric(3), cyclic(5)), cyclic(30)],
)
def test_cut_witness_scan_follows_a_relabelling(spec):
    """With sigma fixing 0, the witness exponent of sigma(x) in the relabelled table is that of x."""
    table = construct(spec).dense_table()
    n = len(table)
    rng = np.random.default_rng(n)
    sigma = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    relabelled = np.empty_like(table)
    relabelled[sigma[:, None], sigma[None, :]] = sigma[table]

    def exponents(t):
        wx, wj = cut_witness_scan(t)
        out = np.zeros(n, dtype=np.int32)
        out[wx] = wj
        return out

    before = exponents(table)
    assert np.array_equal(exponents(relabelled)[sigma], before)

"""The numpy kernels against brute-force references and known verdicts."""

import numpy as np
import pytest

from cutlab._kernels import cut_witness_scan, first_bad_triple, orbit_labels
from cutlab.constructors import construct, dicyclic, heisenberg, metacyclic
from cutlab.cut_engine import decide_cut


def _random_perms(rng, k, n):
    return np.stack([rng.permutation(n) for _ in range(k)]).astype(np.int32)


def test_orbit_labels_matches_bruteforce_components():
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = int(rng.integers(2, 60))
        perms = _random_perms(rng, int(rng.integers(1, 4)), n)
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
    assert first_bad_triple(good.astype(np.int32)) is None
    bad = good.copy()
    bad[2, 3] = (bad[2, 3] + 1) % n
    found = first_bad_triple(bad.astype(np.int32))
    assert found is not None
    i, j, k = found
    assert bad[bad[i, j], k] != bad[i, bad[j, k]]


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
    """The brute-force scan kernel and the class-based decider give one verdict."""
    G = construct(spec)
    table = G.dense_table()
    inv = np.argmax(table == 0, axis=1).astype(np.int32)
    wx, wj = cut_witness_scan(table, inv)
    assert (len(wx) == 0) == expect_cut == decide_cut(G).has_cut
    assert len(wx) == len(wj)

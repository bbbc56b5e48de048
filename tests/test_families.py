"""The deciders and the characterizations across a whole family of groups, not only the corpus."""

import math

from conftest import reference_witnesses

from cutlab.characterizations import verify_equivalences
from cutlab.constructors import construct, metacyclic
from cutlab.corpus import _pi_ok
from cutlab.cut_engine import classify, decide_cut, decide_cut_bruteforce


def metacyclic_family(max_order):
    """Every metacyclic (m, n, r) with mn <= ``max_order``, one r per subgroup <r> of (Z/m)^x.

    r runs over 0 <= r < m with gcd(r, m) = 1 and r^n = 1 (mod m), and the
    first r of each <r> is kept.
    """
    family = []
    for m in range(1, max_order + 1):
        for n in range(1, max_order // m + 1):
            seen = set()
            for r in range(m):
                if math.gcd(r, m) == 1 and pow(r, n, m) == 1 % m:
                    powers = frozenset(pow(r, k, m) for k in range(m))
                    if powers not in seen:
                        seen.add(powers)
                        family.append((m, n, r))
    return family


def test_metacyclic_family_to_order_64_agrees_everywhere():
    """409 presentations, 50 of them cut: decider, oracle and characterizations agree, the prime sets hold.

    The decider's witnesses are also those of a walk over every exponent.
    """
    family = metacyclic_family(64)
    cut, disagreements = 0, []
    for m, n, r in family:
        G = construct(metacyclic(m, n, r))
        verdict = decide_cut(G)
        assert verdict.has_cut == decide_cut_bruteforce(G).has_cut, (m, n, r)
        assert verdict.witnesses == reference_witnesses(G), (m, n, r)
        assert _pi_ok(G, classify(G, verdict)), (m, n, r)
        disagreements += [(m, n, r, rep.name) for rep in verify_equivalences(G) if rep.disagrees]
        cut += verdict.has_cut
    assert (len(family), cut) == (409, 50)
    assert disagreements == []

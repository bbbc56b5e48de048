"""The deciders and the characterizations across a whole family of groups, not only the corpus."""

import math

import pytest

from conftest import reference_witnesses

from cutlab.characterizations import verify_equivalences
from cutlab.constructors import _metacyclic, construct, metacyclic
from cutlab.corpus import _pi_ok
from cutlab.cut_engine import classify, decide_cut, decide_cut_bruteforce
from cutlab.group_core import validate_group_axioms


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


def split_groups(max_order):
    """The split groups ``metacyclic(m, n, r)`` of ``metacyclic_family``, built from their specs."""
    for m, n, r in metacyclic_family(max_order):
        yield (m, n, r), construct(metacyclic(m, n, r))


def non_split_groups(max_order):
    """Every Hölder group <a, b | a^m, b^n = a^s, b a b^-1 = a^t> with n > 1 and 0 < s < m.

    t runs over the r of ``metacyclic_family`` and s over those with
    s(t - 1) = 0 (mod m); each group passes the axiom check.
    """
    for m, n, t in metacyclic_family(max_order):
        for s in range(1, m) if n > 1 else ():
            if s * (t - 1) % m == 0:
                G = _metacyclic(m, n, t, s, f"holder({m},{n},{t},{s})")
                validate_group_axioms(G)
                yield (m, n, t, s), G


@pytest.mark.parametrize(
    "groups, size, cuts",
    [(split_groups, 409, 50), (non_split_groups, 1318, 37)],
    ids=["split", "non-split"],
)
def test_metacyclic_family_to_order_64_agrees_everywhere(groups, size, cuts):
    """Decider, oracle and characterizations agree, and the prime sets hold, on each family.

    409 split presentations, 50 of them cut, and 1318 non-split ones, 37 cut.
    The decider's witnesses are also those of a walk over every exponent.
    """
    count, cut, disagreements = 0, 0, []
    for params, G in groups(64):
        verdict = decide_cut(G)
        assert verdict.has_cut == decide_cut_bruteforce(G).has_cut, params
        assert verdict.witnesses == reference_witnesses(G), params
        assert _pi_ok(G, classify(G, verdict)), params
        disagreements += [(params, rep.name) for rep in verify_equivalences(G) if rep.disagrees]
        count, cut = count + 1, cut + verdict.has_cut
    assert (count, cut) == (size, cuts)
    assert disagreements == []

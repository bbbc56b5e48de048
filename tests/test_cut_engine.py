"""Decision engine: spec examples, oracle agreement, residue structure."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    inverse,
    naive_cut,
    reference_orders,
    reference_witness_scan,
    reference_witnesses,
    table_of,
)
from cutlab import _kernels, cut_engine, group_core
from cutlab.characterizations import _enumerate_subgroups, verify_equivalences
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
from cutlab.cut_engine import (
    CutVerdict,
    central_factor_cuts,
    classify,
    decide_cut,
    decide_cut_bruteforce,
    quotient_cuts,
)
from cutlab.group_core import FiniteGroup, ProductGroup, TableGroup, center, quotient


def test_decide_cut_paper_positive():
    v = decide_cut(construct(metacyclic(12, 2, 5)))
    assert v.has_cut and v.witnesses == ()


def test_decide_cut_paper_negative():
    G = construct(metacyclic(9, 9, 4))
    v = decide_cut(G)
    assert not v.has_cut
    x, j = v.witnesses[0]
    assert G.label(x) == "b" and j == 2


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            metacyclic(9, 9, 4),  # paper-noncut-81: (b, 2) first
            ((9, 2), (10, 2), (11, 2), (18, 2), (19, 2), (20, 2), (36, 2), (37, 2), (38, 2),
             (45, 2), (46, 2), (47, 2), (63, 2), (64, 2), (65, 2), (72, 2), (73, 2), (74, 2)),
        ),
        (cyclic(64), tuple((x, 3) for x in range(64) if x % 16)),
        (
            product(metacyclic(8, 2, 3), metacyclic(8, 2, 5)),
            ((17, 3), (18, 3), (19, 3), (22, 3), (25, 3), (27, 3),
             (81, 3), (82, 3), (83, 3), (86, 3), (89, 3), (91, 3)),
        ),
    ],
)
def test_decide_cut_witnesses_unchanged(spec, expected):
    G = construct(spec)
    v = decide_cut(G)
    assert v.witnesses == expected == reference_witnesses(G)
    assert not v.has_cut


def test_decide_cut_trivial_and_cyclic5():
    assert decide_cut(construct(cyclic(1))).has_cut
    v = decide_cut(construct(cyclic(5)))
    assert not v.has_cut
    assert v.witnesses[0] == (1, 2)


def test_decide_cut_metacyclic_21():
    assert decide_cut(construct(metacyclic(7, 3, 2))).has_cut


def test_witnesses_are_lexicographically_first_per_representative():
    G = construct(cyclic(9))
    v = decide_cut(G)
    assert not v.has_cut
    reps = [x for x, _ in v.witnesses]
    assert reps == sorted(reps)
    for x, j in v.witnesses:
        m = G.element_order(x)
        for jj in range(2, j):
            if math.gcd(jj, m) != 1:
                continue
            cls = G.conjugacy.class_of[G.power(x, jj)]
            assert cls in (
                G.conjugacy.class_of[x],
                G.conjugacy.class_of[inverse(G, x)],
            )


def test_bruteforce_examples():
    G = construct(metacyclic(9, 9, 4))
    fast, slow = decide_cut(G), decide_cut_bruteforce(G)
    assert fast.has_cut == slow.has_cut is False
    witness_class = G.conjugacy.class_of[slow.witnesses[0][0]]
    assert witness_class == G.conjugacy.class_of[9]  # the class of b
    assert decide_cut_bruteforce(construct(cyclic(6))).has_cut
    assert decide_cut_bruteforce(construct(dicyclic(2))).has_cut


@pytest.mark.parametrize(
    "spec",
    [
        cyclic(1),
        cyclic(12),
        cyclic(13),
        abelian([2, 4]),
        abelian([3, 9]),
        metacyclic(12, 2, 5),
        metacyclic(9, 9, 4),
        metacyclic(5, 4, 2),
        dicyclic(4),
        heisenberg(3),
        heisenberg(5),
        symmetric(4),
        product(metacyclic(8, 2, 3), metacyclic(8, 2, 5)),
    ],
)
def test_oracle_equivalence(spec):
    G = construct(spec)
    fast = decide_cut(G)
    slow = decide_cut_bruteforce(G)
    assert fast.has_cut == slow.has_cut
    naive_ok, _ = naive_cut(table_of(G)) if G.order <= 128 else (fast.has_cut, None)
    assert fast.has_cut == naive_ok


def test_oracle_reads_only_the_table_and_its_inverses(monkeypatch):
    """With every fast-path fact refusing, the oracle still finds the scalar scan's witnesses."""
    specs = (metacyclic(9, 9, 4), symmetric(4), product(dicyclic(3), cyclic(5)), cyclic(1))
    groups = [construct(spec) for spec in specs]
    G = construct(metacyclic(8, 4, 3))
    groups.append(group_core.quotient(G, group_core.center(G)))
    want = []
    for G in groups:
        table = G.dense_table()
        wx, wj = reference_witness_scan(table, np.argmax(table == 0, axis=1))
        want.append(tuple(zip(wx.tolist(), wj.tolist())))
    assert any(want) and not all(want)

    def refuse(*args):
        raise AssertionError("the oracle read a fact of the fast path")

    monkeypatch.setattr(FiniteGroup, "conjugacy", property(refuse), raising=False)
    monkeypatch.setattr(FiniteGroup, "element_orders", property(refuse))
    monkeypatch.setattr(ProductGroup, "element_orders", property(refuse))
    monkeypatch.setattr(FiniteGroup, "generator_conjugations", property(refuse))
    monkeypatch.setattr(FiniteGroup, "power_vec", refuse)
    monkeypatch.setattr(_kernels, "orbit_labels", refuse)
    assert [decide_cut_bruteforce(G).witnesses for G in groups] == want


def test_oracle_ignores_the_facts_kept_on_the_group():
    """A wrong verdict and wrong kept facts on G leave the oracle's witnesses as the scalar scan's."""
    for spec in (metacyclic(9, 9, 4), dicyclic(4), symmetric(4), product(dicyclic(3), cyclic(5))):
        G = construct(spec)
        table = G.dense_table()
        wx, wj = reference_witness_scan(table, np.argmax(table == 0, axis=1))
        want = tuple(zip(wx.tolist(), wj.tolist()))
        assert want == decide_cut_bruteforce(G).witnesses
        wrong = CutVerdict(False, ((1, 5),)) if decide_cut(G).has_cut else CutVerdict(True, ())
        G._facts[cut_engine._scan_classes] = wrong
        for name in ("derived_subgroup", "profile", "element_orders"):
            G.__dict__[name] = None
        assert decide_cut(G) is wrong
        assert decide_cut_bruteforce(G).witnesses == want, spec.describe()


def test_decide_cut_keeps_its_verdict():
    for spec in (metacyclic(9, 9, 4), symmetric(4), cyclic(1)):
        G = construct(spec)
        assert decide_cut(G) is decide_cut(G)
        assert decide_cut(G).witnesses == reference_witnesses(G)


def test_one_group_walks_its_own_classes_once(monkeypatch):
    """decide_cut, classify and verify_equivalences on one group scan its classes in one walk.

    Every other walk is over another group (a p6 product); no quotient is
    walked at all.
    """
    walks = []
    walk = cut_engine._power_map_witnesses

    def counting(G, *args):
        walks.append(G)
        return walk(G, *args)

    monkeypatch.setattr(cut_engine, "_power_map_witnesses", counting)
    for spec in (dicyclic(2), metacyclic(9, 9, 4), heisenberg(3), symmetric(4), abelian([2, 4])):
        G = construct(spec)
        verdict = decide_cut(G)
        classify(G)
        classify(G, verdict)
        verify_equivalences(G)
        assert decide_cut(G) is verdict
        assert sum(H is G for H in walks) == 1, spec.describe()
        walks.clear()


def _table_group(spec):
    """The table group of a formula spec's own table (past order 512 the spec keeps its formula)."""
    F = construct(spec)
    return TableGroup(F.dense_table(), F.generators, F.label, F.name)


def test_oracle_scan_allocates_less_than_its_table():
    """The scan of an order-1024 table group works in blocks, not in table-sized arrays."""
    G = _table_group(metacyclic(512, 2, 511))  # dihedral: its rotations of order 8 and up fail
    table = G.dense_table()
    assert table.nbytes == 4 << 20
    tracemalloc.start()
    try:
        verdict = decide_cut_bruteforce(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.dense_table() is table and not verdict.has_cut
    assert peak < table.nbytes


def test_inverses_are_read_off_the_table_in_row_blocks():
    """An order-2048 table group reads its inverses off the table in row blocks, within two blocks.

    The oracle reads its inverses off its order walk; its whole scan stays within the same bound.
    """
    G = _table_group(metacyclic(1024, 2, 1023))  # order 2048: a 16 MiB table, whose bool image is 4 MiB
    table = G.dense_table()
    for derive in (lambda: decide_cut_bruteforce(G).witnesses, G._compute_inverses):
        tracemalloc.start()
        try:
            derive()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * _kernels.BLOCK_BYTES
    assert G.dense_table() is table  # a table group hands out the table it holds


def test_classify_examples():
    s3 = classify(construct(metacyclic(3, 2, 2)))
    assert s3.real_group and s3.cut and s3.rational
    assert s3.inverse_semi_rational is s3.cut
    assert s3.central_height_label is None  # even order

    m21 = classify(construct(metacyclic(7, 3, 2)))
    assert m21.cut and m21.central_height_label == 0

    c9 = classify(construct(cyclic(9)))
    assert not c9.cut and c9.central_height_label == 1

    h3 = classify(construct(heisenberg(3)))
    assert h3.cut and h3.central_height_label == 1


def test_classify_rational_needs_real():
    f20 = classify(construct(metacyclic(5, 4, 2)))
    assert f20.cut and not f20.real_group and not f20.rational


def test_alternating_5_nonsolvable():
    """A5: every element has prime-power order, yet no solvable-case
    characterization applies; the decider still settles it (not cut,
    witness on an order-5 class at exponent 2)."""
    from cutlab.characterizations import _enumerate_subgroups, verify_equivalences
    from cutlab.constructors import permutation

    A5 = construct(permutation(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]))
    assert A5.order == 60 and A5.conjugacy.num_classes == 5
    p = A5.profile
    assert not p.is_solvable and not p.is_nilpotent
    assert p.is_eppo and p.is_real_group
    fast = decide_cut(A5)
    assert not fast.has_cut
    x, j = fast.witnesses[0]
    assert A5.element_order(x) == 5 and j == 2
    assert decide_cut_bruteforce(A5).has_cut is False
    assert all(not r.applicable for r in verify_equivalences(A5))


def test_abelian_exponent_rule_bruteforce():
    """Abelian groups have the property iff the exponent divides 4 or 6."""
    for factors in ([2], [3], [4], [2, 2], [6], [2, 6], [4, 4], [3, 3]):
        G = construct(abelian(factors))
        assert decide_cut_bruteforce(G).has_cut
    for factors in ([5], [8], [9], [12], [2, 10], [7]):
        G = construct(abelian(factors))
        assert not decide_cut_bruteforce(G).has_cut


def test_witnesses_and_orders_match_reference_on_corpus_and_remark_products(corpus_result):
    from cutlab.corpus import builtin_corpus
    from cutlab.group_core import direct_product

    groups = {e.id: construct(e.spec) for e in builtin_corpus()}
    products = [direct_product(groups[r.left_id], groups[r.right_id]) for r in corpus_result.remark_pairs]
    assert (len(groups), len(products)) == (137, 360)
    for G in [*groups.values(), *products]:
        assert decide_cut(G).witnesses == reference_witnesses(G), G.name
        assert np.array_equal(G.element_orders, reference_orders(G)), G.name


@pytest.mark.parametrize(
    "spec",
    [
        cyclic(2048),
        metacyclic(2048, 2, 2047),  # dihedral of order 4096
        symmetric(6),
        abelian([2, 4, 8, 16]),
        abelian([6, 6, 6]),  # not a p-group, exponent 6
        cyclic(1800),  # not a p-group, exponent 1800: two primes squared, one cubed
        product(cyclic(5), symmetric(5)),  # witnesses settle while later representatives walk on
    ],
)
def test_witnesses_and_orders_match_reference_on_stress_groups(spec):
    G = construct(spec)
    assert decide_cut(G).witnesses == reference_witnesses(G)
    assert np.array_equal(G.element_orders, reference_orders(G))


def test_walk_stops_at_the_largest_small_unit():
    """Each representative of order m walks j = 2..h(m), h(m) the largest of ``_small_units(m)``.

    Both groups are cut.  In C6 nothing walks, since -1 alone generates
    (Z/6)^x.  In SD16 the elements of order 8 walk j = 2, 3 (h(8) = 3),
    where a walk up to j = m - 2 made 5 products.
    """
    for spec, products_made in ((cyclic(6), 0), (metacyclic(8, 2, 3), 2)):
        G = construct(spec)
        G.element_orders
        products = []
        real = G.mul_vec
        G.mul_vec = lambda a, b: products.append(1) or real(a, b)
        assert decide_cut(G).has_cut
        assert len(products) == products_made, spec.describe()


def test_unit_generator_criterion_is_the_verdict_for_the_trivial_quotient(checked_groups):
    """G/1, every coset minimum its own element, passes the unit-generator test iff G has cut."""
    for spec, G in checked_groups:
        ok = cut_engine._quotient_cuts(G, np.arange(G.order)[None])
        assert ok.tolist() == [decide_cut(G).has_cut], spec.describe()


def test_quotient_cuts_match_built_quotients(checked_groups):
    """G/Z(G) and G/G' decided on G's elements agree with deciding them as groups, |G| <= 512."""
    verdicts = []
    for spec, G in checked_groups:
        if G.order <= 512:
            normals = [center(G), G.derived_subgroup]
            want = [decide_cut(quotient(G, N)).has_cut for N in normals]
            assert quotient_cuts(G, normals).tolist() == want, spec.describe()
            verdicts += want
    assert len(verdicts) == 1318 and set(verdicts) == {True, False}


def test_quotients_walk_nothing(monkeypatch):
    """With G's verdict and element orders formed, its quotients need no witness walk and no new orders."""
    decided = []
    for entry in builtin_corpus():
        G, twin = construct(entry.spec), construct(entry.spec)
        decide_cut(G)
        normals, minima = [center(G), G.derived_subgroup], _enumerate_subgroups(G, center(G))
        want = quotient_cuts(twin, normals), central_factor_cuts(twin, minima)
        decided.append((G, G.element_orders, normals, minima, want))

    def refuse(*args):
        raise AssertionError("a quotient was walked")

    monkeypatch.setattr(cut_engine, "_power_map_witnesses", refuse)
    for G, orders, normals, minima, (quotients, factors) in decided:
        assert np.array_equal(quotient_cuts(G, normals), quotients), G.name
        assert np.array_equal(central_factor_cuts(G, minima), factors), G.name
        assert G.element_orders is orders, G.name

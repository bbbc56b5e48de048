"""Family constructors: relation checks and frozen structural facts."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from conftest import all_labels, count_fill_rows, inverse, mul, reference_labels
from cutlab import _kernels, constructors, group_core
from cutlab.constructors import (
    GroupSpecDescriptor,
    abelian,
    construct,
    cyclic,
    descriptor_from_dict,
    dicyclic,
    heisenberg,
    metacyclic,
    permutation,
    product,
    quotient_spec,
    symmetric,
    table_spec,
    validate_spec,
)
from cutlab.cut_engine import decide_cut
from cutlab.errors import (
    InvalidMetacyclicParameters,
    InvalidParameters,
    NotAPrime,
    OrderCapExceeded,
)
from cutlab.group_core import FormulaGroup, TableGroup

CORPUS_METACYCLICS = [
    (12, 2, 5),
    (9, 9, 4),
    (3, 2, 2),
    (4, 2, 3),
    (8, 2, 3),
    (8, 2, 5),
    (5, 4, 2),
    (7, 3, 2),
]


@pytest.mark.parametrize("m, n, r", CORPUS_METACYCLICS)
def test_metacyclic_relations(m, n, r):
    G = construct(metacyclic(m, n, r))
    assert G.order == m * n
    a, b = 1, m
    assert G.element_order(a) == m
    # the defining relation b^-1 a b = a^r as an identity on indices
    lhs = mul(G, mul(G, inverse(G, b), a), b)
    assert lhs == G.power(a, r)
    # a^m = 1 and b^n = 1 in the split presentation
    assert G.power(a, m) == 0
    assert G.power(b, n) == 0


def test_metacyclic_element_labels():
    G = construct(metacyclic(9, 9, 4))
    assert G.label(0) == "1"
    assert G.label(1) == "a"
    assert G.label(9) == "b"
    assert G.label(9 + 3) == "a^3 b"


def test_metacyclic_paper_orders():
    assert construct(metacyclic(12, 2, 5)).order == 24
    assert construct(metacyclic(9, 9, 4)).order == 81


def test_metacyclic_distinct_class_counts():
    # semidihedral vs modular group of order 16 (frozen from the naive scan)
    sd16 = construct(metacyclic(8, 2, 3))
    m16 = construct(metacyclic(8, 2, 5))
    assert sd16.conjugacy.num_classes == 7
    assert m16.conjugacy.num_classes == 10


def test_metacyclic_invalid_parameters():
    with pytest.raises(InvalidMetacyclicParameters, match="gcd"):
        construct(metacyclic(9, 2, 3))
    with pytest.raises(InvalidMetacyclicParameters, match="7"):
        construct(metacyclic(9, 2, 4))  # 4^2 = 16 = 7 (mod 9)


def test_cyclic_trivial():
    G = construct(cyclic(1))
    assert G.order == 1
    assert G.conjugacy.num_classes == 1


def test_dicyclic_relations():
    for n in (1, 2, 3, 4):
        G = construct(dicyclic(n))
        assert G.order == 4 * n
        a, b = 1, 2 * n
        assert G.element_order(a) == 2 * n
        assert mul(G, b, b) == G.power(a, n)
        assert mul(G, mul(G, inverse(G, b), a), b) == inverse(G, a)


def test_dicyclic_2_is_quaternion():
    G = construct(dicyclic(2))
    assert G.order == 8
    assert int((G.element_orders == 2).sum()) == 1


def test_heisenberg_structure():
    for p in (3, 5, 7):
        G = construct(heisenberg(p))
        assert G.order == p ** 3
        assert G.profile.nilpotency_class == 2
        assert G.profile.exponent == p


def test_heisenberg_rejects_non_prime():
    with pytest.raises(NotAPrime):
        construct(heisenberg(9))
    with pytest.raises(NotAPrime):
        construct(heisenberg(2))


def test_heisenberg_checks_cap_before_primality():
    # 45 is not prime, but 45^3 exceeds the cap, which is checked first
    with pytest.raises(OrderCapExceeded):
        construct(heisenberg(45), max_order=65_536)


def test_abelian_factors():
    G = construct(abelian([4, 2]))
    assert G.order == 8 and G.is_abelian
    assert G.profile.exponent == 4
    assert construct(abelian([2, 2, 2])).profile.exponent == 2


def test_symmetric_family():
    assert construct(symmetric(1)).order == 1
    assert construct(symmetric(2)).order == 2
    assert construct(symmetric(3)).order == 6
    S4 = construct(symmetric(4))
    assert S4.order == 24 and S4.conjugacy.num_classes == 5


def test_permutation_descriptor():
    G = construct(permutation(3, [(1, 0, 2), (1, 2, 0)]))
    assert G.order == 6


def test_table_descriptor():
    G = construct(table_spec(2, [[0, 1], [1, 0]]))
    assert G.order == 2


def test_product_single_part_is_the_group_itself():
    for spec in (cyclic(6), metacyclic(4, 2, 3), dicyclic(2)):
        direct = construct(spec)
        wrapped = construct(product(spec))
        assert np.array_equal(wrapped.dense_table(), direct.dense_table())


def test_product_of_three():
    G = construct(product(cyclic(2), cyclic(2), cyclic(3)))
    assert G.order == 12 and G.is_abelian
    assert G.profile.exponent == 6


def test_quotient_descriptor():
    spec = quotient_spec(metacyclic(9, 9, 4), [3])  # mod out the central <a^3>
    G = construct(spec)
    assert G.order == 27


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        construct(cyclic(1000), max_order=100)
    with pytest.raises(OrderCapExceeded):
        construct(product(cyclic(50), cyclic(50)), max_order=1000)


def test_order_cap_environment_override(monkeypatch):
    monkeypatch.setenv("CUTLAB_MAX_ORDER", "10")
    with pytest.raises(OrderCapExceeded):
        construct(cyclic(50))
    assert construct(cyclic(10)).order == 10


FORMULA_SPECS = [cyclic(30), abelian([2, 6, 3]), metacyclic(9, 9, 4), dicyclic(5), heisenberg(5)]


@pytest.mark.parametrize("spec", FORMULA_SPECS, ids=lambda s: s.describe())
def test_formula_table_row_blocks(monkeypatch, spec):
    whole = construct(spec).table
    assert whole.dtype == np.int32
    # one row per block; no table then fits one block, so the group keeps its formula
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1)
    rows = count_fill_rows(monkeypatch, group_core)
    assert np.array_equal(construct(spec).dense_table(), whole)
    assert rows == [1] * len(whole)


# each formula kind on both sides of order 512, where its int32 table stops fitting one row block
SIZE_PAIRS = [
    (cyclic(512), cyclic(600)),
    (abelian([2] * 9), abelian([2, 4, 80])),
    (metacyclic(256, 2, 255), metacyclic(64, 16, 3)),
    (dicyclic(128), dicyclic(130)),
    (heisenberg(7), heisenberg(11)),
]


def _formula_table(spec):
    """The Cayley table filled from the formula of ``spec``, built as a twin that keeps no table."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FormulaGroup, "keeps_table", False)
        twin = construct(spec)
    assert twin.table is None and twin.product is not None
    return group_core.fill_table(twin.order, twin._product)


@pytest.mark.parametrize("small, large", SIZE_PAIRS, ids=lambda s: s.describe())
def test_formula_groups_answer_as_the_table_groups_of_their_tables(small, large):
    K, F = construct(small), construct(large)
    for G in (K, F):
        assert type(G) is FormulaGroup and (G.table is not None) == (G.order <= 512)
        assert (G.product is None) == (G.table is not None)  # a kept table drops the formula
    assert np.array_equal(K.table, _formula_table(small))
    assert F.order > 512
    T = TableGroup(F.dense_table(), F.generators, F.label, F.name)
    assert np.array_equal(F.inv_vec, T.inv_vec)
    for name in ("class_of", "representatives", "inverse_class"):
        assert np.array_equal(getattr(F.conjugacy, name), getattr(T.conjugacy, name)), name
    assert np.array_equal(F.element_orders, T.element_orders)
    assert decide_cut(F).witnesses == decide_cut(T).witnesses
    plain = [dataclasses.replace(G.profile, sylow_subgroups={}) for G in (F, T)]
    assert plain[0] == plain[1]
    sylow = [{q: S.members.tolist() for q, S in G.profile.sylow_subgroups.items()} for G in (F, T)]
    assert sylow[0] == sylow[1]


# the edge cases of each inverse formula: order 1, a trivial cyclic part, an int8-digit overflow
INVERSE_EDGE_SPECS = [
    cyclic(1),
    metacyclic(1, 3, 0),
    abelian([128, 2]),
    abelian([1, 4, 1]),
    dicyclic(1),
    heisenberg(3),
]


@pytest.mark.parametrize(
    "spec",
    [s for pair in SIZE_PAIRS for s in pair] + [abelian([2] * 12)] + INVERSE_EDGE_SPECS,
    ids=lambda s: s.describe(),
)
def test_formula_inverses_are_the_powers_to_the_order_less_one(spec):
    """Each kind's inverse formula gives x^(n-1) for every x of a twin that keeps no table."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FormulaGroup, "keeps_table", False)
        twin = construct(spec)
    assert twin.table is None and twin.invert is not None
    everyone = np.arange(twin.order)
    assert twin.inv_vec.dtype == np.int32
    assert twin.inv_vec.tolist() == twin.power_vec(everyone, twin.order - 1).tolist()
    assert not twin.mul_vec(everyone, twin.inv_vec).any()


def _listed_pow_str(sym, e):
    """The element-name helpers as they were: a power as a list of cases."""
    if e == 0:
        return ""
    if e == 1:
        return sym
    return f"{sym}^{e}"


def _listed_ab_label(i, j):
    parts = [s for s in (_listed_pow_str("a", i), _listed_pow_str("b", j)) if s]
    return " ".join(parts) if parts else "1"


def test_formula_names_are_the_listed_names():
    pairs = [(i, j) for i in range(6) for j in range(6)]
    assert [constructors._ab_label(i, j) for i, j in pairs] == [_listed_ab_label(i, j) for i, j in pairs]
    for sym in ("a", "b", "g"):
        assert [constructors._pow_str(sym, e) for e in range(6)] == [
            _listed_pow_str(sym, e) for e in range(6)
        ]


@pytest.mark.parametrize(
    "factors", [[2] * 14, [2] * 9 + [3], [1, 2, 1, 4], [2, 4, 80], [3, 130]], ids=str
)
def test_abelian_products_add_digits_modulo_their_factors(factors):
    """Digit i of a*b is (d_i(a) + d_i(b)) mod f_i, with the table kept and without it."""
    G = construct(abelian(factors))
    assert type(G) is FormulaGroup and (G.table is not None) == (G.order <= 512)
    if G.table is not None:
        assert np.array_equal(G.table, _formula_table(abelian(factors)))
    rng = np.random.default_rng(G.order)
    a, b = (rng.integers(0, G.order, 20_000) for _ in range(2))
    strides = G.order // np.cumprod(factors)
    digits = [(x[:, None] // strides) % factors for x in (a, b)]
    want = ((digits[0] + digits[1]) % factors * strides).sum(axis=1)
    assert G.mul_vec(a, b).tolist() == want.tolist()


# each formula kind at the largest order its table budget admits (heisenberg: 23^3 <= 16384)
BUDGET_SPECS = [
    cyclic(16_384),
    abelian([4, 4, 1024]),
    metacyclic(8192, 2, 8191),
    metacyclic(16_384, 1, 1),
    dicyclic(4096),
    heisenberg(23),
]


@pytest.mark.parametrize("spec", BUDGET_SPECS, ids=lambda s: s.describe())
def test_int32_formula_products_match_int64(monkeypatch, spec):
    """Formulas evaluated in int32 agree with int64 evaluation up to the largest admitted order."""
    G = construct(spec)
    assert type(G) is FormulaGroup
    rng = np.random.default_rng(G.order)
    top = np.arange(G.order - 64, G.order)  # the largest indices, paired with each other
    a = np.concatenate([rng.integers(0, G.order, 100_000), np.repeat(top, 64)])
    b = np.concatenate([rng.integers(0, G.order, 100_000), np.tile(top, 64)])
    got = G.mul_vec(a.astype(np.int32), b.astype(np.int32))
    assert got.dtype == np.int32
    monkeypatch.setattr(constructors, "_int32", lambda a, b: (a.astype(np.int64), b.astype(np.int64)))
    assert got.tolist() == G.mul_vec(a, b).tolist()


def test_formula_tables_checked_against_the_byte_budget(monkeypatch):
    # cyclic(16384) has a 1 GiB int32 table, the whole budget; only the checks run here
    assert validate_spec(cyclic(16_384)) == 16_384
    with pytest.raises(OrderCapExceeded, match="table rows of cyclic.16385. exceed the byte budget"):
        validate_spec(cyclic(16_385))
    with pytest.raises(OrderCapExceeded, match="exceeds the cap"):  # the cap comes first
        validate_spec(cyclic(70_000))
    # 4 * 100^2 bytes: order 100 fits, every formula kind above it is refused
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 40_000)
    assert construct(cyclic(100)).order == 100
    for spec in (cyclic(101), abelian([101]), metacyclic(101, 1, 1), dicyclic(26), heisenberg(5)):
        with pytest.raises(OrderCapExceeded, match="byte budget 40000"):
            construct(spec)


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None, [1], -1.5])
def test_integer_lists_refuse_every_other_json_value(bad):
    for payload in (
        {"kind": "abelian", "factors": [2, bad]},
        {"kind": "table", "order": 2, "table": [[0, 1], [1, bad]]},
        {"kind": "quotient", "group": {"kind": "cyclic", "n": 4}, "normal_generators": [bad]},
    ):
        with pytest.raises(InvalidParameters, match="has the wrong type"):
            descriptor_from_dict(payload)


def test_integer_lists_accept_ints_and_the_empty_list():
    spec = descriptor_from_dict({"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]})
    assert spec.table == ((0, 1), (1, 0))
    spec = descriptor_from_dict(
        {"kind": "quotient", "group": {"kind": "cyclic", "n": 4}, "normal_generators": []}
    )
    assert spec.normal_generators == ()


def test_invalid_kind():
    with pytest.raises(InvalidParameters):
        construct(GroupSpecDescriptor("frobnicate"))


def test_every_constructed_family_passes_axioms():
    from cutlab.group_core import validate_group_axioms

    for spec in (
        cyclic(12),
        abelian([4, 4]),
        metacyclic(12, 2, 5),
        dicyclic(3),
        heisenberg(3),
        symmetric(3),
    ):
        validate_group_axioms(construct(spec))


def test_construct_validates_each_spec_tree_once(monkeypatch):
    cyclic_kind = constructors.KINDS["cyclic"]
    checked = []

    def counted(spec, cap):
        checked.append(spec.n)
        return cyclic_kind.check(spec, cap)

    monkeypatch.setitem(constructors.KINDS, "cyclic", dataclasses.replace(cyclic_kind, check=counted))
    assert construct(product(product(cyclic(2), cyclic(3)), cyclic(5))).order == 30
    assert sorted(checked) == [2, 3, 5]


def test_permutation_check_makes_one_orbit_call(monkeypatch):
    calls = []
    orbit_labels = _kernels.orbit_labels
    monkeypatch.setattr(_kernels, "orbit_labels", lambda perms: calls.append(1) or orbit_labels(perms))
    spec = permutation(6, [[1, 2, 0, 3, 4, 5], [1, 0, 2, 3, 4, 5], [0, 1, 2, 4, 5, 3]])
    validate_spec(spec)
    assert len(calls) == 1


def test_formula_builders_name_no_element_until_asked(monkeypatch):
    calls = []
    real = constructors._ab_label
    monkeypatch.setattr(constructors, "_ab_label", lambda *a: calls.append(a) or real(*a))
    G = construct(metacyclic(2048, 2, 2047))  # dihedral of order 4096
    assert type(G) is FormulaGroup and G.is_named and calls == []
    assert G.label(2049) == "a b" and len(calls) == 1


def test_labels_match_the_names_formed_up_front(checked_groups):
    """Every label of the corpus groups, the analyze specs and the sweep streams of seeds 1 and 7."""
    kinds = set()
    for spec, G in checked_groups:
        want = reference_labels(spec, G)
        assert [G.label(x) for x in range(G.order)] == want, spec.describe()
        labels = all_labels(G)
        assert (labels is None) == (spec.kind == "table"), spec.describe()
        assert labels is None or list(labels) == want, spec.describe()
        kinds.add(spec.kind)
    assert kinds == set(constructors.KINDS)


# one spec of every kind; cyclic(600), symmetric(6) and the product keep no table
CYCLE_SPECS = [
    cyclic(6),
    cyclic(600),
    abelian([2, 4]),
    metacyclic(9, 9, 4),
    dicyclic(3),
    heisenberg(3),
    symmetric(4),
    symmetric(6),
    permutation(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]),
    table_spec(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    product(symmetric(3), cyclic(4)),
    quotient_spec(cyclic(12), [3]),
]


@pytest.mark.parametrize("spec", CYCLE_SPECS, ids=lambda s: s.describe())
def test_a_built_group_is_in_no_reference_cycle(spec):
    """A group, its names formed, is freed by reference counting alone: no namer holds it.

    So is the group of its whole self as a subgroup (``as_group``), and it holds no parent.
    """
    gc.disable()
    try:
        G = construct(spec)
        G.label(G.order - 1)
        ref = weakref.ref(G)
        del G
        assert ref() is None
        G = construct(spec)
        H = G.subgroup(np.arange(G.order)).as_group()
        H.label(H.order - 1)
        refs = weakref.ref(G), weakref.ref(H)
        del G, H
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()

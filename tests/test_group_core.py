"""Core group machinery against the naive oracles and frozen values."""

import math
import tracemalloc
import dataclasses
from collections import deque

import numpy as np
import pytest

from conftest import (
    class_size,
    contains,
    count_fill_rows,
    naive_center,
    naive_classes,
    naive_cut,
    naive_order,
    quotient_has_cut,
    reference_commutator_sets,
    reference_coset_minima,
    reference_derived_series_orders,
    reference_greedy_generators,
    reference_lower_central_series,
    reference_orbit_lengths,
    reference_orders,
    reference_power_vec,
    sweep_specs,
    table_of,
)
from cutlab import _kernels, characterizations, constructors, cut_engine, group_core
from cutlab.constructors import (
    abelian,
    construct,
    cyclic,
    dicyclic,
    heisenberg,
    metacyclic,
    permutation,
    product,
    symmetric,
    table_spec,
)
from cutlab.corpus import builtin_corpus, run_corpus
from cutlab.errors import NotAGroup, NotAPermutation, NotNormal, OrderCapExceeded
from cutlab.group_core import (
    FiniteGroup,
    FormulaGroup,
    PermutationGroup,
    TableGroup,
    build_from_permutations,
    build_from_table,
    center,
    commutator_subgroups,
    coset_minima,
    derived_series_orders,
    direct_product,
    greedy_generators,
    lower_central_series,
    quotient,
    subgroup_generated,
    validate_group_axioms,
)


# -- build_from_table ---------------------------------------------------------

def test_table_trivial_group():
    G = build_from_table(1, [[0]])
    assert G.order == 1
    assert G.conjugacy.num_classes == 1


def test_table_c2():
    G = build_from_table(2, [[0, 1], [1, 0]])
    assert G.order == 2
    assert G.mul(1, 1) == 0


def test_table_c3_rows():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    # independent check of all 27 associativity triples
    assert all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(3)
        for j in range(3)
        for k in range(3)
    )
    G = build_from_table(3, table)
    assert G.conjugacy.num_classes == 3
    assert all(class_size(G.conjugacy, c) == 1 for c in range(3))


def test_table_identity_relabeled_to_zero():
    # C3 with the identity sitting at index 1
    base = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    relabel = [1, 0, 2]
    moved = [[relabel[base[relabel[i]][relabel[j]]] for j in range(3)] for i in range(3)]
    G = build_from_table(3, moved)
    assert G.mul(0, 2) == 2 and G.mul(2, 0) == 2


def test_table_rejects_bad_latin_square():
    with pytest.raises(NotAGroup):
        build_from_table(2, [[0, 0], [1, 0]])


def test_table_rejects_nonassociative():
    # Latin square with two-sided identity 0 but (1*1)*2 != 1*(1*2)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup, match="associativity|identity"):
        build_from_table(5, table)


def _cyclic1000_intercalate(a, c):
    """cyclic(1000) with the intercalate on rows a, a+500 and columns c, c+500 swapped."""
    idx = np.arange(1000)
    table = (idx[:, None] + idx[None, :]) % 1000
    rows = [a, a + 500]
    table[rows, c], table[rows, c + 500] = table[rows, c + 500], table[rows, c]
    return table


# non-associative Latin squares of order 1000 that a 10,000-triple sample misses
INTERCALATES_1000 = [(237, 256), (377, 475), (18, 72), (125, 156), (434, 212), (411, 474)]


@pytest.mark.parametrize("a, c", INTERCALATES_1000)
def test_table_rejects_nonassociative_order_1000(a, c):
    with pytest.raises(NotAGroup, match="associativity fails on triple"):
        build_from_table(1000, _cyclic1000_intercalate(a, c))


@pytest.mark.parametrize("a, c", INTERCALATES_1000)
def test_validate_group_axioms_rejects_nonassociative_order_1000(a, c):
    table = _cyclic1000_intercalate(a, c)
    G = TableGroup(table, greedy_generators(table))
    with pytest.raises(NotAGroup, match="associativity fails on triple"):
        validate_group_axioms(G)


def test_table_rejects_out_of_range():
    with pytest.raises(NotAGroup, match="out of range"):
        build_from_table(2, [[0, 5], [1, 0]])


def _cyclic_table(n):
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def _swap_names(table, e):
    """The table with the element names 0 and e exchanged."""
    s = np.arange(len(table))
    s[0], s[e] = e, 0
    out = np.empty_like(table)
    out[s[:, None], s[None, :]] = s[table]
    return out


def _faulty_tables():
    """(table, the NotAGroup message naming its first fault)."""
    out_of_range, bad_row, bad_column = _cyclic_table(12), _cyclic_table(12), _cyclic_table(12)
    out_of_range[7, 3], out_of_range[9, 1] = 12, -1
    bad_row[5, 1] = bad_row[5, 2]
    bad_column[5, [1, 2]] = bad_column[5, [2, 1]]
    idx = np.arange(6)
    mismatched = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    return [
        (out_of_range, "entry out of range at cell (7, 3)"),
        ((idx[:, None] - idx[None, :]) % 6, "table has no two-sided identity element"),
        (bad_row, "row 5 is not a permutation (Latin square fails)"),
        (bad_column, "column 1 is not a permutation (Latin square fails)"),
        (np.array(mismatched), "element 2 has mismatched left/right inverse"),
        (_cyclic1000_intercalate(237, 256), "associativity fails on triple (236, 1, 256)"),
        (_swap_names(_cyclic1000_intercalate(377, 475), 500), "associativity fails on triple (376, 1, 475)"),
        ([[0, 1], [1, 0], [0, 1]], "table shape (3, 2) does not match order 3"),
    ]


@pytest.mark.parametrize("one_row", [False, True], ids=["default budget", "one row per block"])
def test_table_faults_are_named_first_in_any_block_size(monkeypatch, one_row):
    if one_row:
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1)
    for table, message in _faulty_tables():
        with pytest.raises(NotAGroup) as info:
            build_from_table(len(table), table)
        assert str(info.value) == message
    G = build_from_table(1000, _swap_names(_cyclic_table(1000), 321).tolist())
    assert np.array_equal(G.table, _cyclic_table(1000))


def test_an_order_1024_table_spec_builds_within_twice_its_table():
    """The int32 table is the only order x order array: the checks and the read run in row blocks."""
    dihedral = construct(metacyclic(512, 2, 511)).dense_table()
    spec = table_spec(1024, _swap_names(dihedral, 5).tolist())  # its identity is element 5
    tracemalloc.start()
    try:
        G = construct(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(G.table, dihedral)
    assert peak < 2 * dihedral.nbytes, peak


# -- build_from_permutations --------------------------------------------------

def test_permutations_s3():
    G = build_from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    assert G.order == 6
    assert G.conjugacy.num_classes == 3


def test_permutations_c4():
    G = build_from_permutations(4, [(1, 2, 3, 0)])
    assert G.order == 4
    assert G.is_abelian


def test_permutations_identity_generator():
    G = build_from_permutations(2, [(0, 1)])
    assert G.order == 1


def test_permutations_rejects_non_bijection():
    with pytest.raises(NotAPermutation):
        build_from_permutations(3, [(0, 0, 2)])


def test_permutations_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_from_permutations(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], max_order=100)


def _random_permutation_generators(rng, degree):
    """Generators of a random group of order <= 120 acting diagonally on copies of m <= 5 points.

    The degree // m copies sit on randomly chosen points of 0..degree-1; the rest are fixed.
    """
    m = int(rng.integers(3, min(degree, 5) + 1))
    copies = degree // m
    spots = rng.permutation(degree)
    gens = []
    for _ in range(2):
        base = rng.permutation(m)
        g = np.arange(degree)
        for c in range(copies):
            pts = spots[c * m:(c + 1) * m]
            g[pts] = pts[base]
        gens.append(g.tolist())
    return gens


def _reference_closure(degree, gens):
    """Reference element order: a per-element BFS over full-degree images with a dict index."""
    gen_imgs = [np.asarray(g, dtype=np.int32) for g in gens]
    identity = np.arange(degree, dtype=np.int32)
    images, index, queue = [identity], {identity.tobytes(): 0}, deque([0])
    while queue:
        i = queue.popleft()
        for garr in gen_imgs:
            composed = np.ascontiguousarray(images[i][garr])
            if composed.tobytes() not in index:
                index[composed.tobytes()] = len(images)
                images.append(composed)
                queue.append(len(images) - 1)
    gen_idx = []
    for garr in gen_imgs:
        i = index[garr.tobytes()]
        if i != 0 and i not in gen_idx:
            gen_idx.append(i)
    return np.stack(images), tuple(gen_idx or (0,))


def _reference_cycle_label(img):
    cycles, seen = [], set()
    for start in range(len(img)):
        if start in seen or img[start] == start:
            continue
        cyc, cur = [], start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = int(img[cur])
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) or "()"


@pytest.mark.parametrize("degree", range(3, 21))
def test_permutation_backend_matches_reference_composition(degree):
    rng = np.random.default_rng(1000 + degree)
    gens = _random_permutation_generators(rng, degree)
    G = build_from_permutations(degree, gens)
    stack, gen_idx = _reference_closure(degree, gens)
    # same BFS element order, generators and labels; images kept on the moved points
    points = group_core.moved_points([np.asarray(g) for g in gens])
    assert G.degree == len(points)
    full = np.tile(np.arange(degree), (G.order, 1))
    full[:, points] = points[G.images]
    assert np.array_equal(full, stack)
    assert G.generators == gen_idx
    assert tuple(G.label(x) for x in range(G.order)) == tuple(_reference_cycle_label(im) for im in stack)
    # mul_vec and mul against images[a][images[b]], looked up by brute force
    where = {row.tobytes(): i for i, row in enumerate(G.images)}
    a, b = np.meshgrid(np.arange(G.order), np.arange(G.order), indexing="ij")
    expect = np.array(
        [[where[G.images[x][G.images[y]].tobytes()] for y in range(G.order)] for x in range(G.order)]
    )
    assert np.array_equal(G.mul_vec(a, b), expect)
    for x, y in rng.integers(0, G.order, size=(20, 2)):
        assert G.mul(int(x), int(y)) == expect[x, y]
    # inv_vec is a two-sided inverse
    everyone = np.arange(G.order)
    assert (G.mul_vec(everyone, G.inv_vec) == 0).all()
    assert (G.mul_vec(G.inv_vec, everyone) == 0).all()


def test_permutation_backend_covers_wide_keys():
    # the reference test above reaches more than 15 stored points (64-byte keys)
    widths = []
    for degree in range(3, 21):
        gens = _random_permutation_generators(np.random.default_rng(1000 + degree), degree)
        widths.append(group_core.moved_points([np.asarray(g) for g in gens]).size)
    assert max(widths) > 15


def test_permutation_mul_vec_chunks_match(monkeypatch):
    G = construct(symmetric(5))
    everyone = np.arange(G.order)
    whole = G.mul_vec(everyone[:, None], everyone[None, :])
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 64)
    assert np.array_equal(G.mul_vec(everyone[:, None], everyone[None, :]), whole)
    assert np.array_equal(G.dense_table(), whole)
    assert G.mul_vec(3, 7).shape == ()


def test_permutation_group_rejects_images_that_are_not_a_group():
    with pytest.raises(NotAGroup, match="not an element"):
        PermutationGroup(np.array([[0, 1, 2], [1, 2, 0]]), (1,))
    with pytest.raises(NotAGroup, match="not distinct"):
        PermutationGroup(np.array([[0, 1, 2], [1, 0, 2], [1, 0, 2]]), (1,))


def _iterated_wreath_of_c2(levels):
    """C2 wr ... wr C2 on 2^levels points, of order 2^(2^levels - 1).

    Generator k swaps the two halves of the points 0..2^(k+1)-1.
    """
    degree = 2**levels
    gens = []
    for k in range(levels):
        half = 2**k
        gens.append(list(range(half, 2 * half)) + list(range(half)) + list(range(2 * half, degree)))
    return permutation(degree, gens)


def _products_found_by_their_bytes(G, a, b):
    """images[a][images[b]] for each pair, each row found in a dict of every element's row bytes."""
    index = {row.tobytes(): x for x, row in enumerate(G.images)}
    composed = np.take_along_axis(G.images[a], G.images[b], axis=1)
    return [index[row.tobytes()] for row in composed]


@pytest.mark.parametrize(
    "spec", [symmetric(6), symmetric(8), _iterated_wreath_of_c2(4)], ids=lambda s: s.describe()
)
def test_permutation_products_are_the_composed_rows_found_by_their_bytes(spec):
    G = construct(spec)
    assert G.table is None and G.order in (720, 40_320, 32_768)
    rng = np.random.default_rng(G.order)
    a, b = (rng.integers(0, G.order, 4000) for _ in range(2))
    assert G.mul_vec(a, b).tolist() == _products_found_by_their_bytes(G, a, b)
    # every element times every generator, and times its inverse
    everyone = np.repeat(np.arange(G.order), len(G.generators))
    gens = np.tile(G.generators, G.order)
    assert G.mul_vec(everyone, gens).tolist() == _products_found_by_their_bytes(G, everyone, gens)
    assert not any(_products_found_by_their_bytes(G, np.arange(G.order), G.inv_vec))


def test_permutation_lookup_refuses_every_row_that_is_no_element():
    C4 = construct(permutation(4, [(1, 2, 3, 0)]))
    S4 = construct(symmetric(4))
    members = {row.tobytes() for row in C4.images}
    found = 0
    for row in S4.images:
        if row.tobytes() in members:
            found += C4.images[C4._lookup(row[None])[0]].tobytes() == row.tobytes()
        else:
            with pytest.raises(NotAGroup, match="not an element"):
                C4._lookup(row[None])
    assert found == 4


def test_permutation_keys_shared_by_distinct_rows_derive_new_weights(monkeypatch):
    """Weights under which every row has one key are derived afresh: no raise, no wrong element."""
    derived = []
    weights = group_core._point_weights

    def colliding_first(degree, salt=0):
        derived.append(salt)
        # every permutation row has the same sum, so unit weights give every row one key
        return np.ones(degree, dtype=np.int64) if salt == 0 else weights(degree, salt)

    monkeypatch.setattr(group_core, "_point_weights", colliding_first)
    G = construct(symmetric(6))
    assert derived == [0, 1] and G.table is None
    rng = np.random.default_rng(6)
    a, b = (rng.integers(0, G.order, 2000) for _ in range(2))
    assert G.mul_vec(a, b).tolist() == _products_found_by_their_bytes(G, a, b)
    # equal rows still raise, wherever they sit among the rows of one key
    with pytest.raises(NotAGroup, match="not distinct"):
        PermutationGroup(np.array([[0, 1, 2], [1, 0, 2], [0, 2, 1], [1, 0, 2]]), (1, 2))


def test_permutation_labels_name_the_original_points():
    G = build_from_permutations(7, [(0, 3, 2, 5, 4, 1, 6), (0, 3, 2, 1, 4, 5, 6)])
    assert G.degree == 3
    labels = sorted(G.label(x) for x in range(G.order))
    assert labels == sorted(["()", "(1 3 5)", "(1 5 3)", "(1 3)", "(1 5)", "(3 5)"])


# the permutation specs of the test suite, besides the random ones above
SUITE_PERMUTATIONS = [
    permutation(3, [(1, 0, 2), (0, 2, 1)]),
    permutation(4, [(1, 2, 3, 0)]),
    permutation(3, [(0, 1, 2), (1, 0, 2)]),
    permutation(7, [(0, 3, 2, 5, 4, 1, 6), (0, 3, 2, 1, 4, 5, 6)]),
    permutation(3, [(1, 0, 2), (1, 2, 0)]),
    permutation(3, [(1, 2, 0)]),
    permutation(4, [(1, 2, 0, 3), (1, 2, 3, 0)]),
    permutation(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]),
]


@pytest.mark.parametrize(
    "spec",
    [symmetric(d) for d in range(1, 7)] + SUITE_PERMUTATIONS,
    ids=lambda s: s.describe() + str(s.generators or ""),
)
def test_permutation_labels_on_demand_match_cycle_notation(spec):
    G = construct(spec)
    gens = spec.generators
    if gens is None:  # the symmetric builder's generators
        d = spec.degree
        gens = [[0]] if d == 1 else [[1, 0] + list(range(2, d)), list(range(1, d)) + [0]]
    degree = len(gens[0])
    points = group_core.moved_points([np.asarray(g) for g in gens])
    full = np.tile(np.arange(degree), (G.order, 1))
    full[:, points] = points[G.images]
    for x in range(G.order):
        expected = group_core._perm_cycle_label(G.images[x], points)
        assert G.label(x) == expected == _reference_cycle_label(full[x])


def _permutation_facts(G):
    """Every fact of a permutation group that its storage could change, as plain values."""
    profile = G.profile
    return {
        "inverses": G.inv_vec.tolist(),
        "classes": [
            getattr(G.conjugacy, n).tolist() for n in ("class_of", "representatives", "inverse_class")
        ],
        "orders": G.element_orders.tolist(),
        "cut": cut_engine.decide_cut(G).witnesses,
        "oracle": cut_engine.decide_cut_bruteforce(G).witnesses,
        "labels": [G.label(x) for x in range(G.order)],
        "profile": dataclasses.replace(profile, sylow_subgroups={}),
        "sylow": {q: S.members.tolist() for q, S in profile.sylow_subgroups.items()},
        "table": G.dense_table().tolist(),
    }


def test_permutation_tables_answer_as_the_lookup(monkeypatch):
    """A permutation group that keeps its composed table answers exactly as the key lookup does."""
    specs = [s for seed in (1, 7) for s in sweep_specs(seed) if s.kind == "permutation"]
    specs += [symmetric(d) for d in (3, 4, 5)]
    kept = [construct(s) for s in specs]
    want = [_permutation_facts(G) for G in kept]
    # 4·n² > 64 bytes for every order here, so no table fits one block
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 64)
    for spec, G, facts in zip(specs, kept, want):
        L = construct(spec)
        assert G.table is not None and L.table is None
        assert np.array_equal(G.images, L.images) and G.generators == L.generators
        assert _permutation_facts(L) == facts, spec.describe()


@pytest.mark.parametrize(
    "spec",
    [
        symmetric(6),
        # S4 wr C2 on 8 points, order 1152
        permutation(8, [(1, 2, 3, 0, 4, 5, 6, 7), (1, 0, 2, 3, 4, 5, 6, 7), (4, 5, 6, 7, 0, 1, 2, 3)]),
    ],
    ids=lambda s: s.describe(),
)
def test_composed_dense_table_matches_the_lookup_fill(spec):
    G = construct(spec)
    assert G.table is None and G.order > 512
    table = G.dense_table()
    assert table.dtype == np.int32
    assert np.array_equal(table, group_core.fill_table(G.order, G._product))


def test_composed_table_refuses_generators_that_fall_short():
    G = construct(symmetric(4))
    gens = np.array(G.generators[:1])
    with pytest.raises(NotAGroup, match="do not generate all 24 elements"):
        group_core.composed_table(gens, G.mul_vec(np.arange(24)[None, :], gens[:, None]))


def test_permutation_group_refuses_columns_of_generators_that_fall_short(monkeypatch):
    """A table composed from its generators' columns is the cover check: no second walk is made."""
    S4 = construct(symmetric(4))
    gens = np.array(S4.generators)
    columns = S4.mul_vec(np.arange(24)[None, :], gens[:, None])
    with pytest.raises(NotAGroup, match="do not generate all 24 elements"):
        PermutationGroup(S4.images, gens[:1], S4.points, columns=columns[:1])
    walks = []
    labels = group_core._coset_labels
    monkeypatch.setattr(group_core, "_coset_labels", lambda *a: walks.append(a) or labels(*a))
    G = PermutationGroup(S4.images, gens, S4.points, columns=columns)
    assert np.array_equal(G.table, S4.table) and walks == []
    S6 = construct(symmetric(6))  # past one row block: no table, so the cover is walked
    assert S6.table is None and len(walks) == 1


def _products_match_the_product_fill(groups):
    """Whether every ProductGroup's outer-sum table is ``fill_table`` over its product; their count."""
    products = [G for G in groups if isinstance(G, group_core.ProductGroup)]
    for G in products:
        table = G.dense_table()
        assert table.dtype == np.int32, G.name
        assert np.array_equal(table, group_core.fill_table(G.order, G._product)), G.name
    return len(products)


def test_product_tables_are_the_outer_sums_of_their_factor_tables(sweep_groups, monkeypatch):
    """Corpus and sweep products, and every product one corpus run builds, fill as ``_product`` does."""
    corpus = [construct(e.spec) for e in builtin_corpus() if e.spec.kind == "product"]
    assert _products_match_the_product_fill(corpus) > 0
    for seed in (1, 7):
        assert _products_match_the_product_fill([G for _, G in sweep_groups[seed]]) > 0
    built = []
    product = characterizations.direct_product

    def recorded(*args):
        built.append(product(*args))
        return built[-1]

    monkeypatch.setattr(characterizations, "direct_product", recorded)
    pairs = len(run_corpus(builtin_corpus()).remark_pairs)
    assert _products_match_the_product_fill(built) == len(built) > pairs > 0


def test_permutation_closure_computes_no_label(monkeypatch):
    calls = []
    real = group_core._perm_cycle_label
    monkeypatch.setattr(group_core, "_perm_cycle_label", lambda *a: calls.append(a) or real(*a))
    G = build_from_permutations(4096, [list(range(1, 4096)) + [0]])
    assert G.order == 4096 and calls == []
    assert G.label(1) == "(" + " ".join(map(str, range(4096))) + ")"
    assert len(calls) == 1


def test_permutation_closure_byte_budget(monkeypatch):
    s4 = [(1, 2, 0, 3), (1, 2, 3, 0)]
    # S4 stores 24 images of 4 points: 384 bytes
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 384)
    assert build_from_permutations(4, s4).order == 24
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 383)
    with pytest.raises(OrderCapExceeded, match="byte budget 383"):
        build_from_permutations(4, s4)


# -- power / element_order ----------------------------------------------------

def test_power_examples():
    C12 = construct(cyclic(12))
    assert C12.power(1, 0) == 0
    assert C12.power(1, -1) == 11
    assert C12.power(5, 7) == (5 * 7) % 12
    assert C12.power(1, 10 ** 9) == (10 ** 9) % 12
    assert C12.power(1, -(10 ** 9)) == (-(10 ** 9)) % 12
    M81 = construct(metacyclic(9, 9, 4))
    assert M81.element_order(M81.power(9, 3)) == 3


@pytest.mark.parametrize(
    "spec", [cyclic(12), metacyclic(9, 9, 4), symmetric(5), product(dicyclic(3), cyclic(4))]
)
def test_power_vec_matches_power(spec):
    G = construct(spec)
    rng = np.random.default_rng(G.order)
    xs = rng.integers(0, G.order, size=200)
    ks = rng.integers(0, 140, size=200)
    ks[:20] = 0
    expected = [G.power(int(x), int(k)) for x, k in zip(xs, ks)]
    assert reference_power_vec(G, xs, ks).tolist() == expected  # one exponent per element
    for k in (0, 1, 5, 64):  # one exponent for all
        assert G.power_vec(xs, k).tolist() == [G.power(int(x), k) for x in xs]
    assert G.power_vec(7 % G.order, 3).shape == ()


def test_power_vec_refuses_a_negative_exponent():
    C12 = construct(cyclic(12))
    assert C12.power(1, -1) == 11
    for k in (-1, -2, -(10 ** 9)):
        with pytest.raises(ValueError, match="k >= 0"):
            C12.power_vec([1, 5], k)


@pytest.mark.parametrize("spec", [cyclic(12), metacyclic(2048, 2, 2047)], ids=["table", "formula"])
def test_power_vec_makes_exactly_its_counted_products(spec, monkeypatch):
    """k = 0..70 and 4095 each cost ``_power_products(k)`` ``mul_vec`` calls, and k <= 1 none.

    ``power_vec(xs, 0)`` is the identity in the shape of ``xs``, and the
    result of k = 1 is a fresh array, so writing into it leaves ``xs`` as it was.
    """
    G = construct(spec)
    assert (G.table is not None) == (spec.kind == "cyclic")
    calls = []
    mul_vec = G.mul_vec
    monkeypatch.setattr(G, "mul_vec", lambda a, b: calls.append(1) or mul_vec(a, b))
    xs = np.random.default_rng(G.order).integers(0, G.order, size=(3, 4))
    for k in [*range(71), 4095]:
        calls.clear()
        got = G.power_vec(xs, k)
        assert len(calls) == group_core._power_products(k), k
        assert np.array_equal(got, reference_power_vec(G, xs, k)), k
    assert group_core._power_products(4095) == 22 and group_core._power_products(1) == 0
    assert G.power_vec(xs, 0).shape == xs.shape and not G.power_vec(xs, 0).any()
    kept = xs.copy()
    once = G.power_vec(xs, 1)
    once[...] = 0
    assert np.array_equal(xs, kept)


def test_element_order_examples():
    G = construct(metacyclic(12, 2, 5))
    assert G.element_order(0) == 1
    assert G.element_order(1) == 12
    H = construct(heisenberg(3))
    assert all(H.element_order(x) == 3 for x in range(1, 27))
    t = table_of(H)
    assert all(naive_order(t, x) == H.element_order(x) for x in range(27))


# -- conjugacy ----------------------------------------------------------------

def test_conjugacy_abelian_singletons():
    G = construct(abelian([4, 2]))
    assert G.conjugacy.num_classes == 8


def test_conjugacy_matches_naive_on_samples():
    for spec in (metacyclic(3, 2, 2), metacyclic(9, 9, 4), dicyclic(4), symmetric(4)):
        G = construct(spec)
        part = G.conjugacy
        assert "class_members" not in vars(part)  # built on first access
        members = part.class_members
        for c, m in enumerate(members):
            assert list(m) == sorted(m) and not m.flags.writeable
            assert (part.class_of[m] == c).all() and m[0] == part.representatives[c]
        ours = sorted(tuple(int(v) for v in m) for m in members)
        naive = sorted(tuple(sorted(c)) for c in naive_classes(table_of(G)))
        assert ours == naive


def test_conjugacy_class_sizes_s3():
    G = construct(metacyclic(3, 2, 2))
    assert sorted(class_size(G.conjugacy, c) for c in range(3)) == [1, 2, 3]


def test_conjugacy_m81_class_of_b():
    G = construct(metacyclic(9, 9, 4))
    b = 9
    members = G.conjugacy.class_members[int(G.conjugacy.class_of[b])]
    assert sorted(G.label(int(m)) for m in members) == ["a^3 b", "a^6 b", "b"]
    b2 = G.mul(b, b)
    inv_b = G.inverse(b)
    assert G.conjugacy.class_of[b2] != G.conjugacy.class_of[inv_b]


def test_class_equation_and_inverse_involution():
    for spec in (metacyclic(5, 4, 2), dicyclic(2), heisenberg(3), symmetric(4)):
        G = construct(spec)
        part = G.conjugacy
        sizes = [class_size(part, c) for c in range(part.num_classes)]
        assert sum(sizes) == G.order
        assert all(G.order % s == 0 for s in sizes)
        inv_cls = part.inverse_class
        assert np.array_equal(inv_cls[inv_cls], np.arange(part.num_classes))
        for c in range(part.num_classes):
            mapped = sorted(int(G.inverse(int(x))) for x in part.class_members[c])
            assert mapped == list(part.class_members[int(inv_cls[c])])


def test_conjugation_equivariance():
    G = construct(metacyclic(8, 2, 3))
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, g = map(int, rng.integers(0, G.order, 2))
        j = int(rng.integers(-5, 9))
        conj = G.mul(G.mul(g, x), G.inverse(g))
        assert (
            G.conjugacy.class_of[G.power(conj, j)]
            == G.conjugacy.class_of[G.power(x, j)]
        )


def test_partition_realness_and_generator_conjugations(class_fact_groups):
    for G in class_fact_groups:
        part = G.conjugacy
        assert np.array_equal(part.is_real, part.inverse_class == np.arange(part.num_classes))
        assert cut_engine.classify(G).real_group == G.profile.is_real_group, G.name
        conj = G.generator_conjugations
        assert conj.shape == (len(G.generators), G.order)
        for row, g in zip(conj, G.generators):
            assert np.array_equal(row, G.conj_perm(g)), G.name
        assert not part.is_real.flags.writeable and not conj.flags.writeable


def test_power_map_is_the_class_of_each_representative_power(class_fact_groups):
    for G in class_fact_groups:
        part = G.conjugacy
        for k in (2, 3, 5):
            classes = G.power_map(k)
            want = [part.class_of[G.power(int(x), k)] for x in part.representatives]
            assert classes.tolist() == want, (G.name, k)
            assert not classes.flags.writeable
            assert G.power_map(k) is classes


def test_handles_compare_and_hash_by_identity():
    G = construct(dicyclic(2))
    Z, again = center(G), center(G)
    assert Z == Z and Z != again  # no elementwise comparison of the member arrays
    assert np.array_equal(Z.members, again.members)
    assert len({Z, again, Z}) == 2
    part = G.conjugacy
    assert part == part and part != construct(dicyclic(2)).conjugacy
    assert {part: 1}[G.conjugacy] == 1


# -- center / subgroups -------------------------------------------------------

def test_center_examples():
    A = construct(abelian([2, 3]))
    assert center(A).order == 6
    S3 = construct(metacyclic(3, 2, 2))
    assert center(S3).order == 1
    M81 = construct(metacyclic(9, 9, 4))
    Z = center(M81)
    assert Z.order == 9
    assert sorted(naive_center(table_of(M81))) == list(Z.members)
    Zg = Z.as_group()
    assert Zg.profile.exponent == 3 and Zg.is_abelian


def test_center_is_union_of_singleton_classes():
    for spec in (dicyclic(4), metacyclic(9, 9, 4), symmetric(3)):
        G = construct(spec)
        singles = sorted(
            int(m[0]) for m in G.conjugacy.class_members if len(m) == 1
        )
        assert singles == list(center(G).members)


def test_subgroup_generated_examples():
    G = construct(metacyclic(9, 9, 4))
    trivial = subgroup_generated(G, [])
    assert trivial.order == 1 and contains(trivial, 0)
    H = subgroup_generated(G, [3])  # a^3 is central
    assert H.order == 3 and H.is_normal
    S4 = construct(symmetric(4))
    three_cycle = next(x for x in range(24) if S4.element_order(x) == 3)
    A4 = subgroup_generated(S4, [three_cycle], normal_closure=True)
    assert A4.order == 12 and A4.is_normal


def test_subgroup_lagrange_and_closure():
    G = construct(dicyclic(4))
    for seed in range(G.order):
        H = subgroup_generated(G, [seed])
        assert G.order % H.order == 0
        members = set(int(v) for v in H.members)
        assert 0 in members
        for a in members:
            assert int(G.inverse(a)) in members
            for b in members:
                assert G.mul(a, b) in members


def _reference_normal_closure(G, seeds):
    """Grow a set by all products of its members and their conjugates by G's generators until stable."""
    members = np.unique(np.append(np.asarray(seeds, dtype=np.int64), 0))
    while True:
        products = G.mul_vec(members[:, None], members[None, :]).ravel()
        grown = np.unique(np.concatenate([products, G.generator_conjugations[:, members].ravel()]))
        if grown.size == members.size:
            return members
        members = grown


def test_normal_closures_match_a_reference_and_keep_few_generators():
    """Each conjugate added to the seed lies outside the closure of the generators before it.

    So each at least doubles the subgroup, and at most log2 |G| are added.
    """
    groups = [construct(e.spec) for e in builtin_corpus()] + [construct(symmetric(5))]
    for G in (G for G in groups if G.order <= 128):
        for x in G.conjugacy.representatives[1:].tolist():
            H = subgroup_generated(G, [x], normal_closure=True)
            assert H.members.tolist() == _reference_normal_closure(G, [x]).tolist(), (G.name, x)
            assert H.generators[0] == x and len(H.generators) - 1 <= math.log2(G.order), (G.name, x)
            for i in range(1, len(H.generators)):
                assert H.generators[i] not in group_core._closure_members(G, H.generators[:i]), (G.name, x)


def test_a_cyclic_closure_takes_logarithmically_many_products(monkeypatch):
    G = construct(cyclic(4096))
    assert type(G) is FormulaGroup
    calls = []
    mul_vec = FormulaGroup.mul_vec
    monkeypatch.setattr(FormulaGroup, "mul_vec", lambda self, a, b: calls.append(1) or mul_vec(self, a, b))
    H = subgroup_generated(G, [2])
    # the plain rounds, then two products per doubling of <2>'s powers, then one round over all
    assert H.members.tolist() == list(range(0, 4096, 2)) and H.generators == (2,)
    assert len(calls) <= group_core.PLAIN_ROUNDS + 2 * 12 + 2


def test_cosets_and_member_generators_match_coset_minima():
    """Cosets labelled as orbits of N's generators agree with the least member of each xN.

    N is a normal closure (it keeps its generators), a member set (its
    generators are adopted greedily, each outside the closure of those before)
    or the whole group, by its members and closed from G's generators.
    """
    for spec in (product(symmetric(4), dicyclic(3)), heisenberg(5), metacyclic(64, 16, 3), abelian([2, 4, 8])):
        G = construct(spec)
        everyone = np.arange(G.order)
        subs = [center(G), G.derived_subgroup, G.subgroup(everyone)]
        subs += [G.subgroup(everyone, G.generators)]
        subs += [subgroup_generated(G, [x], normal_closure=True) for x in G.conjugacy.representatives[:6]]
        for N in subs:
            assert coset_minima(G, N).tolist() == reference_coset_minima(G, N).tolist(), (G.name, N.order)
            assert group_core._closure_members(G, N.generators).tolist() == N.members.tolist()
            assert len(N.generators) <= math.log2(G.order) + 1
        for N in (subs[0], subs[2]):  # built from members: the greedy generators of its own table
            greedy = reference_greedy_generators(N.as_group().table)
            assert N.generators == tuple(N.members[list(greedy)].tolist()), (G.name, N.order)


def test_commutator_of_element():
    G = construct(metacyclic(9, 9, 4))
    handle, handle_id = commutator_subgroups(G, [9, 0])  # x = b, x = identity
    comm_set = np.flatnonzero(reference_commutator_sets(G, [9])[0])
    assert list(comm_set) == [0, 3, 6]
    assert handle.order == 3 and handle.is_normal
    assert list(comm_set) == list(handle.members)
    comm_id = handle_id.members
    assert list(comm_id) == [0]
    A = construct(abelian([4, 2]))
    everyone = np.arange(A.order)
    for s, h in zip(reference_commutator_sets(A, everyone), commutator_subgroups(A, everyone)):
        s = np.flatnonzero(s)
        assert list(s) == [0] and h.order == 1


def test_commutator_subgroups_match_reference():
    """[x, G] from generator commutators equals the normal closure of x's whole commutator set.

    Over every class representative of the corpus groups, the stress groups
    and the corpus pair products up to order 256; on class <= 2 the
    commutator set is itself the subgroup.
    """
    groups = [construct(e.spec) for e in builtin_corpus()]
    pairs = [direct_product(G, H) for i, G in enumerate(groups) for H in groups[i:] if G.order * H.order <= 256]
    stress = [construct(s) for s in (symmetric(4), symmetric(6), A5, product(cyclic(5), symmetric(5)))]
    class2 = 0
    for G in groups + stress + pairs:
        reps = G.conjugacy.representatives
        sets = reference_commutator_sets(G, reps)
        got = commutator_subgroups(G, reps)
        closures = {}
        for x, sub, s in zip(reps.tolist(), got, sets):
            if s.tobytes() not in closures:
                closures[s.tobytes()] = subgroup_generated(G, np.flatnonzero(s), normal_closure=True)
            assert sub.members.tolist() == closures[s.tobytes()].members.tolist(), (G.name, x)
        if center(G)._mask[sets.any(axis=0)].all():  # every commutator central: class <= 2
            assert np.array_equal(np.stack([sub._mask for sub in got]), sets), G.name
            class2 += 1
    assert len(pairs) > 1000 and class2 > 1000


# -- quotient / product -------------------------------------------------------

def test_quotient_examples():
    G = construct(metacyclic(9, 9, 4))
    whole = subgroup_generated(G, list(G.generators), normal_closure=True)
    assert quotient(G, whole).order == 1
    triv = subgroup_generated(G, [])
    Q = quotient(G, triv)
    assert Q.order == G.order
    assert np.array_equal(Q.dense_table(), G.dense_table())
    Z = center(G)
    QZ = quotient(G, Z)
    assert QZ.order == 9 and QZ.is_abelian and QZ.profile.exponent == 3
    assert QZ.order * Z.order == G.order


def test_quotient_rejects_non_normal():
    S3 = construct(metacyclic(3, 2, 2))
    flip = subgroup_generated(S3, [3])  # order-2 subgroup, not normal
    assert flip.order == 2 and not flip.is_normal
    with pytest.raises(NotNormal):
        quotient(S3, flip)


def test_an_empty_generating_set_is_the_identity():
    T = construct(cyclic(1))
    for G in (T, quotient(T, T.subgroup([0])), construct(product(cyclic(1), cyclic(1)))):
        assert G.generators == (0,), G.name
    S3 = construct(metacyclic(3, 2, 2))
    assert quotient(S3, S3.subgroup(np.arange(S3.order))).generators == (0,)


def test_direct_product_examples():
    G = construct(dicyclic(2))
    T = construct(cyclic(1))
    P = direct_product(G, T)
    assert P.order == G.order
    assert np.array_equal(P.dense_table(), G.dense_table())
    C6 = direct_product(construct(cyclic(2)), construct(cyclic(3)))
    assert int(C6.element_orders.max()) == 6
    Q8C3 = direct_product(G, construct(cyclic(3)))
    assert Q8C3.conjugacy.num_classes == 15
    with pytest.raises(OrderCapExceeded):
        direct_product(G, construct(cyclic(100)), max_order=500)


def test_product_class_structure_on_corpus_pairs():
    """Classes and orders of a product, taken from its factors, against a recomputation.

    The reference classes are the orbits of the product's own conjugation
    permutations.  Each order o is certified exact on the product itself:
    x^o is the identity and x^(o/p) is not, for every prime p dividing o.
    """
    from cutlab.corpus import builtin_corpus

    groups = [construct(e.spec) for e in builtin_corpus()]
    pairs = 0
    for i, G in enumerate(groups):
        for H in groups[i:]:
            if G.order * H.order > 512:
                continue
            P = direct_product(G, H)
            labels = _kernels.orbit_labels(np.stack([P.conj_perm(g) for g in P.generators]))
            reps = np.unique(labels)
            class_of = np.searchsorted(reps, labels)
            part = P.conjugacy
            assert np.array_equal(part.class_of, class_of)
            assert np.array_equal(part.representatives, reps)
            assert np.array_equal(part.inverse_class, class_of[P.inv_vec[reps]])
            orders, everyone = P.element_orders, np.arange(P.order)
            assert (reference_power_vec(P, everyone, orders) == 0).all()
            for p in group_core.prime_factors(P.order):
                divisible = orders % p == 0
                assert (reference_power_vec(P, everyone[divisible], orders[divisible] // p) != 0).all()
            sizes = sorted(len(m) for m in part.class_members)
            expected = sorted(
                len(a) * len(b)
                for a in G.conjugacy.class_members
                for b in H.conjugacy.class_members
            )
            assert sizes == expected
            pairs += 1
    assert pairs > 1000


# -- structural profile -------------------------------------------------------

def test_profile_examples():
    p = construct(metacyclic(12, 2, 5)).profile
    assert p.is_solvable and not p.is_nilpotent
    assert p.pi == (2, 3) and not p.is_eppo

    h = construct(heisenberg(3)).profile
    assert h.is_p_group and h.p == 3
    assert h.nilpotency_class == 2 and h.exponent == 3

    s = construct(metacyclic(3, 2, 2)).profile
    assert s.is_solvable and not s.is_nilpotent
    assert s.is_eppo and s.is_real_group

    t = construct(cyclic(1)).profile
    assert t.is_nilpotent and t.nilpotency_class == 0 and t.is_solvable


def test_profile_nilpotency_class_values():
    assert construct(cyclic(6)).profile.nilpotency_class == 1
    assert construct(dicyclic(2)).profile.nilpotency_class == 2
    assert construct(dicyclic(4)).profile.nilpotency_class == 3
    assert construct(metacyclic(9, 9, 4)).profile.nilpotency_class == 2


def test_profile_sylow_decomposition():
    G = direct_product(construct(dicyclic(2)), construct(cyclic(3)))
    p = G.profile
    assert p.is_nilpotent
    orders = {q: h.order for q, h in p.sylow_subgroups.items()}
    assert orders == {2: 8, 3: 3}
    total = 1
    for q, h in p.sylow_subgroups.items():
        total *= h.order
    assert total == G.order
    for x in p.sylow_subgroups[2].members:
        for y in p.sylow_subgroups[3].members:
            assert G.mul(int(x), int(y)) == G.mul(int(y), int(x))


def test_profile_s4_not_nilpotent():
    p = construct(symmetric(4)).profile
    assert p.is_solvable and not p.is_nilpotent and p.is_eppo


# -- series inside G ----------------------------------------------------------

A5 = permutation(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]])
SERIES_STRESS_SPECS = [
    symmetric(4), symmetric(6), A5, product(cyclic(5), symmetric(5)), metacyclic(2048, 2, 2047)
]


@pytest.mark.parametrize(
    "specs", [[e.spec for e in builtin_corpus()], SERIES_STRESS_SPECS], ids=["corpus", "stress"]
)
def test_series_match_table_group_reference(specs):
    for spec in specs:
        G = construct(spec)
        assert derived_series_orders(G) == reference_derived_series_orders(G), G.name
        got = [h.members.tolist() for h in lower_central_series(G)]
        assert got == [m.tolist() for m in reference_lower_central_series(G)], G.name


def test_series_examples():
    assert derived_series_orders(construct(symmetric(4))) == [24, 12, 4, 1]
    assert derived_series_orders(construct(A5)) == [60, 60]  # perfect, not solvable
    assert derived_series_orders(construct(product(cyclic(5), symmetric(5)))) == [600, 60, 60]
    assert derived_series_orders(construct(metacyclic(2048, 2, 2047))) == [4096, 1024, 1]
    assert [h.order for h in lower_central_series(construct(dicyclic(4)))] == [16, 4, 2, 1]
    assert [h.order for h in lower_central_series(construct(symmetric(4)))] == [24, 12, 12]
    assert [h.order for h in lower_central_series(construct(cyclic(1)))] == [1]


def _series_profile(G):
    """(nilpotent, class, solvable) read off the lower central and derived series references."""
    lower = reference_lower_central_series(G)
    nilpotent = len(lower[-1]) == 1
    solvable = reference_derived_series_orders(G)[-1] == 1
    return nilpotent, len(lower) - 1 if nilpotent else None, solvable


@pytest.mark.parametrize("source", ["corpus", "sweep-1", "sweep-7", "stress"])
def test_profile_matches_the_series_references(source, sweep_groups):
    """Nilpotency and class from the upper central series, solvability only past it."""
    if source == "corpus":
        groups = [construct(e.spec) for e in builtin_corpus()]
    elif source == "stress":
        groups = [construct(s) for s in SERIES_STRESS_SPECS]
    else:
        groups = [G for _, G in sweep_groups[int(source[-1])]]
    got = {}
    for G in groups:
        p = G.profile
        got[G.name] = p.is_nilpotent, p.nilpotency_class, p.is_solvable
        assert got[G.name] == _series_profile(G), G.name
    pins = {"corpus": ("dicyclic(4)", 3), "stress": ("metacyclic(2048,2,2047)", 11)}
    if source in pins:
        name, nilpotency_class = pins[source]
        assert got[name] == (True, nilpotency_class, True)


def test_profile_closes_only_the_derived_series(monkeypatch):
    """Nilpotency and the class close no subgroup; a group not nilpotent closes its derived series."""
    calls = []
    closure = group_core._closure_members
    monkeypatch.setattr(group_core, "_closure_members", lambda *a: calls.append(a) or closure(*a))
    dihedral = construct(metacyclic(2048, 2, 2047))
    S6, fresh_S6 = construct(symmetric(6)), construct(symmetric(6))
    calls.clear()
    assert dihedral.profile.nilpotency_class == 11
    assert calls == []
    assert derived_series_orders(S6) == [720, 360, 360]
    derived = len(calls)
    calls.clear()
    assert not fresh_S6.profile.is_solvable
    assert len(calls) == derived > 0


def test_subgroup_table_checked_against_the_byte_budget(monkeypatch):
    S4 = construct(symmetric(4))
    A4 = S4.derived_subgroup  # 12 x 12 int32 entries: 576 bytes
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 576)
    assert A4.as_group().order == 12
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 575)
    with pytest.raises(OrderCapExceeded, match="byte budget 575"):
        A4.as_group()


def test_quotient_table_checked_against_the_byte_budget(monkeypatch):
    S4 = construct(symmetric(4))
    V4 = S4.subgroup([0] + [int(x) for m in S4.conjugacy.class_members if len(m) == 3 for x in m])
    assert V4.order == 4 and V4.is_normal  # S4/V4 has 6 x 6 int32 entries: 144 bytes
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 144)
    assert quotient(S4, V4).order == 6
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 143)
    with pytest.raises(OrderCapExceeded, match="byte budget 143"):
        quotient(S4, V4)


def test_quotient_and_subgroup_tables_row_blocks(monkeypatch):
    S4 = construct(symmetric(4))
    V4 = S4.subgroup([0] + [int(x) for m in S4.conjugacy.class_members if len(m) == 3 for x in m])
    A4 = S4.derived_subgroup
    reps, coset_id = np.unique(reference_coset_minima(S4, V4), return_inverse=True)
    members = A4.members
    whole = (
        coset_id[S4.mul_vec(reps[:, None], reps[None, :])],
        np.searchsorted(members, S4.mul_vec(members[:, None], members[None, :])),
    )
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1)  # one row per block
    rows = count_fill_rows(monkeypatch, group_core)
    assert np.array_equal(quotient(S4, V4).table, whole[0])
    assert rows == [1] * 6
    assert np.array_equal(A4.as_group().table, whole[1])
    assert rows == [1] * (6 + 12)


def _central_subgroups_and_cuts(spec):
    G = construct(spec)
    families, minima = characterizations._central_subgroup_families(G, center(G), 1024)
    return np.concatenate(families), minima, cut_engine.central_factor_cuts(G, minima)


def _closure_pass():
    C = construct(cyclic(40))  # <3> is open after the plain rounds, so its powers are added
    G = construct(product(symmetric(4), dicyclic(3)))
    return (
        group_core._closure_members(C, [3]),
        group_core._closure_members(G, G.generators),
        subgroup_generated(G, [5], normal_closure=True).members,
    )


def _commutator_pass(spec):
    G = construct(spec)
    return G.derived_subgroup.members, np.array(derived_series_orders(G))


# every pass that works in row blocks, each on groups built afresh, as a tuple of arrays
BLOCKED_PASSES = {
    "PermutationGroup.mul_vec": lambda: (
        construct(symmetric(5)).mul_vec(np.arange(120)[:, None], np.arange(120)[None, :]),
    ),
    "build_from_permutations": lambda: (
        build_from_permutations(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]).images,
    ),
    "fill_table": lambda: tuple(
        construct(s).dense_table() for s in (metacyclic(9, 9, 4), abelian([2, 6, 3]), heisenberg(3))
    ),
    "dense_table": lambda: tuple(
        construct(s).dense_table() for s in (symmetric(4), product(symmetric(3), cyclic(4)))
    ),
    "table inverses": lambda: (
        TableGroup(construct(dicyclic(5)).dense_table(), (1, 10)).inv_vec,
        np.array(build_from_table(20, construct(dicyclic(5)).dense_table()).generators),
    ),
    "_closure_members": _closure_pass,
    "_commutator_subgroup": lambda: _commutator_pass(product(symmetric(4), dicyclic(3))),
    "_enumerate_subgroups and _quotient_cuts": lambda: _central_subgroups_and_cuts(abelian([4, 8])),
    "cut_witness_scan": lambda: (
        np.array(cut_engine.decide_cut_bruteforce(construct(metacyclic(16, 2, 15))).witnesses),
        np.array(cut_engine.decide_cut_bruteforce(construct(symmetric(4))).witnesses),
    ),
}


@pytest.mark.parametrize("name", list(BLOCKED_PASSES))
def test_blocked_passes_match_at_one_row_per_block(monkeypatch, name):
    """Every blocked pass gives at one row per block exactly what it gives at the default budget."""
    want = BLOCKED_PASSES[name]()
    blocks = []
    row_blocks = _kernels.row_blocks

    def recorded(*args):
        for rows in row_blocks(*args):
            blocks.append(rows.stop - rows.start)
            yield rows

    monkeypatch.setattr(_kernels, "row_blocks", recorded)
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 1)
    got = BLOCKED_PASSES[name]()
    assert blocks and set(blocks) == {1}
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_quotient_has_cut_reads_the_class_partition(monkeypatch):
    # G/N is decided from G's classes: no conjugation by generators, no orbit kernel
    S4 = construct(symmetric(4))
    V4 = S4.subgroup([0] + [int(x) for m in S4.conjugacy.class_members if len(m) == 3 for x in m])
    pairs = [(S4, V4), (S4, S4.derived_subgroup)]
    for spec in (metacyclic(9, 9, 4), heisenberg(3), product(cyclic(5), symmetric(4))):
        G = construct(spec)
        pairs.append((G, center(G)))
    want = [cut_engine.decide_cut(quotient(G, N)).has_cut for G, N in pairs]

    def refuse(*args):
        raise AssertionError("quotient_has_cut recomputed a class fact")

    monkeypatch.setattr(FiniteGroup, "conj_perm", refuse)
    monkeypatch.setattr(FiniteGroup, "generator_conjugations", property(refuse))
    monkeypatch.setattr(_kernels, "orbit_labels", refuse)
    assert [quotient_has_cut(G, N) for G, N in pairs] == want


def test_dense_table_checked_against_the_byte_budget(monkeypatch):
    S6 = construct(symmetric(6))  # keeps no table: 720 x 720 int32 entries, 2073600 bytes
    C6, S4 = construct(cyclic(6)), construct(symmetric(4))  # each hands out the table it keeps
    assert S6.table is None
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 2_073_600)
    assert S6.dense_table().shape == (720, 720)
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 2_073_599)
    with pytest.raises(OrderCapExceeded, match="byte budget 2073599"):
        S6.dense_table()
    monkeypatch.setattr(group_core, "PERMUTATION_BYTE_BUDGET", 1)
    assert C6.dense_table() is C6.table and S4.dense_table() is S4.table


def test_dense_table_matches_a_row_by_row_reference():
    """The row-block fill gives each backend's table and holds a few blocks beyond it."""
    G = construct(metacyclic(8, 4, 3))
    groups = [
        construct(symmetric(6)),  # 720 rows, filled in blocks of 22
        construct(product(symmetric(4), dicyclic(8))),
        quotient(G, center(G)),
    ]
    for G in groups:
        everyone = np.arange(G.order)
        want = np.stack([G.mul_vec(g, everyone) for g in range(G.order)])
        tracemalloc.start()
        try:
            table = G.dense_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.dtype == np.int32 and np.array_equal(table, want), G.name
        assert peak - table.nbytes < 4 * _kernels.BLOCK_BYTES, G.name


def test_greedy_generators_and_orbit_lengths_match_bfs_references(class_fact_groups):
    for G in class_fact_groups:
        table = G.dense_table()
        assert greedy_generators(table) == reference_greedy_generators(table), G.name
        perms = [G.conj_perm(g) for g in G.generators]
        stacks = [[p] for p in perms] + [perms]
        want = [reference_orbit_lengths(stack) for stack in stacks]
        assert constructors._orbit_lengths(perms) == want, G.name


# -- validation ---------------------------------------------------------------

def test_validate_group_axioms_on_samples():
    for spec in (
        cyclic(17),
        metacyclic(9, 9, 4),
        dicyclic(4),
        heisenberg(3),
        symmetric(4),
        product(dicyclic(2), cyclic(3)),
    ):
        validate_group_axioms(construct(spec))


def test_validate_group_axioms_symmetric_6():
    validate_group_axioms(construct(symmetric(6)))


def test_validate_group_axioms_large_group_sampled():
    validate_group_axioms(construct(abelian([8, 8, 8])))


def test_element_orders_match_the_all_element_walk(checked_groups):
    """Orders walked on the class representatives and spread by class, against every element's walk."""
    kinds = set()
    for spec, G in checked_groups:
        assert G.element_orders.tolist() == reference_orders(G).tolist(), spec.describe()
        assert not G.element_orders.flags.writeable
        kinds.add(type(G))
    assert {FormulaGroup, PermutationGroup, TableGroup, group_core.ProductGroup} <= kinds


def test_backends_state_only_their_product():
    """Storage, whole-array products, dense tables and names are decided by FiniteGroup alone."""
    for cls in (TableGroup, FormulaGroup, PermutationGroup, group_core.ProductGroup):
        assert not {"mul_vec", "dense_table", "label", "is_named"} & set(vars(cls)), cls.__name__

"""Core group machinery against the naive oracles and frozen values."""

from collections import deque

import numpy as np
import pytest

from conftest import naive_center, naive_classes, naive_cut, naive_order, table_of
from cutlab import group_core
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
from cutlab.errors import NotAGroup, NotAPermutation, NotNormal, OrderCapExceeded
from cutlab.group_core import (
    PermutationGroup,
    TableGroup,
    build_from_permutations,
    build_from_table,
    center,
    commutator_of_element,
    direct_product,
    element_order,
    greedy_generators,
    power,
    quotient,
    structural_profile,
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
    assert all(G.conjugacy.class_size(c) == 1 for c in range(3))


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
    assert G.labels == tuple(_reference_cycle_label(im) for im in stack)
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
    monkeypatch.setattr(group_core, "MUL_CHUNK_BYTES", 64)
    assert np.array_equal(G.mul_vec(everyone[:, None], everyone[None, :]), whole)
    assert np.array_equal(G.dense_table(), whole)
    assert G.mul_vec(3, 7).shape == ()


def test_permutation_group_rejects_images_that_are_not_a_group():
    with pytest.raises(NotAGroup, match="not an element"):
        PermutationGroup(np.array([[0, 1, 2], [1, 2, 0]]), (1,))
    with pytest.raises(NotAGroup, match="not distinct"):
        PermutationGroup(np.array([[0, 1, 2], [1, 0, 2], [1, 0, 2]]), (1,))


def test_permutation_labels_name_the_original_points():
    G = build_from_permutations(7, [(0, 3, 2, 5, 4, 1, 6), (0, 3, 2, 1, 4, 5, 6)])
    assert G.degree == 3
    assert sorted(G.labels) == sorted(["()", "(1 3 5)", "(1 5 3)", "(1 3)", "(1 5)", "(3 5)"])


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
    assert power(C12, 1, 0) == 0
    assert power(C12, 1, -1) == 11
    assert power(C12, 5, 7) == (5 * 7) % 12
    assert power(C12, 1, 10 ** 9) == (10 ** 9) % 12
    assert power(C12, 1, -(10 ** 9)) == (-(10 ** 9)) % 12
    M81 = construct(metacyclic(9, 9, 4))
    assert element_order(M81, power(M81, 9, 3)) == 3


def test_element_order_examples():
    G = construct(metacyclic(12, 2, 5))
    assert element_order(G, 0) == 1
    assert element_order(G, 1) == 12
    H = construct(heisenberg(3))
    assert all(element_order(H, x) == 3 for x in range(1, 27))
    t = table_of(H)
    assert all(naive_order(t, x) == element_order(H, x) for x in range(27))


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
    assert sorted(G.conjugacy.class_size(c) for c in range(3)) == [1, 2, 3]


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
        sizes = [part.class_size(c) for c in range(part.num_classes)]
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
    assert trivial.order == 1 and trivial.contains(0)
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


def test_commutator_of_element():
    G = construct(metacyclic(9, 9, 4))
    comm_set, handle = commutator_of_element(G, 9)  # x = b
    assert list(comm_set) == [0, 3, 6]
    assert handle.order == 3 and handle.is_normal
    assert list(comm_set) == list(handle.members)
    comm_id, _ = commutator_of_element(G, 0)
    assert list(comm_id) == [0]
    A = construct(abelian([4, 2]))
    for x in range(A.order):
        s, h = commutator_of_element(A, x)
        assert list(s) == [0] and h.order == 1


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
    """Class sizes of a product are the pairwise products of factor sizes."""
    from cutlab.corpus import builtin_corpus

    groups = [construct(e.spec) for e in builtin_corpus()]
    pairs = 0
    for i, G in enumerate(groups):
        for H in groups[i:]:
            if G.order * H.order > 512:
                continue
            P = direct_product(G, H)
            sizes = sorted(len(m) for m in P.conjugacy.class_members)
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
    p = structural_profile(construct(metacyclic(12, 2, 5)))
    assert p.is_solvable and not p.is_nilpotent
    assert p.pi == (2, 3) and not p.is_eppo

    h = structural_profile(construct(heisenberg(3)))
    assert h.is_p_group and h.p == 3
    assert h.nilpotency_class == 2 and h.exponent == 3

    s = structural_profile(construct(metacyclic(3, 2, 2)))
    assert s.is_solvable and not s.is_nilpotent
    assert s.is_eppo and s.is_real_group

    t = structural_profile(construct(cyclic(1)))
    assert t.is_nilpotent and t.nilpotency_class == 0 and t.is_solvable


def test_profile_nilpotency_class_values():
    assert structural_profile(construct(cyclic(6))).nilpotency_class == 1
    assert structural_profile(construct(dicyclic(2))).nilpotency_class == 2
    assert structural_profile(construct(dicyclic(4))).nilpotency_class == 3
    assert structural_profile(construct(metacyclic(9, 9, 4))).nilpotency_class == 2


def test_profile_sylow_decomposition():
    G = direct_product(construct(dicyclic(2)), construct(cyclic(3)))
    p = structural_profile(G)
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
    p = structural_profile(construct(symmetric(4)))
    assert p.is_solvable and not p.is_nilpotent and p.is_eppo


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

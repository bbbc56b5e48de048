"""Property-based invariants over randomly drawn small groups."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import class_members, class_size, inverse, mul

from cutlab.constructors import (
    abelian,
    construct,
    cyclic,
    dicyclic,
    heisenberg,
    metacyclic,
    product,
)
from cutlab.cut_engine import decide_cut, decide_cut_bruteforce
from cutlab.group_core import center, quotient, subgroup_generated


def metacyclic_specs():
    def pick(draw_tuple):
        m, n, seed = draw_tuple
        valid = [r for r in range(1, m + 1) if math.gcd(r, m) == 1 and pow(r, n, m) == 1 % m]
        return metacyclic(m, n, valid[seed % len(valid)])

    return st.tuples(
        st.integers(1, 12), st.integers(1, 6), st.integers(0, 40)
    ).map(pick)


def abelian_specs():
    return st.lists(st.integers(1, 9), min_size=1, max_size=3).filter(
        lambda fs: math.prod(fs) <= 150
    ).map(abelian)


small_group_specs = st.one_of(
    st.integers(1, 24).map(cyclic),
    abelian_specs(),
    metacyclic_specs(),
    st.integers(1, 5).map(dicyclic),
    st.sampled_from([3, 5]).map(heisenberg),
    st.tuples(st.integers(1, 6).map(cyclic), st.integers(1, 4).map(dicyclic)).map(
        lambda pair: product(*pair)
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_group_specs)
def test_class_equation(spec):
    G = construct(spec)
    part = G.conjugacy
    sizes = [class_size(part, c) for c in range(part.num_classes)]
    assert sum(sizes) == G.order
    assert all(G.order % s == 0 for s in sizes)
    assert class_size(part, 0) == 1 and part.representatives[0] == 0


@settings(max_examples=60, deadline=None)
@given(small_group_specs, st.integers(0, 10_000), st.integers(0, 10_000), st.integers(-12, 12))
def test_conjugation_equivariance(spec, xs, gs, j):
    G = construct(spec)
    x, g = xs % G.order, gs % G.order
    conj = mul(G, mul(G, g, x), inverse(G, g))
    assert (
        G.conjugacy.class_of[G.power(conj, j)] == G.conjugacy.class_of[G.power(x, j)]
    )


@settings(max_examples=60, deadline=None)
@given(small_group_specs)
def test_inverse_class_is_involution(spec):
    G = construct(spec)
    part = G.conjugacy
    k = part.num_classes
    assert np.array_equal(part.inverse_class[part.inverse_class], np.arange(k))
    singles = sorted(int(m[0]) for m in class_members(part) if len(m) == 1)
    assert singles == list(center(G).members)


@settings(max_examples=40, deadline=None)
@given(small_group_specs)
def test_oracle_equivalence_random(spec):
    G = construct(spec)
    assert decide_cut(G).has_cut == decide_cut_bruteforce(G).has_cut


@settings(max_examples=40, deadline=None)
@given(small_group_specs, st.integers(0, 10_000))
def test_cyclic_subgroup_lagrange_and_quotient_order(spec, seed):
    G = construct(spec)
    x = seed % G.order
    H = subgroup_generated(G, [x], normal_closure=True)
    assert G.order % H.order == 0
    Q = quotient(G, H)
    assert Q.order * H.order == G.order


@settings(max_examples=40, deadline=None)
@given(small_group_specs)
def test_power_reduces_modulo_order(spec):
    G = construct(spec)
    for x in range(0, G.order, max(1, G.order // 7)):
        m = G.element_order(x)
        assert G.power(x, m) == 0
        assert G.power(x, -1) == inverse(G, x)
        assert G.power(x, m + 3) == G.power(x, 3)

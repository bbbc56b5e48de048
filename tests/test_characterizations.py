"""Each published characterization against the decision engine."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from conftest import (
    REFERENCE_CHARACTERIZATIONS,
    central_subgroup_families,
    class_members,
    quotient_has_cut,
    reference_center,
    reference_coset_classes,
    reference_coset_minima,
    reference_is_central,
    reference_is_normal,
    reference_power_vec,
    reference_witnesses,
)

from cutlab import characterizations, group_core
from cutlab.characterizations import (
    TheoremReport,
    TraceEntry,
    _class2_applicable,
    _subgroup_count,
    cor_class2,
    prop_class2_factor,
    remark_two_group_sum,
    thm_nilpotent,
    thm_odd,
    thm_solvable_eppo,
    verify_equivalences,
)
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
    _quotient_labels,
    central_factor_cuts,
    central_subgroup_has_cut,
    decide_cut,
)
from cutlab.errors import CenterTooLarge, HypothesisViolated
from cutlab.group_core import (
    center,
    commutator_subgroups,
    coset_minima,
    direct_product,
    quotient,
    subgroup_generated,
)


def test_thm_odd_examples():
    r = thm_odd(construct(cyclic(3)))
    assert r.applicable and r.predicted

    r = thm_odd(construct(metacyclic(7, 3, 2)))
    assert r.applicable and r.predicted

    r = thm_odd(construct(cyclic(9)))
    assert r.applicable and not r.predicted

    r = thm_odd(construct(cyclic(13)))
    assert r.applicable and not r.predicted
    assert any("13" in t.clause for t in r.trace if not t.ok)

    r = thm_odd(construct(cyclic(4)))
    assert not r.applicable and r.predicted is None


def test_thm_solvable_eppo_examples():
    r = thm_solvable_eppo(construct(metacyclic(3, 2, 2)))
    assert r.applicable and r.predicted

    r = thm_solvable_eppo(construct(metacyclic(5, 4, 2)))
    assert r.applicable and r.predicted

    r = thm_solvable_eppo(construct(metacyclic(12, 2, 5)))
    assert not r.applicable  # has an element of mixed order

    r = thm_solvable_eppo(construct(cyclic(13)))
    assert r.applicable and not r.predicted


def test_thm_nilpotent_examples():
    r = thm_nilpotent(construct(dicyclic(2)))
    assert r.applicable and r.predicted

    r = thm_nilpotent(construct(cyclic(3)))
    assert r.applicable and r.predicted

    r = thm_nilpotent(construct(product(dicyclic(2), cyclic(3))))
    assert r.applicable and r.predicted

    r = thm_nilpotent(construct(cyclic(12)))
    assert r.applicable and not r.predicted

    r = thm_nilpotent(construct(cyclic(5)))
    assert r.applicable and not r.predicted

    r = thm_nilpotent(construct(symmetric(3)))
    assert not r.applicable

    r = thm_nilpotent(construct(cyclic(1)))
    assert r.applicable and r.predicted


def test_thm_nilpotent_sylow_split():
    G = construct(product(metacyclic(4, 2, 3), cyclic(3)))  # D8 x C3
    prof = G.profile
    H = prof.sylow_subgroups[2]
    K = prof.sylow_subgroups[3]
    assert H.order * K.order == G.order
    both = set(map(int, H.members)) & set(map(int, K.members))
    assert both == {0}
    r = thm_nilpotent(G)
    assert r.applicable and r.predicted


def _sylow_table_reference(G):
    """thm_nilpotent's (predicted, trace) for pi = {2, 3}, on Sylow subgroups rebuilt as table groups."""

    def clause(P, k, either):
        part, trace = P.conjugacy, []
        for c, x in enumerate(part.representatives.tolist()):
            k_class = int(part.class_of[P.power(x, k)])
            ok = k_class == part.inverse_class[c] or (either and k_class == c)
            trace.append(TraceEntry(P.label(x), f"x^{k} ~ x or x^-1" if either else f"x^{k} ~ x^-1", ok))
        return trace

    H = G.profile.sylow_subgroups[2].as_group(name="sylow2")
    K = G.profile.sylow_subgroups[3].as_group(name="sylow3")
    trace = [TraceEntry("sylow 2-subgroup", "is a real group", H.profile.is_real_group)]
    trace += clause(H, 3, True) + clause(K, 2, False)
    return all(t.ok for t in trace), tuple(trace)


def test_thm_nilpotent_matches_sylow_table_groups():
    corpus = {e.id: e.spec for e in builtin_corpus()}
    groups = [construct(corpus["product-q8xc3"]), construct(corpus["product-d8xc3"])]
    built = {name: construct(spec) for name, spec in corpus.items()}
    for a in built.values():
        for b in built.values():
            if a.order * b.order <= 256 and a.profile.is_nilpotent and b.profile.is_nilpotent:
                if set(a.profile.pi) | set(b.profile.pi) == {2, 3}:
                    groups.append(direct_product(a, b))
    assert len(groups) > 100
    outcomes = set()
    for G in groups:
        r = thm_nilpotent(G)
        assert r.applicable and (r.predicted, r.trace) == _sylow_table_reference(G), G.name
        outcomes.add(r.predicted)
    assert outcomes == {True, False}


def test_analysis_builds_no_subgroup_table(monkeypatch):
    def refuse(self, name=None):
        raise AssertionError("a subgroup was copied into a table group")

    monkeypatch.setattr(group_core.SubgroupHandle, "as_group", refuse)
    for spec in (
        product(dicyclic(2), cyclic(3)),
        product(metacyclic(4, 2, 3), cyclic(3)),
        heisenberg(3),
        abelian([2, 4, 8]),
        symmetric(5),
        metacyclic(12, 2, 5),
    ):
        G = construct(spec)
        assert all(r.agrees_with_decider is not False for r in verify_equivalences(G)), G.name


def test_cor_class2_examples():
    r = cor_class2(construct(cyclic(4)))
    assert r.applicable and r.predicted

    r = cor_class2(construct(heisenberg(3)))
    assert r.applicable and r.predicted

    r = cor_class2(construct(metacyclic(9, 9, 4)))
    assert r.applicable and not r.predicted
    failing = [t for t in r.trace if not t.ok]
    assert any(t.subject == "b" for t in failing)

    r = cor_class2(construct(cyclic(5)))
    assert r.applicable and not r.predicted

    r = cor_class2(construct(dicyclic(4)))  # class 3, hypotheses fail
    assert not r.applicable


def test_cor_class2_closes_no_subgroup(monkeypatch):
    # x^4 in [x, G] = x·Cl(x^-1) is read off the power map of 3: no [x, G] is formed
    G = construct(abelian([2] * 8))
    assert G.profile.nilpotency_class == 1  # the series are closed before counting
    calls = []
    closure = group_core.subgroup_generated
    monkeypatch.setattr(group_core, "subgroup_generated", lambda *a, **k: calls.append(a) or closure(*a, **k))
    r = cor_class2(G)
    assert r.applicable and r.predicted
    assert len(calls) == 0


def test_class2_criteria_close_no_subgroup(monkeypatch):
    """cor_class2 and prop_class2_factor[per_element] read [x, G] off the class partition.

    Over the class-2 corpus groups, neither criterion closes a subgroup.
    """
    groups = [construct(e.spec) for e in builtin_corpus()]
    groups = [G for G in groups if _class2_applicable(G) and G.order > 1]
    calls = []
    closure = group_core.subgroup_generated
    monkeypatch.setattr(group_core, "subgroup_generated", lambda *a, **k: calls.append(a) or closure(*a, **k))
    for G in groups:
        calls.clear()
        cor_class2(G)
        prop_class2_factor(G, "per_element")
        assert len(calls) == 0, G.name
    assert len(groups) > 50 and not all(G.is_abelian for G in groups)


def _class_commutator_sets(G):
    """x·Cl(x^-1) for each class representative x of G, ascending."""
    members = class_members(G.conjugacy)
    inverse = G.conjugacy.inverse_class.tolist()
    return [
        np.sort(G.mul_vec(x, np.asarray(members[inverse[c]])))
        for c, x in enumerate(G.conjugacy.representatives.tolist())
    ]


def test_class2_commutator_set_is_the_subgroup():
    """Under class <= 2, x·Cl(x^-1) is [x, G], of order |Cl(x)|.

    Over every class representative of the class-<=2 corpus groups,
    heisenberg(p) for p in 3, 5, 7, 11, and the split and non-split
    metacyclic groups of order <= 64, against the normal closures of
    ``commutator_subgroups``.
    """
    from test_families import non_split_groups, split_groups

    groups = [construct(e.spec) for e in builtin_corpus()]
    groups += [construct(heisenberg(p)) for p in (3, 5, 7, 11)]
    groups += [G for family in (split_groups, non_split_groups) for _, G in family(64)]
    checked = nonabelian = 0
    for G in filter(_class2_applicable, groups):
        subs = commutator_subgroups(G, G.conjugacy.representatives)
        for sub, got, size in zip(subs, _class_commutator_sets(G), G.conjugacy.sizes.tolist()):
            assert got.tolist() == sub.members.tolist(), G.name
            assert len(got) == size
            checked += 1
        nonabelian += not G.is_abelian
    assert checked > 10000 and nonabelian > 60


def test_class_commutator_set_is_smaller_past_class_2():
    """In D16 (class 3) the commutator set of a is {1, a^2}, but [a, G] = <a^2> has order 4."""
    G = construct(metacyclic(8, 2, 7))
    assert G.profile.nilpotency_class == 3 and not _class2_applicable(G)
    a = G.generators[0]
    assert G.element_order(a) == 8
    c = int(G.conjugacy.class_of[a])
    assert _class_commutator_sets(G)[c].tolist() == [0, G.power(a, 2)]
    sub = commutator_subgroups(G, [a])[0]
    assert sub.order == 4
    assert sub.members.tolist() == sorted(G.power(a, k) for k in (0, 2, 4, 6))


def test_prop_class2_factor_examples():
    r = prop_class2_factor(construct(heisenberg(3)), "per_element")
    assert r.applicable and r.predicted

    r = prop_class2_factor(construct(metacyclic(9, 9, 4)), "per_element")
    assert r.applicable and not r.predicted

    r = prop_class2_factor(construct(cyclic(4)), "central_subgroups")
    assert r.applicable and r.predicted
    # N ranges over 1, C2, C4
    assert sum(1 for t in r.trace if t.subject.startswith("N of order")) == 3


def test_prop_class2_factor_center_cap():
    G = construct(abelian([2] * 6))
    with pytest.raises(CenterTooLarge):
        prop_class2_factor(G, "central_subgroups")
    # within the cap: C2^5 has 374 subgroups, a known count
    r = prop_class2_factor(construct(abelian([2] * 5)), "central_subgroups")
    assert r.applicable and r.predicted
    assert sum(1 for t in r.trace if t.subject.startswith("N of order")) == 374


def _reference_walk(A, cap):
    """The subgroup walk that re-closes every extension from scratch."""
    seen = {(0,)}
    queue = [(np.array([0], dtype=np.int32), 0)]
    out = [queue[0][0]]
    while queue:
        H, last = queue.pop()
        inside = set(int(v) for v in H)
        for x in range(last + 1, A.order):
            if x in inside:
                continue
            new = group_core._closure_members(A, inside | {x})
            key = tuple(int(v) for v in new)
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > cap:
                raise CenterTooLarge(f"more than {cap} subgroups")
            queue.append((new, x))
            out.append(new)
    out.sort(key=lambda arr: (len(arr), tuple(arr.tolist())))
    return out


@pytest.fixture(scope="session")
def center_reference_walks():
    """(G, Z(G), the reference walk's subgroups of Z or None past 1024 subgroups).

    One entry per class-<=2 corpus group, then cyclic(64) and abelian([2, 4, 8]).
    """
    groups = [construct(e.spec) for e in builtin_corpus()]
    groups = [G for G in groups if _class2_applicable(G)]
    groups += [construct(cyclic(64)), construct(abelian([2, 4, 8]))]
    walks = []
    for G in groups:
        Z = center(G)
        try:
            want = _reference_walk(Z.as_group(name="center"), 1024)
        except CenterTooLarge:
            want = None
        walks.append((G, Z, want))
    return walks


def test_central_subgroup_walk_matches_reference(center_reference_walks):
    for G, Z, want in center_reference_walks:
        if want is None:
            with pytest.raises(CenterTooLarge):
                central_subgroup_families(G, Z, 1024)
            continue
        got = central_subgroup_families(G, Z, 1024)[0]
        assert [a.tolist() for a in got] == [Z.members[b].tolist() for b in want], G.name


def _decided_normal_subgroups(G, Z):
    """The normal subgroups of G whose N and G/N the package decides, by members."""
    subs = [Z, G.derived_subgroup, *G.profile.sylow_subgroups.values()]
    if _class2_applicable(G):
        subs += commutator_subgroups(G, G.conjugacy.representatives)
        try:
            families = central_subgroup_families(G, Z, 1024)[0]
        except CenterTooLarge:
            families = []
        subs += [G.subgroup(m) for m in families]
    return {N.members.tobytes(): N for N in subs if N.is_normal}.values()


def test_class_facts_match_generator_references(class_fact_groups):
    """Facts read off G's class partition agree with conjugating by G's generators.

    The center, normality, centrality and the classes of G/N, on every
    normal subgroup the package decides and on every cyclic <x> of S4 and
    S5, most of which are not normal.
    """
    seen = {True: 0, False: 0}
    for G in class_fact_groups:
        Z = center(G)
        assert Z.members.tolist() == reference_center(G).tolist(), G.name
        subs = list(_decided_normal_subgroups(G, Z))
        if G.name in ("symmetric(4)", "symmetric(5)"):
            cyclic_subs = (subgroup_generated(G, [x]) for x in range(G.order))
            subs += {N.members.tobytes(): N for N in cyclic_subs}.values()
        for N in subs:
            assert N.is_normal == reference_is_normal(G, N.members), (G.name, N.order)
            seen[N.is_normal] += 1
            if reference_is_central(G, N.members):
                central_subgroup_has_cut(G, N)
            else:
                with pytest.raises(HypothesisViolated):
                    central_subgroup_has_cut(G, N)
            if N.is_normal:
                reps, coset_id = np.unique(reference_coset_minima(G, N), return_inverse=True)
                want = reps[reference_coset_classes(G, reps, coset_id)][coset_id]
                assert _quotient_labels(G, coset_minima(G, N)).tolist() == want.tolist()
    assert seen[False] > 0 and seen[True] > 0


def test_quotient_cuts_match_an_all_exponent_scan_of_coset_orders(class_fact_groups):
    """For every decided normal N, G/N scanned over every j coprime to |xN| agrees with quotient_cuts.

    |xN| = |<x>| / |<x> ∩ N|, counted on x^0..x^(o(x)-1); x^j is read off
    that reference power table and the classes of G/N off ``_quotient_labels``.
    """
    verdicts = []
    for G in class_fact_groups:
        everyone = np.arange(G.order)
        orders = G.element_orders
        exponents = np.arange(int(orders.max()))
        powers = reference_power_vec(G, everyone[:, None], exponents[None, :])
        below = exponents[None, :] < orders[:, None]
        for N in _decided_normal_subgroups(G, center(G)):
            meets = (N._mask[powers] & below).sum(axis=1)
            coset_orders = orders // meets
            labels = _quotient_labels(G, coset_minima(G, N))
            pair = np.minimum(labels, labels[G.inv_vec])
            coprime = np.gcd(exponents[None, :], coset_orders[:, None]) == 1
            scanned = exponents[None, :] < coset_orders[:, None]
            escapes = (pair[powers] != pair[:, None]) & coprime & scanned
            assert quotient_has_cut(G, N) == (not escapes.any()), (G.name, N.order)
            verdicts.append(not escapes.any())
    assert len(verdicts) > 2000 and set(verdicts) == {True, False}


def test_in_place_verdicts_match_table_groups():
    """N and G/N decided in G agree with deciding them as groups of their own.

    Covers every corpus group's center, derived subgroup and Sylow
    subgroups, and for class <= 2 every [x,G] and every central subgroup;
    V4 in S4 and the derived subgroups of the non-abelian entries are
    normal but not central.
    """
    groups = [construct(e.spec) for e in builtin_corpus()]
    S4 = construct(symmetric(4))
    V4 = S4.subgroup(
        [0] + [int(x) for m in class_members(S4.conjugacy) if len(m) == 3 for x in m]
    )
    assert V4.order == 4 and V4.is_normal
    outcomes = {"N": set(), "G/N": set(), "non-central": 0}
    checked = 0
    for G in groups + [S4]:
        Z = center(G)
        normals = [V4] if G is S4 else _decided_normal_subgroups(G, Z)
        for N in normals:
            quot_ok = decide_cut(quotient(G, N)).has_cut
            assert quotient_has_cut(G, N) == quot_ok, (G.name, N.order)
            outcomes["G/N"].add(quot_ok)
            if np.isin(N.members, Z.members).all():
                sub_ok = decide_cut(N.as_group()).has_cut
                assert central_subgroup_has_cut(G, N) == sub_ok, (G.name, N.order)
                outcomes["N"].add(sub_ok)
            else:
                with pytest.raises(HypothesisViolated):
                    central_subgroup_has_cut(G, N)
                outcomes["non-central"] += 1
            checked += 1
    assert outcomes["N"] == outcomes["G/N"] == {True, False}
    assert outcomes["non-central"] > 10
    assert checked > 2000


def test_central_subgroup_walk_cap_boundary():
    A = construct(abelian([2] * 5))
    assert len(central_subgroup_families(A, center(A), 374)[0]) == 374
    with pytest.raises(CenterTooLarge):
        central_subgroup_families(A, center(A), 373)


def test_subgroup_count_matches_the_reference_walk(center_reference_walks):
    counted = 0
    for G, Z, want in center_reference_walks:
        count = _subgroup_count(G.element_orders[Z.members])
        if want is None:
            assert count > 1024, G.name
            continue
        assert count == len(want), G.name
        counted += 1
    assert counted >= 64
    for factors, want in (([2] * 5, 374), ([2] * 6, 2825), ([3, 3], 6), ([4, 4], 15), ([6], 4)):
        A = construct(abelian(factors))
        assert _subgroup_count(A.element_orders) == want, factors


def test_center_too_large_is_refused_by_the_count_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("the subgroups were enumerated")

    monkeypatch.setattr(characterizations, "_enumerate_subgroups", refuse)
    with pytest.raises(CenterTooLarge, match="more than 1024 subgroups"):
        prop_class2_factor(construct(abelian([2] * 6)), "central_subgroups")


def test_central_walk_forms_few_products_on_a_large_cyclic_center(monkeypatch):
    # one least generator per cyclic subgroup is a candidate, not every element of Z
    G = construct(cyclic(512))
    Z = center(G)
    G.element_orders
    formed = []
    mul_vec = G.mul_vec
    monkeypatch.setattr(G, "mul_vec", lambda a, b: formed.append(np.broadcast(a, b).size) or mul_vec(a, b))
    families, _ = central_subgroup_families(G, Z, 1024)
    assert len(families) == 10
    assert sum(formed) < Z.order**2 // 4


def test_stacked_factor_cuts_match_the_references():
    """Each row of one stacked call is the reference N-cut and G/N-cut of its N."""
    groups = [construct(e.spec) for e in builtin_corpus()]
    groups = [G for G in groups if _class2_applicable(G)]
    groups += [construct(cyclic(512)), construct(metacyclic(9, 9, 4))]
    outcomes, checked = set(), 0
    for G in groups:
        try:
            families, minima = central_subgroup_families(G, center(G), 1024)
        except CenterTooLarge:
            continue
        got = central_factor_cuts(G, minima)
        for members, ok in zip(families, got.tolist()):
            N = G.subgroup(members)
            want = reference_witnesses(N.as_group()) == () and reference_witnesses(quotient(G, N)) == ()
            assert ok == want, (G.name, N.order)
            outcomes.add(ok)
            checked += 1
    assert outcomes == {True, False}
    assert checked > 2000


def test_prop_class2_factor_large_cyclic():
    r = prop_class2_factor(construct(cyclic(1024)), "central_subgroups")
    assert r.applicable and r.predicted is False
    assert sum(1 for t in r.trace if t.subject.startswith("N of order")) == 11


def test_prop_class2_factor_rejects_unknown_mode():
    with pytest.raises(ValueError):
        prop_class2_factor(construct(cyclic(4)), "sideways")


def test_remark_examples():
    c4 = construct(cyclic(4))
    r = remark_two_group_sum(c4, construct(cyclic(4)))
    assert r.predicted and r.agrees_with_decider  # C4+C4 keeps the property

    sd16 = construct(metacyclic(8, 2, 3))
    m16 = construct(metacyclic(8, 2, 5))
    r = remark_two_group_sum(sd16, m16)
    assert not r.predicted and r.agrees_with_decider
    assert not decide_cut(direct_product(sd16, m16)).has_cut

    d8 = construct(metacyclic(4, 2, 3))
    q8 = construct(dicyclic(2))
    r = remark_two_group_sum(d8, q8)
    assert r.predicted and r.agrees_with_decider


def test_remark_hypothesis_violations():
    c4 = construct(cyclic(4))
    with pytest.raises(HypothesisViolated):
        remark_two_group_sum(c4, construct(cyclic(3)))  # not a 2-group
    with pytest.raises(HypothesisViolated):
        remark_two_group_sum(c4, construct(cyclic(8)))  # 2-group without cut


def test_direct_sum_closure_for_class2_p_groups():
    """Products of same-p class-<=2 p-groups with the property keep it."""
    specs = [
        abelian([2]),
        abelian([4]),
        abelian([2, 2]),
        abelian([4, 4]),
        metacyclic(4, 2, 3),
        dicyclic(2),
        abelian([3]),
        abelian([3, 3]),
        heisenberg(3),
    ]
    groups = [construct(s) for s in specs]
    for G in groups:
        assert decide_cut(G).has_cut
    for i, G in enumerate(groups):
        for H in groups[i:]:
            if G.profile.p != H.profile.p or G.order * H.order > 1024:
                continue
            assert decide_cut(direct_product(G, H)).has_cut


def test_verify_equivalences_examples():
    reports = {r.name: r for r in verify_equivalences(construct(metacyclic(9, 9, 4)))}
    r = reports["thm_nilpotent"]
    assert r.applicable and not r.predicted and r.agrees_with_decider
    assert reports["cor_class2"].agrees_with_decider
    assert "cor_p6_products" not in reports  # not a cut group

    reports = {r.name: r for r in verify_equivalences(construct(heisenberg(3)))}
    for name, r in reports.items():
        if r.applicable:
            assert r.agrees_with_decider, name
    assert reports["cor_p6_products"].agrees_with_decider

    reports = {r.name: r for r in verify_equivalences(construct(metacyclic(3, 2, 2)))}
    assert reports["thm_solvable_eppo"].applicable
    assert not reports["thm_odd"].applicable
    assert not reports["thm_nilpotent"].applicable


def test_verify_equivalences_handles_center_cap():
    reports = {r.name: r for r in verify_equivalences(construct(abelian([2] * 6)))}
    r = reports["prop_class2_factor[central_subgroups]"]
    assert not r.applicable and r.predicted is None
    assert any("skipped" in t.clause for t in r.trace)


# the predicates whose prediction is the conjunction of their traced clauses
CONJUNCTIONS = (
    "thm_odd",
    "thm_solvable_eppo",
    "thm_nilpotent",
    "cor_class2",
    "prop_class2_factor[per_element]",
    "prop_class2_factor[central_subgroups]",
)


def test_predictions_are_read_off_their_traces(corpus_result, class_fact_groups):
    reports = [r for entry in corpus_result.entries for r in entry.reports]
    extra = class_fact_groups[-4:]  # S4, S5, A5, C5 x S5
    reports += [fn(G) for G in extra for fn in (thm_odd, thm_solvable_eppo, thm_nilpotent)]
    checked, clauses = 0, set()
    for r in reports:
        if r.applicable and r.name in CONJUNCTIONS:
            assert r.predicted == all(t.ok for t in r.trace), r.name
            checked += 1
            clauses.update(t.clause for t in r.trace if t.subject == "group")
    assert checked > 400
    # the branches that answer before any per-class clause: pi outside {2,3}, p not 2 or 3,
    # and the class-0 and class-1 degenerate entries
    assert {"pi=[5] not within {2,3}", "p=5 not 2 or 3"} <= clauses
    assert {"degenerate case: class 0", "degenerate case: class 1"} <= clauses


def test_disagrees_is_an_applicable_report_against_the_decider(corpus_result):
    for entry in corpus_result.entries:
        for r in entry.reports:
            assert r.disagrees == (r.applicable and r.agrees_with_decider is False)
    assert TheoremReport("t", True, True, (), agrees_with_decider=False).disagrees
    assert not TheoremReport("t", True, True, (), agrees_with_decider=True).disagrees
    assert not TheoremReport("t", True, True, ()).disagrees
    assert not TheoremReport("t", False, None, (), agrees_with_decider=False).disagrees


CHARACTERIZATIONS = {
    "thm_odd": thm_odd,
    "thm_solvable_eppo": thm_solvable_eppo,
    "thm_nilpotent": thm_nilpotent,
    "cor_class2": cor_class2,
    "prop_class2_factor[per_element]": prop_class2_factor,
    "prop_class2_factor[central_subgroups]": lambda G: prop_class2_factor(G, "central_subgroups"),
}


def _outcome(fn, G):
    """fn(G), or the message of the CenterTooLarge it raises."""
    try:
        return fn(G)
    except CenterTooLarge as exc:
        return str(exc)


def test_characterizations_match_the_eager_reference(checked_groups):
    """Every report equals the per-class loops' (``conftest``), its trace formed on reading.

    On the corpus groups, the analyze specs and the sweep streams of seeds 1
    and 7; the reference runs on a copy of each group built here, so no kept
    fact is shared.
    """
    predictions = {name: set() for name in CHARACTERIZATIONS}
    for spec, G in checked_groups:
        H = construct(spec)
        for name, fn in CHARACTERIZATIONS.items():
            got, want = _outcome(fn, G), _outcome(REFERENCE_CHARACTERIZATIONS[name], H)
            assert got == want, (name, spec.describe())
            if isinstance(got, TheoremReport):
                assert all(type(t.ok) is bool for t in got.trace), (name, spec.describe())
                predictions[name].add(got.predicted)
    assert all(seen == {None, True, False} for seen in predictions.values()), predictions


def test_verify_forms_no_trace_entry_until_a_trace_is_read(monkeypatch):
    formed = []

    class Counted(TraceEntry):
        def __init__(self, *args):
            formed.append(args)
            super().__init__(*args)

    monkeypatch.setattr(characterizations, "TraceEntry", Counted)
    reports = verify_equivalences(construct(metacyclic(2048, 2, 2047)))  # dihedral of order 4096
    assert formed == []
    traces = [r.trace for r in reports]
    assert len(formed) == sum(map(len, traces)) > 2000
    assert all(r.trace is t for r, t in zip(reports, traces))  # formed once, then kept
    assert len(formed) == sum(map(len, traces))


def test_verify_forms_no_name_until_a_trace_is_read():
    """The class representatives are named on the first trace read, once for every report of G."""
    G = construct(metacyclic(2048, 2, 2047))  # dihedral of order 4096
    named, namer = [], G._labels.namer
    G._labels.namer = lambda x: named.append(x) or namer(x)
    reports = verify_equivalences(G)
    assert named == []
    reports[1].trace  # thm_solvable_eppo, the first applicable report
    assert sorted(named) == G.conjugacy.representatives.tolist()
    traces = [r.trace for r in reports]
    assert len(named) == G.conjugacy.num_classes and sum(map(len, traces)) > 2000


def test_reports_do_not_keep_their_group_alive():
    """Once its group is collected, a report still forms the trace it stood for."""
    for spec in (heisenberg(3), abelian([2, 4]), metacyclic(2048, 2, 2047)):
        want = verify_equivalences(construct(spec))
        G = construct(spec)
        reports = verify_equivalences(G)
        group = weakref.ref(G)
        del G
        gc.collect()
        assert group() is None, spec.describe()
        assert reports == want, spec.describe()
        assert any(r.applicable and r.trace for r in reports)


def test_replace_keeps_a_trace_not_yet_read():
    G = construct(heisenberg(3))
    report = cor_class2(G)
    agreed = dataclasses.replace(report, trace=report._trace, agrees_with_decider=True)
    assert callable(agreed._trace) and agreed.trace == report.trace
    assert dataclasses.replace(report, name="other").trace == report.trace
    assert TheoremReport("t", True, True, [TraceEntry("x", "c", True)]).trace == (TraceEntry("x", "c", True),)

"""Shared fixtures and the independent naive oracles used to freeze values.

The naive helpers work on a raw Python list-of-lists multiplication table
and use nothing from the package beyond ``mul`` to extract that table, so
they stay independent of the code paths they check.  The reference walks
below work on a built group through ``mul`` and ``mul_vec`` only, one power
at a time, for groups too large for a Python table.  The series references
take a separate path: each derived term is rebuilt as a table group of its
own, and each [G, H] comes from generator-member commutators.  The
commutator set of an element is taken over every element of G.  The
class-fact references (normality, the center, centrality, the classes of
G/N) conjugate and multiply by G's generators instead of reading G's class
partition, and the generator and orbit references close sets by BFS.
The per-element power is ``power_vec``'s reference: one exponent per
element, one masked product per bit.  The scalar witness scan is the
oracle kernel's reference: it works on the table and its inverses one
element and one power at a time.  The label
reference names every element of a built spec by each kind's formula,
evaluated for all elements up front.  The characterization references are
the per-class loops: one trace entry and one ``label`` call per class,
every [x, G] looked up class by class.  The class size, membership and
one-quotient helpers stand in for methods that only the tests called.
"""

import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cutlab import _kernels, group_core
from cutlab.characterizations import (
    MAX_CENTER_SUBGROUPS,
    TheoremReport,
    TraceEntry,
    _central_subgroup_families,
    _class2_applicable,
)
from cutlab.cli import parse_group_spec
from cutlab.constructors import construct, cyclic, metacyclic, product, symmetric
from cutlab.corpus import builtin_corpus, run_corpus
from cutlab.cut_engine import central_factor_cuts, quotient_cuts
from cutlab.group_core import center, commutator_subgroups, coset_minima, subgroup_generated

SWEEPGEN = Path(__file__).parents[1] / "perfbench" / "sweepgen.py"


def count_fill_rows(monkeypatch, module):
    """Route ``module.fill_table`` through a recorder; returns the row count of every product call."""
    rows = []
    fill = group_core.fill_table

    def recorded(order, product):
        return fill(order, lambda a, b: rows.append(len(a)) or product(a, b))

    monkeypatch.setattr(module, "fill_table", recorded)
    return rows


def class_size(part, c):
    """The size of class c of a conjugacy partition, counted from its ``class_of``."""
    return int(np.count_nonzero(part.class_of == c))


def contains(sub, x):
    """Whether x is a member of the subgroup handle ``sub``, read off its member array."""
    return bool((sub.members == x).any())


def quotient_has_cut(G, N):
    """Whether G/N has the cut-property, decided on G's own elements: ``quotient_cuts`` of one N."""
    return bool(quotient_cuts(G, [N])[0])


def table_of(G):
    return [[G.mul(i, j) for j in range(G.order)] for i in range(G.order)]


def naive_inv(t):
    return [t[x].index(0) for x in range(len(t))]


def naive_classes(t):
    """Conjugacy classes by conjugating with every element."""
    n = len(t)
    inv = naive_inv(t)
    classes, seen = [], set()
    for x in range(n):
        if x in seen:
            continue
        cls = frozenset(t[t[g][x]][inv[g]] for g in range(n))
        seen |= cls
        classes.append(cls)
    return classes


def naive_order(t, x):
    k, y = 1, x
    while y != 0:
        y = t[y][x]
        k += 1
    return k


def reference_orders(G):
    """Every element's order by the walk x, x^2, x^3, ... over all elements at once."""
    everyone = np.arange(G.order)
    orders = np.zeros(G.order, dtype=np.int64)
    y, k = everyone, 1
    while True:
        orders[(y == 0) & (orders == 0)] = k
        if orders.all():
            return orders
        y = G.mul_vec(y, everyone)
        k += 1


def reference_power_vec(G, xs, k):
    """x^k for every x of ``xs`` by square-and-multiply (Cohen, 1993, Alg. 1.4.3).

    ``k`` is one exponent k >= 0 or one such exponent per element.  Each
    bit of the largest exponent costs one squaring, and one product over
    the elements whose exponent has it set.
    """
    xs, k = np.asarray(xs), np.asarray(k, dtype=np.int64)
    acc, base = np.zeros(np.broadcast_shapes(xs.shape, k.shape), dtype=xs.dtype), xs
    for bit in range(int(k.max(initial=0)).bit_length()):
        if bit:
            base = G.mul_vec(base, base)
        odd = (k >> bit) & 1 == 1
        if odd.all():
            acc = G.mul_vec(acc, base)
        elif odd.any():
            acc = np.where(odd, G.mul_vec(acc, base), acc)
    return acc


def reference_witnesses(G):
    """decide_cut's witnesses by a scalar walk over the class representatives.

    For each representative x (ascending), of order m by ``reference_orders``,
    the first j in 2..m-1 coprime to m with x^j outside the classes of x and
    x^-1.
    """
    part = G.conjugacy
    orders = reference_orders(G)
    witnesses = []
    for c, x in enumerate(part.representatives.tolist()):
        m, y = int(orders[x]), x
        for j in range(2, m):
            y = G.mul(y, x)
            if math.gcd(j, m) == 1 and part.class_of[y] not in (c, part.inverse_class[c]):
                witnesses.append((x, j))
                break
    return tuple(witnesses)


def reference_witness_scan(table, inv):
    """The brute-force scan one element and one power at a time.

    For each x (ascending), its class and its inverse's class are marked by
    conjugating with every element, its order m is found by repeated
    multiplication, and the first j in 2..m-1 coprime to m with x^j in
    neither class is its witness.
    """
    table = np.ascontiguousarray(table, dtype=np.int32)
    inv = np.ascontiguousarray(inv, dtype=np.int32)
    n = table.shape[0]
    wx, wj = [], []
    for x in range(1, n):
        gx = table[:, x]
        mask = np.zeros(n, dtype=bool)
        mask[table[gx, inv]] = True
        ginvx = table[:, inv[x]]
        mask[table[ginvx, inv]] = True
        # order of x by repeated multiplication
        m = 1
        y = int(x)
        while y != 0:
            y = int(table[y, x])
            m += 1
        y = int(x)
        for j in range(2, m):
            y = int(table[y, x])
            if math.gcd(j, m) == 1 and not mask[y]:
                wx.append(x)
                wj.append(j)
                break
    return (np.asarray(wx, dtype=np.int32), np.asarray(wj, dtype=np.int32))


def reference_derived_series_orders(G):
    """Orders along the derived series, each term rebuilt as a table group of its own.

    D' is the normal closure in D of the commutators of D's generators.
    """
    orders, D = [G.order], G
    while D.order > 1:
        comms = {D.mul(D.mul(g, h), D.inverse(D.mul(h, g))) for g in D.generators for h in D.generators}
        sub = subgroup_generated(D, comms, normal_closure=True)
        orders.append(sub.order)
        if sub.order == D.order:
            break
        D = sub.as_group()
    return orders


def reference_lower_central_series(G):
    """Member arrays of G = gamma_1 >= gamma_2 >= ..., stopping at 1 or at stabilization.

    [G, H] is the normal closure of g h g^-1 h^-1 over G's generators g and
    the members h of H.
    """
    series = [np.arange(G.order)]
    while len(series[-1]) > 1:
        hs = series[-1]
        comms = {int(c) for g in G.generators for c in G.mul_vec(G.conj_perm(g)[hs], G.inv_vec[hs])}
        series.append(subgroup_generated(G, comms, normal_closure=True).members)
        if len(series[-1]) == len(series[-2]):
            break
    return series


def reference_commutator_sets(G, xs):
    """Membership masks over G of {x g x^-1 g^-1 : g in G}, one row per x of ``xs``.

    Each set is taken from the products of x with every element g of G.
    """
    xs = np.asarray(xs)[:, None]
    xgx = G.mul_vec(G.mul_vec(xs, np.arange(G.order)), G.inv_vec[xs])
    masks = np.zeros((xs.size, G.order), dtype=bool)
    masks[np.arange(xs.size)[:, None], G.mul_vec(xgx, G.inv_vec)] = True
    return masks


def naive_center(t):
    n = len(t)
    return [x for x in range(n) if all(t[x][g] == t[g][x] for g in range(n))]


def naive_cut(t):
    """Direct evaluation of the coprime-power conjugacy criterion."""
    n = len(t)
    inv = naive_inv(t)
    classes = naive_classes(t)
    cls_of = {}
    for c in classes:
        for x in c:
            cls_of[x] = c
    for x in range(n):
        m = naive_order(t, x)
        y = x
        for j in range(2, m):
            y = t[y][x]
            if math.gcd(j, m) == 1 and y not in cls_of[x] and y not in cls_of[inv[x]]:
                return False, (x, j)
    return True, None


@pytest.fixture(scope="session")
def corpus_result():
    """One full corpus run shared by the corpus and acceptance tests."""
    return run_corpus(builtin_corpus())


# -- generator-conjugation references for the facts read off the class partition --

def reference_is_normal(G, members):
    """Whether ``members`` is closed under conjugation by every generator of G."""
    mask = np.zeros(G.order, dtype=bool)
    mask[members] = True
    return all(mask[G.conj_perm(g)[members]].all() for g in G.generators)


def reference_center(G):
    """The elements x with g*x == x*g for every generator g, ascending."""
    mask = np.ones(G.order, dtype=bool)
    for g in G.generators:
        mask &= G.lmul_perm(g) == G.rmul_perm(g)
    return np.nonzero(mask)[0]


def reference_is_central(G, members):
    """Whether every member commutes with every generator of G."""
    members = np.asarray(members)
    return all(np.array_equal(G.mul_vec(g, members), G.mul_vec(members, g)) for g in G.generators)


def reference_coset_classes(G, reps, coset_id):
    """The class of each coset in G/N: its orbit under conjugation by G's generators."""
    perms = np.stack([coset_id[G.conj_perm(g)[reps]] for g in G.generators])
    return _kernels.orbit_labels(perms)


def reference_coset_minima(G, N):
    """The least member of each coset xN, the minimum over all |G|·|N| products x*n."""
    return G.mul_vec(np.arange(G.order)[:, None], N.members[None, :]).min(axis=1)


def reference_greedy_generators(table):
    """Adopt the least uncovered element, then close the covered set by BFS."""
    n = table.shape[0]
    if n == 1:
        return (0,)
    covered = np.zeros(n, dtype=bool)
    covered[0] = True
    gens = []
    while not covered.all():
        gens.append(int(np.argmin(covered)))
        frontier = np.nonzero(covered)[0]
        garr = np.asarray(gens, dtype=np.int32)
        while frontier.size:
            prod = np.unique(table[frontier[:, None], garr[None, :]])
            new = prod[~covered[prod]]
            covered[new] = True
            frontier = new
    return tuple(gens)


def reference_orbit_lengths(perms):
    """Orbit sizes of the points under the permutations, by closing Python sets."""
    perms = [list(map(int, p)) for p in perms]
    seen, lengths = set(), []
    for start in range(len(perms[0])):
        if start not in seen:
            frontier, size = {start}, len(seen)
            seen.add(start)
            while frontier:
                frontier = {p[x] for x in frontier for p in perms} - seen
                seen |= frontier
            lengths.append(len(seen) - size)
    return lengths


@pytest.fixture(scope="session")
def class_fact_groups():
    """Every corpus group, then S4, S5, A5 and C5 x S5."""
    from cutlab.constructors import construct, cyclic, permutation, product, symmetric

    a5 = permutation(5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])
    extra = (symmetric(4), symmetric(5), a5, product(cyclic(5), symmetric(5)))
    return [construct(e.spec) for e in builtin_corpus()] + [construct(s) for s in extra]


@functools.cache
def _sweep_stream(seed):
    spec = importlib.util.spec_from_file_location("perfbench_sweepgen", SWEEPGEN)
    sweepgen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = sweepgen  # its dataclasses look their module up there
    spec.loader.exec_module(sweepgen)
    return tuple(parse_group_spec(item.text) for item in sweepgen.generate(seed))


def sweep_specs(seed):
    """Every spec of one seeded benchmark sweep stream, generated once a session.

    The generator is only read.
    """
    return list(_sweep_stream(seed))


# the benchmark's analyze requests (perfbench/workloads.py:ANALYZE_REQUESTS): the two paper
# examples, cyclic(512), dihedral(4096) and S6
ANALYZE_SPECS = (
    metacyclic(12, 2, 5), metacyclic(9, 9, 4), cyclic(512), metacyclic(2048, 2, 2047), symmetric(6)
)


def checked_specs():
    """Every corpus spec, the analyze specs, then the sweep streams of seeds 1 and 7."""
    return [e.spec for e in builtin_corpus()] + list(ANALYZE_SPECS) + sweep_specs(1) + sweep_specs(7)


# The built groups below are shared by the tests that only read them.  A test that
# monkeypatches, or that checks how or whether a fact is computed, builds its own.

@pytest.fixture(scope="session")
def sweep_groups():
    """Seed -> (spec, group) for every spec of its sweep stream, for seeds 1 and 7."""
    return {seed: [(spec, construct(spec)) for spec in sweep_specs(seed)] for seed in (1, 7)}


@pytest.fixture(scope="session")
def checked_groups(sweep_groups):
    """(spec, group) for every spec of ``checked_specs``, in its order."""
    head = [e.spec for e in builtin_corpus()] + list(ANALYZE_SPECS)
    return [(spec, construct(spec)) for spec in head] + sweep_groups[1] + sweep_groups[7]


def _power_word(*powers):
    """Like "a^2 b": each (symbol, exponent) with a nonzero exponent, "1" if none."""
    word = [sym if e == 1 else f"{sym}^{e}" for sym, e in powers if e]
    return " ".join(word) or "1"


def _cycle_word(row):
    """Cycle notation of a full image row, each cycle from its least point."""
    seen, cycles = set(), []
    for start in range(len(row)):
        if start in seen or row[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = row[x]
        cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) or "()"


def reference_labels(spec, G):
    """Every label of G, built from ``spec``, by index, each kind's names formed up front.

    The formula kinds name x by its normal form; a product names (g, h) from
    its factors; a quotient names each coset by its least member's name in
    the parent; a permutation group writes each image row in cycle notation
    of the original points; a table names each element by its index.
    """
    kind, idx = spec.kind, range(G.order)
    if kind == "cyclic":
        return [_power_word(("g", i)) for i in idx]
    if kind == "abelian":
        strides = [math.prod(spec.factors[i + 1:]) for i in range(len(spec.factors))]
        digits = np.arange(G.order)[:, None] // np.array(strides) % np.array(spec.factors)
        return ["(" + ",".join(map(str, row)) + ")" for row in digits.tolist()]
    if kind in ("metacyclic", "dicyclic"):
        m = spec.m if kind == "metacyclic" else 2 * spec.n
        return [_power_word(("a", k % m), ("b", k // m)) for k in idx]
    if kind == "heisenberg":
        p = spec.p
        return [f"({k // (p * p)},{k // p % p},{k % p})" for k in idx]
    if kind == "product":
        *rest, last = spec.parts
        left = reference_labels(rest[0] if len(rest) == 1 else product(*rest), G.left)
        return [f"({a},{b})" for a in left for b in reference_labels(last, G.right)]
    if kind == "quotient":
        P = construct(spec.group)
        minima = reference_coset_minima(P, subgroup_generated(P, spec.normal_generators))
        names = reference_labels(spec.group, P)
        return [names[r] for r in np.unique(minima).tolist()]
    if kind in ("symmetric", "permutation"):
        full = np.tile(np.arange(int(G.points.max()) + 1), (G.order, 1))
        full[:, G.points] = G.points[G.images]
        return [_cycle_word(row) for row in full.tolist()]
    return [str(x) for x in idx]


# -- the characterizations' eager reference: one trace entry and one name per class --

def _is_power_of(m, q):
    while m % q == 0:
        m //= q
    return m == 1


def _conjunction(name, trace):
    """An applicable report predicting the cut-property iff every traced clause holds."""
    trace = tuple(trace)
    return TheoremReport(name, True, all(t.ok for t in trace), trace)


def _power_clause(G, classes, k, either):
    """x^k ~ x^-1 (or x^k ~ x, when ``either``) for the representative x of each class."""
    part, k_classes = G.conjugacy, G.power_map(k).tolist()
    clause = f"x^{k} ~ x or x^-1" if either else f"x^{k} ~ x^-1"
    trace = []
    for c in classes:
        ok = k_classes[c] == int(part.inverse_class[c]) or (either and k_classes[c] == c)
        trace.append(TraceEntry(G.label(int(part.representatives[c])), clause, ok))
    return trace


def reference_thm_odd(G):
    """Odd-order criterion: x^5 ~ x^-1 and o(x) is 7 or a power of 3."""
    if G.order % 2 == 0:
        return TheoremReport("thm_odd", False, None, ())
    part = G.conjugacy
    fifth = G.power_map(5).tolist()
    trace = []
    for c in range(part.num_classes):
        x = int(part.representatives[c])
        m = G.element_order(x)
        pow_ok = fifth[c] == int(part.inverse_class[c])
        ord_ok = m == 7 or _is_power_of(m, 3)
        if not ord_ok:
            clause = f"o(x)={m} is neither 7 nor a power of 3"
        elif not pow_ok:
            clause = "x^5 !~ x^-1"
        else:
            clause = "x^5 ~ x^-1 and admissible order"
        trace.append(TraceEntry(G.label(x), clause, pow_ok and ord_ok))
    return _conjunction("thm_odd", trace)


def reference_thm_solvable_eppo(G):
    """Solvable prime-power-order criterion, three order-dependent clauses."""
    profile = G.profile
    if not (profile.is_solvable and profile.is_eppo):
        return TheoremReport("thm_solvable_eppo", False, None, ())
    part = G.conjugacy
    third, fifth = G.power_map(3).tolist(), G.power_map(5).tolist()
    trace = []
    for c in range(part.num_classes):
        x = int(part.representatives[c])
        m = G.element_order(x)
        inv_c = int(part.inverse_class[c])
        if _is_power_of(m, 2):
            ok = third[c] in (c, inv_c)
            clause = "(i) o(x)=2^a and x^3 ~ x or x^-1"
        elif m == 7 or (m % 3 == 0 and _is_power_of(m, 3)):
            ok = fifth[c] == inv_c
            clause = "(ii) o(x)=7 or 3^b and x^5 ~ x^-1"
        elif m == 5:
            ok = third[c] == inv_c
            clause = "(iii) o(x)=5 and x^3 ~ x^-1"
        else:
            ok = False
            clause = f"o(x)={m} admitted by no clause"
        trace.append(TraceEntry(G.label(x), clause, ok))
    return _conjunction("thm_solvable_eppo", trace)


def reference_thm_nilpotent(G):
    """Nilpotent criterion: 2-group clause, 3-group clause, or a 2x3 split."""
    profile = G.profile
    if not profile.is_nilpotent:
        return TheoremReport("thm_nilpotent", False, None, ())
    pi = set(profile.pi)
    if not pi <= {2, 3}:
        trace = [TraceEntry("group", f"pi={sorted(pi)} not within {{2,3}}", False)]
        return _conjunction("thm_nilpotent", trace)
    part = G.conjugacy
    rep_orders = G.element_orders[part.representatives].tolist()
    two, three = ([c for c, m in enumerate(rep_orders) if _is_power_of(m, p)] for p in (2, 3))
    trace = []
    if pi == {2, 3}:
        real = bool(part.is_real[two].all())
        trace.append(TraceEntry("sylow 2-subgroup", "is a real group", real))
    if pi != {3}:
        trace += _power_clause(G, two, 3, either=True)
    if 3 in pi:
        trace += _power_clause(G, three, 2, either=False)
    return _conjunction("thm_nilpotent", trace)


def _degenerate_class(G):
    """The trace entry admitting an abelian G (class 0 or 1) to a class-2 criterion."""
    nc = G.profile.nilpotency_class
    return [TraceEntry("group", f"degenerate case: class {nc}", True)] if nc < 2 else []


def reference_cor_class2(G):
    """Power-in-commutator criterion for p-groups of class at most 2."""
    if not _class2_applicable(G):
        return TheoremReport("cor_class2", False, None, ())
    trace = _degenerate_class(G)
    if G.order == 1:
        return _conjunction("cor_class2", trace)
    exponent = {2: 4, 3: 3}.get(G.profile.p)
    if exponent is None:
        trace.append(TraceEntry("group", f"p={G.profile.p} not 2 or 3", False))
        return _conjunction("cor_class2", trace)
    reps = G.conjugacy.representatives
    subs = commutator_subgroups(G, reps)
    for x, sub, power in zip(reps.tolist(), subs, G.power_vec(reps, exponent).tolist()):
        trace.append(TraceEntry(G.label(x), f"x^{exponent} in [x,G]", contains(sub, power)))
    return _conjunction("cor_class2", trace)


def reference_prop_class2_factor(G, mode="per_element"):
    """Factor criterion for class-at-most-2 p-groups, per element or over every central N."""
    name = f"prop_class2_factor[{mode}]"
    if not _class2_applicable(G):
        return TheoremReport(name, False, None, ())
    trace = _degenerate_class(G)
    if mode == "per_element":
        reps = G.conjugacy.representatives
        subs = commutator_subgroups(G, reps)
        distinct = {sub.members.tobytes(): sub for sub in subs}
        minima = np.stack([coset_minima(G, sub) for sub in distinct.values()])
        ok = dict(zip(distinct, central_factor_cuts(G, minima).tolist()))
        for x, sub in zip(reps.tolist(), subs):
            clause = f"[x,G] (order {sub.order}) and G/[x,G] have cut"
            trace.append(TraceEntry(G.label(x), clause, ok[sub.members.tobytes()]))
    else:
        families, minima = _central_subgroup_families(G, center(G), MAX_CENTER_SUBGROUPS)
        for members, good in zip(families, central_factor_cuts(G, minima).tolist()):
            trace.append(TraceEntry(f"N of order {len(members)}", "N and G/N have cut", good))
    return _conjunction(name, trace)


REFERENCE_CHARACTERIZATIONS = {
    "thm_odd": reference_thm_odd,
    "thm_solvable_eppo": reference_thm_solvable_eppo,
    "thm_nilpotent": reference_thm_nilpotent,
    "cor_class2": reference_cor_class2,
    "prop_class2_factor[per_element]": reference_prop_class2_factor,
    "prop_class2_factor[central_subgroups]": lambda G: reference_prop_class2_factor(G, "central_subgroups"),
}

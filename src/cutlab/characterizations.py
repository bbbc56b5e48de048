"""Independent predicates for each published cut-property characterization.

Every predicate evaluates its stated hypotheses (applicability) and, when
applicable, predicts the cut verdict from its own condition clauses,
without consulting the decision engine.  ``verify_equivalences`` then runs
all predicates against the engine; a disagreement on an applicable group
signals an implementation bug and is reported rather than raised.

All per-element conditions are evaluated on class representatives only,
which is equivalent because conjugate elements have conjugate powers, and
each clause takes its powers or commutator subgroups for all of them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import CenterTooLarge, HypothesisViolated, OrderCapExceeded
from .group_core import (
    FiniteGroup,
    SubgroupHandle,
    _is_power_of,
    center,
    commutator_subgroups,
    coset_minima,
    direct_product,
    prime_factors,
)
from .cut_engine import central_factor_cuts, decide_cut


@dataclass(frozen=True)
class TraceEntry:
    """One checked condition: what was examined, which clause, verdict."""

    subject: str
    clause: str
    ok: bool


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one characterization on one group.

    ``predicted`` and ``agrees_with_decider`` are present exactly when the
    hypotheses hold (``applicable``).  For the product-based checks the
    agreement field compares the prediction against the decider on the
    constructed products.
    """

    name: str
    applicable: bool
    predicted: bool | None
    trace: tuple[TraceEntry, ...]
    agrees_with_decider: bool | None = None

    @property
    def disagrees(self) -> bool:
        """Applicable, and the prediction disagrees with the decider."""
        return self.applicable and self.agrees_with_decider is False


def _conjunction(name: str, trace) -> TheoremReport:
    """An applicable report predicting the cut-property iff every traced clause holds."""
    trace = tuple(trace)
    return TheoremReport(name, True, all(t.ok for t in trace), trace)


def _power_clause(G: FiniteGroup, classes, k: int, either: bool) -> list[TraceEntry]:
    """x^k ~ x^-1 (or x^k ~ x, when ``either``) for the representative x of each class."""
    part, k_classes = G.conjugacy, G.power_map(k).tolist()
    clause = f"x^{k} ~ x or x^-1" if either else f"x^{k} ~ x^-1"
    trace = []
    for c in classes:
        ok = k_classes[c] == int(part.inverse_class[c]) or (either and k_classes[c] == c)
        trace.append(TraceEntry(G.label(int(part.representatives[c])), clause, ok))
    return trace


def thm_odd(G: FiniteGroup) -> TheoremReport:
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


def thm_solvable_eppo(G: FiniteGroup) -> TheoremReport:
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


def thm_nilpotent(G: FiniteGroup) -> TheoremReport:
    """Nilpotent criterion: 2-group clause, 3-group clause, or a 2x3 split.

    A nilpotent G with pi = {2, 3} is P2 x P3, so the classes of G inside a
    Sylow subgroup are that subgroup's own classes: the 2-clause runs over
    the classes of 2-elements, the 3-clause over those of 3-elements, and
    P2 is real when each of its classes is its own inverse class.
    """
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


def _class2_applicable(G: FiniteGroup) -> bool:
    profile = G.profile
    return (
        profile.is_p_group
        and profile.nilpotency_class is not None
        and profile.nilpotency_class <= 2
    )


def _class_commutators(G: FiniteGroup) -> list[SubgroupHandle]:
    """[x, G] for the representative x of each class, by class id, kept on G."""
    return commutator_subgroups(G, G.conjugacy.representatives)


def _degenerate_class(G: FiniteGroup) -> list[TraceEntry]:
    """The trace entry admitting an abelian G (class 0 or 1) to a class-2 criterion."""
    nc = G.profile.nilpotency_class
    return [TraceEntry("group", f"degenerate case: class {nc}", True)] if nc < 2 else []


def cor_class2(G: FiniteGroup) -> TheoremReport:
    """Power-in-commutator criterion for p-groups of class at most 2.

    The class-1 (abelian) case is admitted as the degenerate form: every
    [x,G] is trivial and the condition reduces to the exponent condition.
    Under class <= 2, g -> [x,g] is a homomorphism into the center, so the
    commutator set of x is already the subgroup [x,G].
    """
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
    subs = G.fact(_class_commutators)
    for x, sub, power in zip(reps.tolist(), subs, G.power_vec(reps, exponent).tolist()):
        trace.append(TraceEntry(G.label(x), f"x^{exponent} in [x,G]", sub.contains(power)))
    return _conjunction("cor_class2", trace)


MAX_CENTER_SUBGROUPS = 1024  # larger centers are not enumerated (CenterTooLarge)


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    """The number of k-dimensional subspaces of an n-dimensional space over GF(p)."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _subgroup_count(orders: np.ndarray) -> int:
    """The number of subgroups of a finite abelian group, from its element orders.

    The group is the product of its Sylow parts, and so is the count.  The
    type λ of the Sylow p-part is read off the orders: its Ω_k, the
    elements of order dividing p^k, has p^(λ'_1 + ... + λ'_k) members.  It
    has Π_i p^(ν'_{i+1}(λ'_i - ν'_i)) [λ'_i - ν'_{i+1}, ν'_i - ν'_{i+1}]_p
    subgroups of type ν (Birkhoff-Delsarte; Butler, *Subgroup Lattices and
    Symmetric Functions*, Mem. AMS 539, 1994), summed here over every
    ν ⊆ λ one column ν'_i at a time, from the last.
    """
    total = 1
    for p, a in prime_factors(int(np.lcm.reduce(orders))).items():
        omega = [np.count_nonzero(p**k % orders == 0) for k in range(a + 1)]
        conj = [round(math.log(big // small, p)) for small, big in zip(omega, omega[1:])]
        below = {0: 1}  # the sum over the columns right of column i, by ν'_{i+1}
        for lam in reversed(conj):
            below = {
                v: sum(
                    p ** (w * (lam - v)) * _gaussian_binomial(lam - w, v - w, p) * f
                    for w, f in below.items()
                    if w <= v
                )
                for v in range(lam + 1)
            }
        total *= sum(below.values())
    return total


def _primitive_root(g: int, q: int, phi: int) -> bool:
    """Whether g has order phi = |(Z/q)^x| modulo q."""
    return all(pow(g, phi // r, q) != 1 for r in prime_factors(phi))


def _unit_generators(e: int) -> list[int]:
    """Generators of (Z/e)^x, each lifted by CRT from one prime power p^a of e.

    For p = 2 they are -1 (when 4 | p^a) and 5 (when 8 | p^a); for odd p,
    the least primitive root modulo p^a.
    """
    gens = []
    for p, a in prime_factors(e).items():
        q, rest = p**a, e // p**a
        if p == 2:
            local = [u for u, least in ((q - 1, 4), (5, 8)) if q >= least]
        else:
            phi = q - q // p
            local = [next(g for g in range(2, q) if _primitive_root(g, q, phi))]
        gens += [1 + rest * ((u - 1) * pow(rest, -1, q) % q) for u in local]
    return gens


def _least_generators(G: FiniteGroup, Z: SubgroupHandle) -> np.ndarray:
    """The least generator of each nontrivial cyclic subgroup of an abelian Z, ascending.

    The generators of <z> are the z^u for the units u modulo the exponent e
    of Z, so they are z's orbit under the power maps z -> z^u of the
    generators u of (Z/e)^x.  These maps commute, so the least member of an
    orbit is taken one map at a time, each by pointer doubling along its
    cycles.
    """
    members = Z.members
    e = int(np.lcm.reduce(G.element_orders[members]))
    least = np.arange(len(members))
    for u in _unit_generators(e):
        step = np.searchsorted(members, G.power_vec(members, u))
        for _ in range(e.bit_length()):
            least = np.minimum(least, least[step])
            step = step[step]
    return members[np.unique(least)[1:]]


def _enumerate_subgroups(G: FiniteGroup, Z: SubgroupHandle) -> np.ndarray:
    """Every subgroup N of a central Z once, as its row of coset minima over G.

    The walk is a canonical augmentation (McKay, *J. Algorithms* 26, 1998).
    Every subgroup K has one canonical chain 1 < H_1 < ... < K that always
    adjoins the least missing element, x_i = min(K minus H_(i-1)); the x_i
    strictly increase, and each H_i's chain is a prefix of K's.  So from a
    subgroup H whose chain ends with x_i = last(H), the walk accepts
    K = H·<x> (a subgroup, Z being abelian) exactly when
    x = min(K minus H) > last(H), and reaches every subgroup once, with no
    record of those it has seen.  min(K minus H) is the least generator of
    its cyclic subgroup, since every generator of <x> is in K but not in H,
    so the candidates x are those least generators, and the powers of all
    of them come from one doubling walk.  The cosets of H in K are the
    x^k H, so x is accepted iff every x^k outside H has a coset minimum of
    at least x.

    A row holds cm(g), the least member of gN for every g of G; N is the
    g with cm(g) = 0.  K inherits its row from H's: cm_K(g) is the least
    cm_H(g·x^k) over k, which doubling steps over k = 0, 1, 2, 4, ... reach
    in about log2 [K : H] whole-row products.  The (H, x) pairs of each
    level are evaluated in row blocks (``_kernels.row_blocks``).
    """
    xs = _least_generators(G, Z)
    # powers[c, k] = xs[c]^k for k <= the largest order, each block of
    # columns k = f..2f-1 the one before it times x^f
    width = int(G.element_orders[xs].max(initial=1)) + 1
    powers = np.zeros((len(xs), width), dtype=np.int32)
    powers[:, 1] = xs
    filled = 2
    while filled < width:
        half = powers[:, filled // 2, None]
        block = powers[:, :min(filled, width - filled)]
        powers[:, filled:filled + block.shape[1]] = G.mul_vec(block, G.mul_vec(half, half))
        filled *= 2
    everyone = np.arange(G.order)
    level = everyone[None].astype(np.int32)  # the trivial subgroup
    lasts = np.zeros(1, dtype=np.int64)
    out = [level]
    row_bytes = 8 * max(G.order, powers.shape[1])
    while len(level):
        # x > last(H), and x is the least of its coset xH (so outside H)
        hs, cs = ((xs[None, :] > lasts[:, None]) & (level[:, xs] == xs)).nonzero()
        children, child_lasts = [], []
        for pairs in _kernels.row_blocks(len(hs), row_bytes):
            h, c = hs[pairs], cs[pairs]
            minima = level[h[:, None], powers[c]]
            accept = ((minima == 0) | (minima >= xs[c, None])).all(axis=1)
            h, c, minima = h[accept], c[accept], minima[accept]
            index = (minima[:, 1:] == 0).argmax(axis=1) + 1  # [K : H], the least k >= 1 with x^k in H
            row = level[h]
            live, span = np.arange(len(h)), 1
            while live.size:
                shifted = G.mul_vec(everyone[None, :], powers[c[live], span, None])
                row[live] = np.minimum(row[live], row[live[:, None], shifted])
                span *= 2
                live = live[index[live] > span]
            children.append(row)
            child_lasts.append(xs[c])
        level = np.concatenate(children) if children else level[:0]
        lasts = np.concatenate(child_lasts) if child_lasts else lasts[:0]
        out.append(level)
    return np.concatenate(out)


def _central_subgroup_families(
    G: FiniteGroup, Z: SubgroupHandle, cap: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """All subgroups of a central Z of G: sorted member arrays, and a row of coset minima each.

    They are ordered by size, then by members.  The subgroups are counted
    first (``_subgroup_count``), and past ``cap`` CenterTooLarge is raised
    before any is formed; then ``_enumerate_subgroups`` forms each once.
    """
    if _subgroup_count(G.element_orders[Z.members]) > cap:
        raise CenterTooLarge(f"center has more than {cap} subgroups; raise the cap to enumerate")
    minima = _enumerate_subgroups(G, Z)
    families = [Z.members[row[Z.members] == 0] for row in minima]
    order = sorted(range(len(families)), key=lambda i: (len(families[i]), families[i].tolist()))
    return [families[i] for i in order], minima[order]


def prop_class2_factor(G: FiniteGroup, mode: str = "per_element") -> TheoremReport:
    """Factor criterion for class-at-most-2 p-groups.

    ``per_element``: every [x,G] and every G/[x,G] must have the
    cut-property.  ``central_subgroups``: every subgroup N of the center
    (all of them normal) and every G/N must have it; the subgroups of the
    abelian center are enumerated exhaustively.  Class <= 2 puts every
    [x,G] inside the center, so N is central in both modes, and the N of
    one mode are decided together on G's own elements
    (``central_factor_cuts``), each given by its coset minima.
    """
    if mode not in ("per_element", "central_subgroups"):
        raise ValueError(f"unknown mode {mode!r}")
    name = f"prop_class2_factor[{mode}]"
    if not _class2_applicable(G):
        return TheoremReport(name, False, None, ())
    trace = _degenerate_class(G)
    if mode == "per_element":
        reps = G.conjugacy.representatives
        subs = G.fact(_class_commutators)
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


def remark_two_group_sum(
    H: FiniteGroup, K: FiniteGroup, max_order: int | None = None
) -> TheoremReport:
    """Failure criterion for a direct sum of two cut 2-groups.

    The sum loses the cut-property exactly when non-real elements h, k
    exist with h^3 ~ h and k^3 ~ k^-1 (or symmetrically).  The report's
    ``predicted`` is the predicted cut verdict of the product and the
    agreement field compares it against the decider on the product, built
    under ``max_order`` (default: the configured cap).  A factor's verdict,
    profile and cube split are kept on it, so a factor of many pairs is
    examined once.
    """
    for part_name, P in (("H", H), ("K", K)):
        if P.profile.p != 2:
            raise HypothesisViolated(f"{part_name} is not a nontrivial 2-group")
        if not decide_cut(P).has_cut:
            raise HypothesisViolated(f"{part_name} does not have the cut-property")

    h_self, h_inv = H.fact(_split_nonreal)
    k_self, k_inv = K.fact(_split_nonreal)
    trace = []
    predicted_failure = False
    if h_self and k_inv:
        predicted_failure = True
        trace.append(
            TraceEntry(
                f"(h,k)=({H.label(h_self[0])},{K.label(k_inv[0])})",
                "non-real pair: h^3 ~ h and k^3 ~ k^-1",
                True,
            )
        )
    if k_self and h_inv:
        predicted_failure = True
        trace.append(
            TraceEntry(
                f"(h,k)=({H.label(h_inv[0])},{K.label(k_self[0])})",
                "non-real pair: h^3 ~ h^-1 and k^3 ~ k",
                True,
            )
        )
    if not predicted_failure:
        trace.append(TraceEntry("pairs", "no qualifying non-real pair exists", True))
    actual = decide_cut(direct_product(H, K, max_order)).has_cut
    return TheoremReport(
        "remark_two_group_sum",
        True,
        not predicted_failure,
        tuple(trace),
        agrees_with_decider=(not predicted_failure) == actual,
    )


def _split_nonreal(P: FiniteGroup) -> tuple[list[int], list[int]]:
    """The representatives x of P's non-real classes with x^3 ~ x, and those with x^3 ~ x^-1."""
    part = P.conjugacy
    nonreal = np.flatnonzero(~part.is_real)
    cubes, reps = P.power_map(3)[nonreal], part.representatives[nonreal]
    return reps[cubes == nonreal].tolist(), reps[cubes == part.inverse_class[nonreal]].tolist()


@lru_cache(maxsize=1)
def _p6_check_set():
    from .constructors import abelian, construct, cyclic, dicyclic, metacyclic

    # under a cap of their own, so that a small order cap skips the products with them
    return (
        ("C2", construct(cyclic(2), 8)),
        ("C2xC2", construct(abelian([2, 2]), 8)),
        ("D8", construct(metacyclic(4, 2, 3), 8)),
        ("Q8", construct(dicyclic(2), 8)),
    )


def verify_equivalences(G: FiniteGroup, max_order: int | None = None) -> list[TheoremReport]:
    """Run every characterization on G and record agreement with the decider.

    When G is nilpotent with the cut-property, additionally checks that
    direct products with a fixed set of real cut 2-groups keep the
    property (the preservation corollary for trivial central units); a
    product past the order cap (``max_order``, default: the configured
    cap) is recorded as skipped, and agreement is taken over the products
    checked.
    """
    actual = decide_cut(G).has_cut
    reports = []
    for fn in (thm_odd, thm_solvable_eppo, thm_nilpotent, cor_class2):
        reports.append(_fill_agreement(fn(G), actual))
    for mode in ("per_element", "central_subgroups"):
        try:
            report = prop_class2_factor(G, mode)
        except CenterTooLarge as exc:
            report = TheoremReport(
                f"prop_class2_factor[{mode}]",
                False,
                None,
                (TraceEntry("center", f"skipped: {exc}", True),),
            )
        reports.append(_fill_agreement(report, actual))
    if G.profile.is_nilpotent and actual:
        trace = []
        all_ok = True
        for rname, R in _p6_check_set():
            try:
                ok = decide_cut(direct_product(G, R, max_order)).has_cut
            except OrderCapExceeded as exc:
                trace.append(TraceEntry(f"G x {rname}", f"skipped: {exc}", True))
                continue
            trace.append(TraceEntry(f"G x {rname}", "product keeps cut", ok))
            all_ok &= ok
        reports.append(
            TheoremReport(
                "cor_p6_products", True, True, tuple(trace), agrees_with_decider=all_ok
            )
        )
    return reports


def _fill_agreement(report: TheoremReport, actual: bool) -> TheoremReport:
    if not report.applicable:
        return report
    return replace(report, agrees_with_decider=report.predicted == actual)

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

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import CenterTooLarge, HypothesisViolated, OrderCapExceeded
from .group_core import (
    FiniteGroup,
    SubgroupHandle,
    _is_power_of,
    center,
    commutator_subgroups,
    direct_product,
)
from .cut_engine import central_subgroup_has_cut, decide_cut, quotient_has_cut


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
    subs = commutator_subgroups(G, reps)
    for x, sub, power in zip(reps.tolist(), subs, G.power_vec(reps, exponent).tolist()):
        trace.append(TraceEntry(G.label(x), f"x^{exponent} in [x,G]", sub.contains(power)))
    return _conjunction("cor_class2", trace)


MAX_CENTER_SUBGROUPS = 1024  # larger centers are not enumerated (CenterTooLarge)


def _cyclic_subgroups(G: FiniteGroup, members: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Every cyclic subgroup generated by one of ``members`` once, and the one each generates.

    Returns ``(cyclic_of, cyclics)``: ``cyclics[cyclic_of[x]]`` holds the
    sorted members of <x> for each x of ``members`` (-1 elsewhere).  Each
    <x> is x^0..x^(o(x)-1) from one ``power_vec``, and every generator x^k
    with gcd(k, o(x)) = 1 is mapped to it at once.
    """
    orders = G.element_orders
    cyclic_of = np.full(G.order, -1, dtype=np.int64)
    cyclics: list[np.ndarray] = []
    for x in members.tolist():
        if cyclic_of[x] >= 0:
            continue
        m = int(orders[x])
        powers = G.power_vec(x, np.arange(m)).astype(np.int32)
        cyclic_of[powers[np.gcd(np.arange(m), m) == 1]] = len(cyclics)
        cyclics.append(np.sort(powers))
    return cyclic_of, cyclics


def _central_subgroup_families(G: FiniteGroup, Z: SubgroupHandle, cap: int) -> list[np.ndarray]:
    """All subgroups of a central Z of G, as sorted member arrays of G.

    Walk the subgroup lattice by extending each known subgroup with one
    outside element of Z and closing.  Every subgroup is reached through
    the chain that always adjoins its smallest missing element; along such
    a chain the adjoined elements strictly increase, so extensions are
    restricted to elements larger than the last one adjoined.  Because Z
    is abelian, <H, x> = H·<x> is already a subgroup, so closing is one
    product of H with the cyclic subgroup <x>; elements generating a
    cyclic subgroup already joined with H give the same H·<x> and are
    skipped.  Raises CenterTooLarge past ``cap``.
    """
    cyclic_of, cyclics = _cyclic_subgroups(G, Z.members)
    seen = {(0,)}
    queue: list[tuple[np.ndarray, int]] = [(np.array([0], dtype=np.int32), 0)]
    out = [queue[0][0]]
    while queue:
        H, last = queue.pop()
        inside = np.zeros(G.order, dtype=bool)
        inside[H] = True
        candidates = Z.members[Z.members > last]
        candidates = candidates[~inside[candidates]]
        _, first = np.unique(cyclic_of[candidates], return_index=True)
        for x in candidates[np.sort(first)].tolist():
            C = cyclics[cyclic_of[x]]
            new = np.unique(G.mul_vec(H[:, None], C[None, :])).astype(np.int32)
            key = tuple(new.tolist())
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > cap:
                raise CenterTooLarge(
                    f"center has more than {cap} subgroups; raise the cap to enumerate"
                )
            queue.append((new, x))
            out.append(new)
    out.sort(key=lambda arr: (len(arr), tuple(arr.tolist())))
    return out


def prop_class2_factor(G: FiniteGroup, mode: str = "per_element") -> TheoremReport:
    """Factor criterion for class-at-most-2 p-groups.

    ``per_element``: every [x,G] and every G/[x,G] must have the
    cut-property.  ``central_subgroups``: every subgroup N of the center
    (all of them normal) and every G/N must have it; the subgroups of the
    abelian center are enumerated exhaustively.  N and G/N are decided on
    G's own elements; class <= 2 puts every [x,G] inside the center, so N
    is central in both modes.
    """
    if mode not in ("per_element", "central_subgroups"):
        raise ValueError(f"unknown mode {mode!r}")
    name = f"prop_class2_factor[{mode}]"
    if not _class2_applicable(G):
        return TheoremReport(name, False, None, ())
    trace = _degenerate_class(G)
    if mode == "per_element":
        reps = G.conjugacy.representatives
        checked: dict[bytes, bool] = {}
        for x, sub in zip(reps.tolist(), commutator_subgroups(G, reps)):
            key = sub.members.tobytes()
            if key not in checked:
                checked[key] = central_subgroup_has_cut(G, sub) and quotient_has_cut(G, sub)
            clause = f"[x,G] (order {sub.order}) and G/[x,G] have cut"
            trace.append(TraceEntry(G.label(x), clause, checked[key]))
    else:
        for members in _central_subgroup_families(G, center(G), MAX_CENTER_SUBGROUPS):
            N = G.subgroup(members)
            ok = central_subgroup_has_cut(G, N) and quotient_has_cut(G, N)
            trace.append(TraceEntry(f"N of order {N.order}", "N and G/N have cut", ok))
    return _conjunction(name, trace)


def remark_two_group_sum(H: FiniteGroup, K: FiniteGroup) -> TheoremReport:
    """Failure criterion for a direct sum of two cut 2-groups.

    The sum loses the cut-property exactly when non-real elements h, k
    exist with h^3 ~ h and k^3 ~ k^-1 (or symmetrically).  The report's
    ``predicted`` is the predicted cut verdict of the product and the
    agreement field compares it against the decider on the product.
    """
    for part_name, P in (("H", H), ("K", K)):
        if P.profile.p != 2:
            raise HypothesisViolated(f"{part_name} is not a nontrivial 2-group")
        if not decide_cut(P).has_cut:
            raise HypothesisViolated(f"{part_name} does not have the cut-property")

    def split_nonreal(P: FiniteGroup):
        part = P.conjugacy
        cubes = P.power_map(3).tolist()
        cube_self, cube_inverse = [], []
        for c in np.flatnonzero(~part.is_real).tolist():
            x = int(part.representatives[c])
            if cubes[c] == c:
                cube_self.append(x)
            elif cubes[c] == int(part.inverse_class[c]):
                cube_inverse.append(x)
        return cube_self, cube_inverse

    h_self, h_inv = split_nonreal(H)
    k_self, k_inv = split_nonreal(K)
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
    actual = decide_cut(direct_product(H, K)).has_cut
    return TheoremReport(
        "remark_two_group_sum",
        True,
        not predicted_failure,
        tuple(trace),
        agrees_with_decider=(not predicted_failure) == actual,
    )


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


def verify_equivalences(G: FiniteGroup) -> list[TheoremReport]:
    """Run every characterization on G and record agreement with the decider.

    When G is nilpotent with the cut-property, additionally checks that
    direct products with a fixed set of real cut 2-groups keep the
    property (the preservation corollary for trivial central units); a
    product past the order cap is recorded as skipped, and agreement is
    taken over the products checked.
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
                ok = decide_cut(direct_product(G, R)).has_cut
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

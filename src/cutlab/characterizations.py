"""Independent predicates for each published cut-property characterization.

Every predicate evaluates its stated hypotheses (applicability) and, when
applicable, predicts the cut verdict from its own condition clauses,
without consulting the decision engine.  ``verify_equivalences`` then runs
all predicates against the engine; a disagreement on an applicable group
signals an implementation bug and is reported rather than raised.

All per-element conditions are evaluated on class representatives only,
which is equivalent because conjugate elements have conjugate powers.  A
clause is one whole-array expression over the classes (their element
orders, power maps, inverse classes and [x, G]), and the prediction is
that every flag holds.  A report's trace is formed on its first read, from
columns that hold no group: the flags, a clause code per entry, and a
holder kept on G that names G's class representatives once per group, when
the first trace is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import CenterTooLarge, HypothesisViolated, OrderCapExceeded
from .group_core import (
    FiniteGroup,
    SubgroupHandle,
    _Names,
    _namer_of,
    _small_units,
    center,
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


class _Trace:
    """The ``trace`` field of a report: a tuple of TraceEntry, formed on first read.

    A report is given the tuple, or a function that forms it; the first read
    calls the function and keeps its tuple.  The functions given here hold
    arrays, ints and strings only, so a report does not keep its group alive.
    """

    def __get__(self, report, owner=None):
        if report is None:
            raise AttributeError("trace")  # a required field: no default
        trace = report.__dict__["_trace"]
        if callable(trace):
            trace = report.__dict__["_trace"] = trace()
        return trace

    def __set__(self, report, trace):
        report.__dict__["_trace"] = trace if callable(trace) else tuple(trace)


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one characterization on one group.

    ``predicted`` and ``agrees_with_decider`` are present exactly when the
    hypotheses hold (``applicable``).  For the product-based checks the
    agreement field compares the prediction against the decider on the
    constructed products.  ``trace`` is a tuple of TraceEntry; the
    characterizations pass a function forming it from their columns, which
    runs on the first read of ``trace`` (see ``_Trace``).
    """

    name: str
    applicable: bool
    predicted: bool | None
    trace: tuple[TraceEntry, ...] = _Trace()
    agrees_with_decider: bool | None = None

    @property
    def disagrees(self) -> bool:
        """Applicable, and the prediction disagrees with the decider."""
        return self.applicable and self.agrees_with_decider is False


class _Clause(NamedTuple):
    """One clause over classes of G, one trace entry per flag.

    The i-th entry is of the i-th class that ``classes`` marks (default:
    class i), has the flag ``flags[i]`` and the clause text
    ``texts[codes[i]]`` with ``values[i]`` filled in; ``codes`` and
    ``values`` may be one int for every entry.
    """

    flags: np.ndarray
    texts: tuple[str, ...]
    codes: np.ndarray | int = 0
    values: np.ndarray | int = 0
    classes: np.ndarray | None = None


def _class_names(G: FiniteGroup) -> _Names:
    """The name of each class representative by class id, each formed on its first read.

    The holder is kept on G and shared by the traces of every report of G,
    so a representative is named once, when the first trace that names it
    is read.  Its namer (``_namer_of``) holds G's names and representatives, never G.
    """
    return _Names(_namer_of(G, G.conjugacy.representatives.tolist()))


def _entries(head, names, clauses) -> tuple[TraceEntry, ...]:
    """The trace of ``_conjunction``'s columns: ``head``, then one entry per flag of each clause."""
    entries = [TraceEntry(*entry) for entry in head]
    for flags, texts, codes, values, classes in clauses:
        ids = range(len(flags)) if classes is None else np.flatnonzero(classes).tolist()
        codes, values = (np.broadcast_to(a, flags.shape).tolist() for a in (codes, values))
        for c, code, value, ok in zip(ids, codes, values, flags.tolist()):
            entries.append(TraceEntry(names[c], texts[code].format(value), ok))
    return tuple(entries)


def _conjunction(name: str, head, G: FiniteGroup | None = None, clauses=()) -> TheoremReport:
    """An applicable report predicting the cut-property iff every entry holds.

    ``head`` holds the leading (subject, clause, ok) entries, and each
    ``_Clause`` of ``clauses`` one more per class it marks.  The trace is
    formed on first read, from these columns and G's class names.
    """
    names = G.fact(_class_names) if clauses else ()
    # count_nonzero costs a fraction of ndarray.all's fixed cost on a few classes
    holds = all(np.count_nonzero(c.flags) == len(c.flags) for c in clauses)
    predicted = holds and all(ok for _, _, ok in head)
    columns = partial(_entries, tuple(head), names, tuple(clauses))
    return TheoremReport(name, True, predicted, columns)


def _order_kinds(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The order m of each class representative, and its kind, by class id (kept on G).

    The kinds are 0 (none of the others), 1 (m = 5), 2 (m = 2^a > 1),
    3 (m = 3^b > 1), 4 (m = 7) and 5 (m = 1), read off a table by order:
    m divides |G|, so a power of q is one of those dividing |G|.
    """
    kind, exponents = np.zeros(G.order + 8, dtype=np.int8), prime_factors(G.order)
    for q in (2, 3):
        kind[[q**a for a in range(1, exponents.get(q, 0) + 1)]] = q
    kind[5], kind[7], kind[1] = 1, 4, 5
    m = G.element_orders[G.conjugacy.representatives]
    return m, kind[m]


ODD_CLAUSES = (
    "o(x)={} is neither 7 nor a power of 3",
    "x^5 !~ x^-1",
    "x^5 ~ x^-1 and admissible order",
)
ODD_ADMISSIBLE = np.array([False, False, False, True, True, True])  # by order kind: 3^b, 7 or 1


def thm_odd(G: FiniteGroup) -> TheoremReport:
    """Odd-order criterion: x^5 ~ x^-1 and o(x) is 7 or a power of 3."""
    if G.order % 2 == 0:
        return TheoremReport("thm_odd", False, None, ())
    orders, kinds = G.fact(_order_kinds)
    # the ODD_CLAUSES text: the order fails, else x^5 fails, else both hold
    codes = ODD_ADMISSIBLE[kinds] * (1 + (G.power_map(5) == G.conjugacy.inverse_class))
    return _conjunction("thm_odd", (), G, [_Clause(codes == 2, ODD_CLAUSES, codes, orders)])


EPPO_CLAUSES = (
    "(i) o(x)=2^a and x^3 ~ x or x^-1",
    "(ii) o(x)=7 or 3^b and x^5 ~ x^-1",
    "(iii) o(x)=5 and x^3 ~ x^-1",
    "o(x)={} admitted by no clause",
)
EPPO_CODES = np.array([3, 2, 0, 1, 1, 0])  # by order kind: the first clause admitting the order
# by clause: which of x^3 ~ x^-1, x^3 ~ x and x^5 ~ x^-1 satisfies it
EPPO_SUFFICES = np.array(
    [[True, True, False], [False, False, True], [True, False, False], [False, False, False]]
)


def thm_solvable_eppo(G: FiniteGroup) -> TheoremReport:
    """Solvable prime-power-order criterion, three order-dependent clauses."""
    profile = G.profile
    if not (profile.is_solvable and profile.is_eppo):
        return TheoremReport("thm_solvable_eppo", False, None, ())
    orders, kinds = G.fact(_order_kinds)
    codes = EPPO_CODES[kinds]
    cube_inverse, cube_self, fifth_inverse = EPPO_SUFFICES[codes].T
    third, fifth, inverse = G.power_map(3), G.power_map(5), G.conjugacy.inverse_class
    flags = (
        ((third == inverse) & cube_inverse)
        | ((third == np.arange(len(codes))) & cube_self)
        | ((fifth == inverse) & fifth_inverse)
    )
    return _conjunction("thm_solvable_eppo", (), G, [_Clause(flags, EPPO_CLAUSES, codes, orders)])


TWO_ELEMENTS = np.array([False, False, True, False, False, True])  # by order kind: 2^a or 1
THREE_ELEMENTS = np.array([False, False, False, True, False, True])  # by order kind: 3^b or 1


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
        head = [("group", f"pi={sorted(pi)} not within {{2,3}}", False)]
        return _conjunction("thm_nilpotent", head)
    part = G.conjugacy
    kinds = G.fact(_order_kinds)[1]
    two, three = TWO_ELEMENTS[kinds], THREE_ELEMENTS[kinds]
    head, clauses = [], []
    if pi == {2, 3}:
        head.append(("sylow 2-subgroup", "is a real group", bool(part.is_real[two].all())))
    if pi != {3}:
        third = G.power_map(3)
        either = (third == part.inverse_class) | (third == np.arange(len(kinds)))
        clauses.append(_Clause(either[two], ("x^3 ~ x or x^-1",), classes=two))
    if 3 in pi:
        squares = G.power_map(2) == part.inverse_class
        clauses.append(_Clause(squares[three], ("x^2 ~ x^-1",), classes=three))
    return _conjunction("thm_nilpotent", head, G, clauses)


def _class2_applicable(G: FiniteGroup) -> bool:
    nc = G.profile.nilpotency_class
    return G.profile.is_p_group and nc is not None and nc <= 2


def _commutator_factor_cuts(G: FiniteGroup) -> np.ndarray:
    """Whether [x, G] and G/[x, G] have the cut-property, for each class representative x.

    Under class <= 2, g -> [x, g] is a homomorphism into the center, so
    [x, G] is the set {[x, g] : g in G} = x·Cl(x^-1) = x·Cl(x)^-1, of order
    |Cl(x)|: one product over G's elements forms it for every class at
    once, with no closure.  Classes with the same members share one N,
    found among the classes of each size; the least member of each coset
    gN is the least of g·N, one product per N, and every N is decided in
    one stacked call (``central_factor_cuts``).
    """
    (by_class, starts), sizes = G.conjugacy.members, G.conjugacy.sizes
    # x·Cl(x)^-1 for each class in turn
    comms = G.mul_vec(np.repeat(G.conjugacy.representatives, sizes), G.inv_vec[by_class])
    which, minima, everyone = np.empty_like(sizes), [], np.arange(G.order)[:, None]
    for size in np.unique(sizes).tolist():
        classes = np.flatnonzero(sizes == size)
        rows = np.sort(comms[starts[classes, None] + np.arange(size)], axis=1)
        # one bytes key per row: a 1-D np.unique costs a fraction of np.unique(axis=0)
        keys = rows.view(np.dtype((np.void, rows.itemsize * size))).ravel()
        _, first, slot = np.unique(keys, return_index=True, return_inverse=True)
        which[classes] = slot + len(minima)
        minima += [G.mul_vec(everyone, N).min(axis=1) for N in rows[first]]
    return central_factor_cuts(G, np.stack(minima))[which]


def _degenerate_class(G: FiniteGroup) -> list[tuple[str, str, bool]]:
    """The trace entry admitting an abelian G (class 0 or 1) to a class-2 criterion."""
    nc = G.profile.nilpotency_class
    return [("group", f"degenerate case: class {nc}", True)] if nc < 2 else []


def cor_class2(G: FiniteGroup) -> TheoremReport:
    """Power-in-commutator criterion for p-groups of class at most 2.

    The class-1 (abelian) case is admitted as the degenerate form: every
    [x,G] is trivial and the condition reduces to the exponent condition.
    Under class <= 2, g -> [x,g] is a homomorphism into the center, so the
    commutator set x·Cl(x^-1) of x is already the subgroup [x,G], and
    x^e lies in it exactly when x^(e-1) ~ x^-1: the clause compares
    ``power_map(e - 1)`` with the inverse classes, and no [x,G] is formed.
    """
    if not _class2_applicable(G):
        return TheoremReport("cor_class2", False, None, ())
    head = _degenerate_class(G)
    if G.order == 1:
        return _conjunction("cor_class2", head)
    exponent = {2: 4, 3: 3}.get(G.profile.p)
    if exponent is None:
        return _conjunction("cor_class2", head + [("group", f"p={G.profile.p} not 2 or 3", False)])
    # x^e lies in [x,G] = x·Cl(x^-1) exactly when x^(e-1) ~ x^-1
    flags = G.power_map(exponent - 1) == G.conjugacy.inverse_class
    return _conjunction("cor_class2", head, G, [_Clause(flags, (f"x^{exponent} in [x,G]",))])


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


def _least_generators(G: FiniteGroup, Z: SubgroupHandle) -> np.ndarray:
    """The least generator of each nontrivial cyclic subgroup of an abelian Z, ascending.

    The generators of <z> are the z^u for the units u modulo the exponent e
    of Z, so they are z's orbit under inversion and the power maps z -> z^u
    of the units u of ``_small_units(e)``, which generate (Z/e)^x with -1,
    and the least member of each orbit comes from one ``orbit_labels`` call
    over those maps as permutations of Z.
    """
    members = Z.members
    e = int(np.lcm.reduce(G.element_orders[members]))
    images = [G.inv_vec[members]] + [G.power_vec(members, u) for u in _small_units(e)]
    least = _kernels.orbit_labels(np.searchsorted(members, np.stack(images)))
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


def _central_subgroups(G: FiniteGroup, Z: SubgroupHandle, cap: int) -> np.ndarray:
    """All subgroups of a central Z of G, a row of coset minima each (``_enumerate_subgroups``).

    The subgroups are counted first (``_subgroup_count``), and past ``cap``
    CenterTooLarge is raised before any is formed.
    """
    if _subgroup_count(G.element_orders[Z.members]) > cap:
        raise CenterTooLarge(f"center has more than {cap} subgroups; raise the cap to enumerate")
    return _enumerate_subgroups(G, Z)


def _by_size_then_members(inside: np.ndarray) -> list[int]:
    """The rows of ``inside`` by size, then members; a row marks a subgroup's members among Z's."""
    members = [np.flatnonzero(row).tolist() for row in inside]
    return sorted(range(len(members)), key=lambda i: (len(members[i]), members[i]))


def _central_entries(head, inside, flags) -> tuple[TraceEntry, ...]:
    """The central_subgroups trace: ``head``, then each N (a row of ``inside``) by size and members."""
    sizes, flags = inside.sum(axis=1).tolist(), flags.tolist()
    return tuple(TraceEntry(*entry) for entry in head) + tuple(
        TraceEntry(f"N of order {sizes[i]}", "N and G/N have cut", flags[i])
        for i in _by_size_then_members(inside)
    )


def prop_class2_factor(G: FiniteGroup, mode: str = "per_element") -> TheoremReport:
    """Factor criterion for class-at-most-2 p-groups.

    ``per_element``: every [x,G] and every G/[x,G] must have the
    cut-property; [x,G] is x·Cl(x^-1), read off the class partition with
    no closure (``_commutator_factor_cuts``).  ``central_subgroups``:
    every subgroup N of the center (all of them normal) and every G/N must
    have it; the subgroups of the abelian center are enumerated
    exhaustively.  Class <= 2 puts every
    [x,G] inside the center, so N is central in both modes, and the N of
    one mode are decided together on G's own elements
    (``central_factor_cuts``), each given by its coset minima.  The
    central_subgroups trace lists each N by size, then members, sorted
    when it is first read.
    """
    if mode not in ("per_element", "central_subgroups"):
        raise ValueError(f"unknown mode {mode!r}")
    name = f"prop_class2_factor[{mode}]"
    if not _class2_applicable(G):
        return TheoremReport(name, False, None, ())
    head = _degenerate_class(G)
    if mode == "per_element":
        cuts = _commutator_factor_cuts(G)
        clause = _Clause(cuts, ("[x,G] (order {}) and G/[x,G] have cut",), values=G.conjugacy.sizes)
        return _conjunction(name, head, G, [clause])
    Z = center(G)
    minima = _central_subgroups(G, Z, MAX_CENTER_SUBGROUPS)
    cuts = central_factor_cuts(G, minima)
    trace = partial(_central_entries, tuple(head), minima[:, Z.members] == 0, cuts)
    return TheoremReport(name, True, bool(cuts.all()), trace)  # the head entry, if any, holds


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
    trace = [
        TraceEntry(f"(h,k)=({H.label(hs[0])},{K.label(ks[0])})", f"non-real pair: {how}", True)
        for hs, ks, how in (
            (h_self, k_inv, "h^3 ~ h and k^3 ~ k^-1"),
            (h_inv, k_self, "h^3 ~ h^-1 and k^3 ~ k"),
        )
        if hs and ks
    ]
    predicted_failure = bool(trace)
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
    # the trace as given, so that a trace not yet read is not formed here
    return replace(report, trace=report._trace, agrees_with_decider=report.predicted == actual)

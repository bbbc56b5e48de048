"""Built-in corpus of group recipes and the batch verification runner.

The corpus covers the published example groups, the named small families,
and all abelian groups of order up to 64 by invariant-factor enumeration.
``run_corpus`` builds every entry, classifies it, runs every
characterization, cross-checks the fast decider against the brute-force
oracle, and asserts the corpus-level facts (prime-set constraints, the
abelian exponent rule, quotient/centre closure, direct-sum remark pairs).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from .characterizations import (
    TheoremReport,
    remark_two_group_sum,
    verify_equivalences,
)
from .constructors import (
    GroupSpecDescriptor,
    abelian,
    construct,
    cyclic,
    dicyclic,
    heisenberg,
    metacyclic,
    product,
    symmetric,
)
from .cut_engine import (
    Classification,
    central_subgroup_has_cut,
    classify,
    decide_cut,
    decide_cut_bruteforce,
    quotient_cuts,
)
from .group_core import (
    FiniteGroup,
    center,
    max_order_cap,
    prime_factors,
)

VALID_TAGS = frozenset(
    {
        "paper-example",
        "odd-order",
        "eppo",
        "nilpotent",
        "2-group",
        "3-group",
        "abelian",
        "rational-expected",
        "cut-expected",
        "noncut-expected",
    }
)

SOLVABLE_CUT_PRIMES = frozenset({2, 3, 5, 7, 13})
ODD_CUT_PRIMES = frozenset({3, 7})
RATIONAL_SOLVABLE_PRIMES = frozenset({2, 3, 5})


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    spec: GroupSpecDescriptor
    tags: frozenset[str]

    def __post_init__(self):
        unknown = self.tags - VALID_TAGS
        if unknown:
            raise ValueError(f"unknown tags {sorted(unknown)} on entry {self.id}")


@dataclass
class EntryResult:
    entry_id: str
    descriptor: dict
    tags: tuple[str, ...]
    order: int | None = None
    classification: Classification | None = None
    reports: list[TheoremReport] = field(default_factory=list)
    oracle_agrees: bool | None = None
    expectation_ok: bool = True
    structural_tags_ok: bool = True
    pi_ok: bool = True
    abelian_oracle_ok: bool | None = None
    closure_violations: list[str] = field(default_factory=list)
    error: str | None = None
    seconds: float = 0.0

    @property
    def disagreements(self) -> int:
        return sum(r.disagrees for r in self.reports)


@dataclass
class RemarkPairResult:
    left_id: str
    right_id: str
    product_order: int
    predicted_cut: bool
    agrees: bool


# remark pairs H x K are checked only up to this product order (and the order cap)
REMARK_PRODUCT_LIMIT = 1024


@dataclass
class RunConfig:
    max_order: int | None = None


@dataclass
class CorpusResult:
    entries: list[EntryResult]
    remark_pairs: list[RemarkPairResult]
    aggregate: dict
    total_seconds: float


# ---------------------------------------------------------------------------
# the built-in corpus
# ---------------------------------------------------------------------------

def _invariant_factor_chains(order: int, min_factor: int = 1):
    """Nondecreasing divisor chains d1 | d2 | ... with product = order."""
    if order == 1:
        yield ()
        return
    d = 2
    while d * d <= order:
        if order % d == 0 and d % min_factor == 0:
            for rest in _invariant_factor_chains(order // d, d):
                yield (d,) + rest
        d += 1
    if order % min_factor == 0:
        yield (order,)


def _abelian_tags(factors: tuple[int, ...]) -> set[str]:
    order = math.prod(factors)
    exponent = factors[-1] if factors else 1
    tags = {"abelian", "nilpotent"}
    if order % 2 == 1:
        tags.add("odd-order")
    pf = prime_factors(order)
    if len(pf) <= 1:
        tags.add("eppo")
        if 2 in pf:
            tags.add("2-group")
        if 3 in pf:
            tags.add("3-group")
    if 4 % exponent == 0 or 6 % exponent == 0:
        tags.add("cut-expected")
    else:
        tags.add("noncut-expected")
    if exponent <= 2:
        tags.add("rational-expected")
    return tags


def builtin_corpus() -> list[CorpusEntry]:
    """Deterministic corpus: the published examples, named families, abelian sweep."""
    entries: list[CorpusEntry] = []

    def add(entry_id: str, spec: GroupSpecDescriptor, tags):
        entries.append(CorpusEntry(entry_id, spec, frozenset(tags)))

    for n in range(1, 37):
        add(f"cyclic-{n:02d}", cyclic(n), _abelian_tags((n,)) if n > 1 else _abelian_tags(()))

    for order in range(2, 65):
        for chain in _invariant_factor_chains(order):
            if len(chain) == 1 and order <= 36:
                continue  # already present as a cyclic entry
            add(
                "abelian-" + "x".join(map(str, chain)),
                abelian(chain),
                _abelian_tags(chain),
            )

    add("paper-cut-24", metacyclic(12, 2, 5), {"paper-example", "cut-expected"})
    add(
        "paper-noncut-81",
        metacyclic(9, 9, 4),
        {"paper-example", "odd-order", "nilpotent", "3-group", "eppo", "noncut-expected"},
    )
    add("metacyclic-3-2-2", metacyclic(3, 2, 2), {"eppo", "cut-expected", "rational-expected"})
    add(
        "metacyclic-4-2-3",
        metacyclic(4, 2, 3),
        {"2-group", "nilpotent", "eppo", "cut-expected", "rational-expected"},
    )
    add("metacyclic-8-2-3", metacyclic(8, 2, 3), {"2-group", "nilpotent", "eppo", "cut-expected"})
    add("metacyclic-8-2-5", metacyclic(8, 2, 5), {"2-group", "nilpotent", "eppo", "cut-expected"})
    add("metacyclic-5-4-2", metacyclic(5, 4, 2), {"eppo", "cut-expected"})
    add("metacyclic-7-3-2", metacyclic(7, 3, 2), {"odd-order", "eppo", "cut-expected"})

    add(
        "dicyclic-2",
        dicyclic(2),
        {"2-group", "nilpotent", "eppo", "cut-expected", "rational-expected"},
    )
    add("dicyclic-4", dicyclic(4), {"2-group", "nilpotent", "eppo", "noncut-expected"})

    add("heisenberg-3", heisenberg(3), {"odd-order", "3-group", "nilpotent", "eppo", "cut-expected"})
    add("heisenberg-5", heisenberg(5), {"odd-order", "nilpotent", "eppo", "noncut-expected"})
    add("heisenberg-7", heisenberg(7), {"odd-order", "nilpotent", "eppo", "noncut-expected"})

    add("symmetric-3", symmetric(3), {"eppo", "cut-expected", "rational-expected"})
    add("symmetric-4", symmetric(4), {"eppo", "cut-expected", "rational-expected"})

    add("product-q8xc3", product(dicyclic(2), cyclic(3)), {"nilpotent", "cut-expected"})
    add("product-d8xc3", product(metacyclic(4, 2, 3), cyclic(3)), {"nilpotent", "cut-expected"})
    add(
        "product-c4xc4",
        product(cyclic(4), cyclic(4)),
        {"2-group", "abelian", "nilpotent", "eppo", "cut-expected"},
    )
    add(
        "product-sd16xm16",
        product(metacyclic(8, 2, 3), metacyclic(8, 2, 5)),
        {"2-group", "nilpotent", "eppo", "noncut-expected"},
    )
    add(
        "product-heis3xheis3",
        product(heisenberg(3), heisenberg(3)),
        {"odd-order", "3-group", "nilpotent", "eppo", "cut-expected"},
    )

    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids)), "corpus ids must be unique"
    return entries


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def _closure_violations(G: FiniteGroup, has_cut: bool) -> list[str]:
    """Quotient/centre closure: normal subgroups our analyses construct.

    Every quotient is decided in one stacked test (``quotient_cuts``).
    """
    if not has_cut:
        return []
    out = []
    cen = center(G)
    if not central_subgroup_has_cut(G, cen):
        out.append("center-as-group")
    normals = {"center": cen, "derived": G.derived_subgroup}
    profile = G.profile
    if profile.is_nilpotent:
        for p, handle in sorted(profile.sylow_subgroups.items()):
            normals[f"sylow-{p}"] = handle
    for label, ok in zip(normals, quotient_cuts(G, normals.values())):
        if not ok:
            out.append(f"quotient-by-{label}")
    return out


def _structural_tags_ok(entry: CorpusEntry, G: FiniteGroup, cls: Classification) -> bool:
    profile = G.profile
    checks = {
        "odd-order": G.order % 2 == 1,
        "eppo": profile.is_eppo,
        "nilpotent": profile.is_nilpotent,
        "2-group": profile.p == 2,
        "3-group": profile.p == 3,
        "abelian": G.is_abelian,
        "rational-expected": cls.rational,
    }
    return all(truth for tag, truth in checks.items() if tag in entry.tags)


def _pi_ok(G: FiniteGroup, cls: Classification) -> bool:
    profile = G.profile
    pi = set(profile.pi)
    if cls.cut and profile.is_solvable and not pi <= SOLVABLE_CUT_PRIMES:
        return False
    if cls.cut and G.order % 2 == 1 and not pi <= ODD_CUT_PRIMES:
        return False
    if cls.rational and profile.is_solvable and not pi <= RATIONAL_SOLVABLE_PRIMES:
        return False
    return True


def _analyze_entry(
    entry: CorpusEntry, config: RunConfig
) -> tuple[EntryResult, FiniteGroup | None]:
    """The entry's result, and the group it built (None if the entry failed)."""
    result = EntryResult(
        entry_id=entry.id,
        descriptor=entry.spec.to_dict(),
        tags=tuple(sorted(entry.tags)),
    )
    started = time.perf_counter()
    try:
        G = construct(entry.spec, config.max_order)
        result.order = G.order
        verdict = decide_cut(G)
        cls = classify(G, verdict)
        result.classification = cls
        result.reports = verify_equivalences(G, config.max_order)
        oracle = decide_cut_bruteforce(G)
        result.oracle_agrees = oracle.has_cut == verdict.has_cut
        if G.is_abelian:
            exponent = G.profile.exponent
            expected = 4 % exponent == 0 or 6 % exponent == 0
            result.abelian_oracle_ok = oracle.has_cut == expected
        if "cut-expected" in entry.tags and not cls.cut:
            result.expectation_ok = False
        if "noncut-expected" in entry.tags and cls.cut:
            result.expectation_ok = False
        result.structural_tags_ok = _structural_tags_ok(entry, G, cls)
        result.pi_ok = _pi_ok(G, cls)
        result.closure_violations = _closure_violations(G, cls.cut)
    except Exception as exc:  # captured, never aborts the batch
        result.error = f"{type(exc).__name__}: {exc}"
        G = None
    result.seconds = time.perf_counter() - started
    return result, G


def _run_remark_pairs(
    eligible: list[tuple[str, FiniteGroup]], max_order: int | None = None
) -> list[RemarkPairResult]:
    """Check the direct-sum remark on every ordered pair of cut 2-groups within the order cap."""
    cap = max_order if max_order is not None else max_order_cap()
    limit = min(REMARK_PRODUCT_LIMIT, cap)
    out = []
    for left_id, H in eligible:
        for right_id, K in eligible:
            if H.order * K.order > limit:
                continue
            report = remark_two_group_sum(H, K, cap)
            out.append(
                RemarkPairResult(
                    left_id=left_id,
                    right_id=right_id,
                    product_order=H.order * K.order,
                    predicted_cut=bool(report.predicted),
                    agrees=bool(report.agrees_with_decider),
                )
            )
    out.sort(key=lambda r: (r.left_id, r.right_id))
    return out


def run_corpus(entries: list[CorpusEntry] | None = None, config: RunConfig | None = None) -> CorpusResult:
    """Analyze every entry and aggregate all cross-checks deterministically."""
    if entries is None:
        entries = builtin_corpus()
    if config is None:
        config = RunConfig()
    if config.max_order is None:
        config = replace(config, max_order=max_order_cap())
    started = time.perf_counter()
    analyzed = []
    cut_two_groups: list[tuple[str, FiniteGroup]] = []
    for entry in entries:
        result, G = _analyze_entry(entry, config)
        analyzed.append(result)
        # the remark pairs reuse the cut 2-groups built here
        if G is not None and result.classification.cut and G.profile.p == 2:
            cut_two_groups.append((entry.id, G))
    analyzed.sort(key=lambda r: r.entry_id)
    remark = _run_remark_pairs(cut_two_groups, config.max_order)

    aggregate = {
        "groups_analyzed": len(analyzed),
        "errors": sum(1 for r in analyzed if r.error),
        "applicable_reports": sum(
            sum(1 for rep in r.reports if rep.applicable) for r in analyzed
        ),
        "agreements": sum(
            sum(1 for rep in r.reports if rep.applicable and rep.agrees_with_decider)
            for r in analyzed
        ),
        "disagreements": sum(r.disagreements for r in analyzed),
        "expectation_mismatches": sum(1 for r in analyzed if not r.expectation_ok),
        "structural_tag_mismatches": sum(
            1 for r in analyzed if not r.structural_tags_ok
        ),
        "oracle_mismatches": sum(1 for r in analyzed if r.oracle_agrees is False),
        "pi_violations": sum(1 for r in analyzed if not r.pi_ok),
        "abelian_oracle_mismatches": sum(
            1 for r in analyzed if r.abelian_oracle_ok is False
        ),
        "closure_violations": sum(len(r.closure_violations) for r in analyzed),
        "remark_pairs_checked": len(remark),
        "remark_mismatches": sum(1 for r in remark if not r.agrees),
    }
    return CorpusResult(
        entries=analyzed,
        remark_pairs=remark,
        aggregate=aggregate,
        total_seconds=time.perf_counter() - started,
    )

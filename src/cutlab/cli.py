"""Command-line surface: spec parsing, report rendering, and the verbs.

Group-spec files are JSON documents with a ``kind`` field::

    {"kind": "cyclic",      "n": 12}
    {"kind": "abelian",     "factors": [4, 2]}
    {"kind": "metacyclic",  "m": 12, "n": 2, "r": 5}
    {"kind": "dicyclic",    "n": 2}
    {"kind": "heisenberg",  "p": 3}
    {"kind": "symmetric",   "degree": 4}
    {"kind": "permutation", "degree": 3, "generators": [[1,0,2],[1,2,0]]}
    {"kind": "table",       "order": 2, "table": [[0,1],[1,0]]}
    {"kind": "product",     "parts": [ ... specs ... ]}
    {"kind": "quotient",    "group": { ... }, "normal_generators": [1]}

Reports are canonical JSON (fixed key order; timing is the only
run-dependent field) or a human-readable text table.  Exit codes:
0 analysis completed, 2 expectation mismatch, 64 parse error, 65 order
cap exceeded, 70 internal theorem disagreement.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

from . import __version__
from .characterizations import TheoremReport, verify_equivalences
from .constructors import (
    GroupSpecDescriptor,
    construct,
)
from .corpus import CorpusResult, RunConfig, builtin_corpus, run_corpus
from .cut_engine import Classification, CutVerdict, classify, decide_cut
from .errors import (
    CutlabError,
    InvalidMetacyclicParameters,
    InvalidParameters,
    NotAPrime,
    OrderCapExceeded,
    ParseError,
)
from .group_core import FiniteGroup, max_order_cap, prime_factors

EXIT_OK = 0
EXIT_EXPECTATION = 2
EXIT_PARSE = 64
EXIT_ORDER_CAP = 65
EXIT_DISAGREEMENT = 70


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def _require(payload: dict, key: str, types, kind: str):
    if key not in payload:
        raise InvalidParameters(f"{kind} spec is missing the {key!r} field")
    value = payload[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise InvalidParameters(
            f"{kind} spec field {key!r} has the wrong type ({type(value).__name__})"
        )
    return value


def _int_list(values, what: str) -> tuple[int, ...]:
    if not isinstance(values, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        raise InvalidParameters(f"{what} must be a list of integers")
    return tuple(values)


def _descriptor_from_dict(payload) -> GroupSpecDescriptor:
    if not isinstance(payload, dict):
        raise InvalidParameters("group spec must be a JSON object")
    kind = payload.get("kind")
    if kind == "cyclic":
        return GroupSpecDescriptor("cyclic", n=_require(payload, "n", int, kind))
    if kind == "abelian":
        factors = _int_list(_require(payload, "factors", list, kind), "factors")
        return GroupSpecDescriptor("abelian", factors=factors)
    if kind == "metacyclic":
        return GroupSpecDescriptor(
            "metacyclic",
            m=_require(payload, "m", int, kind),
            n=_require(payload, "n", int, kind),
            r=_require(payload, "r", int, kind),
        )
    if kind == "dicyclic":
        return GroupSpecDescriptor("dicyclic", n=_require(payload, "n", int, kind))
    if kind == "heisenberg":
        return GroupSpecDescriptor("heisenberg", p=_require(payload, "p", int, kind))
    if kind == "symmetric":
        return GroupSpecDescriptor("symmetric", degree=_require(payload, "degree", int, kind))
    if kind == "permutation":
        gens = _require(payload, "generators", list, kind)
        return GroupSpecDescriptor(
            "permutation",
            degree=_require(payload, "degree", int, kind),
            generators=tuple(_int_list(g, "each generator") for g in gens),
        )
    if kind == "table":
        rows = _require(payload, "table", list, kind)
        return GroupSpecDescriptor(
            "table",
            order=_require(payload, "order", int, kind),
            table=tuple(_int_list(row, "each table row") for row in rows),
        )
    if kind == "product":
        parts = _require(payload, "parts", list, kind)
        if not parts:
            raise InvalidParameters("product spec needs at least one part")
        return GroupSpecDescriptor(
            "product", parts=tuple(_descriptor_from_dict(p) for p in parts)
        )
    if kind == "quotient":
        return GroupSpecDescriptor(
            "quotient",
            group=_descriptor_from_dict(_require(payload, "group", dict, kind)),
            normal_generators=_int_list(
                _require(payload, "normal_generators", list, kind), "normal_generators"
            ),
        )
    raise InvalidParameters(f"unknown group kind {kind!r}")


def _validate_descriptor(spec: GroupSpecDescriptor, cap: int) -> None:
    """Check constructor invariants eagerly, with informative diagnostics.

    The order cap is checked before primality, so a huge prime parameter
    is rejected at once instead of being factored.
    """
    kind = spec.kind
    if kind in ("cyclic", "dicyclic") and spec.n < 1:
        raise InvalidParameters(f"{kind} parameter n must be positive, got {spec.n}")
    if kind == "abelian" and (not spec.factors or any(f < 1 for f in spec.factors)):
        raise InvalidParameters(f"invariant factors must be positive, got {spec.factors}")
    if kind == "metacyclic":
        m, n, r = spec.m, spec.n, spec.r
        if m < 1 or n < 1:
            raise InvalidParameters(f"metacyclic orders must be positive, got m={m}, n={n}")
        if math.gcd(r, m) != 1:
            raise InvalidParameters(
                f"gcd(r, m) = gcd({r}, {m}) = {math.gcd(r, m)}, expected 1"
            )
        residue = pow(r, n, m)
        if residue != 1 % m:
            raise InvalidParameters(
                f"r^n = {r}^{n} ≡ {residue} ≢ 1 (mod {m})"
            )
    if kind == "heisenberg":
        p = spec.p
        if p ** 3 > cap:
            raise OrderCapExceeded(f"order {p}^3 exceeds the cap {cap}")
        pf = prime_factors(p) if p > 1 else {}
        if p < 3 or list(pf.items()) != [(p, 1)]:
            raise InvalidParameters(f"heisenberg parameter must be an odd prime, got {p}")
    if kind in ("symmetric", "permutation") and spec.degree < 1:
        raise InvalidParameters(f"degree must be positive, got {spec.degree}")
    if kind == "permutation":
        for g in spec.generators:
            if sorted(g) != list(range(spec.degree)):
                raise InvalidParameters(
                    f"generator {list(g)} is not a permutation of 0..{spec.degree - 1}"
                )
    if kind == "table":
        if spec.order < 1:
            raise InvalidParameters(f"table order must be positive, got {spec.order}")
        if len(spec.table) != spec.order or any(
            len(row) != spec.order for row in spec.table
        ):
            raise InvalidParameters(
                f"table must be {spec.order}x{spec.order}, got "
                f"{len(spec.table)} rows"
            )
    if kind == "product":
        for part in spec.parts:
            _validate_descriptor(part, cap)
    if kind == "quotient":
        _validate_descriptor(spec.group, cap)


def parse_group_spec(text: str, max_order: int | None = None) -> GroupSpecDescriptor:
    """Parse and validate a group-spec JSON document.

    ``max_order`` is the order cap the spec will be built under (default:
    the configured cap).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", position=exc.pos) from exc
    spec = _descriptor_from_dict(payload)
    _validate_descriptor(spec, max_order if max_order is not None else max_order_cap())
    return spec


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------

@dataclass
class ReportDocument:
    """Everything one analysis run reports about one group."""

    tool_version: str
    descriptor: dict
    group: str
    order: int
    pi: list[int]
    solvable: bool
    nilpotent: bool
    nilpotency_class: int | None
    eppo: bool
    real_group: bool
    exponent: int
    cut: bool
    inverse_semi_rational: bool
    rational: bool
    central_height_label: int | None
    witnesses: list[dict]
    theorem_reports: list[dict]
    seconds: float


def build_report_document(
    spec: GroupSpecDescriptor,
    G: FiniteGroup,
    verdict: CutVerdict,
    cls: Classification,
    reports: list[TheoremReport],
    seconds: float,
) -> ReportDocument:
    profile = G.profile
    return ReportDocument(
        tool_version=__version__,
        descriptor=spec.to_dict(),
        group=spec.describe(),
        order=G.order,
        pi=list(profile.pi),
        solvable=profile.is_solvable,
        nilpotent=profile.is_nilpotent,
        nilpotency_class=profile.nilpotency_class,
        eppo=profile.is_eppo,
        real_group=cls.real_group,
        exponent=profile.exponent,
        cut=cls.cut,
        inverse_semi_rational=cls.inverse_semi_rational,
        rational=cls.rational,
        central_height_label=cls.central_height_label,
        witnesses=[
            {"element": G.label(x), "exponent": j} for x, j in verdict.witnesses
        ],
        theorem_reports=[
            {
                "name": r.name,
                "applicable": r.applicable,
                "predicted": r.predicted,
                "agrees_with_decider": r.agrees_with_decider,
            }
            for r in reports
        ],
        seconds=seconds,
    )


def render_report(doc: ReportDocument, format: str = "text") -> str:
    """Serialize a report document canonically (json) or as a text table."""
    if format == "json":
        payload = {
            "tool_version": doc.tool_version,
            "descriptor": doc.descriptor,
            "group": doc.group,
            "order": doc.order,
            "pi": doc.pi,
            "solvable": doc.solvable,
            "nilpotent": doc.nilpotent,
            "nilpotency_class": doc.nilpotency_class,
            "eppo": doc.eppo,
            "real_group": doc.real_group,
            "exponent": doc.exponent,
            "cut": doc.cut,
            "inverse_semi_rational": doc.inverse_semi_rational,
            "rational": doc.rational,
            "central_height": doc.central_height_label,
            "witnesses": doc.witnesses,
            "theorem_reports": doc.theorem_reports,
            "seconds": doc.seconds,
        }
        return json.dumps(payload, indent=2)
    lines = [
        f"group: {doc.group}",
        f"order: {doc.order}",
        "pi: {" + ",".join(map(str, doc.pi)) + "}",
        f"exponent: {doc.exponent}",
        f"solvable: {_yn(doc.solvable)}",
        f"nilpotent: {_yn(doc.nilpotent)}"
        + (f" (class {doc.nilpotency_class})" if doc.nilpotent else ""),
        f"eppo: {_yn(doc.eppo)}",
        f"real_group: {_yn(doc.real_group)}",
    ]
    cut_line = f"cut: {_yn(doc.cut)}"
    if doc.witnesses:
        w = doc.witnesses[0]
        cut_line += f"  witness: ({w['element']}, j={w['exponent']})"
    lines.append(cut_line)
    lines.append(f"inverse_semi_rational: {_yn(doc.inverse_semi_rational)}")
    lines.append(f"rational: {_yn(doc.rational)}")
    if doc.central_height_label is not None:
        lines.append(f"central_height: {doc.central_height_label}")
    if doc.theorem_reports:
        lines.append("theorems:")
        for r in doc.theorem_reports:
            if r["applicable"]:
                lines.append(
                    f"  {r['name']}: predicted={_yn(r['predicted'])} "
                    f"agrees={_yn(r['agrees_with_decider'])}"
                )
            else:
                lines.append(f"  {r['name']}: not applicable")
    lines.append(f"seconds: {doc.seconds:.3f}")
    return "\n".join(lines)


def _yn(flag) -> str:
    return "true" if flag else "false"


def render_corpus_result(result: CorpusResult, format: str = "text") -> str:
    if format == "json":
        payload = {
            "tool_version": __version__,
            "aggregate": result.aggregate,
            "entries": [
                {
                    "id": r.entry_id,
                    "descriptor": r.descriptor,
                    "tags": list(r.tags),
                    "order": r.order,
                    "classification": _classification_dict(r.classification),
                    "theorem_reports": [
                        {
                            "name": rep.name,
                            "applicable": rep.applicable,
                            "predicted": rep.predicted,
                            "agrees_with_decider": rep.agrees_with_decider,
                        }
                        for rep in r.reports
                    ],
                    "oracle_agrees": r.oracle_agrees,
                    "expectation_ok": r.expectation_ok,
                    "structural_tags_ok": r.structural_tags_ok,
                    "pi_ok": r.pi_ok,
                    "abelian_oracle_ok": r.abelian_oracle_ok,
                    "closure_violations": r.closure_violations,
                    "error": r.error,
                    "seconds": r.seconds,
                }
                for r in result.entries
            ],
            "remark_pairs": [
                {
                    "left": p.left_id,
                    "right": p.right_id,
                    "product_order": p.product_order,
                    "predicted_cut": p.predicted_cut,
                    "agrees": p.agrees,
                }
                for p in result.remark_pairs
            ],
            "total_seconds": result.total_seconds,
        }
        return json.dumps(payload, indent=2)
    agg = result.aggregate
    lines = [
        f"corpus: {agg['groups_analyzed']} groups analyzed in {result.total_seconds:.1f}s",
        f"errors: {agg['errors']}",
        f"theorem reports applicable: {agg['applicable_reports']}  "
        f"disagreements: {agg['disagreements']}",
        f"oracle mismatches: {agg['oracle_mismatches']}",
        f"expectation mismatches: {agg['expectation_mismatches']}",
        f"pi violations: {agg['pi_violations']}",
        f"abelian oracle mismatches: {agg['abelian_oracle_mismatches']}",
        f"closure violations: {agg['closure_violations']}",
        f"remark pairs checked: {agg['remark_pairs_checked']}  "
        f"mismatches: {agg['remark_mismatches']}",
    ]
    failing = [
        r.entry_id
        for r in result.entries
        if r.error
        or r.disagreements
        or not r.expectation_ok
        or r.oracle_agrees is False
    ]
    if failing:
        lines.append("failing entries: " + ", ".join(failing))
    return "\n".join(lines)


def _classification_dict(cls: Classification | None):
    if cls is None:
        return None
    return {
        "cut": cls.cut,
        "inverse_semi_rational": cls.inverse_semi_rational,
        "real_group": cls.real_group,
        "rational": cls.rational,
        "central_height": cls.central_height_label,
    }


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _load_spec(path: str, max_order: int | None) -> GroupSpecDescriptor:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_spec(fh.read(), max_order)


def _cmd_analyze(args) -> int:
    spec = _load_spec(args.specfile, args.max_order)
    started = time.perf_counter()
    G = construct(spec, args.max_order)
    verdict = decide_cut(G)
    cls = classify(G, verdict)
    reports = verify_equivalences(G)
    doc = build_report_document(
        spec, G, verdict, cls, reports, time.perf_counter() - started
    )
    print(render_report(doc, args.format))
    if any(r.applicable and r.agrees_with_decider is False for r in reports):
        return EXIT_DISAGREEMENT
    if args.expect == "cut" and not cls.cut:
        return EXIT_EXPECTATION
    if args.expect == "not-cut" and cls.cut:
        return EXIT_EXPECTATION
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load_spec(args.specfile, args.max_order)
    G = construct(spec, args.max_order)
    reports = verify_equivalences(G)
    disagreement = False
    if args.format == "json":
        payload = []
        for r in reports:
            payload.append(
                {
                    "name": r.name,
                    "applicable": r.applicable,
                    "predicted": r.predicted,
                    "agrees_with_decider": r.agrees_with_decider,
                    "trace": [
                        {"subject": t.subject, "clause": t.clause, "ok": t.ok}
                        for t in r.trace
                    ],
                }
            )
        print(json.dumps(payload, indent=2))
    else:
        print(f"group: {spec.describe()}  order: {G.order}")
        for r in reports:
            if not r.applicable:
                print(f"  {r.name}: not applicable")
                continue
            print(
                f"  {r.name}: predicted={_yn(r.predicted)} "
                f"agrees={_yn(r.agrees_with_decider)}"
            )
            for t in r.trace:
                if not t.ok:
                    print(f"    fail: {t.subject}: {t.clause}")
    disagreement = any(
        r.applicable and r.agrees_with_decider is False for r in reports
    )
    return EXIT_DISAGREEMENT if disagreement else EXIT_OK


def _cmd_construct(args) -> int:
    spec = _load_spec(args.specfile, args.max_order)
    G = construct(spec, args.max_order)
    if args.emit_table:
        payload = {
            "group": spec.describe(),
            "order": G.order,
            "table": G.dense_table().tolist(),
            "labels": [G.label(x) for x in range(G.order)],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{spec.describe()}: order {G.order}, "
            f"{G.conjugacy.num_classes} conjugacy classes"
        )
    return EXIT_OK


def _cmd_corpus_run(args) -> int:
    entries = builtin_corpus()
    if args.filter:
        entries = [e for e in entries if args.filter in e.tags]
    config = RunConfig(
        max_order=args.max_order,
        parallelism=args.parallel,
    )
    result = run_corpus(entries, config)
    rendered = render_corpus_result(result, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"report written to {args.output}")
    else:
        print(rendered)
    agg = result.aggregate
    errors = [r.error for r in result.entries if r.error]
    internal_bad = (
        agg["disagreements"]
        or agg["oracle_mismatches"]
        or agg["remark_mismatches"]
        or agg["pi_violations"]
        or agg["abelian_oracle_mismatches"]
        or agg["closure_violations"]
        or any(not e.startswith("OrderCapExceeded") for e in errors)
    )
    if internal_bad:
        return EXIT_DISAGREEMENT
    if errors:
        # every captured error was an order-cap rejection under --max-order
        return EXIT_ORDER_CAP
    if agg["expectation_mismatches"] or agg["structural_tag_mismatches"]:
        return EXIT_EXPECTATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutlab",
        description="Decide the cut-property of finite groups and "
        "cross-validate the published characterizations.",
    )
    parser.add_argument("--version", action="version", version=f"cutlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze one group spec file")
    analyze.add_argument("specfile")
    analyze.add_argument("--expect", choices=["cut", "not-cut"])
    analyze.add_argument("--format", choices=["json", "text"], default="text")
    analyze.add_argument("--max-order", type=int, default=None)
    analyze.set_defaults(func=_cmd_analyze)

    verify = sub.add_parser("verify", help="run every characterization on one group")
    verify.add_argument("specfile")
    verify.add_argument("--format", choices=["json", "text"], default="text")
    verify.add_argument("--max-order", type=int, default=None)
    verify.set_defaults(func=_cmd_verify)

    construct_p = sub.add_parser("construct", help="build a group, optionally dump its table")
    construct_p.add_argument("specfile")
    construct_p.add_argument("--emit-table", action="store_true")
    construct_p.add_argument("--max-order", type=int, default=None)
    construct_p.set_defaults(func=_cmd_construct)

    corpus_p = sub.add_parser("corpus", help="batch operations on the built-in corpus")
    corpus_sub = corpus_p.add_subparsers(dest="corpus_command", required=True)
    crun = corpus_sub.add_parser("run", help="analyze the corpus and check all invariants")
    crun.add_argument("--filter", help="keep only entries carrying this tag")
    crun.add_argument("--max-order", type=int, default=None)
    crun.add_argument("--parallel", type=int, default=1)
    crun.add_argument("--format", choices=["json", "text"], default="text")
    crun.add_argument("--output", help="write the report to this file")
    crun.set_defaults(func=_cmd_corpus_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        pos = f" (at offset {exc.position})" if exc.position is not None else ""
        print(f"parse error{pos}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidParameters, InvalidMetacyclicParameters, NotAPrime) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OrderCapExceeded as exc:
        print(f"order cap exceeded: {exc}", file=sys.stderr)
        return EXIT_ORDER_CAP
    except CutlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

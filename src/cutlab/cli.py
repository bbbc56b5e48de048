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
run-dependent field) or a human-readable text table.  Each report shape
(the analyze document, the verify list, the corpus document and the
emitted table) has one writer that forms the bytes of
``json.dumps(..., indent=2)``: strings through json's own C escaper, and
each uniform list of records one column at a time.  Exit codes:
0 analysis completed; 1 the spec names no group (``NotAGroup``: a table
breaks a group axiom; ``NotNormal``: a quotient by a non-normal
subgroup); 2 expectation mismatch; 64 unreadable spec file, unwritable
report file (a closed output pipe too), malformed JSON or invalid
parameters; 65 order cap exceeded; 70 internal theorem disagreement.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import operator
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .characterizations import TheoremReport, verify_equivalences
from .constructors import (
    GroupSpecDescriptor,
    construct,
    descriptor_from_dict,
    validate_spec,
)
from .corpus import CorpusResult, RunConfig, builtin_corpus, run_corpus
from .cut_engine import Classification, CutVerdict, classify, decide_cut
from .errors import CutlabError, InvalidParameters, OrderCapExceeded, ParseError
from .group_core import FiniteGroup

EXIT_OK = 0
EXIT_EXPECTATION = 2
EXIT_PARSE = 64
EXIT_ORDER_CAP = 65
EXIT_DISAGREEMENT = 70


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def parse_group_spec(text: str, max_order: int | None = None) -> GroupSpecDescriptor:
    """Parse and validate a group-spec JSON document.

    ``max_order`` is the order cap the spec will be built under (default:
    the configured cap).  The checks are the ones ``construct`` runs.
    """
    try:
        spec = descriptor_from_dict(json.loads(text))
        validate_spec(spec, max_order)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", position=exc.pos) from exc
    except RecursionError:
        raise ParseError("group spec is nested too deeply") from None
    return spec


# ---------------------------------------------------------------------------
# JSON writers: the bytes of json.dumps(..., indent=2), formed without its
# pure-Python encoder (json uses its C encoder only when indent is None)
# ---------------------------------------------------------------------------

_literal = {True: "true", False: "false", None: "null"}.__getitem__

# by exact type: a bool is an int and np.float64 a float, and neither may pass as the other
_WRITERS = {
    str: encode_basestring_ascii,
    bool: _literal,
    type(None): _literal,
    int: int.__repr__,
    float: json.dumps,  # rare here; NaN and Infinity as json writes them
}


def _column(values) -> list[str]:
    """Each value as json writes it: one map of one writer when it serves every type there.

    Only a str, bool, None, int or float of exactly that type is written;
    any other value raises TypeError, as ``json.dumps`` does.
    """
    try:
        writers = {_WRITERS[t] for t in set(map(type, values))}
    except KeyError as exc:
        raise TypeError(f"Object of type {exc.args[0].__name__} is not JSON serializable") from None
    return list(map(writers.pop(), values) if len(writers) == 1 else map(_scalar, values))


def _scalar(v) -> str:
    return _column((v,))[0]


def _array(items: list[str], level: int) -> str:
    """A JSON list at nesting ``level`` of items already written one level deeper."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return f"[{pad}{(',' + pad).join(items)}\n{'  ' * level}]"


def _objects(keys: tuple[str, ...], columns, level: int) -> str:
    """Objects with ``keys`` at nesting ``level``, separated as the items of a list.

    The i-th object holds the i-th written value of each column.  The
    fixed pieces between the values are laid out by slice assignment and
    everything is joined once, with no formatting per object.
    """
    pad, close = "\n" + "  " * (level + 1), "\n" + "  " * level + "}"
    seps = [f",{pad}{encode_basestring_ascii(k)}: " for k in keys]
    opening = "{" + seps[0][1:]
    seps = seps[1:] + [f"{close},\n{'  ' * level}{opening}"]
    n, k = len(columns[0]), len(keys)
    pieces = [None] * (2 * k * n)
    for i, (column, sep) in enumerate(zip(columns, seps)):
        pieces[2 * i :: 2 * k] = column
        pieces[2 * i + 1 :: 2 * k] = [sep] * n
    pieces[-1] = close
    return opening + "".join(pieces)


def _object(keys: tuple[str, ...], values, level: int) -> str:
    """One JSON object at nesting ``level`` of values already written one level deeper."""
    return _objects(keys, [[v] for v in values], level) if keys else "{}"


def _list(keys: tuple[str, ...], columns, level: int) -> str:
    """A JSON list at nesting ``level`` of objects with ``keys``, from written columns."""
    return _array([_objects(keys, columns, level + 1)] if columns and columns[0] else [], level)


def _rows(keys: tuple[str, ...], columns, level: int) -> str:
    """``_list`` of columns of plain values (str, bool, None, int, float)."""
    return _list(keys, [_column(c) for c in columns], level)


def _fields(objects, names: tuple[str, ...]) -> list[list]:
    """One column per attribute name: its value on each of ``objects``."""
    return [list(map(operator.attrgetter(name), objects)) for name in names]


def _value(v, level: int) -> str:
    """Any JSON value at nesting ``level``, its dicts and lists written recursively."""
    if type(v) is dict:
        return _object(tuple(v), [_value(x, level + 1) for x in v.values()], level)
    if type(v) in (list, tuple):
        if {dict, list, tuple}.isdisjoint(map(type, v)):
            return _array(_column(v), level)  # a table row, say: one map
        return _array([_value(x, level + 1) for x in v], level)
    return _scalar(v)


_REPORT_KEYS = ("name", "applicable", "predicted", "agrees_with_decider")
_TRACE_KEYS = ("subject", "clause", "ok")


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------

def build_report_document(
    spec: GroupSpecDescriptor,
    G: FiniteGroup,
    verdict: CutVerdict,
    cls: Classification,
    reports: list[TheoremReport],
    seconds: float,
) -> dict:
    """Everything one analysis run reports about one group.

    The key order is the key order of the canonical JSON report.  The
    witnesses are (element name, exponent) pairs and the theorem reports
    the reports themselves; the JSON writer forms one object per row.
    """
    profile = G.profile
    return {
        "tool_version": __version__,
        "descriptor": spec.to_dict(),
        "group": spec.describe(),
        "order": G.order,
        "pi": list(profile.pi),
        "solvable": profile.is_solvable,
        "nilpotent": profile.is_nilpotent,
        "nilpotency_class": profile.nilpotency_class,
        "eppo": profile.is_eppo,
        "real_group": cls.real_group,
        "exponent": profile.exponent,
        "cut": cls.cut,
        "inverse_semi_rational": cls.inverse_semi_rational,
        "rational": cls.rational,
        "central_height": cls.central_height_label,
        "witnesses": [(G.label(x), j) for x, j in verdict.witnesses],
        "theorem_reports": reports,
        "seconds": seconds,
    }


def render_report(doc: dict, format: str = "text") -> str:
    """Serialize a report document canonically (json) or as a text table."""
    if format == "json":
        reports = _fields(doc["theorem_reports"], _REPORT_KEYS)
        rows = {
            "witnesses": _rows(("element", "exponent"), list(zip(*doc["witnesses"])), 1),
            "theorem_reports": _rows(_REPORT_KEYS, reports, 1),
        }
        values = [rows[k] if k in rows else _value(v, 1) for k, v in doc.items()]
        return _object(tuple(doc), values, 0)
    lines = [
        f"group: {doc['group']}",
        f"order: {doc['order']}",
        "pi: {" + ",".join(map(str, doc["pi"])) + "}",
        f"exponent: {doc['exponent']}",
        f"solvable: {_yn(doc['solvable'])}",
        f"nilpotent: {_yn(doc['nilpotent'])}"
        + (f" (class {doc['nilpotency_class']})" if doc["nilpotent"] else ""),
        f"eppo: {_yn(doc['eppo'])}",
        f"real_group: {_yn(doc['real_group'])}",
    ]
    cut_line = f"cut: {_yn(doc['cut'])}"
    if doc["witnesses"]:
        element, j = doc["witnesses"][0]
        cut_line += f"  witness: ({element}, j={j})"
    lines.append(cut_line)
    lines.append(f"inverse_semi_rational: {_yn(doc['inverse_semi_rational'])}")
    lines.append(f"rational: {_yn(doc['rational'])}")
    if doc["central_height"] is not None:
        lines.append(f"central_height: {doc['central_height']}")
    if doc["theorem_reports"]:
        lines.append("theorems:")
        lines += [_theorem_line(r) for r in doc["theorem_reports"]]
    lines.append(f"seconds: {doc['seconds']:.3f}")
    return "\n".join(lines)


def _theorem_line(r: TheoremReport) -> str:
    if not r.applicable:
        return f"  {r.name}: not applicable"
    return f"  {r.name}: predicted={_yn(r.predicted)} agrees={_yn(r.agrees_with_decider)}"


def _yn(flag) -> str:
    return "true" if flag else "false"


def render_verify(reports: list[TheoremReport]) -> str:
    """``verify --format json``: each report's summary fields and its full trace."""
    columns = [_column(c) for c in _fields(reports, _REPORT_KEYS)]
    traces = [_rows(_TRACE_KEYS, _fields(r.trace, _TRACE_KEYS), 2) for r in reports]
    return _list(_REPORT_KEYS + ("trace",), [*columns, traces], 0)


_ENTRY_KEYS = (
    "id", "descriptor", "tags", "order", "classification", "theorem_reports",
    "oracle_agrees", "expectation_ok", "structural_tags_ok", "pi_ok", "abelian_oracle_ok",
    "closure_violations", "error", "seconds",
)
_PAIR_KEYS = ("left", "right", "product_order", "predicted_cut", "agrees")
_PAIR_FIELDS = ("left_id", "right_id", "product_order", "predicted_cut", "agrees")
_CORPUS_KEYS = ("tool_version", "aggregate", "entries", "remark_pairs", "total_seconds")


def render_corpus_result(result: CorpusResult, format: str = "text") -> str:
    if format == "json":
        entries = [
            (
                _scalar(r.entry_id),
                _value(r.descriptor, 3),
                _value(r.tags, 3),
                _scalar(r.order),
                _value(_classification_dict(r.classification), 3),
                _rows(_REPORT_KEYS, _fields(r.reports, _REPORT_KEYS), 3),
                _scalar(r.oracle_agrees),
                _scalar(r.expectation_ok),
                _scalar(r.structural_tags_ok),
                _scalar(r.pi_ok),
                _scalar(r.abelian_oracle_ok),
                _value(r.closure_violations, 3),
                _scalar(r.error),
                _scalar(r.seconds),
            )
            for r in result.entries
        ]
        pairs = _fields(result.remark_pairs, _PAIR_FIELDS)
        values = (
            _scalar(__version__),
            _value(result.aggregate, 1),
            _list(_ENTRY_KEYS, list(zip(*entries)), 1),
            _rows(_PAIR_KEYS, pairs, 1),
            _scalar(result.total_seconds),
        )
        return _object(_CORPUS_KEYS, values, 0)
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_group_spec(text, max_order)


def _cmd_analyze(args) -> int:
    spec = _load_spec(args.specfile, args.max_order)
    started = time.perf_counter()
    G = construct(spec, args.max_order)
    verdict = decide_cut(G)
    cls = classify(G, verdict)
    reports = verify_equivalences(G, args.max_order)
    doc = build_report_document(
        spec, G, verdict, cls, reports, time.perf_counter() - started
    )
    print(render_report(doc, args.format))
    if any(r.disagrees for r in reports):
        return EXIT_DISAGREEMENT
    if args.expect == "cut" and not cls.cut:
        return EXIT_EXPECTATION
    if args.expect == "not-cut" and cls.cut:
        return EXIT_EXPECTATION
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load_spec(args.specfile, args.max_order)
    G = construct(spec, args.max_order)
    reports = verify_equivalences(G, args.max_order)
    if args.format == "json":
        print(render_verify(reports))
    else:
        print(f"group: {spec.describe()}  order: {G.order}")
        for r in reports:
            print(_theorem_line(r))
            for t in r.trace if r.applicable else ():
                if not t.ok:
                    print(f"    fail: {t.subject}: {t.clause}")
    return EXIT_DISAGREEMENT if any(r.disagrees for r in reports) else EXIT_OK


def _cmd_construct(args) -> int:
    spec = _load_spec(args.specfile, args.max_order)
    G = construct(spec, args.max_order)
    if args.emit_table:
        # the bytes of json.dumps(payload, indent=2), one table row at a time
        table, out = G.dense_table(), sys.stdout
        out.write(f'{{\n  "group": {_scalar(spec.describe())},\n  "order": {G.order},\n')
        out.write('  "table": [\n')
        for x, row in enumerate(table):
            out.write((",\n    " if x else "    ") + _array(list(map(str, row.tolist())), 2))
        labels = _array([_scalar(G.label(x)) for x in range(G.order)], 1)
        out.write(f'\n  ],\n  "labels": {labels}\n}}\n')
    else:
        print(
            f"{spec.describe()}: order {G.order}, "
            f"{G.conjugacy.num_classes} conjugacy classes"
        )
    return EXIT_OK


def _cmd_corpus_run(args) -> int:
    # open the report file first, so a bad path fails before the corpus runs
    try:
        out = open(args.output, "w", encoding="utf-8") if args.output else None
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    with out or contextlib.nullcontext():
        entries = builtin_corpus()
        if args.filter:
            entries = [e for e in entries if args.filter in e.tags]
        result = run_corpus(entries, RunConfig(max_order=args.max_order))
        rendered = render_corpus_result(result, args.format)
        if out is None:
            print(rendered)
        else:
            out.write(rendered + "\n")
            print(f"report written to {args.output}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
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
    crun.add_argument("--format", choices=["json", "text"], default="text")
    crun.add_argument("--output", help="write the report to this file")
    crun.set_defaults(func=_cmd_corpus_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the final
        # flush at exit writes nowhere instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE
    except ParseError as exc:
        pos = f" (at offset {exc.position})" if exc.position is not None else ""
        print(f"parse error{pos}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidParameters as exc:
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

"""The JSON report writers: the bytes of json.dumps(indent=2), and what they refuse.

Each reference document is built here from the analysis objects, one dict
per witness, report and trace entry, and serialized with ``json.dumps``.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import types
from contextlib import redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from conftest import ANALYZE_SPECS

import cutlab
from cutlab import __version__, cli
from cutlab.characterizations import (
    TheoremReport,
    TraceEntry,
    thm_odd,
    verify_equivalences,
)
from cutlab.cli import (
    EXIT_OK,
    EXIT_PARSE,
    build_report_document,
    main,
    render_corpus_result,
    render_report,
    render_verify,
)
from cutlab.constructors import construct, cyclic, product, quotient_spec, symmetric, table_spec
from cutlab.corpus import (
    CorpusEntry,
    CorpusResult,
    EntryResult,
    RemarkPairResult,
    RunConfig,
    builtin_corpus,
    run_corpus,
)
from cutlab.cut_engine import classify, decide_cut

SECONDS = 0.1 + 0.2  # a float whose repr needs all 17 digits


def reference_report(r):
    return {
        "name": r.name,
        "applicable": r.applicable,
        "predicted": r.predicted,
        "agrees_with_decider": r.agrees_with_decider,
    }


def reference_analyze_document(spec, G, verdict, cls, reports):
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
        "witnesses": [{"element": G.label(x), "exponent": j} for x, j in verdict.witnesses],
        "theorem_reports": [reference_report(r) for r in reports],
        "seconds": SECONDS,
    }


def reference_verify_list(reports):
    return [
        {
            **reference_report(r),
            "trace": [{"subject": t.subject, "clause": t.clause, "ok": t.ok} for t in r.trace],
        }
        for r in reports
    ]


def reference_classification(c):
    if c is None:
        return None
    return {
        "cut": c.cut,
        "inverse_semi_rational": c.inverse_semi_rational,
        "real_group": c.real_group,
        "rational": c.rational,
        "central_height": c.central_height_label,
    }


def reference_corpus_document(result):
    return {
        "tool_version": __version__,
        "aggregate": result.aggregate,
        "entries": [
            {
                "id": r.entry_id,
                "descriptor": r.descriptor,
                "tags": list(r.tags),
                "order": r.order,
                "classification": reference_classification(r.classification),
                "theorem_reports": [reference_report(rep) for rep in r.reports],
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


def check_writers(spec, G, verdict, cls, reports):
    """The analyze and verify writers on one group, against json.dumps of the references."""
    doc = build_report_document(spec, G, verdict, cls, reports, SECONDS)
    reference = reference_analyze_document(spec, G, verdict, cls, reports)
    assert render_report(doc, "json") == json.dumps(reference, indent=2), spec
    assert render_verify(reports) == json.dumps(reference_verify_list(reports), indent=2), spec


# sha256 of every `cutlab analyze` output below, `seconds` fixed, recorded before the JSON writers
ANALYZE_DIGEST = "1b85e953ff87ca8293d1bed71d7ec57a62b0a93e916ed925073a93302b489361"


def test_analyze_bytes_match_json_dumps_and_the_recorded_digest(tmp_path, monkeypatch):
    """Every corpus spec and analyze spec: the writers on each analysis, then the bytes printed.

    One ``analyze --format json`` per spec; its text report is rendered from
    the same document, as ``--format text`` prints it.
    """
    docs = []

    def checking(spec, G, verdict, cls, reports, seconds):
        check_writers(spec, G, verdict, cls, reports)
        docs.append(build_report_document(spec, G, verdict, cls, reports, seconds))
        return docs[-1]

    monkeypatch.setattr(cli, "build_report_document", checking)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 1.0))
    specs = [e.spec.to_dict() for e in builtin_corpus()] + [s.to_dict() for s in ANALYZE_SPECS]
    path = tmp_path / "spec.json"
    digest = hashlib.sha256()
    for spec in specs:
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = StringIO()
        with redirect_stdout(out):
            rc = main(["analyze", str(path), "--format", "json"])
        text = render_report(docs[-1], "text")
        digest.update(f"{rc}\n{out.getvalue()}{text}\n".encode())
    assert len(specs) == len(docs) == 142
    assert 20 < sum(doc["cut"] for doc in docs) < 142  # with and without witnesses
    reports = [r for doc in docs for r in doc["theorem_reports"]]
    assert any(not r.applicable and r.trace == () for r in reports)
    assert digest.hexdigest() == ANALYZE_DIGEST


# nested product and quotient descriptors, a table spec and the trivial group
EDGE_SPECS = [
    product(quotient_spec(product(cyclic(4), cyclic(2)), [2]), product(cyclic(3), symmetric(3))),
    table_spec(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    cyclic(1),
]


def test_writers_match_json_dumps_on_sweep_and_edge_specs(sweep_groups):
    """Sweep seeds 1 and 7 with one characterization, whose trace names every class of an odd G."""
    kinds = set()
    for spec, G in sweep_groups[1] + sweep_groups[7] + [(s, construct(s)) for s in EDGE_SPECS]:
        verdict = decide_cut(G)
        check_writers(spec, G, verdict, classify(G, verdict), [thm_odd(G)])
        kinds.add(spec.kind)
    assert {"product", "quotient", "table", "permutation"} <= kinds


def test_corpus_writer_matches_json_dumps(corpus_result):
    errors = run_corpus(
        [CorpusEntry("small", cyclic(3), frozenset()), CorpusEntry("big", cyclic(30), frozenset())],
        RunConfig(max_order=10),
    )
    assert errors.entries[0].classification is None  # an entry that failed
    # json writes the floats that are not finite as NaN and Infinity
    odd_floats = [replace(run_corpus([]), total_seconds=v) for v in (math.nan, -math.inf)]
    for result in (corpus_result, errors, *odd_floats):
        expected = json.dumps(reference_corpus_document(result), indent=2)
        assert render_corpus_result(result, "json") == expected


# -- values the writers refuse ------------------------------------------------

NUMPY_SCALARS = [np.bool_(True), np.int64(3), np.float64(0.5)]


def _poisoned_analyze_documents(value):
    spec = ANALYZE_SPECS[1]  # not cut: witnesses and reports to poison
    G = construct(spec)
    verdict = decide_cut(G)
    doc = build_report_document(spec, G, verdict, classify(G, verdict), verify_equivalences(G), 0.5)
    report = doc["theorem_reports"][0]
    yield {**doc, "order": value}
    yield {**doc, "descriptor": {**doc["descriptor"], "m": value}}
    yield {**doc, "witnesses": [("b", 2), ("b^2", value)]}  # after a plain value
    yield {**doc, "theorem_reports": [TheoremReport(report.name, True, value, ())]}


def _poisoned_verify_lists(value):
    yield [TheoremReport("thm_odd", True, True, (), value)]
    trace = (TraceEntry("g", "x^2 ~ x^-1", True), TraceEntry("g^2", "x^2 ~ x^-1", value))
    yield [TheoremReport("thm_odd", True, True, trace, True)]


def _poisoned_corpus_results(value):
    entry = EntryResult("c3", cyclic(3).to_dict(), ("cut-expected",), order=3)
    pair = RemarkPairResult("a", "b", 4, True, True)
    yield CorpusResult([EntryResult("c3", {}, (), order=value)], [], {}, 0.0)
    yield CorpusResult([entry], [RemarkPairResult("a", "b", 4, True, value)], {}, 0.0)
    yield CorpusResult([entry], [pair], {"errors": value}, 0.0)
    yield CorpusResult([entry], [pair], {}, value)
    reports = [TheoremReport("thm_odd", True, value, (), True)]
    yield CorpusResult([EntryResult("c3", {}, (), reports=reports)], [], {}, 0.0)


@pytest.mark.parametrize("value", NUMPY_SCALARS, ids=lambda v: type(v).__name__)
def test_writers_refuse_numpy_scalars(value):
    # json.dumps refuses np.bool_ and np.int64; it writes np.float64, a float subclass,
    # but the writers take exact types only, so no numpy value reaches a report
    cases = [(lambda doc: render_report(doc, "json"), _poisoned_analyze_documents(value))]
    cases.append((render_verify, _poisoned_verify_lists(value)))
    cases.append((lambda r: render_corpus_result(r, "json"), _poisoned_corpus_results(value)))
    checked = 0
    for write, inputs in cases:
        for poisoned in inputs:
            with pytest.raises(TypeError, match="not JSON serializable"):
                write(poisoned)
            checked += 1
    assert checked == 11


# -- the parser and a closed pipe ---------------------------------------------

def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(cyclic(6).to_dict()), encoding="utf-8")
    progs = []
    init = cli.argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    try:
        assert main(["construct", str(path)]) == EXIT_OK
        assert main(["construct", str(path)]) == EXIT_OK
    finally:
        cli.build_parser.cache_clear()
    assert progs.count("cutlab") == 1
    capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cutlab analyze")
        assert "the following arguments are required: specfile" in err
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"cutlab {__version__}\n"


@pytest.mark.parametrize("emit_table", [True, False], ids=["emit-table", "summary"])
def test_closed_output_pipe_exits_64_without_a_traceback(tmp_path, emit_table):
    # about 2 MB of table, of which the reader takes a few bytes; or one line, which
    # would otherwise be written in the flush at exit, after the reader has gone
    path = tmp_path / "c512.json"
    path.write_text(json.dumps(cyclic(512).to_dict()), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(cutlab.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as a pipe's usually is
    env.pop("CUTLAB_MAX_ORDER", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "cutlab.cli", "construct", str(path)] + ["--emit-table"] * emit_table,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if emit_table:
        assert proc.stdout.read(8) == b'{\n  "gro'
    proc.stdout.close()
    stderr = proc.communicate(timeout=30)[1].decode()
    assert proc.returncode == EXIT_PARSE, stderr
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr

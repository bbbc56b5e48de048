"""Corpus contents and the batch runner."""

import hashlib
import json
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
from conftest import ANALYZE_SPECS, quotient_has_cut

from cutlab import characterizations, cut_engine
from cutlab.cli import main, render_corpus_result
from cutlab.corpus import (
    CorpusEntry,
    RunConfig,
    _closure_violations,
    _run_remark_pairs,
    builtin_corpus,
    run_corpus,
)
from cutlab.constructors import construct, cyclic, metacyclic
from cutlab.cut_engine import central_subgroup_has_cut
from cutlab.group_core import FiniteGroup, center


def test_corpus_ids_unique_and_tags_valid():
    entries = builtin_corpus()
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))
    assert len(entries) >= 120


def test_corpus_contains_paper_examples():
    by_id = {e.id: e for e in entries_by_id()}
    cut24 = by_id["paper-cut-24"]
    assert cut24.spec == metacyclic(12, 2, 5)
    assert {"paper-example", "cut-expected"} <= cut24.tags

    noncut81 = by_id["paper-noncut-81"]
    assert noncut81.spec == metacyclic(9, 9, 4)
    assert "noncut-expected" in noncut81.tags

    assert "cut-expected" in by_id["cyclic-01"].tags
    assert by_id["cyclic-01"].spec == cyclic(1)


def entries_by_id():
    return builtin_corpus()


def test_corpus_covers_required_families():
    ids = {e.id for e in builtin_corpus()}
    for n in range(1, 37):
        assert f"cyclic-{n:02d}" in ids
    for required in (
        "metacyclic-3-2-2",
        "metacyclic-4-2-3",
        "metacyclic-8-2-3",
        "metacyclic-8-2-5",
        "metacyclic-5-4-2",
        "metacyclic-7-3-2",
        "dicyclic-2",
        "dicyclic-4",
        "heisenberg-3",
        "heisenberg-5",
        "heisenberg-7",
        "symmetric-3",
        "symmetric-4",
        "product-q8xc3",
        "product-d8xc3",
        "product-c4xc4",
        "product-sd16xm16",
        "product-heis3xheis3",
    ):
        assert required in ids


def test_corpus_covers_all_abelian_up_to_64():
    """Every isomorphism type of abelian group of order <= 64 appears once."""
    seen = set()
    for e in builtin_corpus():
        if e.spec.kind == "cyclic":
            seen.add((e.spec.n,))
        elif e.spec.kind == "abelian":
            seen.add(tuple(e.spec.factors))

    def chains(n, min_factor=1):
        # invariant factor chains d1 | d2 | ... with product n
        if n == 1:
            yield ()
            return
        for d in range(2, n + 1):
            if n % d == 0 and d % min_factor == 0:
                for rest in chains(n // d, d):
                    yield (d,) + rest

    expected = {(1,)}
    for order in range(2, 65):
        expected.update(chains(order))
    assert expected <= seen


def test_run_corpus_empty():
    result = run_corpus([], RunConfig())
    assert result.entries == []
    assert result.aggregate["groups_analyzed"] == 0
    assert result.aggregate["disagreements"] == 0


def test_run_corpus_captures_entry_errors():
    entries = [CorpusEntry("too-big", cyclic(4096), frozenset())]
    result = run_corpus(entries, RunConfig(max_order=100))
    assert result.aggregate["errors"] == 1
    assert "OrderCapExceeded" in result.entries[0].error


def test_run_corpus_flags_wrong_expectation():
    entries = [CorpusEntry("mislabeled", cyclic(5), frozenset({"cut-expected"}))]
    result = run_corpus(entries, RunConfig())
    assert result.aggregate["expectation_mismatches"] == 1
    assert result.aggregate["disagreements"] == 0


def test_run_corpus_odd_order_subset(corpus_result):
    """Every odd-order corpus group with the property has pi within {3, 7}."""
    for r in corpus_result.entries:
        if "odd-order" not in r.tags or r.classification is None:
            continue
        if r.classification.cut:
            G = construct_entry(r.entry_id)
            assert set(G.profile.pi) <= {3, 7}, r.entry_id


def construct_entry(entry_id):
    entry = next(e for e in builtin_corpus() if e.id == entry_id)
    return construct(entry.spec)


def test_run_corpus_agreement_counters(corpus_result):
    agg = corpus_result.aggregate
    assert agg["agreements"] + agg["disagreements"] == agg["applicable_reports"]
    assert agg["disagreements"] == 0


# copied from perfbench/workloads.py:CORPUS_DIGEST, the benchmark's check of the corpus report
CORPUS_DIGEST = "699a9fe3c34f9421d646c93b15aaf0704b22634a76d3434ef1ee75bb368cd186"


def test_corpus_report_bytes_match_the_benchmark_digest(corpus_result):
    # hashed as perfbench/workloads.py:corpus_digest does: the timings popped, indent=2
    payload = json.loads(render_corpus_result(corpus_result, "json"))
    payload.pop("total_seconds")
    for entry in payload["entries"]:
        entry.pop("seconds")
    digest = hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()
    assert digest == CORPUS_DIGEST


# sha256 of every `cutlab verify` output below, recorded before the traces were formed on demand
VERIFY_DIGEST = "77f39c7b74a7f79d7165e7dd898f78ef5da3fc1642fa7775231bcaf02ac6cab0"


def test_verify_trace_bytes_match_the_recorded_digest(tmp_path):
    """`verify` is the one output that prints traces: their subjects, clauses, flags and order."""
    specs = [e.spec.to_dict() for e in builtin_corpus()] + [s.to_dict() for s in ANALYZE_SPECS]
    path = tmp_path / "spec.json"
    digest = hashlib.sha256()
    for spec in specs:
        path.write_text(json.dumps(spec), encoding="utf-8")
        for fmt in ("json", "text"):
            out = StringIO()
            with redirect_stdout(out):
                rc = main(["verify", str(path), "--format", fmt])
            digest.update(f"{rc}\n{out.getvalue()}".encode())
    assert len(specs) == 142
    assert digest.hexdigest() == VERIFY_DIGEST


def test_remark_pairs_cube_each_factor_once(corpus_result, monkeypatch):
    by_id = {e.id: e for e in builtin_corpus()}
    ids = sorted({r.left_id for r in corpus_result.remark_pairs})
    eligible = [(i, construct(by_id[i].spec)) for i in ids]
    cubes = []
    power_vec = FiniteGroup.power_vec

    def counting(G, xs, k):
        if np.ndim(k) == 0 and k == 3:
            cubes.append(G.name)
        return power_vec(G, xs, k)

    monkeypatch.setattr(FiniteGroup, "power_vec", counting)
    pairs = _run_remark_pairs(eligible)
    assert (len(eligible), len(pairs)) == (20, 360)
    assert len(cubes) == 20  # one cube map per group, not two per pair


def test_remark_pairs_check_each_factor_once(corpus_result, monkeypatch):
    """Each factor is scanned and split once, however many pairs it is in; each product once."""
    by_id = {e.id: e for e in builtin_corpus()}
    ids = sorted({r.left_id for r in corpus_result.remark_pairs})
    eligible = [(i, construct(by_id[i].spec)) for i in ids]
    scanned, split = [], []
    scan, split_nonreal = cut_engine._scan_classes, characterizations._split_nonreal
    monkeypatch.setattr(cut_engine, "_scan_classes", lambda G: scanned.append(G) or scan(G))
    monkeypatch.setattr(characterizations, "_split_nonreal", lambda G: split.append(G) or split_nonreal(G))
    pairs = _run_remark_pairs(eligible)
    factors = [G for _, G in eligible]
    assert len(pairs) == 360
    assert sorted(map(id, split)) == sorted(map(id, factors))
    assert sorted(map(id, (G for G in scanned if G in factors))) == sorted(map(id, factors))
    assert len(scanned) == len(factors) + len(pairs)


def test_closure_violations_decide_every_quotient_in_one_walk(monkeypatch):
    """The same violations, in the same order, as one quotient_has_cut call per N; one stacked walk."""
    walks = []
    stacked = cut_engine._quotient_cuts

    def counting(G, minima):
        walks.append(len(minima))
        return stacked(G, minima)

    monkeypatch.setattr(cut_engine, "_quotient_cuts", counting)
    seen = 0
    for entry in builtin_corpus():
        G = construct(entry.spec)
        normals = {"center": center(G), "derived": G.derived_subgroup}
        normals.update((f"sylow-{p}", S) for p, S in sorted(G.profile.sylow_subgroups.items()))
        want = [] if central_subgroup_has_cut(G, normals["center"]) else ["center-as-group"]
        want += [f"quotient-by-{label}" for label, N in normals.items() if not quotient_has_cut(G, N)]
        walks.clear()
        assert _closure_violations(G, True) == want, entry.id
        assert walks == [len(normals)], entry.id
        seen += len(want) > 0
    assert seen > 10

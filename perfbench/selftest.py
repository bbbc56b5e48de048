"""Self-test of the benchmark harness on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Checks, for a tiny version of every workload, traced and untraced, that the
result has exactly the metrics BENCHMARK.json names, each with its unit and
a finite value, and that every output passes its gate.  Then it tampers with
one expected value per workload (the corpus digest, an analyze verdict, a
sweep item's order) and checks that failed_frac rises above 0.  Exits 1 on
any problem.
"""

import dataclasses
import json
import math
import sys

import run
import sweepgen
import workloads

TINY_CORPUS = ("paper-cut-24", "dicyclic-2", "metacyclic-4-2-3", "cyclic-03", "abelian-2x2")
TINY_SWEEP_ITEMS = 16
TINY_SWEEP_MAX_ORDER = 64


def tiny_workloads(cutlab, tamper: bool):
    out_dir = run.OUT_DIR / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = [e for e in cutlab.corpus.builtin_corpus() if e.id in TINY_CORPUS]
    reference = cutlab.corpus.run_corpus(entries)
    digest = "0" * 64 if tamper else workloads.corpus_digest(cutlab, reference)
    corpus = workloads.CorpusWorkload(
        cutlab, 1, out_dir, expected=reference.aggregate, digest=digest, entry_ids=TINY_CORPUS
    )

    requests = list(workloads.ANALYZE_REQUESTS[:2])
    if tamper:
        requests[0] = dataclasses.replace(requests[0], cut=not requests[0].cut)
    analyze = workloads.AnalyzeWorkload(cutlab, 1, out_dir, requests=requests)

    def generate(seed):
        items = [i for i in sweepgen.generate(seed) if i.order <= TINY_SWEEP_MAX_ORDER][:TINY_SWEEP_ITEMS]
        if tamper:
            items[0] = dataclasses.replace(items[0], order=items[0].order + 1)
        return items

    sweep = workloads.SweepWorkload(cutlab, 1, out_dir, generate=generate)
    return corpus, analyze, sweep


def expected_metrics(bench: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(label: str, result: dict, expected: dict[str, str]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    got = result["metrics"]
    for name in sorted(set(expected) ^ set(got)):
        problems.append(f"{label}: metric {name} is {'missing' if name in expected else 'not in BENCHMARK.json'}")
    for name in sorted(set(expected) & set(got)):
        value, unit = got[name]["value"], got[name]["unit"]
        if unit != expected[name]:
            problems.append(f"{label}: {name} has unit {unit}, expected {expected[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
    return problems


def main() -> int:
    cutlab = run.import_cutlab()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in tiny_workloads(cutlab, tamper=False):
        for trace in (False, True):
            label = f"{workload.name} trace={int(trace)}"
            detail, result, _ = run.evaluate(workload, 0, trace)
            problems += check_result(label, result, expected_metrics(bench, trace))
            if detail["failures"]:
                problems.append(f"{label}: {detail['failures']}")
    for workload in tiny_workloads(cutlab, tamper=True):
        detail, result, _ = run.evaluate(workload, 0, False)
        if not detail["failed_frac"]["value"] > 0 or result["correct"]:
            problems.append(f"{workload.name}: a tampered expected value went unnoticed")
    for line in problems:
        print(line)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: what one pass runs and how its outputs are checked.

Each workload is prepared from a seed (``prepare``), warmed up (``warm``),
then run pass after pass.  ``run_pass`` returns the raw outputs with one
latency per item; ``check`` turns a pass's outputs into failures, outside
the timed region.  Every call into cutlab goes through a module attribute
looked up at call time, so the tracer's runtime patch sees it.

Expected values were recorded from the program at the commit that added
this benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import sweepgen

CORPUS_EXPECTED = {
    "groups_analyzed": 137,
    "errors": 0,
    "applicable_reports": 478,
    "agreements": 478,
    "disagreements": 0,
    "expectation_mismatches": 0,
    "structural_tag_mismatches": 0,
    "oracle_mismatches": 0,
    "pi_violations": 0,
    "abelian_oracle_mismatches": 0,
    "closure_violations": 0,
    "remark_pairs_checked": 360,
    "remark_mismatches": 0,
}
# sha256 of the canonical JSON corpus report without its timing fields
CORPUS_DIGEST = "699a9fe3c34f9421d646c93b15aaf0704b22634a76d3434ef1ee75bb368cd186"
CORPUS_WARM_IDS = ("paper-cut-24", "metacyclic-4-2-3", "dicyclic-2", "abelian-2x2", "heisenberg-3")


@dataclass(frozen=True)
class AnalyzeRequest:
    name: str
    spec: dict
    cut: bool
    first_witness: dict | None = None
    metric: str | None = None  # name of the latency metric this request reports


ANALYZE_REQUESTS = (
    AnalyzeRequest("paper-cut-24", {"kind": "metacyclic", "m": 12, "n": 2, "r": 5}, True),
    AnalyzeRequest(
        "paper-noncut-81",
        {"kind": "metacyclic", "m": 9, "n": 9, "r": 4},
        False,
        {"element": "b", "exponent": 2},
    ),
    AnalyzeRequest("cyclic512", {"kind": "cyclic", "n": 512}, False, metric="analyze_cyclic512_s"),
    AnalyzeRequest(
        "dihedral4096",
        {"kind": "metacyclic", "m": 2048, "n": 2, "r": 2047},
        False,
        metric="analyze_dihedral4096_s",
    ),
    AnalyzeRequest("s6", {"kind": "symmetric", "degree": 6}, True, metric="analyze_s6_s"),
)
ANALYZE_WARM = ("paper-cut-24", "paper-noncut-81")
WARM_MAX_ORDER = 256


@dataclass
class PassOutput:
    """Raw outputs of one pass: item id -> output, seconds, and start time.

    Starts are ``perf_counter`` readings, so that each item's time can be
    corrected by the machine's speed while it ran (speed.py).
    """

    outputs: dict = field(default_factory=dict)
    latencies: dict = field(default_factory=dict)
    starts: dict = field(default_factory=dict)


def _call(fn, *args):
    """Run fn, returning its result or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed item is counted, never fatal
        return exc


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class CorpusWorkload:
    """One ``run_corpus()`` over the built-in corpus, default config.

    The seed only shuffles the order the entries are handed over in; the
    report is sorted by entry id, so the digest must not change.
    """

    name = "corpus"

    def __init__(
        self, cutlab, seed: int, out_dir: Path, expected=CORPUS_EXPECTED, digest=CORPUS_DIGEST, entry_ids=None
    ):
        self.cutlab = cutlab
        self.seed = seed
        self.expected = expected
        self.digest = digest
        self.entry_ids = entry_ids  # None: the whole corpus

    def prepare(self) -> None:
        self.entries = [
            e for e in self.cutlab.corpus.builtin_corpus() if self.entry_ids is None or e.id in self.entry_ids
        ]
        random.Random(self.seed).shuffle(self.entries)

    def warm(self) -> None:
        self.cutlab.corpus.run_corpus([e for e in self.entries if e.id in CORPUS_WARM_IDS])

    def run_pass(self, tracer=None) -> PassOutput:
        if tracer is not None:
            tracer.item = "corpus"
        started = perf_counter()
        result = _call(self.cutlab.corpus.run_corpus, self.entries)
        out = PassOutput(outputs={"corpus": result})
        if not isinstance(result, Exception):
            out.latencies = {r.entry_id: r.seconds for r in result.entries}
            # run_corpus analyzes the entries one after another, in the order
            # given, before the remark pairs: each starts where the last ended
            for entry in self.entries:
                if entry.id in out.latencies:
                    out.starts[entry.id] = started
                    started += out.latencies[entry.id]
        return out

    def check(self, out: PassOutput) -> tuple[int, list[str]]:
        """One item per corpus entry, plus one for the aggregate and digest."""
        result = out.outputs["corpus"]
        attempted = len(self.entries) + 1
        if isinstance(result, Exception):
            return attempted, [f"run_corpus raised {_describe(result)}"] * attempted
        failures = []
        for r in result.entries:
            bad = [
                name
                for name, flag in (
                    ("error", r.error),
                    ("disagreement", r.disagreements),
                    ("oracle", r.oracle_agrees is False),
                    ("expectation", not r.expectation_ok),
                    ("structural-tags", not r.structural_tags_ok),
                    ("pi", not r.pi_ok),
                    ("abelian-oracle", r.abelian_oracle_ok is False),
                    ("closure", r.closure_violations),
                )
                if flag
            ]
            if bad:
                failures.append(f"{r.entry_id}: {', '.join(bad)}")
        missing = len(self.entries) - len(result.entries)
        failures += ["corpus entry missing from the report"] * max(0, missing)
        if result.aggregate != self.expected:
            failures.append(f"aggregate {result.aggregate} != expected")
        elif corpus_digest(self.cutlab, result) != self.digest:
            failures.append("corpus report digest mismatch")
        return attempted, failures


def corpus_digest(cutlab, result) -> str:
    payload = json.loads(cutlab.cli.render_corpus_result(result, "json"))
    payload.pop("total_seconds")
    for entry in payload["entries"]:
        entry.pop("seconds")
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


class AnalyzeWorkload:
    """``cutlab analyze <spec> --format json`` in process, one request per spec.

    The seed only shuffles the request order.
    """

    name = "analyze"

    def __init__(self, cutlab, seed: int, out_dir: Path, requests=ANALYZE_REQUESTS):
        self.cutlab = cutlab
        self.seed = seed
        self.requests = list(requests)
        self.spec_dir = out_dir / "specs"

    def prepare(self) -> None:
        self.spec_dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for req in self.requests:
            path = self.spec_dir / f"{req.name}.json"
            path.write_text(json.dumps(req.spec), encoding="utf-8")
            self.paths[req.name] = str(path)
        self.order = list(self.requests)
        random.Random(self.seed).shuffle(self.order)

    def warm(self) -> None:
        for req in self.requests:
            if req.name in ANALYZE_WARM:
                self._analyze(req.name)

    def _analyze(self, name: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cutlab.cli.main(["analyze", self.paths[name], "--format", "json"])
        return rc, buf.getvalue()

    def run_pass(self, tracer=None) -> PassOutput:
        out = PassOutput()
        for req in self.order:
            if tracer is not None:
                tracer.item = req.name
            started = perf_counter()
            out.outputs[req.name] = _call(self._analyze, req.name)
            out.latencies[req.name] = perf_counter() - started
            out.starts[req.name] = started
        return out

    def check(self, out: PassOutput) -> tuple[int, list[str]]:
        failures = []
        for req in self.requests:
            got = out.outputs[req.name]
            if isinstance(got, Exception):
                failures.append(f"{req.name}: raised {_describe(got)}")
                continue
            rc, text = got
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                failures.append(f"{req.name}: exit {rc}, output is not JSON")
                continue
            if rc != 0:
                failures.append(f"{req.name}: exit code {rc}")
            elif doc["cut"] is not req.cut:
                failures.append(f"{req.name}: cut={doc['cut']}, expected {req.cut}")
            elif req.first_witness is not None and doc["witnesses"][:1] != [req.first_witness]:
                failures.append(f"{req.name}: first witness {doc['witnesses'][:1]}")
        return len(self.requests), failures

    @property
    def named_items(self) -> dict[str, str]:
        """Latency metric name -> the request it reports."""
        return {req.metric: req.name for req in self.requests if req.metric}


class SweepWorkload:
    """A seeded stream of random specs, each decided and checked against the oracle.

    Per spec: ``parse_group_spec`` -> ``construct`` -> ``decide_cut`` ->
    ``classify`` -> ``decide_cut_bruteforce``.
    """

    name = "sweep"

    def __init__(self, cutlab, seed: int, out_dir: Path, generate=sweepgen.generate):
        self.cutlab = cutlab
        self.seed = seed
        self.generate = generate

    def prepare(self) -> None:
        self.items = self.generate(self.seed)
        # the smallest item of each kind touches every path once, cheaply
        smallest = {}
        for item in sorted(self.items, key=lambda i: i.order):
            smallest.setdefault(item.kind, item)
        self.warm_items = [i for i in smallest.values() if i.order <= WARM_MAX_ORDER]

    def warm(self) -> None:
        for item in self.warm_items:
            _call(self._decide, item.text)

    def _decide(self, text: str):
        c = self.cutlab
        spec = c.cli.parse_group_spec(text)
        G = c.constructors.construct(spec)
        verdict = c.cut_engine.decide_cut(G)
        cls = c.cut_engine.classify(G, verdict)
        oracle = c.cut_engine.decide_cut_bruteforce(G)
        return G.order, verdict.has_cut, cls.cut, oracle.has_cut

    def run_pass(self, tracer=None) -> PassOutput:
        out = PassOutput()
        for item in self.items:
            if tracer is not None:
                tracer.item = item.id
            started = perf_counter()
            out.outputs[item.id] = _call(self._decide, item.text)
            out.latencies[item.id] = perf_counter() - started
            out.starts[item.id] = started
        return out

    def check(self, out: PassOutput) -> tuple[int, list[str]]:
        failures = []
        for item in self.items:
            got = out.outputs[item.id]
            if isinstance(got, Exception):
                failures.append(f"item {item.id} ({item.kind}): raised {_describe(got)}")
                continue
            order, fast, classified, oracle = got
            if order != item.order:
                failures.append(f"item {item.id} ({item.kind}): order {order}, expected {item.order}")
            elif fast != oracle or classified != fast:
                failures.append(f"item {item.id} ({item.kind}): decider {fast}, oracle {oracle}")
            elif item.abelian_exponent is not None and oracle != (
                4 % item.abelian_exponent == 0 or 6 % item.abelian_exponent == 0
            ):
                failures.append(f"item {item.id} ({item.kind}): breaks the abelian exponent rule")
        return len(self.items), failures


WORKLOADS = {w.name: w for w in (CorpusWorkload, AnalyzeWorkload, SweepWorkload)}

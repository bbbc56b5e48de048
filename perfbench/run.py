"""cutlab benchmark: the corpus, analyze and sweep workloads.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in its own process

Run from the repository root.  The package is imported from ``src/`` next to
this directory, never from an installed copy.  One run sets up the workload
several times (input generation plus warm-up), then repeats passes over the
same inputs until ``--seconds`` have gone by, checking every output of every
pass.  Every time it reports is corrected to one reference speed by a speed
probe that runs alongside (speed.py).  With ``--trace 0`` the last line of
standard output is the result with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result carries
the per-layer metrics instead.  The line before it (``{"detail": ...}``)
holds the stamp and the workload-specific figures.  See NOTES.md for what
each metric means.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# one single-threaded process per workload
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import sweepgen  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("corpus", "analyze", "sweep")
SETUP_REPEATS = 3
MIN_TAIL_BEYOND = 10
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The benchmark cannot run here (no cutlab sources next to it)."""


def import_cutlab():
    """Import cutlab from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "cutlab" / "__init__.py").is_file():
        raise SetupError(f"no cutlab sources under {src}")
    sys.path.insert(0, str(src))
    import cutlab
    import cutlab.cli
    import cutlab.constructors
    import cutlab.corpus
    import cutlab.cut_engine
    from cutlab import _kernels

    if Path(cutlab.__file__).resolve().parent != (src / "cutlab").resolve():
        raise SetupError(f"imported cutlab from {cutlab.__file__}, not from {src}")
    return types.SimpleNamespace(
        package=cutlab,
        cli=cutlab.cli,
        constructors=cutlab.constructors,
        corpus=cutlab.corpus,
        cut_engine=cutlab.cut_engine,
        kernels=_kernels,
    )


def stamp(cutlab) -> dict:
    """What a result must match before it is compared with another."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "use_numba": bool(cutlab.kernels.USE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "CUTLAB_NUMBA": os.environ.get("CUTLAB_NUMBA"),
        "CUTLAB_MAX_ORDER": os.environ.get("CUTLAB_MAX_ORDER"),
    }


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least MIN_TAIL_BEYOND values above it.

    Nearest-rank percentiles.  With too few values for any such percentile,
    the maximum (percentile 100) is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if rank >= 1 and n - rank >= MIN_TAIL_BEYOND:
            return ordered[rank - 1], q
    return ordered[-1], 100


def measure(workload, seconds: float, tracer=None) -> dict:
    """Repeat passes until ``seconds`` have gone by; check every pass.

    With a tracer, untraced and traced passes alternate, starting untraced,
    and at least one of each runs.  Returns raw readings: each pass's start
    and end, and its items' starts and latencies.
    """
    passes, attempted, failures = [], 0, []
    rss_mb = None
    started = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install()
            mark = tracer.mark()
        t0 = time.perf_counter()
        out = workload.run_pass(tracer if traced else None)
        t1 = time.perf_counter()
        record = {"traced": traced, "t0": t0, "t1": t1, "latencies": out.latencies, "starts": out.starts}
        if traced:
            tracer.remove()
            record["layers"] = tracer.summary(mark)
        elif rss_mb is None:  # after a fixed number of passes on every commit
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(record)
        n, failed = workload.check(out)
        attempted += n
        failures += failed
        if tracer is not None:
            traced = not traced
        if time.perf_counter() - started >= seconds and (tracer is None or passes[-1]["traced"]):
            break
    return {"passes": passes, "attempted": attempted, "failures": failures, "rss_mb": rss_mb}


def at_reference_speed(probe: speed.SpeedProbe, record: dict) -> tuple[float, float, dict]:
    """A pass's wall time, its corrected/raw ratio and its item latencies, at the reference speed."""
    raw = record["t1"] - record["t0"]
    wall = probe.adjust(record["t0"], record["t1"])
    ratio = wall / raw
    items = {
        item: probe.adjust(record["starts"][item], record["starts"][item] + latency)
        for item, latency in record["latencies"].items()
    }
    return wall, ratio, items


def evaluate(workload, seconds: float, trace: bool, import_window: tuple[float, float] | None = None):
    """Set the workload up, measure it, and build the detail and result objects.

    The speed probe runs from the first set-up to the end of the last pass;
    every time reported is corrected to one reference speed (speed.py).
    ``import_window`` is the (start, end) of the process's imports, which
    count toward set-up.  Returns (detail, result, tracer); the tracer is None
    without tracing.
    """
    probe = speed.SpeedProbe()
    tracer = spans.Tracer() if trace else None
    probe.start()
    try:
        setup_windows = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.prepare()
            workload.warm()
            setup_windows.append((t0, time.perf_counter()))
        m = measure(workload, seconds, tracer)
    finally:
        probe.stop()

    setups = [probe.adjust(t0, t1) for t0, t1 in setup_windows]
    import_s = probe.adjust(*import_window) if import_window else 0.0
    walls, traced_walls, ratios, per_item, layers = [], [], [], {}, []
    for record in m["passes"]:
        wall, ratio, items = at_reference_speed(probe, record)
        ratios.append(ratio)
        if record["traced"]:
            traced_walls.append(wall)
            layers.append({k: v * ratio if spans.unit(k) == "s" else v for k, v in record["layers"].items()})
        else:
            walls.append(wall)
            for item, latency in items.items():
                per_item.setdefault(item, []).append(latency)

    # a pass that failed outright reports no items; its wall time stands in
    item_latency = [statistics.median(v) for v in per_item.values()] or walls
    tail_value, tail_q = tail(item_latency)
    failed = len(m["failures"])
    detail = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "passes": len(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": [r["t1"] - r["t0"] for r in m["passes"] if not r["traced"]],
        "setup_repeats_s": setups,
        "raw_setup_repeats_s": [t1 - t0 for t0, t1 in setup_windows],
        "import_s": import_s,
        "raw_import_s": import_window[1] - import_window[0] if import_window else 0.0,
        "speed": {
            "probes": len(probe.durations),
            "fastest_probe_us": 1e6 * min(probe.durations, default=0.0),
            "pass_ratios": ratios,
        },
        "items": len(item_latency),
        "item_tail_percentile": tail_q,
        "failed_frac": {"value": failed / m["attempted"], "unit": "fraction"},
        "failures": m["failures"][:10],
    }
    for name, item in getattr(workload, "named_items", {}).items():
        if item in per_item:
            detail[name] = {"value": statistics.median(per_item[item]), "unit": "s"}
    if workload.name == "sweep":
        detail["histogram"] = sweepgen.histogram(workload.items)

    if tracer is None:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "item_p50_ms": 1e3 * statistics.median(item_latency),
            "item_tail_ms": 1e3 * tail_value,
            "peak_rss_mb": m["rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        detail["traced_passes"] = len(traced_walls)
        detail["spans"] = len(tracer.spans)
        metrics = {"trace.overhead": {"value": overhead, "unit": "ratio"}}
        for name in layers[0]:
            value = statistics.median(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": spans.unit(name)}
    result = {"correct": failed == 0, "attempted": m["attempted"], "failed": failed, "metrics": metrics}
    return detail, result, tracer


def run_workload(args) -> int:
    try:
        cutlab = import_cutlab()
    except (SetupError, ImportError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    import_window = (PROCESS_START, time.perf_counter())
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](cutlab, args.seed, OUT_DIR)
    detail, result, tracer = evaluate(workload, args.seconds, bool(args.trace), import_window)
    detail["stamp"] = stamp(cutlab)
    if tracer is not None:
        spans_path = OUT_DIR / f"spans-{args.workload}.json"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then one table of the metrics."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        extra = {k: v for k, v in detail.items() if isinstance(v, dict) and "unit" in v}
        for metric, v in {**result["metrics"], **extra}.items():
            rows.append((name, metric, v["value"], v["unit"]))
        if not result["correct"]:
            status = 1
    for name, metric, value, unit in rows:
        print(f"{name:<8} {metric:<60} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

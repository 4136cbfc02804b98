"""bintab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,enumerate,queries} --seed N --seconds S --trace {0,1}

Run from the repository root; bintab is imported from ``src/`` of the same
checkout.  The run pins its environment (one BLAS/OpenMP thread, a fixed
PYTHONHASHSEED) by re-executing itself, sets up its inputs three times
(``setup_s`` is the import time plus the median set-up), runs its ops in
a closed loop for S seconds, checks every answer, prints each metric with
its unit, writes ``perfbench/results/<workload>-seed<N>-trace<T>.json``
(with the spans of a traced run) and prints, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, then the layer sweep (see ``layers.py``),
and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer
from stats import Tally, at_reference_speed, speed, speed_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONPATH": str(SRC),
}

WORKLOADS = ("cli", "enumerate", "queries")
SETUP_REPEATS = 3

#: A run keeps going past its seconds until this many ops have answered
#: correctly, so that the tail percentile has ten samples beyond it; it gives
#: up after GIVE_UP_OPS attempts.
MIN_OPS = 21
GIVE_UP_OPS = 5 * MIN_OPS


def pin_environment() -> None:
    """Re-exec under the pinned environment unless already running in it."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})


def environment_record(seed: int) -> dict:
    import numpy
    import scipy

    record = {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "pinned_env": PINNED_ENV | {"PYTHONPATH": "src"},
    }
    try:
        with open("/proc/cpuinfo") as f:
            record["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        record["caches"][f"L{level} {kind}"] = size
    return record


def timed_loop(wl, seconds: float, tracer, tally) -> dict:
    """Run the workload's ops back to back for ``seconds``, the speed kernel after each.

    Returns the raw wall-clock metrics and ``speed`` (1 for a workload that
    is not speed-scaled); cli import probes and the kernel runs are left out
    of the time ``ops_per_s`` divides by.
    """
    from layers import run_op

    ops = wl.ops()
    scaled = getattr(wl, "speed_scaled", True)
    kernel = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (
        len(tally.latencies) < MIN_OPS and tally.attempted < GIVE_UP_OPS
    ):
        run_op(tracer, tally, *next(ops))
        if scaled:
            t0 = time.perf_counter()
            speed_kernel()
            kernel.append(time.perf_counter() - t0)
    if len(tally.latencies) < MIN_OPS:
        raise RuntimeError(
            f"only {len(tally.latencies)} of {tally.attempted} ops answered correctly: {tally.failures[:3]}"
        )
    elapsed = time.perf_counter() - start - sum(tally.probes) - sum(kernel)
    out = tally.latency_metrics(elapsed)
    out["speed"] = speed(kernel) if scaled else 1.0
    if tally.probes:
        out["import_ms"] = 1000.0 * statistics.median(tally.probes)
    out.update(getattr(wl, "sampler_metrics", dict)())
    return out


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def build(name: str, bt, seed: int, tracer, workdir: Path):
    import workloads

    if name == "cli":
        return workloads.Cli(bt, seed, tracer, workdir)
    return {"enumerate": workloads.Enumerate, "queries": workloads.Queries}[name](bt, seed, tracer)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bintab" / "__init__.py").is_file():
        print(f"error: no bintab sources under {SRC}; run from a bintab checkout", file=sys.stderr)
        return 2
    pin_environment()

    start = time.perf_counter()
    import bintab as bt

    import_s = time.perf_counter() - start
    if Path(bt.__file__).resolve().parent != (SRC / "bintab").resolve():
        print(f"error: imported bintab from {bt.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    tracer = Tracer(enabled=False)
    with tempfile.TemporaryDirectory(prefix="work-", dir=results_dir) as tmp:
        workdir = Path(tmp)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = build(args.workload, bt, args.seed, tracer, workdir)
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        tally = Tally()
        seconds = args.seconds / 2 if args.trace else args.seconds
        raw = timed_loop(wl, seconds, tracer, tally)
        raw["setup_s"] = setup_s
        e2e = at_reference_speed(raw)
        e2e["peak_rss_mb"] = peak_rss_mb(args.workload)
        report = {"workload": args.workload, "environment": environment_record(args.seed),
                  "setup_runs_s": setups, "import_s": import_s, "end_to_end": e2e, "raw": raw}

        if args.trace:
            import layers

            tracer.enabled = True
            traced_tally = Tally()
            with layers.ipf_nested_spans(tracer):
                traced = timed_loop(wl, seconds, tracer, traced_tally)
                traced["setup_s"] = setup_s
                report["traced_raw"] = traced
                report["tracing_overhead"] = {
                    k: v - e2e[k] for k, v in at_reference_speed(traced).items() if k != "setup_s"
                }
                instances = {args.workload: wl}
                for name in WORKLOADS:
                    if name not in instances:
                        instances[name] = build(name, bt, args.seed, tracer, workdir)
                        instances[name].setup()
                records = layers.sweep(instances, args.workload, tracer, traced_tally, workdir, args.seed)
            report.update(records)
            report["span_summary"] = tracer.summary()
            per_layer = layers.metrics(tracer, records)
            tally.attempted += traced_tally.attempted
            tally.failed += traced_tally.failed
            tally.failures += traced_tally.failures
            metrics = per_layer
        else:
            metrics = {
                "setup_s": (e2e["setup_s"], "s"),
                "ops_per_s": (e2e["ops_per_s"], "1/s"),
                "op_p50_ms": (e2e["op_p50_ms"], "ms"),
                "op_tail_ms": (e2e["op_tail_ms"], "ms"),
                "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
            }

    report["attempted"], report["failed"], report["failures"] = tally.attempted, tally.failed, tally.failures
    report["failed_ratio"] = tally.failed_ratio
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if args.trace:
        tracer.write(results_dir / f"{stem}-spans.json")

    print_report(args, report)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


def print_report(args, report: dict) -> None:
    e2e, raw = report["end_to_end"], report["raw"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"  failed_ratio = {report['failed_ratio']:.4f} ({report['failed']} of {report['attempted']})")
    for failure in report["failures"][:10]:
        print(f"  FAILED {failure}")
    print(f"  speed = {raw['speed']:.4f} x reference (timings below: at reference speed, then wall clock)")
    for key, unit in (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms")):
        print(f"  {key} = {e2e[key]:.4f} {unit} (wall clock {raw[key]:.4f} {unit})")
    print(f"  op_tail_ms is p{raw['op_tail_percentile']:.1f} of {raw['op_samples']} ops, 10 beyond it")
    print(f"  peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB")
    for key, unit in (("import_ms", "ms"), ("hitrun_draws_per_s", "1/s"), ("dirichlet_draws_per_s", "1/s")):
        if key in raw:
            print(f"  {key} = {raw[key]:.3f} {unit} (wall clock)")
    if args.trace:
        for key, delta in report["tracing_overhead"].items():
            print(f"  tracing overhead {key}: {delta:+.4f}")
        for name, m in report["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(f"  frontier: {report['frontier']['ended']} after {len(report['frontier']['rows'])} rows")


if __name__ == "__main__":
    sys.exit(main())

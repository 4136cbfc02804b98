"""The traced run's layer sweep and the per-layer metrics built from its spans.

Besides the workload's own traced phase, a traced run makes one traced
pass over every workload's op kinds, so that each traced run reports every
per-layer metric.  It adds what spans around the timed ops cannot show:

* an in-process replay of each cli subcommand's library calls;
* fresh-interpreter import probes;
* hit-and-run set-up cost (a ``count=1, burn_in=0`` call);
* the double-description trajectory of each enumerate system, computed
  from row prefixes in ``build_H`` row order (exact counts);
* the budgeted d=5 frontier record, in a child process.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

#: Wall-time budget and address-space cap of the d=5 frontier child.
FRONTIER_BUDGET_S = 30.0
FRONTIER_MEMORY_BYTES = 768 * 2**20

PROBE_REPEATS = 3
IMPORT_PROBES = {
    "numpy": "import numpy",
    "scipy_optimize": "import numpy\nt = time.perf_counter()\nimport scipy.optimize",
    "bintab": "import bintab.cli",
}


# ---------------------------------------------------------------------------
# cli: in-process replay of each subcommand's library calls
# ---------------------------------------------------------------------------


def analyze_stats(bt, pmf) -> None:
    """The statistics ``bintab analyze`` computes."""
    d = pmf.d
    for i in range(1, d + 1):
        bt.univariate_margin(pmf, i)
    for i, j in bt.all_pairs(d):
        bt.correlation(pmf, i, j)
        bt.marginal_odds_ratio(pmf, i, j)
        for offset in range(2 ** (d - 2)):
            rest = tuple((offset >> (d - 3 - b)) & 1 for b in range(d - 2))
            bt.conditional_odds_ratio(pmf, i, j, rest)
    bt.top_order_odds_ratio(pmf)


def replay(bt, sub: str, fields: dict, tracer) -> None:
    """The library calls of one cli subcommand, as the CLI makes them, without the CLI."""
    from fractions import Fraction

    from bintab import io

    span = tracer.span

    def load(source):
        with span("io.load_table"):
            return io.load_table(source).to_pmf()

    if sub == "analyze":
        pmf = load("builtin:example1")
        with span("table.analyze_stats"):
            analyze_stats(bt, pmf)
    elif sub in ("targets", "constraints", "vertices"):
        targets = bt.targets_from_pmf(load("builtin:raters" if sub == "constraints" else "builtin:water"),
                                      digits=bt.DEFAULT_DIGITS if sub == "constraints" else 3)
        if sub == "targets":
            json.dumps(io.targets_to_json_dict(targets, 3))
        elif sub == "constraints":
            json.dumps(io.constraints_to_json_dict(bt.build_H(targets)))
        else:
            H = bt.build_H(targets)
            V = bt.enumerate_vertices(H)
            bt.polytope_dimension(H)
            with span("io.vertexset_to_json"):
                json.dumps(io.vertexset_to_json_dict(V))
    elif sub in ("mixture", "decompose"):
        text = Path(fields["v_water"]).read_text()
        with span("io.vertexset_from_json"):
            V = io.vertexset_from_json(text)
        if sub == "mixture":
            theta = bt.MixtureWeights(tuple(io.parse_rational(w) for w in fields["weights"].split(",")))
            json.dumps(io.document_to_json_dict(io.pmf_to_document(bt.mixture(theta, V))))
        else:
            bt.decompose(load(fields["mid_water"]), V)
    elif sub == "loglinear":
        json.dumps(io.loglinear_to_json_dict(bt.corner_params(load("builtin:raters"))))
    elif sub == "sample":
        H = bt.build_H(bt.targets_from_pmf(load("builtin:water")))
        V = bt.enumerate_vertices(H)
        centroid = bt.mixture(bt.MixtureWeights(tuple(Fraction(1, len(V)) for _ in range(len(V)))), V)
        bt.sample_hit_and_run(H, centroid, bt.SamplerConfig(seed=int(fields["seed"]), count=20))
    elif sub == "ipf":
        report = bt.ipf_max_entropy(bt.targets_from_pmf(load("builtin:water")))
        bt.top_order_odds_ratio(report.table)
    elif sub == "reproduce":
        from bintab.reproduce import reproduce_report

        json.dumps(reproduce_report("raters"))
    else:
        raise ValueError(f"unknown subcommand {sub!r}")


def import_probes(workdir: Path) -> dict:
    """Median in-child seconds of each import, over fresh interpreters."""
    out = {}
    for name, body in IMPORT_PROBES.items():
        code = "import time\nt = time.perf_counter()\n" + body + "\nprint(time.perf_counter() - t)"
        times = []
        for _ in range(PROBE_REPEATS):
            proc = workloads.run_python(["-c", code], workdir)
            if proc.returncode != 0:
                raise RuntimeError(f"import probe {name} failed: {proc.stderr}")
            times.append(float(proc.stdout))
        out[name] = statistics.median(times)
    return out


# ---------------------------------------------------------------------------
# geometry: double-description trajectory from row prefixes, and the frontier
# ---------------------------------------------------------------------------


def trajectory(bt, H):
    """Per row k of H: rays in/out, sign split of the previous rays, pairs (a generator).

    Computed from prefixes, ``build_H`` row order: the rays before row k
    are the vertices of the first k-1 rows (the unit vectors for k=1).
    A split pair (one ray on each side of row k) is a candidate; the new
    rays on the hyperplane are the adjacent pairs.
    """
    n = H.n_cols
    prev = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for k in range(1, H.n_rows + 1):
        h = H.rows[k - 1]
        signs = [sum(hc * c for hc, c in zip(h, cells) if c) for cells in prev]
        pos = sum(1 for v in signs if v > 0)
        neg = sum(1 for v in signs if v < 0)
        zero = len(signs) - pos - neg
        prefix = bt.ConstraintMatrix(d=H.d, rows=H.rows[:k], labels=H.labels[:k], targets=H.targets)
        cur = [v.cells for v in bt.enumerate_vertices(prefix).vertices]
        yield {
            "row": k, "label": "".join(map(str, H.labels[k - 1])), "rays_in": len(prev),
            "pos": pos, "neg": neg, "zero": zero, "candidate_pairs": pos * neg,
            "adjacent_pairs": len(cur) - zero, "rays_out": len(cur),
        }
        prev = cur
        if not cur:
            return


def frontier(seed: int, workdir: Path) -> dict:
    """Run the budgeted frontier child and collect its record; never raises on its failure."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "frontier_child.py"), str(seed), str(FRONTIER_BUDGET_S),
         str(FRONTIER_MEMORY_BYTES)],
        cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=FRONTIER_BUDGET_S + 60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    lines = [json.loads(x) for x in out.splitlines() if x.startswith("{")]
    rows = [x for x in lines if "row" in x]
    end = next((x for x in lines if "ended" in x), None)
    return {
        "seed": seed, "budget_s": FRONTIER_BUDGET_S, "memory_cap_bytes": FRONTIER_MEMORY_BYTES,
        "counts": next((x["counts"] for x in lines if "counts" in x), None),
        "rows": rows,
        "ended": end["ended"] if end else f"killed (exit code {proc.returncode})",
        "elapsed_s": end["elapsed_s"] if end else None,
        "peak_rss_mb": end["rss_mb"] if end else max((x["rss_mb"] for x in rows), default=0.0),
        "stderr_tail": err[-2000:],
    }


# ---------------------------------------------------------------------------
# the sweep and the per-layer metrics
# ---------------------------------------------------------------------------


@contextmanager
def ipf_nested_spans(tracer):
    """Spans around the enumeration calls ``bintab.ipf`` makes, so ipf's self time is its fit.

    Wraps whichever public geometry entry points the ipf module holds a
    reference to, and restores them on exit.
    """
    import bintab.ipf as ipf_module

    originals = {n: getattr(ipf_module, n) for n in ("extreme_rays", "enumerate_vertices")
                 if hasattr(ipf_module, n)}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            with tracer.span(f"geometry.{name}", "ipf"):
                return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        setattr(ipf_module, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(ipf_module, name, fn)


def sweep(instances: dict, own: str, tracer, tally, workdir: Path, seed: int) -> dict:
    """One traced pass of every other workload plus the extras; returns the non-span records.

    The run's own workload needs no pass: its traced phase covered its op kinds.
    """
    clock = [("start", time.perf_counter())]
    for name, wl in instances.items():
        if name != own:
            for op in wl.one_pass():
                run_op(tracer, tally, *op)
            clock.append((f"pass_{name}", time.perf_counter()))
    bt, cli = instances["queries"].bt, instances["cli"]
    for sub, _ in workloads.CLI_MIX:
        with tracer.span("cli.replay", sub):
            replay(bt, sub, cli.fields, tracer)
    water = instances["queries"].systems[0]
    for _ in range(PROBE_REPEATS):
        with tracer.span("sampling.hitrun_setup"):
            bt.sample_hit_and_run(water["H"], water["centroid"], bt.SamplerConfig(seed=seed, count=1, burn_in=0))
        with tracer.span("ipf.ipf_max_entropy", "water") as rec:
            rec["sweeps"] = bt.ipf_max_entropy(water["targets"]).iterations
    imports = import_probes(workdir)
    clock.append(("replay_probes", time.perf_counter()))
    trajectories = {}
    for label, H, expected in instances["enumerate"].systems():
        trajectories[label] = list(trajectory(bt, H))
        last = trajectories[label][-1]["rays_out"]
        tally.record("trajectory", 0.0, None if last == expected else f"{label}: {last} rays, expected {expected}")
    clock.append(("trajectory", time.perf_counter()))
    front = frontier(seed, workdir)
    clock.append(("frontier", time.perf_counter()))
    return {
        "imports": imports,
        "trajectory_basis": "computed from prefixes, build_H row order",
        "trajectory": trajectories,
        "frontier": front,
        "sweep_parts_s": {name: t - clock[i][1] for i, (name, t) in enumerate(clock[1:])},
    }


def run_op(tracer, tally, kind, run, check) -> None:
    """Time one op, check its answer outside the timed region, and record it."""
    with tracer.span("op", kind) as rec:
        tracer.op_id = rec["op"] = rec.get("id")
        start = time.perf_counter()
        try:
            answer = run()
        except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
            tally.record(kind, time.perf_counter() - start, f"raised {exc!r}")
            return
        finally:
            elapsed = time.perf_counter() - start
            tracer.op_id = None
    try:
        problem = check(answer)
    except Exception as exc:  # a checker that cannot read the answer fails the op
        problem = f"check raised {exc!r}"
    tally.record(kind, elapsed, problem)


def fit_ms(tracer, tag: str = None) -> float:
    """Median self time of ipf_max_entropy: its span minus its nested enumeration spans."""
    return 1000.0 * statistics.median(tracer.self_times("ipf.ipf_max_entropy", tag))


def metrics(tracer, records: dict) -> dict:
    """Every per-layer metric: name -> (value, unit)."""
    m = {}
    wall = {}
    for sub, _ in workloads.CLI_MIX:
        wall[sub] = tracer.median_ms(f"cli.{sub}")
        m[f"cli.{sub}_ms"] = (wall[sub], "ms")
    for name, seconds in records["imports"].items():
        m[f"import.{name}_ms"] = (1000.0 * seconds, "ms")
    replayed = sum(tracer.median_ms("cli.replay", sub) for sub in wall)
    m["cli.replay_share"] = (replayed / sum(wall.values()), "ratio")
    m["io.load_table_ms"] = (tracer.median_ms("io.load_table"), "ms")
    m["io.vertexset_to_json_ms"] = (tracer.median_ms("io.vertexset_to_json"), "ms")
    m["io.vertexset_from_json_ms"] = (tracer.median_ms("io.vertexset_from_json"), "ms")
    m["table.analyze_stats_ms"] = (tracer.median_ms("table.analyze_stats"), "ms")
    m["constraints.targets_ms"] = (tracer.median_ms("constraints.targets_from_pmf"), "ms")
    m["constraints.build_H_ms"] = (tracer.median_ms("constraints.build_H"), "ms")
    for tag in ("uniform", "observed", "d5_margin", "water"):
        m[f"geometry.enumerate_{tag}_ms"] = (tracer.median_ms("geometry.enumerate_vertices", tag), "ms")

    rows = [r for traj in records["trajectory"].values() for r in traj]
    candidates = sum(r["candidate_pairs"] for r in rows)
    adjacent = sum(r["adjacent_pairs"] for r in rows)
    m["geometry.rays_out"] = (sum(traj[-1]["rays_out"] for traj in records["trajectory"].values()), "count")
    m["geometry.rays_peak"] = (max(r["rays_out"] for r in rows), "count")
    m["geometry.candidate_pairs"] = (candidates, "count")
    m["geometry.adjacent_pairs"] = (adjacent, "count")
    m["geometry.adjacent_ratio"] = (adjacent / candidates, "ratio")
    front = records["frontier"]
    m["geometry.frontier_rows"] = (len(front["rows"]), "count")
    m["geometry.frontier_rays_last"] = (front["rows"][-1]["rays_out"] if front["rows"] else 0, "count")
    m["geometry.frontier_rss_mb"] = (front["peak_rss_mb"], "MB")

    m["geometry.dimension_ms"] = (tracer.median_ms("geometry.polytope_dimension"), "ms")
    m["geometry.decompose_ms"] = (tracer.median_ms("geometry.decompose"), "ms")
    m["geometry.mixture_ms"] = (tracer.median_ms("geometry.mixture"), "ms")
    m["ipf.total_ms"] = (tracer.median_ms("ipf.ipf_max_entropy"), "ms")
    m["ipf.fit_ms"] = (fit_ms(tracer), "ms")
    sweeps = statistics.median(s["sweeps"] for s in tracer.finished("ipf.ipf_max_entropy"))
    m["ipf.sweeps"] = (sweeps, "count")
    m["ipf.sweep_us"] = (1000.0 * m["ipf.fit_ms"][0] / sweeps, "us")
    m["ipf.water_total_ms"] = (tracer.median_ms("ipf.ipf_max_entropy", "water"), "ms")
    m["ipf.water_fit_ms"] = (fit_ms(tracer, "water"), "ms")
    m["sampling.hitrun_step_us"] = (tracer.median_per("sampling.sample_hit_and_run", "steps"), "us")
    m["sampling.hitrun_setup_ms"] = (tracer.median_ms("sampling.hitrun_setup"), "ms")
    m["sampling.dirichlet_draw_us"] = (tracer.median_per("sampling.sample_dirichlet", "draws"), "us")
    m["loglinear.zero_mean_us"] = (tracer.median_per("loglinear.zero_mean_params", "calls"), "us")
    m["loglinear.corner_us"] = (tracer.median_per("loglinear.corner_params", "calls"), "us")
    return m


"""The three workloads: ``cli``, ``enumerate`` and ``queries``.

Each is a closed loop with one client and no threads: the next op starts
when the previous one has returned.  ``setup()`` builds the inputs from the
seed (and is timed as ``setup_s``); ``ops()`` yields the ops in a fixed,
seeded order, forever; ``one_pass()`` yields one op of every kind, for the
traced layer sweep.  An op is ``(kind, run, check)``: ``run()`` does the
timed work and returns its answer, ``check(answer)`` returns ``None`` or
a problem string and runs outside the timed region.

The d=4 tables come from the pool in ``golden.json``; the seed picks which
pool tables a run uses and in what order, and the answers for every pool
table were recorded once, at the commit that added the benchmark.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks

GOLDEN = Path(__file__).with_name("golden.json")

#: Target digits and margin mode of each enumerate category.
CATEGORIES = {"u2": (2, "uniform"), "u3": (3, "uniform"), "o2": (2, "observed"), "o3": (3, "observed")}

#: One enumerate cycle: U a uniform-margin pool system, W water, O an
#: observed-margin pool system.  Fast uniform systems are most ops, so the
#: median and the tail (the 11th-slowest op) fall inside that cluster rather
#: than on the edge between clusters; the d=5 margin polytope runs once per
#: loop, as its op number ``D5_AT``.
ENUMERATE_CYCLE = "UUUUUUUUUWUUUUUUUUUO"
D5_AT = 10

#: Queries systems: water plus the first pool tables (uniform margins, digits 3).
QUERY_TABLES = 5

#: Hit-and-run batch per queries op, at the default schedule (burn_in=500, thinning=10).
HITRUN_COUNT = 20
DIRICHLET_COUNT = 200

#: The cli mix: one invocation of each subcommand per cycle, in a seeded order.
CLI_MIX = (
    ("analyze", ["analyze", "builtin:example1", "--json"]),
    ("targets", ["targets", "builtin:water", "--digits", "3", "--json"]),
    ("constraints", ["constraints", "builtin:raters", "--json"]),
    ("vertices", ["vertices", "builtin:water", "--digits", "3", "--json"]),
    ("mixture", ["mixture", "{v_water}", "--weights", "{weights}", "--json"]),
    ("decompose", ["decompose", "{v_water}", "{mid_water}"]),
    ("loglinear", ["loglinear", "builtin:raters", "--parametrization", "corner", "--json"]),
    ("sample", ["sample", "builtin:water", "--method", "hitrun", "--count", "20", "--seed", "{seed}"]),
    ("ipf", ["ipf", "builtin:water", "--json"]),
    ("reproduce", ["reproduce", "raters", "--json"]),
)

#: Fresh-interpreter import probes run between cli cycles.
CLI_PROBES_PER_CYCLE = 2
IMPORT_PROBE = ["-c", "import bintab.cli"]


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def random_counts(rng: random.Random, d: int):
    """A strictly positive random table of counts."""
    return [rng.randint(5, 100) for _ in range(2**d)]


def sparse_weights(rng: random.Random, n: int):
    """Rational mixture weights 1/2, 1/3, 1/6 on three seeded vertices."""
    theta = [Fraction(0)] * n
    for idx, w in zip(rng.sample(range(n), 3), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))):
        theta[idx] = w
    return theta


def d5_margin_system(bt, counts):
    """The five margin rows of a uniform-margin d=5 system (2,712 vertices)."""
    targets = bt.targets_from_pmf(bt.Pmf.from_counts(counts), digits=3)
    H = bt.build_H(targets)
    return bt.ConstraintMatrix(d=5, rows=H.rows[:5], labels=H.labels[:5], targets=targets)


def water_pmf(bt):
    from bintab.datasets import WATER_COUNTS

    return bt.Pmf.from_counts(list(WATER_COUNTS))


class Enumerate:
    """targets_from_pmf -> build_H -> enumerate_vertices, checked against golden vertex sets."""

    name = "enumerate"

    def __init__(self, bt, seed: int, tracer):
        self.bt, self.seed, self.tracer = bt, seed, tracer

    def setup(self) -> None:
        golden = load_golden()
        self.pool = golden["pool"]
        self.expected = golden["enumerate"]
        rng = random.Random(self.seed)
        # Every run covers the same population of systems: the first half of
        # the pool at digits 2, the second half at digits 3, observed margins
        # alternating; the seed sets the order.
        half = len(self.pool) // 2
        uniform = [("u2", i) for i in range(half)] + [("u3", i) for i in range(half, len(self.pool))]
        observed = [("o2" if i % 2 else "o3", i) for i in range(len(self.pool))]
        self.order = {"U": rng.sample(uniform, len(uniform)), "O": rng.sample(observed, len(observed))}
        self.d5_counts = random_counts(rng, 5)
        self.water = water_pmf(self.bt)

    def _op(self, cat: str, index: int = None):
        bt, tr = self.bt, self.tracer
        if cat == "water":
            pmf, digits, margins, expected, tag = self.water, 3, "uniform", self.expected["water"], "water"
        elif cat == "d5_margin":
            pmf, digits, margins, expected, tag = None, 3, "uniform", self.expected["d5_margin"], "d5_margin"
        else:
            digits, margins = CATEGORIES[cat]
            pmf = bt.Pmf.from_counts(self.pool[index])
            expected, tag = self.expected[cat][index], margins

        def run():
            if pmf is None:
                with tr.span("constraints.build_H", tag):
                    H = d5_margin_system(bt, self.d5_counts)
            else:
                with tr.span("constraints.targets_from_pmf", tag):
                    targets = bt.targets_from_pmf(pmf, digits=digits, margins=margins)
                with tr.span("constraints.build_H", tag):
                    H = bt.build_H(targets)
            with tr.span("geometry.enumerate_vertices", tag):
                return bt.enumerate_vertices(H)

        return cat, run, lambda V: checks.check_vertices(V, expected)

    def ops(self):
        cursor = {kind: itertools.cycle(order) for kind, order in self.order.items()}
        for n, kind in enumerate(itertools.cycle(ENUMERATE_CYCLE)):
            if n == D5_AT:
                yield self._op("d5_margin")
            yield self._op("water") if kind == "W" else self._op(*next(cursor[kind]))

    def _first(self, cat: str) -> int:
        """The first pool table of this category in the run's order."""
        return next(i for c, i in self.order["O" if cat[0] == "o" else "U"] if c == cat)

    def one_pass(self):
        for cat in CATEGORIES:
            yield self._op(cat, self._first(cat))
        yield self._op("water")
        yield self._op("d5_margin")

    def systems(self):
        """(label, ConstraintMatrix, golden vertex count) of one pass, for the per-row trajectory."""
        bt = self.bt
        out = []
        for cat, (digits, margins) in CATEGORIES.items():
            index = self._first(cat)
            pmf = bt.Pmf.from_counts(self.pool[index])
            H = bt.build_H(bt.targets_from_pmf(pmf, digits=digits, margins=margins))
            out.append((cat, H, self.expected[cat][index]["count"]))
        out.append(("water", bt.build_H(bt.targets_from_pmf(self.water, digits=3)), self.expected["water"]["count"]))
        out.append(("d5_margin", d5_margin_system(bt, self.d5_counts), self.expected["d5_margin"]["count"]))
        return out


class Queries:
    """Every question about one prepared system per op."""

    name = "queries"

    def __init__(self, bt, seed: int, tracer):
        self.bt, self.seed, self.tracer = bt, seed, tracer

    def setup(self) -> None:
        bt = self.bt
        golden = load_golden()
        rng = random.Random(self.seed)
        inputs =[("water", water_pmf(bt), golden["enumerate"]["water"], golden["queries"]["water_dimension"])]
        inputs += [
            (f"pool{i}", bt.Pmf.from_counts(golden["pool"][i]), golden["enumerate"]["u3"][i],
             golden["queries"]["dimension_u3"][i])
            for i in range(QUERY_TABLES)
        ]
        self.systems = []
        for label, pmf, expected, dimension in inputs:
            targets = bt.targets_from_pmf(pmf, digits=3)
            H = bt.build_H(targets)
            V = bt.enumerate_vertices(H)
            problem = checks.check_vertices(V, expected)
            if problem:
                raise RuntimeError(f"queries setup, {label}: {problem}")
            rows = [v.cells for v in V.vertices]
            centroid = bt.mixture(bt.MixtureWeights(tuple(Fraction(1, len(rows)) for _ in rows)), V)
            theta = sparse_weights(rng, len(rows))
            self.systems.append({
                "label": label, "targets": targets, "H": H, "V": V, "rows": rows,
                "H_float": checks.float_matrix(H.rows), "centroid": centroid,
                "theta": theta, "point": checks.exact_mixture(theta, rows),
                "dimension": dimension, "pair_margins": pair_margins(targets),
            })

    def _op(self, system: dict, op_seed: int):
        bt, tr, s = self.bt, self.tracer, system
        tag = s["label"]

        def run():
            with tr.span("ipf.ipf_max_entropy", tag) as rec:
                report = bt.ipf_max_entropy(s["targets"])
                rec["sweeps"] = report.iterations
            with tr.span("geometry.polytope_dimension", tag):
                dimension = bt.polytope_dimension(s["H"])
            with tr.span("geometry.mixture", tag):
                point = bt.mixture(bt.MixtureWeights(tuple(s["theta"])), s["V"])
            with tr.span("geometry.decompose", tag):
                weights = bt.decompose(point, s["V"])
            cfg = bt.SamplerConfig(seed=op_seed, count=HITRUN_COUNT)
            t0 = time.perf_counter()
            with tr.span("sampling.sample_hit_and_run", tag, steps=hitrun_steps(cfg)):
                walk = bt.sample_hit_and_run(s["H"], s["centroid"], cfg)
            t1 = time.perf_counter()
            with tr.span("sampling.sample_dirichlet", tag, draws=DIRICHLET_COUNT):
                mixed = bt.sample_dirichlet(s["V"], bt.SamplerConfig(seed=op_seed, count=DIRICHLET_COUNT))
            self.sampler_clock["hitrun"] += t1 - t0
            self.sampler_clock["dirichlet"] += time.perf_counter() - t1
            with tr.span("loglinear.zero_mean_params", tag, calls=len(s["rows"])):
                zero_mean = [bt.zero_mean_params(v) for v in s["V"].vertices]
            with tr.span("loglinear.corner_params", tag, calls=len(s["rows"])):
                corner = [bt.corner_params(v) for v in s["V"].vertices]
            return report, dimension, point, weights, walk, mixed, zero_mean, corner

        def check(answer):
            report, dimension, point, weights, walk, mixed, zero_mean, corner = answer
            if not report.converged:
                return "IPF did not converge"
            problem = checks.check_ipf(report.table.cells, s["pair_margins"], checks.FLOAT_TOL)
            if problem:
                return problem
            if dimension != s["dimension"]:
                return f"dimension {dimension}, expected {s['dimension']}"
            if tuple(point.cells) != s["point"]:
                return "mixture differs from the exact convex combination"
            problem = (
                checks.check_reproduces(weights.theta, s["rows"], s["point"])
                or checks.check_draws(walk, s["H_float"], HITRUN_COUNT)
                or checks.check_draws(mixed, s["H_float"], DIRICHLET_COUNT)
            )
            if problem:
                return problem
            return check_loglinear(zero_mean, corner, s["rows"])

        return tag, run, check

    def ops(self):
        """Every system once per cycle, in a seeded order."""
        self.sampler_clock = {"hitrun": 0.0, "dirichlet": 0.0, "ops": 0}
        rng = random.Random(self.seed)
        n = 0
        while True:
            for system in rng.sample(self.systems, len(self.systems)):
                n += 1
                self.sampler_clock["ops"] = n
                yield self._op(system, (self.seed * 100_000 + n) % 2**63)

    def sampler_metrics(self) -> dict:
        """Kept draws per second of sampler time, over the ops of the last ``ops()`` loop."""
        clock = self.sampler_clock
        return {
            "hitrun_draws_per_s": clock["ops"] * HITRUN_COUNT / clock["hitrun"],
            "dirichlet_draws_per_s": clock["ops"] * DIRICHLET_COUNT / clock["dirichlet"],
        }

    def one_pass(self):
        self.sampler_clock = {"hitrun": 0.0, "dirichlet": 0.0, "ops": 0}
        for n, system in enumerate(self.systems[:2]):
            yield self._op(system, (self.seed * 100_000 + n) % 2**63)


def hitrun_steps(cfg) -> int:
    """Walk steps for ``count`` kept draws: burn-in, then thinning between keeps."""
    return cfg.burn_in + cfg.count + (cfg.count - 1) * cfg.thinning


def pair_margins(targets) -> dict:
    """Target 2x2 margins (m00, m01, m10, m11) of every pair, from margins and moments."""
    out = {}
    for (i, j), mu in targets.moments.items():
        a, b = targets.univariate[i - 1], targets.univariate[j - 1]
        out[(i, j)] = (1 - a - b + mu, b - mu, a - mu, mu)
    return out


def check_loglinear(zero_mean, corner, rows, eps: float = 1e-8):
    """Intercepts: the mean log cell (zero-mean) and the log of the all-zeros cell (corner)."""
    if len(zero_mean) != len(rows) or len(corner) != len(rows):
        return "missing log-linear views"
    for zm, cp, cells in zip(zero_mean, corner, rows):
        logs = [math.log(float(c) + eps) for c in cells]
        if len(zm.coefficients) != len(cells) or len(cp.coefficients) != len(cells):
            return "log-linear views have the wrong number of coefficients"
        if abs(zm.coefficients[()] - math.fsum(logs) / len(logs)) > 1e-9:
            return "zero-mean intercept is not the mean log cell"
        if abs(cp.coefficients[()] - logs[0]) > 1e-9:
            return "corner intercept is not the log of the reference cell"
    return None


class Cli:
    """Fresh ``python -m bintab.cli`` subprocesses; import probes between cycles."""

    name = "cli"
    #: Process start-up and import dominate these ops, and the in-process speed
    #: kernel does not track their speed (scaling by it widened the run-to-run
    #: spreads), so cli timings are reported as wall clock.
    speed_scaled = False

    def __init__(self, bt, seed: int, tracer, workdir: Path):
        self.bt, self.seed, self.tracer, self.workdir = bt, seed, tracer, workdir

    def setup(self) -> None:
        from bintab.io import vertexset_to_json_dict

        bt = self.bt
        golden = load_golden()
        rng = random.Random(self.seed)
        water = water_pmf(bt)
        V = bt.enumerate_vertices(bt.build_H(bt.targets_from_pmf(water, digits=3)))
        payload = vertexset_to_json_dict(V)
        payload["dimension"] = golden["queries"]["water_dimension"]
        v_water = self.workdir / "v_water.json"
        v_water.write_text(json.dumps(payload))
        rows = [v.cells for v in V.vertices]
        theta = sparse_weights(rng, len(rows))
        point = checks.exact_mixture(theta, rows)
        mid_water = self.workdir / "mid_water.json"
        mid_water.write_text(json.dumps({"d": 4, "kind": "probabilities", "cells": [str(c) for c in point]}))
        self.sample_seed = rng.randrange(10**6)
        self.fields = {
            "v_water": str(v_water), "mid_water": str(mid_water),
            "weights": ",".join(str(t) for t in theta), "seed": str(self.sample_seed),
        }
        expected = dict(golden["cli"])
        expected["mixture"] = {"cells": [str(c) for c in point]}
        expected["decompose"] = {"vertices": rows, "point": point}
        expected["sample"] = {
            "H": checks.float_matrix([[Fraction(v) for v in row] for row in golden["cli"]["sample"]["H"]]),
            "count": 20,
            "header": {"method": "hitrun", "seed": self.sample_seed, "count": 20,
                       "burn_in": 500, "thinning": 10, "d": 4},
        }
        expected["ipf"] = {
            "pair_margins": {tuple(checks.pair_of(k)): v for k, v in golden["cli"]["ipf"]["pair_margins"].items()},
            "tol": checks.FLOAT_TOL,
        }
        self.expected = expected

    def _op(self, sub: str, argv):
        args = [a.format(**self.fields) for a in argv]

        def run():
            with self.tracer.span(f"cli.{sub}"):
                return run_python(["-m", "bintab.cli", *args], self.workdir)

        def check(proc):
            return checks.check_cli(sub, proc.returncode, proc.stdout, self.expected[sub])

        return sub, run, check

    def probe(self):
        def run():
            with self.tracer.span("cli.import_probe"):
                return run_python(IMPORT_PROBE, self.workdir)

        return "probe", run, lambda proc: None if proc.returncode == 0 else f"exit code {proc.returncode}"

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            for sub, argv in rng.sample(CLI_MIX, len(CLI_MIX)):
                yield self._op(sub, argv)
            for _ in range(CLI_PROBES_PER_CYCLE):
                yield self.probe()

    def one_pass(self):
        for sub, argv in CLI_MIX:
            yield self._op(sub, argv)


def run_python(args, cwd: Path, timeout: float = 120) -> subprocess.CompletedProcess:
    """A fresh interpreter with the benchmark's pinned environment; waits for it to end."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=os.environ.copy(),
        capture_output=True, text=True, timeout=timeout,
    )

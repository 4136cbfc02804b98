"""Record the golden answers in ``golden.json`` (run once, from the repository root).

    python3 perfbench/golden.py

It draws the pool of strictly positive d=4 tables the workloads pick from,
enumerates every pool table in every enumerate category, and records the
vertex count and digest of each, the polytope dimensions used by
``queries``, the water and d=5 margin-polytope answers, and the answers of
the deterministic cli subcommands.  Runs take these as fixed; regenerate
only when a change is meant to alter an answer.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bintab as bt  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 2601
POOL_SIZE = 32
CLI_GOLDEN = ("analyze", "targets", "constraints", "vertices", "loglinear", "reproduce")


def answer(V) -> dict:
    rows = checks.cell_rows(V)
    return {"count": len(rows), "digest": checks.vertex_digest(rows)}


def main() -> None:
    rng = random.Random(POOL_SEED)
    pool = [workloads.random_counts(rng, 4) for _ in range(POOL_SIZE)]
    enumerate_golden = {}
    for cat, (digits, margins) in workloads.CATEGORIES.items():
        enumerate_golden[cat] = []
        for counts in pool:
            H = bt.build_H(bt.targets_from_pmf(bt.Pmf.from_counts(counts), digits=digits, margins=margins))
            enumerate_golden[cat].append(answer(bt.enumerate_vertices(H)))
        print(cat, [a["count"] for a in enumerate_golden[cat]], flush=True)
    water = workloads.water_pmf(bt)
    H_water = bt.build_H(bt.targets_from_pmf(water, digits=3))
    enumerate_golden["water"] = answer(bt.enumerate_vertices(H_water))
    enumerate_golden["d5_margin"] = answer(
        bt.enumerate_vertices(workloads.d5_margin_system(bt, workloads.random_counts(rng, 5)))
    )
    queries = {
        "water_dimension": bt.polytope_dimension(H_water),
        "dimension_u3": [
            bt.polytope_dimension(bt.build_H(bt.targets_from_pmf(bt.Pmf.from_counts(c), digits=3)))
            for c in pool
        ],
    }

    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    cli = {}
    for sub, argv in workloads.CLI_MIX:
        if sub in CLI_GOLDEN:
            out = subprocess.run(
                [sys.executable, "-m", "bintab.cli", *argv], env=env,
                capture_output=True, text=True, check=True,
            ).stdout
            cli[sub] = checks.cli_answer(sub, out)
    targets6 = bt.targets_from_pmf(water)
    cli["sample"] = {"H": [[str(v) for v in row] for row in bt.build_H(targets6).rows]}
    cli["ipf"] = {"pair_margins": {
        f"{i},{j}": [float(v) for v in m] for (i, j), m in workloads.pair_margins(targets6).items()
    }}

    golden = {"pool": pool, "enumerate": enumerate_golden, "queries": queries, "cli": cli}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()

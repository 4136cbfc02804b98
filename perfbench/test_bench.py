"""Self-tests of the benchmark's statistics, accounting and answer checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bintab as bt  # noqa: E402

import checks  # noqa: E402
from layers import run_op  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import KERNEL_REFERENCE_S, TAIL_BEYOND, Tally, at_reference_speed, speed, tail  # noqa: E402


# -- tail percentile -----------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 41))
    value, pct, n = tail(values[::-1])
    assert (value, pct, n) == (30, 75.0, 40)
    assert sum(v > value for v in values) == TAIL_BEYOND


def test_tail_with_eleven_samples_is_the_minimum():
    assert tail([5.0, 3.0, 9.0, 1.0, 2.0, 8.0, 7.0, 6.0, 4.0, 10.0, 11.0]) == (1.0, 100.0 / 11, 11)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(n):
    with pytest.raises(ValueError):
        tail(list(range(n)))


def test_latency_metrics_state_percentile_and_count():
    tally = Tally()
    for ms in range(1, 21):
        tally.record("op", ms / 1000.0)
    m = tally.latency_metrics(elapsed=4.0)
    assert m["ops_per_s"] == 5.0
    assert m["op_p50_ms"] == pytest.approx(10.5)
    assert m["op_tail_ms"] == pytest.approx(10.0)
    assert (m["op_tail_percentile"], m["op_samples"]) == (50.0, 20)


def test_timings_scale_to_the_reference_speed():
    fast = speed([KERNEL_REFERENCE_S / 2] * 3 + [KERNEL_REFERENCE_S])
    assert fast == 2.0
    raw = {"speed": fast, "setup_s": 1.0, "ops_per_s": 4.0, "op_p50_ms": 100.0, "op_tail_ms": 150.0}
    assert at_reference_speed(raw) == {"setup_s": 2.0, "ops_per_s": 2.0, "op_p50_ms": 200.0, "op_tail_ms": 300.0}


# -- failed_ratio accounting ---------------------------------------------------


def test_failed_ops_count_against_attempted_and_keep_no_latency():
    tally = Tally()
    tally.record("a", 0.1)
    tally.record("b", 0.2, "wrong answer")
    tally.record("probe", 0.5)
    tally.record("probe", 0.6, "exit code 1")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_ratio == 0.5
    assert tally.latencies == [0.1] and tally.probes == [0.5]
    assert tally.failures == ["b: wrong answer", "probe: exit code 1"]


def test_run_op_counts_raising_ops_and_raising_checks_as_failed():
    tally, tracer = Tally(), Tracer(enabled=True)

    def boom():
        raise RuntimeError("broken")

    run_op(tracer, tally, "raises", boom, lambda answer: None)
    run_op(tracer, tally, "bad_check", lambda: 1, lambda answer: answer["missing"])
    run_op(tracer, tally, "wrong", lambda: 1, lambda answer: "wrong answer")
    run_op(tracer, tally, "right", lambda: 1, lambda answer: None)
    assert (tally.attempted, tally.failed, len(tally.latencies)) == (4, 3, 1)
    assert tally.failed_ratio == 0.75
    assert tracer.op_id is None and [s["tag"] for s in tracer.spans] == ["raises", "bad_check", "wrong", "right"]


# -- corrupted answers are failures --------------------------------------------


@pytest.fixture(scope="module")
def example():
    """example1 at digits 3: two vertices, dimension 1."""
    H = bt.build_H(bt.targets_from_pmf(bt.Pmf.from_cells([Fraction(v, 100) for v in (10, 5, 30, 20, 10, 5, 15, 5)]), digits=3))
    V = bt.enumerate_vertices(H)
    rows = [v.cells for v in V.vertices]
    return H, V, rows, {"count": len(rows), "digest": checks.vertex_digest(rows)}


def test_golden_vertex_set_passes_in_any_order(example):
    _, V, rows, golden = example
    assert checks.check_vertices(V, golden) is None
    assert checks.check_vertices(rows[::-1], golden) is None


def test_corrupted_vertex_sets_fail(example):
    _, _, rows, golden = example
    shifted = [list(rows[0]), list(rows[1])]
    shifted[0][0] += Fraction(1, 1000)
    shifted[0][1] -= Fraction(1, 1000)
    assert checks.check_vertices(shifted, golden) == "vertex list differs from the golden digest"
    assert checks.check_vertices(rows[:1], golden) == "1 vertices, expected 2"
    floats = [[float(c) for c in row] for row in rows]
    assert checks.check_vertices(floats, golden) == "vertex cells are not exact rationals"


def test_draws_pass_as_pmfs_or_array_and_corrupted_draws_fail(example):
    H, V, _, _ = example
    Hf = checks.float_matrix(H.rows)
    draws = bt.sample_dirichlet(V, bt.SamplerConfig(seed=3, count=5))
    array = np.array([d.cells for d in draws])
    assert checks.check_draws(draws, Hf, 5) is None
    assert checks.check_draws(array, Hf, 5) is None
    off_plane = array.copy()
    off_plane[2, 0] += 1e-6
    off_plane[2, 1] -= 1e-6
    assert "violates H x = 0" in checks.check_draws(off_plane, Hf, 5)
    negative = array.copy()
    negative[0, 0] = -1e-3
    assert "negative cell" in checks.check_draws(negative, Hf, 5)
    unnormalized = array * 1.01
    assert "sums off 1" in checks.check_draws(unnormalized, Hf, 5)
    assert "shape" in checks.check_draws(array[:4], Hf, 5)


def vertices_stdout(rows, dimension=1):
    return json.dumps({
        "dimension": dimension,
        "vertices": [{"cells": [str(c) for c in row]} for row in rows],
    })


def test_cli_vertices_output_checked_against_golden(example):
    _, _, rows, golden = example
    expected = dict(golden, dimension=1)
    assert checks.check_cli("vertices", 0, vertices_stdout(rows), expected) is None
    corrupted = [list(rows[0]), list(rows[1])]
    corrupted[1][0], corrupted[1][1] = corrupted[1][1], corrupted[1][0]
    assert checks.check_cli("vertices", 0, vertices_stdout(corrupted), expected) is not None
    assert checks.check_cli("vertices", 0, vertices_stdout(rows, dimension=2), expected) is not None
    assert checks.check_cli("vertices", 1, vertices_stdout(rows), expected) == "exit code 1"
    assert checks.check_cli("vertices", 0, "Traceback (most recent call last):", expected).startswith("unreadable")


def test_cli_sample_output_checked_for_feasibility(example):
    H, V, _, _ = example
    draws = [d.cells for d in bt.sample_dirichlet(V, bt.SamplerConfig(seed=4, count=3))]
    header = {"method": "hitrun", "seed": 4, "count": 3, "burn_in": 500, "thinning": 10, "d": 3}
    expected = {"H": checks.float_matrix(H.rows), "count": 3, "header": header}

    def stdout(rows):
        return "\n".join([json.dumps(header)] + [json.dumps({"cells": list(r)}) for r in rows]) + "\n"

    assert checks.check_cli("sample", 0, stdout(draws), expected) is None
    bad = [list(r) for r in draws]
    bad[1][0], bad[1][7] = bad[1][0] + 0.01, bad[1][7] - 0.01
    assert "violates H x = 0" in checks.check_cli("sample", 0, stdout(bad), expected)
    assert "shape" in checks.check_cli("sample", 0, stdout(draws[:2]), expected)


def test_cli_decompose_and_ipf_outputs_checked(example):
    _, _, rows, _ = example
    point = checks.exact_mixture([Fraction(1, 4), Fraction(3, 4)], rows)
    expected = {"vertices": rows, "point": point}
    assert checks.check_cli("decompose", 0, json.dumps({"weights": [0.25, 0.75]}), expected) is None
    assert "reproduce the point" in checks.check_cli("decompose", 0, json.dumps({"weights": [0.3, 0.7]}), expected)
    margins = {(1, 2): (0.25, 0.25, 0.25, 0.25)}
    uniform = json.dumps({"converged": True, "top_order_odds_ratio": 1.0, "cells": [0.25] * 4})
    skewed = json.dumps({"converged": True, "top_order_odds_ratio": 1.0, "cells": [0.3, 0.2, 0.25, 0.25]})
    stalled = json.dumps({"converged": False, "top_order_odds_ratio": 1.0, "cells": [0.25] * 4})
    assert checks.check_cli("ipf", 0, uniform, {"pair_margins": margins, "tol": 1e-9}) is None
    assert "margins off" in checks.check_cli("ipf", 0, skewed, {"pair_margins": margins, "tol": 1e-9})
    assert checks.check_cli("ipf", 0, stalled, {"pair_margins": margins, "tol": 1e-9}) == "IPF did not converge"


def test_golden_cli_answers_match_and_reject_a_changed_field():
    golden = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())["cli"]
    constraints = golden["constraints"]
    stdout = json.dumps({"d": 3, "labels": [], "row_kinds": constraints["row_kinds"], "rows": constraints["rows"]})
    assert checks.check_cli("constraints", 0, stdout, constraints) is None
    rows = [list(r) for r in constraints["rows"]]
    rows[-1][0] = "0"
    stdout = json.dumps({"row_kinds": constraints["row_kinds"], "rows": rows})
    assert checks.check_cli("constraints", 0, stdout, constraints) == "output differs from the golden answer"


def test_moment_keys_read_in_both_forms():
    assert checks.pair_of("12") == checks.pair_of("1,2") == [1, 2]
    assert checks.pair_of("10,11") == [10, 11]

"""Table documents, serialization round trips, and the command-line surface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import bintab
from bintab import MarginTargets, TableParseError, all_pairs, build_H, enumerate_vertices, targets_from_pmf
from bintab.cli import main
from bintab.io import (
    _decimal_str,
    document_from_csv,
    document_from_json,
    document_to_json_dict,
    format_rational,
    load_table,
    parse_rational,
    pmf_to_document,
    targets_from_json_dict,
    targets_to_json_dict,
    vertexset_to_json_dict,
)
from bintab.reproduce import reproduce_report
from conftest import MOD19_COUNTS, d5_margin_H

F = Fraction

INFEASIBLE_TABLE = {
    # pairwise odds ratios are all 1/33 (finite), but the implied
    # uniform-margin moments sum below 1/2, so the polytope is empty
    "d": 3,
    "kind": "probabilities",
    "cells": ["1/100", "0", "0", "33/100", "0", "33/100", "33/100", "0"],
}


class TestRationalStrings:
    def test_round_trip(self):
        for value in (F(0), F(1), F(97, 500), F(-3, 7)):
            assert parse_rational(format_rational(value)) == value

    def test_decimal_literals_are_exact(self):
        assert parse_rational("0.194") == F(194, 1000)
        assert parse_rational("1e-3") == F(1, 1000)

    def test_bad_literal(self):
        with pytest.raises(TableParseError):
            parse_rational("threeve")

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", math.nan, math.inf])
    def test_non_finite_literal(self, text):
        with pytest.raises(TableParseError):
            parse_rational(text)


    @pytest.mark.parametrize("value", [None, True, {"a": 1}, [1]])
    def test_non_number_value(self, value):
        with pytest.raises(TableParseError):
            parse_rational(value)


class TestJsonDocuments:
    def test_counts_document(self):
        doc = document_from_json(json.dumps({"d": 3, "kind": "counts", "cells": list(range(1, 9))}))
        assert doc.kind == "counts"
        assert doc.to_pmf().total == 36

    def test_kind_inferred(self):
        doc = document_from_json(json.dumps({"cells": [1, 2, 3, 4]}))
        assert doc.kind == "counts"
        doc = document_from_json(json.dumps({"cells": [0.25, 0.25, 0.25, 0.25]}))
        assert doc.kind == "probabilities"

    def test_probability_sum_checked(self):
        with pytest.raises(TableParseError):
            document_from_json(json.dumps({"cells": [0.5, 0.25, 0.25, 0.1]}))

    def test_near_one_sum_renormalized_exactly(self):
        cells = ["0.3333333333", "0.3333333333", "0.3333333333", "0.0000000001"]
        doc = document_from_json(json.dumps({"cells": cells}))
        assert sum(doc.to_pmf().cells) == 1

    def test_negative_count_flagged_with_cell(self):
        with pytest.raises(TableParseError) as err:
            document_from_json(json.dumps({"kind": "counts", "cells": [1, -2, 3, 4]}))
        assert err.value.cell == 2

    def test_wrong_cell_count(self):
        with pytest.raises(TableParseError):
            document_from_json(json.dumps({"cells": [1, 2, 3]}))

    def test_document_round_trip_bit_identical(self, example1):
        doc = pmf_to_document(example1)
        text = json.dumps(document_to_json_dict(doc))
        assert document_from_json(text).to_pmf().cells == example1.cells


class TestCsvDocuments:
    CSV = "x1,x2,value\n0,0,3\n0,1,1\n1,0,4\n1,1,2\n"

    def test_parse(self):
        doc = document_from_csv(self.CSV)
        assert doc.d == 2
        assert doc.cells == (F(3), F(1), F(4), F(2))

    def test_rows_in_any_order(self):
        shuffled = "x1,x2,value\n1,1,2\n0,0,3\n1,0,4\n0,1,1\n"
        assert document_from_csv(shuffled).cells == document_from_csv(self.CSV).cells

    def test_duplicate_configuration(self):
        bad = self.CSV + "1,1,9\n"
        with pytest.raises(TableParseError) as err:
            document_from_csv(bad)
        assert err.value.cell == 4

    def test_missing_cell(self):
        with pytest.raises(TableParseError):
            document_from_csv("x1,x2,value\n0,0,3\n0,1,1\n1,0,4\n")

    def test_bad_header(self):
        with pytest.raises(TableParseError):
            document_from_csv("a,b,c\n0,0,1\n")


class TestBuiltins:
    def test_names(self):
        for name in ("example1", "water", "raters"):
            doc = load_table(f"builtin:{name}")
            assert doc.to_pmf().d in (3, 4)

    def test_water_counts(self):
        doc = load_table("builtin:water")
        assert doc.kind == "counts"
        assert sum(doc.cells) == 1008
        assert doc.labels == ("water_softness", "brand_preference", "previous_use", "temperature")

    def test_unknown_builtin(self):
        with pytest.raises(TableParseError):
            load_table("builtin:nope")


class TestAxisKeys:
    def test_targets_round_trip_d10(self):
        # the concatenated key of pair (1, 10), "110", read back as (1, 1)
        targets = MarginTargets.uniform(10, {pair: F(1, 4) for pair in all_pairs(10)})
        obj = targets_to_json_dict(targets)
        assert "1,10" in obj["moments"]
        assert targets_from_json_dict(json.loads(json.dumps(obj))) == targets

    def test_text_outputs_d10(self, runner, tmp_path):
        # "mu110" and "moment 110" cannot be read back as the pair (1, 10)
        table = tmp_path / "d10.json"
        table.write_text(json.dumps({"cells": [1 + k % 7 for k in range(2**10)]}))
        targets = runner.invoke(main, ["targets", str(table), "--digits", "3"])
        constraints = runner.invoke(main, ["constraints", str(table), "--digits", "3"])
        assert targets.exit_code == 0 and constraints.exit_code == 0
        assert "  mu1,10 = " in targets.output and "mu110" not in targets.output
        assert "moment 1,10: " in constraints.output and "moment 110" not in constraints.output
        assert "margin 10: " in constraints.output

    def test_legacy_two_digit_keys(self, example1):
        targets = targets_from_pmf(example1, digits=3)
        obj = targets_to_json_dict(targets)
        obj["moments"] = {key.replace(",", ""): entry for key, entry in obj["moments"].items()}
        assert set(obj["moments"]) == {"12", "13", "23"}
        assert targets_from_json_dict(obj) == targets


class TestDecimalRenderings:
    @pytest.mark.parametrize("command", ["targets", "vertices"])
    def test_digits_20_decimals_are_the_rationals(self, runner, command):
        result = runner.invoke(main, [command, "builtin:example1", "--digits", "20", "--json"])
        assert result.exit_code == 0, result.output
        obj = json.loads(result.output)
        targets = obj if command == "targets" else obj["targets"]
        assert targets["moments"]["1,2"]["decimal"] == "0.19371294336139655533"
        pairs = [(e["decimal"], e["rational"]) for e in targets["moments"].values()]
        for vertex in obj.get("vertices", []):
            pairs += zip(vertex["decimals"], vertex["cells"])
        assert all(F(decimal) == F(rational) for decimal, rational in pairs)

    def test_vertices_text_is_exact_at_digits_20(self, runner, example1):
        result = runner.invoke(main, ["vertices", "builtin:example1", "--digits", "20"])
        assert result.exit_code == 0, result.output
        printed = [[F(cell) for cell in line.split(":")[1].split()] for line in result.output.splitlines()[1:]]
        V = enumerate_vertices(build_H(targets_from_pmf(example1, digits=20)))
        assert printed == [list(v.cells) for v in V.vertices]

    @pytest.mark.parametrize(
        "name, digits, sha256",
        [
            ("example1", 3, "6edbab81806f568eb62936fab120cbb44da258c1b879d7d217eec023071b8909"),
            ("example1", 6, "14e4284b88a34bba1abdf40137b1742922dffe3528fcc44230bebe58fd2ba52e"),
            ("water", 3, "a4e6696e0759b48c5f8dfc366a88f3a7a56eea28dd7997be2781492f0cec7702"),
            ("water", 6, "253adda861ae0bae985d1b3f9501abcacb0889d25e397a461ce7aa87a537064b"),
            ("raters", 3, "1eab7f39fd23d546b21e83f8f813fff452eb4f7973f5491851d3a317795f2bfa"),
            ("raters", 6, "cabe53e2fcd4022d1147293720afd7fc34ba679f57db45d09d3a15100d1953dc"),
        ],
    )
    def test_vertices_text_bytes_at_low_digits(self, runner, name, digits, sha256):
        # the exact rendering prints what float formatting printed wherever a double carries the digits
        result = runner.invoke(main, ["vertices", f"builtin:{name}", "--digits", str(digits)])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(result.output.encode()).hexdigest() == sha256

    def test_ties_round_as_float_formatting_does(self, water):
        # water's digits-6 vertices have half-way cells: 0.1115335 renders down and
        # 0.1027705 up, each to the side of its nearest double
        V = enumerate_vertices(build_H(targets_from_pmf(water, digits=6)))
        cells = {c for v in V.vertices for c in v.cells}
        assert {F(1115335, 10**7), F(1027705, 10**7)} <= cells
        assert all(_decimal_str(c, 6) == f"{float(c):.6f}" for c in cells)

    @pytest.mark.parametrize(
        "value, digits, text",
        [
            (F(1, 8), 2, "0.12"),  # a double on the half-way point: to even
            (F(3, 8), 2, "0.38"),
            (F(5, 2), 0, "2"),
            (F(7, 2), 0, "4"),
            (F(1, 2000), 3, "0.001"),  # the nearest double lies above 0.0005
            (F(2, 3), 20, "0.66666666666666666667"),
            (F(0), 3, "0.000"),
        ],
    )
    def test_rounding(self, value, digits, text):
        assert _decimal_str(value, digits) == text


def reference_decimal(value, digits):
    """``value`` to ``digits`` > 0 decimals from Fraction arithmetic; a half-way value goes where float formatting sends it."""
    scaled = value * 10**digits
    if scaled - math.floor(scaled) == F(1, 2):
        return f"{float(value):.{digits}f}"
    q = round(scaled)
    return f"{q // 10**digits}.{q % 10**digits:0{digits}d}"


def reference_vertex_json(V, digits):
    return {
        "d": V.constraints.d,
        "count": len(V.vertices),
        "targets": targets_to_json_dict(V.constraints.targets, digits),
        "vertices": [
            {"cells": [str(c) for c in v.cells], "decimals": [reference_decimal(c, digits) for c in v.cells]}
            for v in V.vertices
        ],
    }


class TestVertexJson:
    @pytest.mark.parametrize(
        "system, digits",
        [("water", 3), ("water", 6), ("pool", 3), ("pool", 10), ("d5_margin", 6)],
    )
    def test_bytes_match_a_fraction_formatter(self, request, system, digits):
        if system == "water":
            systems = [build_H(targets_from_pmf(request.getfixturevalue("water"), digits=digits))]
        elif system == "pool":
            systems = [build_H(targets_from_pmf(p, digits=3)) for p in request.getfixturevalue("pool_pmfs")[:8]]
        else:
            systems = [d5_margin_H()]
        for H in systems:
            V = enumerate_vertices(H)
            assert json.dumps(vertexset_to_json_dict(V, digits)) == json.dumps(reference_vertex_json(V, digits))


@pytest.fixture()
def runner():
    return CliRunner()


class TestCliAnalyze:
    def test_example1_odds_ratios(self, runner):
        result = runner.invoke(main, ["analyze", "builtin:example1", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["marginal_odds_ratios"]["1,2"] == pytest.approx(0.40, abs=5e-3)
        assert payload["marginal_odds_ratios"]["1,3"] == pytest.approx(0.64, abs=5e-3)
        assert payload["marginal_odds_ratios"]["2,3"] == pytest.approx(1.11, abs=5e-3)

    def test_raters_includes_top_order(self, runner):
        result = runner.invoke(main, ["analyze", "builtin:raters", "--json"])
        payload = json.loads(result.output)
        assert payload["top_order_odds_ratio"] == pytest.approx(2.96625, abs=1e-5)
        assert payload["marginal_odds_ratios"]["2,3"] == pytest.approx(56.672, abs=1e-3)

    def test_uniform_table_text(self, runner, tmp_path):
        table = tmp_path / "uniform.json"
        table.write_text(json.dumps({"cells": [1, 1, 1, 1, 1, 1, 1, 1]}))
        result = runner.invoke(main, ["analyze", str(table), "--json"])
        payload = json.loads(result.output)
        assert all(v == pytest.approx(1.0) for v in payload["marginal_odds_ratios"].values())
        assert all(v == pytest.approx(0.0) for v in payload["correlations"].values())

    def test_parse_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["analyze", str(bad)])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "document", [{"cells": [None, 1, 2, 3]}, {"cells": [1, 2, {"a": 1}, 3]}, {"cells": 5}]
    )
    def test_malformed_cells_exit_code(self, runner, tmp_path, document):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        result = runner.invoke(main, ["analyze", str(bad)])
        assert result.exit_code == 3, result.output

    @pytest.mark.parametrize("labels", [5, "ab"], ids=["number", "string"])
    def test_non_array_labels_exit_code(self, runner, tmp_path, labels):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"cells": [1, 2, 3, 4], "labels": labels}))
        result = runner.invoke(main, ["analyze", str(bad)])
        assert result.exit_code == 3, result.output
        assert "'labels' must be a JSON array" in result.output

    def test_missing_file_exit_code(self, runner):
        result = runner.invoke(main, ["analyze", "no/such/file.json"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("d", ["2", True], ids=["string", "bool"])
    def test_non_integer_d_exit_code(self, runner, tmp_path, d):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"cells": [1, 2, 3, 4], "d": d}))
        result = runner.invoke(main, ["analyze", str(bad)])
        assert result.exit_code == 3, result.output
        assert "'d' must be a JSON integer" in result.output

    def test_non_string_labels_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"cells": [1, 2, 3, 4], "labels": [None, {}]}))
        result = runner.invoke(main, ["analyze", str(bad)])
        assert result.exit_code == 3, result.output
        assert "'labels' must be strings" in result.output


class TestCliVertices:
    def test_example1_uniform(self, runner):
        result = runner.invoke(main, ["vertices", "builtin:example1", "--digits", "3", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["count"] == 2
        assert payload["dimension"] == 1
        cells = {tuple(v["cells"]) for v in payload["vertices"]}
        assert tuple("0 97/500 111/500 21/250 257/1000 49/1000 21/1000 173/1000".split()) in cells

    def test_example1_observed(self, runner):
        result = runner.invoke(
            main, ["vertices", "builtin:example1", "--digits", "3", "--margins", "observed", "--json"]
        )
        payload = json.loads(result.output)
        assert payload["count"] == 2
        decimals = {
            tuple(round(float(F(c)), 3) for c in v["cells"]) for v in payload["vertices"]
        }
        assert (0.05, 0.1, 0.35, 0.15, 0.15, 0.0, 0.1, 0.1) in decimals
        assert (0.15, 0.0, 0.25, 0.25, 0.05, 0.1, 0.2, 0.0) in decimals

    def test_water_count(self, runner):
        result = runner.invoke(main, ["vertices", "builtin:water", "--digits", "3"])
        assert result.exit_code == 0
        assert "n = 96 extreme pmfs" in result.output
        assert "dimension 5" in result.output

    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(["vertices"], id="vertices"),
            pytest.param(["sample"], id="sample"),
            pytest.param(["ipf"], id="ipf"),
            pytest.param(["sample", "--method", "hitrun"], id="sample-hitrun"),
        ],
    )
    def test_empty_polytope_exit_code(self, runner, tmp_path, command):
        table = tmp_path / "infeasible.json"
        table.write_text(json.dumps(INFEASIBLE_TABLE))
        result = runner.invoke(main, [*command, str(table)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "argv, expected, passes",
        [
            pytest.param(["vertices", "builtin:water", "--digits", "3"], "dimension 5", 1, id="vertices"),
            pytest.param(
                ["sample", "builtin:water", "--digits", "3", "--count", "2"],
                '"method": "dirichlet"',
                1,
                id="sample-dirichlet",
            ),
            # the walk starts at the certified interior point
            pytest.param(
                ["sample", "builtin:water", "--digits", "3", "--method", "hitrun",
                 "--count", "2", "--burn-in", "5", "--thinning", "1"],
                '"method": "hitrun"',
                0,
                id="sample-hitrun",
            ),
            # the feasibility check is an exact interior-point certificate, not a ray pass
            pytest.param(["ipf", "builtin:water", "--digits", "3"], "IPF converged", 0, id="ipf"),
        ],
    )
    def test_one_enumeration_per_call(self, runner, monkeypatch, argv, expected, passes):
        import bintab.cli
        import bintab.geometry
        import bintab.ipf

        calls = []
        original = bintab.geometry._extreme_rays

        def counting(H):
            calls.append(H)
            return original(H)

        # also any reference a module holds by name, so no call escapes the count
        for module in (bintab.geometry, bintab.cli, bintab.ipf):
            if hasattr(module, "_extreme_rays"):
                monkeypatch.setattr(module, "_extreme_rays", counting)
        result = runner.invoke(main, argv)
        assert result.exit_code == 0
        assert expected in result.output
        assert len(calls) == passes

    def test_hitrun_generic_d5_runs_no_ray_pass(self, runner, tmp_path, monkeypatch):
        import bintab.geometry

        def forbidden(H):
            raise AssertionError("ray pass run")

        monkeypatch.setattr(bintab.geometry, "_extreme_rays", forbidden)
        table = tmp_path / "d5.json"
        # a generic positive d=5 table: its vertex list is out of reach of the ray pass
        table.write_text(json.dumps({"d": 5, "kind": "counts", "cells": [(7 * k) % 19 + 1 for k in range(32)]}))
        result = runner.invoke(
            main, ["sample", str(table), "--method", "hitrun", "--digits", "2", "--count", "3"]
        )
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert len(lines) == 4
        assert all(len(json.loads(line)["cells"]) == 32 for line in lines[1:])

    def test_hitrun_mod19_runs_no_ray_pass(self, runner, tmp_path, monkeypatch):
        import bintab.geometry

        def forbidden(H):
            raise AssertionError("ray pass run")

        monkeypatch.setattr(bintab.geometry, "_extreme_rays", forbidden)
        table = tmp_path / "mod19.json"
        # observed margins: a full-dimensional d=5 polytope whose start is the second-order table
        table.write_text(json.dumps({"d": 5, "kind": "counts", "cells": MOD19_COUNTS}))
        argv = ["sample", str(table), "--method", "hitrun", "--count", "2", "--margins", "observed", "--digits", "3"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert len(lines) == 3
        assert all(len(json.loads(line)["cells"]) == 32 for line in lines[1:])

    def test_unsupported_targets_exit_code(self, runner, tmp_path):
        table = tmp_path / "degenerate.json"
        table.write_text(json.dumps({"cells": [1, 0, 0, 0, 0, 0, 0, 1]}))
        result = runner.invoke(main, ["vertices", str(table)])
        assert result.exit_code == 4

    def test_float_precision_mode_rejected(self, runner):
        # no subcommand takes the flag: the statistics are exact, and --json renders them as floats
        for command in ("analyze", "vertices", "loglinear"):
            result = runner.invoke(main, [command, "builtin:example1", "--precision-mode", "float"])
            assert result.exit_code == 2
            assert "No such option" in result.output


def _assert_one_error_line(result, *fragments, code=3):
    """Exit ``code`` through the CLI's own handler: one ``error:`` line, nothing else, no traceback."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output
    assert all(f in lines[0] for f in fragments), lines[0]


class TestCliFiles:
    """Every input file is read, and every -o file written, through one io boundary."""

    def test_directory_as_table(self, runner, tmp_path):
        _assert_one_error_line(runner.invoke(main, ["analyze", str(tmp_path)]), f"table file {tmp_path}")

    def test_undecodable_table(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"cells": [1, 2, 3, "\xff"]}')
        _assert_one_error_line(runner.invoke(main, ["analyze", str(bad)]), f"cannot read table file {bad}")

    @pytest.mark.parametrize(
        "argv", [["mixture", "{dir}", "--weights", "1"], ["decompose", "{dir}", "builtin:water"]],
        ids=["mixture", "decompose"],
    )
    def test_directory_as_vertex_file(self, runner, tmp_path, argv):
        result = runner.invoke(main, [a.format(dir=tmp_path) for a in argv])
        _assert_one_error_line(result, f"cannot read vertex file {tmp_path}")

    @pytest.fixture(scope="class")
    def vertex_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("v") / "v.json"
        result = CliRunner().invoke(main, ["vertices", "builtin:example1", "--digits", "3", "-o", str(path)])
        assert result.exit_code == 0, result.output
        return path

    @pytest.mark.parametrize("command", ["vertices", "mixture", "sample"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_output(self, runner, tmp_path, vertex_file, command, target):
        out = tmp_path / "missing" / "out.json" if target == "missing_dir" else tmp_path
        argv = {
            "vertices": ["vertices", "builtin:example1", "--digits", "3"],
            "mixture": ["mixture", str(vertex_file), "--weights", "1/2,1/2"],
            "sample": ["sample", "builtin:example1", "--digits", "3", "--count", "2"],
        }[command]
        _assert_one_error_line(runner.invoke(main, argv + ["-o", str(out)]), f"cannot write output file {out}")
        assert not (tmp_path / "missing").exists()
        assert list(tmp_path.iterdir()) == []


class TestCliPipelines:
    def test_vertex_file_mixture_round_trip(self, runner, tmp_path):
        vertex_file = tmp_path / "vertices.json"
        result = runner.invoke(
            main,
            ["vertices", "builtin:example1", "--digits", "3", "--output", str(vertex_file)],
        )
        assert result.exit_code == 0
        vertex_payload = json.loads(vertex_file.read_text())

        mixed_file = tmp_path / "mixed.json"
        result = runner.invoke(
            main,
            ["mixture", str(vertex_file), "--weights", "1,0", "--output", str(mixed_file)],
        )
        assert result.exit_code == 0
        mixed = json.loads(mixed_file.read_text())
        assert mixed["cells"] == vertex_payload["vertices"][0]["cells"]

        # re-import: the mixed table decomposes back onto the first vertex
        result = runner.invoke(main, ["decompose", str(vertex_file), str(mixed_file)])
        assert result.exit_code == 0
        weights = json.loads(result.output)["weights"]
        assert weights == [1.0, 0.0]

    def test_malformed_moment_key_exit_code(self, runner, tmp_path):
        vertex_file = tmp_path / "vertices.json"
        runner.invoke(
            main,
            ["vertices", "builtin:example1", "--digits", "3", "--output", str(vertex_file)],
        )
        payload = json.loads(vertex_file.read_text())
        payload["targets"]["moments"]["ab"] = payload["targets"]["moments"].pop("1,2")
        vertex_file.write_text(json.dumps(payload))
        result = runner.invoke(main, ["mixture", str(vertex_file), "--weights", "1,0"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("field", ["moments", "cell"])
    def test_malformed_vertex_file_exit_code(self, runner, tmp_path, field):
        vertex_file = tmp_path / "vertices.json"
        runner.invoke(
            main,
            ["vertices", "builtin:example1", "--digits", "3", "--output", str(vertex_file)],
        )
        payload = json.loads(vertex_file.read_text())
        if field == "moments":
            payload["targets"]["moments"] = []
        else:
            payload["vertices"][0]["cells"][0] = None
        vertex_file.write_text(json.dumps(payload))
        result = runner.invoke(main, ["mixture", str(vertex_file), "--weights", "1,0"])
        assert result.exit_code == 3, result.output

    @pytest.mark.parametrize(
        "case, command, message",
        [
            # a float d must stop at the loader, before geometry.mixture sees it
            pytest.param("float-d", "mixture", "'d' must be the integer d=3", id="float-d"),
            # the uniform table misses the moment targets, so no vertex file may hold it
            # (decompose would certify it as its own exact mixture)
            pytest.param("off-targets", "decompose", "vertex 1 violates", id="off-targets"),
            pytest.param("d-mismatch", "mixture", "'d' must be the integer d=3", id="d-mismatch"),
            pytest.param("vertex-sum", "mixture", "vertex 2: cell probability sum", id="vertex-sum"),
        ],
    )
    def test_vertex_file_checked_against_its_targets(self, runner, tmp_path, case, command, message):
        vertex_file = tmp_path / "vertices.json"
        runner.invoke(main, ["vertices", "builtin:example1", "--digits", "3", "--output", str(vertex_file)])
        payload = json.loads(vertex_file.read_text())
        if case == "float-d":
            payload["d"] = 3.0
        elif case == "off-targets":
            for vertex in payload["vertices"]:
                vertex["cells"] = ["1/8"] * 8
        elif case == "d-mismatch":
            payload["d"] = 2
            for vertex in payload["vertices"]:
                vertex["cells"] = ["1/4"] * 4
        else:
            payload["vertices"][1]["cells"][0] = "1"
        vertex_file.write_text(json.dumps(payload))
        uniform = tmp_path / "uniform.json"
        uniform.write_text(json.dumps({"cells": [1] * 8}))
        argv = {"mixture": ["mixture", str(vertex_file), "--weights", "1/2,1/2"],
                "decompose": ["decompose", str(vertex_file), str(uniform)]}[command]
        result = runner.invoke(main, argv)
        assert result.exit_code == 3, result.output
        assert message in result.output

    @pytest.mark.parametrize("d", [True, 3.0, "3"], ids=["bool", "float", "string"])
    def test_vertex_file_targets_d_must_be_an_integer(self, runner, tmp_path, d):
        vertex_file = tmp_path / "vertices.json"
        runner.invoke(main, ["vertices", "builtin:example1", "--digits", "3", "--output", str(vertex_file)])
        payload = json.loads(vertex_file.read_text())
        payload["targets"]["d"] = d
        vertex_file.write_text(json.dumps(payload))
        result = runner.invoke(main, ["mixture", str(vertex_file), "--weights", "1/2,1/2"])
        assert result.exit_code == 3, result.output
        assert "targets 'd' must be a JSON integer" in result.output

    @pytest.mark.parametrize("weights", ["nan,1", "1,nan", "inf,0"])
    def test_non_finite_weights_exit_code(self, runner, tmp_path, weights):
        vertex_file = tmp_path / "vertices.json"
        runner.invoke(
            main,
            ["vertices", "builtin:example1", "--digits", "3", "--output", str(vertex_file)],
        )
        result = runner.invoke(main, ["mixture", str(vertex_file), "--weights", weights])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "argv",
        [["mixture", "no/such/v.json", "--weights", "1"], ["decompose", "no/such/v.json", "builtin:water"]],
        ids=["mixture", "decompose"],
    )
    def test_missing_vertex_file_exit_code(self, runner, argv):
        # a parse error, as for a missing table, not click's usage error (exit 2 means infeasible)
        result = runner.invoke(main, argv)
        assert result.exit_code == 3, result.output
        assert "error: no such vertex file: no/such/v.json" in result.output

    def test_decompose_outside_polytope(self, runner, tmp_path):
        vertex_file = tmp_path / "vertices.json"
        runner.invoke(
            main,
            ["vertices", "builtin:example1", "--digits", "3", "--output", str(vertex_file)],
        )
        result = runner.invoke(main, ["decompose", str(vertex_file), "builtin:example1"])
        assert result.exit_code == 2

    def test_targets_round_a_near_tie_root_exactly(self, runner, tmp_path):
        # omega = 1 - 10^-45 + O(10^-90): the root is 1/4 - 6.25e-47, just below the 1/4 tie
        table = tmp_path / "near_tie.json"
        table.write_text(json.dumps({"cells": [10**45 - 1, 10**45, 10**45, 10**45]}))
        result = runner.invoke(main, ["targets", str(table), "--digits", "1"])
        assert result.exit_code == 0, result.output
        assert "mu1,2 = 1/5 (0.2)" in result.output

    def test_targets_negative_digits_exit_code(self, runner):
        result = runner.invoke(main, ["targets", "builtin:water", "--digits", "-1"])
        assert result.exit_code == 4, result.output

    @pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
    def test_targets_digits_past_the_bound(self, runner, as_json):
        # printed, 100,000-digit targets would pass Python's 4,300-digit int-to-string limit
        result = runner.invoke(main, ["targets", "builtin:water", "--digits", "100000", *as_json])
        _assert_one_error_line(result, "digits must be in 0..1000, got 100000", code=4)

    def test_targets_and_constraints(self, runner):
        result = runner.invoke(main, ["targets", "builtin:example1", "--digits", "3", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["moments"]["1,2"]["rational"] == "97/500"
        result = runner.invoke(main, ["constraints", "builtin:example1", "--digits", "3", "--json"])
        payload = json.loads(result.output)
        assert len(payload["rows"]) == 6
        assert payload["rows"][0] == ["1", "1", "1", "1", "-1", "-1", "-1", "-1"]

    def test_loglinear_json(self, runner):
        result = runner.invoke(
            main, ["loglinear", "builtin:example1", "--eps", "0", "--json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["parametrization"] == "zero-mean"
        assert "∅" in payload["coefficients"]

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_loglinear_rejects_non_finite_or_negative_eps(self, runner, eps):
        result = runner.invoke(
            main, ["loglinear", "builtin:raters", "--eps", eps, "--json"]
        )
        assert result.exit_code == 4
        assert "error: eps must be finite and >= 0" in result.output

    def test_ipf_json(self, runner):
        result = runner.invoke(main, ["ipf", "builtin:example1", "--digits", "3", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["converged"] is True
        assert payload["top_order_odds_ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_ipf_infeasible_exit_code(self, runner, tmp_path):
        table = tmp_path / "infeasible.json"
        table.write_text(json.dumps(INFEASIBLE_TABLE))
        result = runner.invoke(main, ["ipf", str(table)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_ipf_rejects_max_iter_below_one(self, runner, max_iter):
        result = runner.invoke(main, ["ipf", "builtin:water", "--json", "--max-iter", max_iter])
        assert result.exit_code == 4
        assert "error: max_iter must be >= 1" in result.output

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_ipf_rejects_tol_outside_domain(self, runner, tol):
        result = runner.invoke(main, ["ipf", "builtin:water", "--digits", "3", "--tol", tol])
        assert result.exit_code == 4, result.output
        assert "error: tol must be finite and >= 0" in result.output

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_decompose_rejects_tol_outside_domain(self, runner, tmp_path, tol):
        vertex_file = tmp_path / "v.json"
        runner.invoke(main, ["vertices", "builtin:example1", "--digits", "3", "-o", str(vertex_file)])
        result = runner.invoke(main, ["decompose", str(vertex_file), "builtin:example1", "--tol", tol])
        assert result.exit_code == 4, result.output
        assert "error: tol must be finite and >= 0" in result.output

    def test_sample_deterministic_bytes(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out1, out2):
            result = runner.invoke(
                main,
                [
                    "sample", "builtin:example1", "--digits", "3", "--method", "hitrun",
                    "--count", "50", "--seed", "9", "--burn-in", "20", "--thinning", "2",
                    "--output", str(out),
                ],
            )
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = json.loads(out1.read_text().splitlines()[0])
        assert header["seed"] == 9 and header["method"] == "hitrun"

    @pytest.mark.parametrize("method", ["dirichlet", "hitrun"])
    def test_sample_negative_seed_exit_code(self, runner, method):
        result = runner.invoke(
            main, ["sample", "builtin:water", "--method", method, "--seed", "-1", "--count", "1"]
        )
        assert result.exit_code == 4, result.output
        assert "error: seed must be a nonnegative integer, got -1" in result.output

    def test_sample_stdout_jsonl(self, runner):
        result = runner.invoke(
            main, ["sample", "builtin:example1", "--digits", "3", "--count", "3", "--seed", "1"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 4  # header + 3 draws
        draw = json.loads(lines[1])
        assert len(draw["cells"]) == 8


class TestCliReproduce:
    @pytest.mark.parametrize("example,limit", [
        ("example1", 6e-3),
        ("water", 6e-4),
        ("raters", 5e-3),
    ])
    def test_deviation_bounds(self, runner, example, limit):
        result = runner.invoke(main, ["reproduce", example, "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["max_deviation"] < limit

    def test_text_report(self, runner):
        result = runner.invoke(main, ["reproduce", "example1"])
        assert result.exit_code == 0
        assert "marginal odds ratios" in result.output
        assert "max |deviation|" in result.output

    def test_unknown_example(self, runner):
        result = runner.invoke(main, ["reproduce", "nope"])
        assert result.exit_code != 0

    def test_section_titles_and_row_names(self):
        cells = [f"cell {k}" for k in range(1, 9)]
        vertex_cells = [f"r{i} {c}" for i in (1, 2) for c in cells]
        lambdas = [f"r{i} lambda[{s}]" for i in (1, 2) for s in ("0", "1", "2", "3", "12", "13", "23", "123")]
        odds_d3 = ["omega_M 12", "omega_M 13", "omega_M 23"]
        loglinear = [
            ("log-linear coefficients (zero-mean, eps=1e-8)", lambdas),
            ("log-linear coefficients (corner, eps=1e-8)", lambdas),
        ]
        expected = {
            "example1": [
                ("marginal odds ratios", odds_d3),
                ("uniform-margin moment targets", ["mu 12", "mu 13", "mu 23"]),
                ("extreme pmfs (uniform margins)", vertex_cells),
                ("extreme pmfs (observed margins)", vertex_cells),
                *loglinear,
            ],
            "water": [
                ("marginal odds ratios", [f"omega_M {p}" for p in ("12", "23", "13", "34", "24", "14")]),
                ("uniform-margin moment targets", [f"mu {p}" for p in ("12", "23", "13", "34", "24", "14")]),
                ("extreme pmf count (targets at 3 decimals)", ["n"]),
            ],
            "raters": [
                ("table pmf", cells),
                ("marginal odds ratios", odds_d3),
                ("top-order odds ratio", ["omega 123"]),
                ("extreme pmfs (uniform margins)", vertex_cells),
                *loglinear,
            ],
        }
        for example, sections in expected.items():
            report = reproduce_report(example)
            got = [(s["title"], [row["name"] for row in s["rows"]]) for s in report["sections"]]
            assert got == sections, example


def test_version_from_source_checkout(runner):
    # reads bintab.__version__, not the metadata of an installed package
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == f"bintab, version {bintab.__version__}\n"


def test_package_version_has_one_source():
    # pyproject.toml reads the version from bintab.__version__ instead of repeating it
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == bintab.__version__


def _run_child(code, *args):
    """stdout of ``python -c code args`` on this checkout's sources, in a fresh interpreter."""
    src = str(Path(bintab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs most of the CLI's start-up; only decompose's
    # least-squares proposal needs it
    code = "import sys, bintab.cli; print('scipy.optimize' in sys.modules)"
    assert _run_child(code).strip() == "False"


EXACT_SUBCOMMAND = """
import sys
from bintab.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "builtin:example1", "--json"],
        ["targets", "builtin:water", "--digits", "3", "--margins", "observed", "--json"],
        ["constraints", "builtin:raters", "--json"],
        ["loglinear", "builtin:raters", "--parametrization", "corner", "--json"],
    ],
    ids=lambda argv: argv[0],
)
def test_exact_subcommands_leave_numpy_unloaded(argv):
    # exact rational work and the log-linear views need no numpy, so their
    # processes do not pay its import
    assert _run_child(EXACT_SUBCOMMAND, *argv).splitlines()[-1] == "False"


def test_package_import_is_lazy():
    # a bare import loads no submodule; every public name still resolves on first access
    code = (
        "import sys, bintab\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('bintab.'))\n"
        "print('numpy' in sys.modules, loaded)\n"
        "for name in bintab.__all__:\n"
        "    getattr(bintab, name)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _run_child(code).splitlines() == ["False []", "True"]


class TestPackageNamespace:
    def test_every_public_name_resolves(self):
        namespace = {}
        exec("from bintab import *", namespace)
        for name in bintab.__all__:
            value = getattr(bintab, name)
            assert namespace[name] is value
            assert getattr(value, "__module__", "bintab.").startswith("bintab.")

    def test_dir_lists_public_names(self):
        assert set(bintab.__all__) <= set(dir(bintab))
        assert "__version__" in dir(bintab)

    def test_submodules_resolve(self):
        import bintab.geometry

        assert bintab.geometry is sys.modules["bintab.geometry"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bintab.no_such_name
        assert not hasattr(bintab, "no_such_name")
        with pytest.raises(ImportError):
            exec("from bintab import no_such_name", {})


DECOMPOSE_WITHOUT_SCIPY = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from fractions import Fraction
import bintab
from bintab.datasets import builtin_pmf

V = bintab.enumerate_vertices(bintab.build_H(bintab.targets_from_pmf(builtin_pmf("water"), digits=3)))
theta = [Fraction(0)] * len(V)
theta[3], theta[40], theta[77] = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
point = bintab.mixture(theta, V)
weights = bintab.decompose(point, V)
assert all(type(t) is Fraction for t in weights.theta) and bintab.mixture(weights, V) == point
targets = bintab.targets_from_pmf(builtin_pmf("raters"), digits=3)
table = bintab.ipf_max_entropy(targets).table
weights = bintab.decompose(table, bintab.enumerate_vertices(bintab.build_H(targets)), tol=1e-7)
assert all(type(t) is float for t in weights.theta)
print("scipy" in sys.modules)
"""


@pytest.mark.parametrize("scipy_import", ["blocked", "allowed"])
def test_decompose_runs_without_scipy(scipy_import):
    # rational (exact certificate) and float (IPF table) inputs; scipy is only a test dependency
    assert _run_child(DECOMPOSE_WITHOUT_SCIPY, scipy_import).strip() == str(scipy_import == "blocked")

"""Command-line interface: commands, formats, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphscatter
from graphscatter import classical
from graphscatter.classical import mixing_gap, multiset_defect, transition_matrix
from graphscatter.cli import main, make_parser, parse_complex, parse_grid
from graphscatter.graph import build_graph, graph_to_json
from conftest import (
    MALFORMED_JSON, make_c3_weighted, make_k4, make_p2, make_petersen, make_random8,
)

K4_JSON = graph_to_json(make_k4())
P2_JSON = graph_to_json(make_p2())


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(K4_JSON)
    return str(path)


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(P2_JSON)
    return str(path)


@pytest.fixture
def c3w_file(tmp_path):
    path = tmp_path / "c3w.json"
    path.write_text(graph_to_json(make_c3_weighted()))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_complex_forms(self):
        assert parse_complex("1.5") == 1.5
        assert parse_complex("1.5,-2") == complex(1.5, -2.0)

    def test_grid(self):
        np.testing.assert_allclose(parse_grid("0:1:3"), [0.0, 0.5, 1.0])


class TestSpectrum:
    def test_k4_with_scan(self, k4_file, capsys):
        code, out, _ = run_cli(["spectrum", "--graph", k4_file, "--scan"], capsys)
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["eigenvalues"], [0, 4, 4, 4], atol=1e-9)
        assert payload["max_pairwise_deviation"] < 1e-7
        mults = {z["lam"]: z["multiplicity"] for z in payload["secular_zeros"]}
        assert {round(k): v for k, v in mults.items()} == {0: 1, 4: 3}

    def test_p2(self, p2_file, capsys):
        code, out, _ = run_cli(["spectrum", "--graph", p2_file], capsys)
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["eigenvalues"], [0, 2], atol=1e-12)

    def test_malformed_edge_line_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n0 zzz\n")
        code, _, err = run_cli(["spectrum", "--graph", str(bad)], capsys)
        assert code == 1
        assert "line 2" in err

    def test_isolated_vertex(self, tmp_path, capsys):
        path = tmp_path / "isolated.txt"
        path.write_text("0 2\n2 3\n0 3\n")  # vertex 1 has no edge
        code, out, _ = run_cli(["spectrum", "--graph", str(path)], capsys)
        assert code == 0
        assert len(json.loads(out)["eigenvalues"]) == 4
        code, out, err = run_cli(["spectrum", "--graph", str(path), "--scan"], capsys)
        assert code == 1
        assert out == "" and "vertex 1" in err

    @pytest.mark.parametrize("name,text", [("k4.json", K4_JSON), ("c3.txt", "0 1\n1 2\n0 2\n")])
    def test_utf8_byte_order_mark(self, name, text, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8-sig")
        code, out, err = run_cli(["spectrum", "--graph", str(path)], capsys)
        assert code == 0, err
        assert len(json.loads(out)["eigenvalues"]) == (4 if name == "k4.json" else 3)

    def test_missing_graph_flag(self, capsys):
        code, _, err = run_cli(["spectrum"], capsys)
        assert code == 1
        assert "error" in err
        assert "--graph" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
    def test_malformed_graph_one_line_error(self, name, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(MALFORMED_JSON[name][0])
        code, out, err = run_cli(["spectrum", "--graph", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestVerify:
    def test_green_exit_zero(self, k4_file, capsys):
        code, out, _ = run_cli(["verify", "--graph", k4_file, "--seed", "7"], capsys)
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_fault_injection_named_failure(self, k4_file, capsys):
        code, out, err = run_cli(
            ["verify", "--graph", k4_file, "--inject-fault", "sigma"], capsys
        )
        assert code == 2
        assert "unitarity" in err
        payload = json.loads(out)
        assert payload["all_passed"] is False

    def test_byte_identical_reruns(self, k4_file, capsys):
        _, out1, _ = run_cli(["verify", "--graph", k4_file, "--seed", "3"], capsys)
        _, out2, _ = run_cli(["verify", "--graph", k4_file, "--seed", "3"], capsys)
        assert out1 == out2


class TestOrbits:
    def test_counts_k4(self, k4_file, capsys):
        code, out, _ = run_cli(["orbits", "--graph", k4_file, "--max-len", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"]["3"]["no_backtrack"] == 8

    def test_cap_exit_code(self, k4_file, capsys):
        code, _, err = run_cli(
            ["orbits", "--graph", k4_file, "--max-len", "12", "--max-orbits", "10"],
            capsys,
        )
        assert code == 3
        assert "cap" in err

    def test_negative_cap_rejected(self, k4_file, capsys):
        code, out, err = run_cli(
            ["orbits", "--graph", k4_file, "--max-len", "4", "--max-orbits", "-5"], capsys
        )
        assert code == 1
        assert out == ""
        assert err == "error: max_orbits must be non-negative, got -5\n"

    def test_default_cap_names_first_length_past_it(self, tmp_path, capsys):
        """random8 to 22 holds 4.7e9 orbits: the exact pre-flight count stops
        it at length 17, where the total first passes the default 1e7 cap,
        before any walk is enumerated."""
        path = tmp_path / "random8.json"
        path.write_text(graph_to_json(make_random8()))
        code, out, err = run_cli(["orbits", "--graph", str(path), "--max-len", "22"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: orbit catalog exceeded cap of 10000000 orbits at length 17\n"

    def test_jsonl_listing(self, p2_file, capsys):
        code, out, _ = run_cli(
            ["orbits", "--graph", p2_file, "--max-len", "4", "--list"], capsys
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert records == [{"n": 2, "beta": 2, "bonds": [0, 1]}]


class TestZetaCommands:
    def test_zeta_product_report(self, p2_file, capsys):
        code, out, _ = run_cli(
            ["zeta", "--graph", p2_file, "--lambda", "1,-0.5", "--truncation", "4"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["product"]["relative_error"] < 1e-9

    def test_zeta_product_euler_diagnostic(self, k4_file, capsys):
        argv = ["zeta", "--graph", k4_file, "--lambda", "2,-1", "--truncation", "12"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        product = json.loads(out)["product"]
        assert product["relative_error"] < 1e-12  # cycle expansion, exact at N = 2B
        assert product["euler_relative_error"] > 1e-3  # plain Euler product, O(1/N)
        assert set(product["euler_value"]) == {"re", "im"}
        _, rerun, _ = run_cli(argv, capsys)
        assert rerun == out

    def test_ihara_counts(self, k4_file, capsys):
        code, out, _ = run_cli(
            ["ihara", "--graph", k4_file, "--u", "0.1", "--truncation", "8",
             "--counts-from-det", "8"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["product"]["relative_error"] < 1e-6
        assert payload["counts_from_determinant"]["counts"][3] == 8
        assert payload["counts_no_backtrack"]["3"] == 8

    def test_exact_counts_at_length_25(self, k4_file, capsys):
        code, out, _ = run_cli(
            ["ihara", "--graph", k4_file, "--u", "0.1", "--counts-from-det", "25"], capsys
        )
        assert code == 0
        payload = json.loads(out)["counts_from_determinant"]
        assert payload == {"counts": payload["counts"]}  # no integer_defect
        assert payload["counts"][25] == 1_341_648

    def test_counts_length_below_two_rejected(self, k4_file, capsys):
        code, out, err = run_cli(
            ["ihara", "--graph", k4_file, "--u", "0.1", "--counts-from-det", "-3"], capsys
        )
        assert code == 1
        assert out == ""
        assert err == "error: max_length must be at least 2\n"

    def test_stark(self, k4_file, capsys):
        code, out, _ = run_cli(
            ["stark", "--graph", k4_file, "--scale", "0.15", "--seed", "2",
             "--truncation", "14"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["relative_error"] < 1e-6


class TestTrace:
    def test_csv_columns(self, k4_file, capsys):
        code, out, _ = run_cli(
            ["trace", "--graph", k4_file, "--format", "csv", "--grid", "0:5:6",
             "--max-len", "4", "--max-rep", "2"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,exact,weyl,orbit,residual"
        assert len(lines) == 7

    def test_default_grid_pads_the_spectrum(self, k4_file, capsys):
        # no --grid: 101 points on [lambda_min - 1, lambda_max + 1]
        code, out, _ = run_cli(
            ["trace", "--graph", k4_file, "--max-len", "3", "--max-rep", "1"], capsys
        )
        assert code == 0
        grid = json.loads(out)["grid"]
        np.testing.assert_allclose(grid, np.linspace(-1.0, 5.0, 101), atol=1e-12)

    def test_json_summary(self, k4_file, capsys):
        code, out, _ = run_cli(
            ["trace", "--graph", k4_file, "--grid", "0:5:6", "--max-len", "4",
             "--max-rep", "2"],
            capsys,
        )
        payload = json.loads(out)
        assert payload["summary"]["max_reference_deviation"] < 1e-8


class TestClassical:
    def test_sharp_gap(self, k4_file, capsys):
        code, out, _ = run_cli(["classical", "--graph", k4_file, "--sharp"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["second_modulus"] == pytest.approx(0.70711, abs=1e-5)
        assert payload["spectrum_formula_defect"] < 1e-8

    def test_flat_map_report(self, p2_file, capsys):
        code, out, _ = run_cli(
            ["classical", "--graph", p2_file, "--lambda", "0.5", "--mu", "0.9"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["non_mixing"] is True
        # det(I - mu M) for the swap map: 1 - mu^2
        assert payload["secular_at_mu"]["re"] == pytest.approx(1.0 - 0.81)

    def test_sharp_needs_degree_above_two(self, tmp_path, capsys):
        tri = tmp_path / "c3.txt"
        tri.write_text("0 1\n1 2\n0 2\n")
        code, _, err = run_cli(["classical", "--graph", str(tri), "--sharp"], capsys)
        assert code == 1

    def test_failed_bistochastic_check_exits_2(self, p2_file, capsys, monkeypatch):
        # a tolerance below zero fails the check here only
        monkeypatch.setattr(classical, "BISTOCHASTIC_TOL", -1.0)
        code, out, err = run_cli(["classical", "--graph", p2_file, "--lambda", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert "check failed: bi-stochasticity" in err


class TestGeneralized:
    """--generalized reaches the weighted operators on every command that reads it."""

    def test_spectrum_scan(self, c3w_file, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--graph", c3w_file, "--scan", "--generalized"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "generalized"
        c = make_c3_weighted().weighted_adjacency_matrix()
        expected = np.linalg.eigvalsh(np.diag(c.sum(axis=1)) - c)
        np.testing.assert_allclose(payload["eigenvalues"], expected, atol=1e-12)
        assert payload["max_pairwise_deviation"] < 1e-7

    def test_classical_weighted_map(self, c3w_file, capsys):
        code, out, _ = run_cli(
            ["classical", "--graph", c3w_file, "--lambda", "0.5", "--generalized"], capsys
        )
        assert code == 0
        spectrum = [complex(v["re"], v["im"]) for v in json.loads(out)["spectrum"]]
        g = make_c3_weighted()
        weighted = mixing_gap(transition_matrix(g, 0.5, "generalized")).eigenvalues
        standard = mixing_gap(transition_matrix(g, 0.5)).eigenvalues
        np.testing.assert_array_equal(spectrum, weighted)
        assert multiset_defect(spectrum, standard) > 0.1

    def test_sharp_takes_standard_kind_only(self, tmp_path, capsys):
        k4w = tmp_path / "k4w.json"
        k4w.write_text(graph_to_json(build_graph(4, make_k4().edges, weights=(2.0,) * 6)))
        code, _, _ = run_cli(["classical", "--graph", str(k4w), "--sharp"], capsys)
        assert code == 0
        code, out, err = run_cli(
            ["classical", "--graph", str(k4w), "--sharp", "--generalized"], capsys
        )
        assert code == 1
        assert out == "" and "--sharp" in err


# Every option each subcommand takes besides --help.
SUBCOMMAND_OPTIONS = {
    "spectrum": {"--graph", "--out", "--generalized", "--scan"},
    "verify": {"--graph", "--out", "--generalized", "--seed", "--inject-fault"},
    "orbits": {"--graph", "--out", "--max-len", "--no-backtrack", "--max-orbits", "--list"},
    "zeta": {"--graph", "--out", "--generalized", "--lambda", "--truncation"},
    "ihara": {"--graph", "--out", "--u", "--truncation", "--counts-from-det"},
    "stark": {"--graph", "--out", "--seed", "--scale", "--truncation"},
    "trace": {"--graph", "--out", "--generalized", "--format", "--epsilon", "--grid",
              "--max-len", "--max-rep"},
    "classical": {"--graph", "--out", "--generalized", "--lambda", "--sharp", "--mu"},
}


class TestOptionTable:
    def test_each_subcommand_takes_what_it_reads(self):
        sub = next(a for a in make_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {
            name: {opt for action in p._actions for opt in action.option_strings}
            - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert found == SUBCOMMAND_OPTIONS

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--seed", "3"],
        ["orbits", "--max-len", "3", "--generalized"],
        ["ihara", "--u", "0.1", "--format", "csv"],
    ])
    def test_flag_no_command_reads_is_rejected(self, argv, k4_file, capsys):
        code, out, err = run_cli(argv[:1] + ["--graph", k4_file] + argv[1:], capsys)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err


class TestOutputConventions:
    def test_floats_have_17_significant_digits(self, p2_file, capsys):
        _, out, _ = run_cli(["spectrum", "--graph", p2_file, "--scan"], capsys)
        # a float that needs all digits round-trips through the report
        payload = json.loads(out)
        for z in payload["secular_zeros"]:
            assert z["lam"] == float(repr(z["lam"]))

    def test_out_file(self, p2_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["spectrum", "--graph", p2_file, "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["eigenvalues"]

    def test_complex_encoding(self, p2_file, capsys):
        _, out, _ = run_cli(["zeta", "--graph", p2_file, "--lambda", "2,-1"], capsys)
        payload = json.loads(out)
        assert set(payload["lambda"]) == {"re", "im"}
        assert payload["lambda"]["im"] == -1.0

    def test_pole_lambda_rejected(self, p2_file, capsys):
        # v(1 - i) = 1 - i zeroes the per-vertex denominator for P2
        code, _, err = run_cli(["zeta", "--graph", p2_file, "--lambda", "1,-1"], capsys)
        assert code == 1
        assert "pole" in err


# Runs in a fresh interpreter: imports the package, then a `verify` (the only
# path to `multiset_defect`) and a zero scan, and lists what scipy loaded.
NO_SCIPY_SCRIPT = """
import sys
import graphscatter
from graphscatter import cli
k4, petersen, out = sys.argv[1:]
assert cli.main(["verify", "--graph", k4, "--out", out]) == 0
assert cli.main(["spectrum", "--scan", "--graph", petersen, "--out", out]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_commands_load_no_scipy(tmp_path):
    k4 = tmp_path / "k4.json"
    k4.write_text(K4_JSON)
    petersen = tmp_path / "petersen.json"
    petersen.write_text(graph_to_json(make_petersen()))
    src = str(Path(graphscatter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(k4), str(petersen), str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

"""Command-line interface: commands, formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from graphscatter.cli import main, parse_complex, parse_grid
from graphscatter.graph import graph_to_json
from conftest import make_k4, make_p2, make_petersen

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

    def test_missing_graph_flag(self, capsys):
        code, _, err = run_cli(["spectrum"], capsys)
        assert code == 1
        assert "error" in err


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

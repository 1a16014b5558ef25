import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wtd import cli, decomp, scheme, secrecy
from wtd.errors import NumericalFailure

GOLDEN_H_B = [[[1.0, 0.5], [-0.25, 1.0]], [[0.5, -0.75], [1.25, 0.0]]]
GOLDEN_H_E = [[[0.5, 0.25], [0.75, -0.5]], [[-0.25, 0.5], [0.25, 0.25]]]
# Library value cross-checked against a 2e5-sample dominance oracle over the
# order interval below the constraint (max sampled 2.19995, achieved exactly
# at the optimal covariance).
GOLDEN_CAPACITY = 2.2401900390805065


def write_problem(tmp_path, name="problem.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def run_cli(args):
    return cli.main(args)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def matrix(rows):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(rows)]


class TestProblemFile:
    def test_missing_h_b(self, tmp_path, capsys):
        path = write_problem(tmp_path, h_e=GOLDEN_H_E)
        assert run_cli(["capacity", "--input", path]) == 1
        assert "h_b" in capsys.readouterr().err

    def test_bad_kbar(self, tmp_path, capsys):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E,
                             kbar=matrix(np.diag([1.0, -1.0])))
        assert run_cli(["capacity", "--input", path]) == 1
        assert "kbar" in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=matrix(np.zeros((2, 3))))
        assert run_cli(["capacity", "--input", path]) == 1
        assert "h_e" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["capacity", "--input", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("field, fields", [
        ("h_b", {"h_b": [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}),
        ("power", {"power": True}),
        ("t", {"t": [True, 1.0]}),
        ("samples", {"samples": True}),
        ("seed", {"seed": False}),
    ])
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, field, fields):
        path = write_problem(tmp_path, **{"h_b": GOLDEN_H_B, "h_e": GOLDEN_H_E, **fields})
        assert run_cli(["capacity", "--input", path]) == 1
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, args", [
        ("seed", ["simulate", "--scheme", "sic", "--seed", "-1"]),
        ("seed", ["capacity", "--power", "2", "--seed", "-1"]),
        ("samples", ["simulate", "--scheme", "sic", "--samples", "0"]),
        ("samples", ["simulate", "--scheme", "wiretap", "--samples", "-5"]),
    ])
    def test_bad_count_flag(self, tmp_path, capsys, field, args):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E)
        assert run_cli(args + ["--input", path]) == 1
        assert field in capsys.readouterr().err


    @pytest.mark.parametrize("power", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_power_field(self, tmp_path, capsys, power):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E, power=power)
        assert run_cli(["capacity", "--input", path]) == 1
        assert "field 'power'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_bad_power_flag(self, tmp_path, capsys, value):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E, power=2.0)
        assert run_cli(["capacity", "--input", path, "--power", value]) == 1
        assert "flag '--power'" in capsys.readouterr().err


    @pytest.mark.parametrize("field, value", [
        ("h_b", [[[float("inf"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        ("h_e", [[[1.0, 0.0], [0.0, float("nan")]], [[0.0, 0.0], [1.0, 0.0]]]),
        ("kbar", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("-inf"), 0.0]]]),
        ("t", [1.0, float("inf")]),
        ("t", [float("nan"), 1.0]),
    ])
    @pytest.mark.parametrize("command", [["decompose", "--kind", "qr"], ["capacity"]])
    def test_non_finite_entry(self, tmp_path, capsys, field, value, command):
        path = write_problem(tmp_path, **{"h_b": GOLDEN_H_B, "h_e": GOLDEN_H_E,
                                          field: value})
        assert run_cli(command + ["--input", path]) == 1
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("h_b", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 10 ** 400], [1.0, 0.0]]]),
        ("power", 10 ** 400),
        ("t", [1.0, -10 ** 400]),
    ], ids=["h_b", "power", "t"])
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, field, value):
        path = write_problem(tmp_path, **{"h_b": GOLDEN_H_B, "h_e": GOLDEN_H_E,
                                          field: value})
        assert run_cli(["capacity", "--input", path]) == 1
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_budget_flag(self, tmp_path, capsys, value):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E, power=2.0)
        assert run_cli(["capacity", "--input", path, "--budget", value]) == 1
        assert "flag '--budget'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [cli.MAX_BUDGET + 1, 10 ** 12])
    def test_budget_above_maximum(self, tmp_path, capsys, monkeypatch, value):
        # Rejected before any power search starts.
        def never(*args, **kwargs):
            raise AssertionError("power search started")

        monkeypatch.setattr(cli.secrecy, "power_constrained_capacity", never)
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E)
        assert run_cli(["capacity", "--input", path, "--power", "2",
                        "--budget", str(value)]) == 1
        assert f"flag '--budget' must be at most {cli.MAX_BUDGET}" in capsys.readouterr().err

    def test_budget_at_maximum_accepted(self, tmp_path, monkeypatch):
        budgets = []

        def fake_search(h_b, h_e, power, budget, seed):
            budgets.append(budget)
            return secrecy.PowerSearchResult(capacity_lower_bound=0.0, kbar=np.eye(2),
                                             evaluations=budget)

        monkeypatch.setattr(cli.secrecy, "power_constrained_capacity", fake_search)
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E)
        assert run_cli(["capacity", "--input", path, "--power", "2",
                        "--budget", str(cli.MAX_BUDGET), "--out", str(tmp_path / "r.json")]) == 0
        assert budgets == [cli.MAX_BUDGET]

    @pytest.mark.parametrize("scheme_name", ["sic", "wiretap", "dpc", "broadcast"])
    @pytest.mark.parametrize("label, fields, flags", [
        ("field 'samples'", {"samples": 10 ** 400}, []),
        ("field 'samples'", {"samples": cli.MAX_SAMPLES + 1}, []),
        ("flag '--samples'", {}, ["--samples", str(10 ** 400)]),
        ("flag '--samples'", {}, ["--samples", str(cli.MAX_SAMPLES + 1)]),
    ], ids=["field-huge", "field-max+1", "flag-huge", "flag-max+1"])
    def test_samples_above_maximum(self, tmp_path, capsys, monkeypatch, scheme_name,
                                   label, fields, flags):
        # Rejected before any plan is built or simulation started.
        def never(*args, **kwargs):
            raise AssertionError("simulation started")

        for name in ("simulate_sic", "simulate_leakage", "simulate_dpc",
                     "simulate_broadcast", "build_sic_plan", "build_wiretap_plan",
                     "build_dpc_plan", "build_broadcast_plan"):
            monkeypatch.setattr(cli.scheme, name, never)
        path = write_problem(tmp_path, **{"h_b": GOLDEN_H_B, "h_e": GOLDEN_H_E,
                                          "h_c": GOLDEN_H_E, **fields})
        assert run_cli(["simulate", "--input", path, "--scheme", scheme_name] + flags) == 1
        err = capsys.readouterr().err
        assert f"{label} must be at most {cli.MAX_SAMPLES}" in err

    def test_samples_at_maximum_accepted(self, tmp_path):
        problem = cli.load_problem(write_problem(tmp_path, h_b=GOLDEN_H_B,
                                                 samples=cli.MAX_SAMPLES))
        assert problem["samples"] == cli.MAX_SAMPLES

    def test_too_few_leakage_samples(self, tmp_path, capsys):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E, samples=100)
        assert run_cli(["simulate", "--input", path, "--scheme", "wiretap"]) == 1
        assert "'samples'" in capsys.readouterr().err


class TestDecompose:
    def test_gmd_constant_diagonal(self, tmp_path):
        path = write_problem(tmp_path, h_b=matrix(np.diag([4.0, 1.0])))
        out = str(tmp_path / "report.json")
        assert run_cli(["decompose", "--input", path, "--kind", "gmd",
                        "--out", out]) == 0
        report = read_report(out)
        assert np.allclose(report["diagonal"], [2.0, 2.0], rtol=1e-9)
        assert report["reconstruction_residual"] <= 1e-9

    @pytest.mark.parametrize("kind", ["gmd", "gtd"])
    def test_gmd_gtd_reconstruct(self, tmp_path, kind):
        rng = np.random.default_rng(31)
        for rows, cols in [(4, 4), (6, 4), (8, 8)]:
            h = (rng.standard_normal((rows, cols))
                 + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
            sigma = np.linalg.svd(h, compute_uv=False)
            # The singular values in reverse order are always a feasible target.
            path = write_problem(tmp_path, h_b=matrix(h), t=list(sigma[::-1]))
            out = str(tmp_path / "report.json")
            assert run_cli(["decompose", "--input", path, "--kind", kind, "--out", out]) == 0
            report = read_report(out)
            assert report["reconstruction_residual"] <= decomp.RECONSTRUCTION_RTOL
            want = sigma[::-1] if kind == "gtd" else np.exp(np.mean(np.log(sigma)))
            assert np.allclose(report["diagonal"], want, rtol=1e-9)

    def test_gtd_infeasible_exit_code(self, tmp_path, capsys):
        path = write_problem(tmp_path, h_b=matrix(np.diag([4.0, 1.0])),
                             t=[8.0, 0.5])
        assert run_cli(["decompose", "--input", path, "--kind", "gtd"]) == 2
        err = capsys.readouterr().err
        assert "prefix length 1" in err and err.count("prefix") == 1
        path = write_problem(tmp_path, h_b=matrix(np.eye(2)), t=[0.5, 2.0])
        assert run_cli(["decompose", "--input", path, "--kind", "gtd"]) == 2
        assert capsys.readouterr().err == (
            "infeasible: singular values do not majorize the target diagonal "
            "(first violating prefix length 1)\n")

    def test_gtd_requires_target(self, tmp_path, capsys):
        path = write_problem(tmp_path, h_b=matrix(np.diag([4.0, 1.0])))
        assert run_cli(["decompose", "--input", path, "--kind", "gtd"]) == 1
        assert "'t'" in capsys.readouterr().err

    def test_gsvd_normalization(self, tmp_path):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E)
        out = str(tmp_path / "report.json")
        assert run_cli(["decompose", "--input", path, "--kind", "gsvd",
                        "--out", out]) == 0
        report = read_report(out)
        assert report["normalization_residual"] <= 1e-9
        assert report["reconstruction_residual"] <= 1e-9
        ratios = np.asarray(report["diag_ratios"])
        assert np.allclose(ratios, report["gsv"], rtol=1e-8)

    def test_gsvd_report_runs_the_kernel_once(self, tmp_path, monkeypatch):
        calls = []
        kernel = decomp._gsvd_kernel

        def counting(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(decomp, "_gsvd_kernel", counting)
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E)
        out = str(tmp_path / "report.json")
        assert run_cli(["decompose", "--input", path, "--kind", "gsvd", "--out", out]) == 0
        assert len(calls) == 1

    def test_gsvd_rank_deficient_first_matrix(self, tmp_path, capsys):
        h_b = np.array([[1.0, 1.0], [0.5, 0.5], [-0.25, -0.25]])
        path = write_problem(tmp_path, h_b=matrix(h_b), h_e=GOLDEN_H_E)
        assert run_cli(["decompose", "--input", path, "--kind", "gsvd"]) == 1
        assert "first matrix of the pair is rank deficient" in capsys.readouterr().err

    def test_qr_ql_svd_kinds(self, tmp_path):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B)
        for kind in ("qr", "ql", "svd"):
            out = str(tmp_path / f"{kind}.json")
            assert run_cli(["decompose", "--input", path, "--kind", kind,
                            "--out", out]) == 0
            assert read_report(out)["reconstruction_residual"] <= 1e-9


def test_front_end_names_no_private_library_attribute():
    # The CLI reads the library through its public API: no ``decomp._x`` and
    # no ``from .decomp import _x``.
    modules = ("decomp", "secrecy", "scheme")
    private = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert private == []


class TestCapacity:
    def test_equal_channels(self, tmp_path):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_B)
        out = str(tmp_path / "report.json")
        assert run_cli(["capacity", "--input", path, "--out", out]) == 0
        assert read_report(out)["capacity_bits"] <= 1e-9

    def test_scalar(self, tmp_path):
        path = write_problem(tmp_path, h_b=matrix([[2.0]]), h_e=matrix([[1.0]]))
        out = str(tmp_path / "report.json")
        assert run_cli(["capacity", "--input", path, "--out", out]) == 0
        assert np.isclose(read_report(out)["capacity_bits"], np.log2(2.5), atol=1e-9)

    def test_golden_fixture(self, tmp_path):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E,
                             kbar="identity")
        out = str(tmp_path / "report.json")
        assert run_cli(["capacity", "--input", path, "--out", out]) == 0
        report = read_report(out)
        assert np.isclose(report["capacity_bits"], GOLDEN_CAPACITY, atol=1e-9)
        assert report["lb"] == 1
        assert len(report["streams"]) == 2

    def test_power_search_included(self, tmp_path):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E, power=2.0)
        out = str(tmp_path / "report.json")
        assert run_cli(["capacity", "--input", path, "--out", out,
                        "--budget", "60"]) == 0
        search = read_report(out)["power_search"]
        assert search["budget"] == 60
        assert search["capacity_lower_bound"] > 0


    @pytest.mark.parametrize("power", ["1e8", "1e12"])
    def test_large_power_search(self, tmp_path, capsys, power):
        # The PSD clamp scales with the candidate's largest eigenvalue, so
        # rounding of a large-power candidate no longer fails the search.
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E)
        out = str(tmp_path / "report.json")
        assert run_cli(["capacity", "--input", path, "--out", out,
                        "--power", power, "--budget", "200"]) == 0, capsys.readouterr().err
        search = read_report(out)["power_search"]
        assert search["power"] == float(power)
        assert np.isfinite(search["capacity_lower_bound"])
        assert search["capacity_lower_bound"] >= GOLDEN_CAPACITY

    @pytest.mark.parametrize("power", ["1.5e308", "1.7e308"])
    def test_power_past_the_search_range_is_named(self, tmp_path, capsys, power):
        # The search's factors overflow a double: one error line that names the
        # power, and no warning.
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E, kbar="identity")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["capacity", "--input", path, "--power", power]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: total power is out of range")

    def test_strong_eavesdropper_of_wide_range(self, tmp_path, capsys):
        # ``[h_e b; I]`` has singular values >= 1: a gain of 1e13 is no rank
        # deficiency, so the capacity is 0, not an error.
        path = write_problem(tmp_path, h_b=matrix(0.5 * np.eye(2)),
                             h_e=matrix(np.diag([1e13, 1.0])), kbar="identity")
        out = str(tmp_path / "report.json")
        assert run_cli(["capacity", "--input", path, "--out", out]) == 0, capsys.readouterr().err
        assert read_report(out)["capacity_bits"] == 0.0


class TestRegion:
    def test_dead_second_user(self, tmp_path):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_c=matrix(np.zeros((2, 2))))
        out = str(tmp_path / "report.json")
        assert run_cli(["region", "--input", path, "--out", out]) == 0
        report = read_report(out)
        from wtd import secrecy
        h_b = np.array([[1.0 + 0.5j, -0.25 + 1.0j], [0.5 - 0.75j, 1.25 + 0.0j]])
        assert np.isclose(report["rb_max"], secrecy.gaussian_mi(h_b, np.eye(2)),
                          atol=1e-9)
        assert report["rc_max"] <= 1e-9

    def test_swap_symmetry(self, tmp_path):
        fwd = write_problem(tmp_path, "fwd.json", h_b=GOLDEN_H_B, h_c=GOLDEN_H_E)
        bwd = write_problem(tmp_path, "bwd.json", h_b=GOLDEN_H_E, h_c=GOLDEN_H_B)
        out_f = str(tmp_path / "f.json")
        out_b = str(tmp_path / "b.json")
        assert run_cli(["region", "--input", fwd, "--out", out_f]) == 0
        assert run_cli(["region", "--input", bwd, "--out", out_b]) == 0
        rf, rb = read_report(out_f), read_report(out_b)
        assert np.isclose(rf["rb_max"], rb["rc_max"], atol=1e-9)
        assert np.isclose(rf["rc_max"], rb["rb_max"], atol=1e-9)


class TestSimulate:
    def test_sic_dead_channel(self, tmp_path):
        path = write_problem(tmp_path, h_b=matrix(np.zeros((2, 2))),
                             samples=2000, seed=1)
        out = str(tmp_path / "report.json")
        assert run_cli(["simulate", "--input", path, "--scheme", "sic",
                        "--out", out]) == 0
        sim = read_report(out)["simulations"]["sic"]
        assert max(sim["sinr_empirical"]) <= 1e-6

    def test_wiretap_report_deterministic(self, tmp_path):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E,
                             mode="svd_eve", samples=100000, seed=17)
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            code = subprocess.run(
                [sys.executable, "-m", "wtd", "simulate", "--input", path,
                 "--scheme", "wiretap", "--out", out],
                capture_output=True).returncode
            assert code == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]
        leakage = json.loads(outs[0])["simulations"]["leakage"]
        assert {"leakage_bits", "leakage_expected", "leakage_stderr"} <= set(leakage)
        assert "leakage_rel_error" not in leakage

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_report_does_not_depend_on_usable_cpus(self, tmp_path):
        # 100,000 samples make 7 chunks.  With one BLAS thread, one thread
        # takes them all when the child may run on one CPU, one per usable
        # CPU otherwise.
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E,
                             samples=100000, seed=4)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        one_cpu = min(os.sched_getaffinity(0))
        outs = [subprocess.run([sys.executable, "-m", "wtd", "simulate", "--input", path,
                                "--scheme", "wiretap"], capture_output=True, check=True,
                               env=env, preexec_fn=pin).stdout
                for pin in (lambda: os.sched_setaffinity(0, {one_cpu}), None)]
        assert outs[0] == outs[1] and b"leakage_bits" in outs[0]

    def test_dpc_has_alpha_column(self, tmp_path):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E,
                             samples=50000, seed=2)
        out = str(tmp_path / "report.json")
        csv = str(tmp_path / "streams.csv")
        assert run_cli(["simulate", "--input", path, "--scheme", "dpc",
                        "--out", out, "--csv", csv]) == 0
        report = read_report(out)
        assert all("alpha" in row for row in report["streams"])
        assert report["simulations"]["dpc"]["alpha_bracket_ok"]
        header = open(csv).readline().strip().split(",")
        assert "alpha" in header

    def test_broadcast(self, tmp_path):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_c=GOLDEN_H_E,
                             samples=40000, seed=3)
        out = str(tmp_path / "report.json")
        assert run_cli(["simulate", "--input", path, "--scheme", "broadcast",
                        "--out", out]) == 0
        report = read_report(out)
        from wtd import secrecy
        h_b = np.array([[1.0 + 0.5j, -0.25 + 1.0j], [0.5 - 0.75j, 1.25 + 0.0j]])
        h_c = np.array([[0.5 + 0.25j, 0.75 - 0.5j], [-0.25 + 0.5j, 0.25 + 0.25j]])
        region = secrecy.broadcast_region(h_b, h_c, np.eye(2))
        assert np.isclose(report["bob_total_bits"], region.rb_max, atol=1e-8)
        assert np.isclose(report["charlie_total_bits"], region.rc_max, atol=1e-8)

    def test_band_failure_exit_code(self, tmp_path, capsys):
        # At 150 samples, seed 143 is a genuine ~3.1-sigma outlier for this
        # fixture's first stream, so the band check must fail.
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E,
                             samples=150, seed=143)
        out = str(tmp_path / "report.json")
        assert run_cli(["simulate", "--input", path, "--scheme", "sic",
                        "--out", out]) == 3
        report = read_report(out)
        assert report["within_bands"] is False

    def test_wiretap_leakage_of_wide_range(self, tmp_path, capsys):
        # The unit-variance coordinates beside an eavesdropper gain of 1e8
        # carry information, so the leakage estimate keeps them.
        path = write_problem(tmp_path, h_b=matrix(np.diag([1e9, 2.0])),
                             h_e=matrix(np.diag([1e8, 1.0])), kbar="identity",
                             samples=100000, seed=1)
        out = str(tmp_path / "report.json")
        assert run_cli(["simulate", "--input", path, "--scheme", "wiretap",
                        "--out", out]) == 0, capsys.readouterr().err
        leakage = read_report(out)["simulations"]["leakage"]
        assert np.allclose(leakage["leakage_bits"], [53.15, 1.0], atol=0.05)

    def test_one_root_per_path(self, tmp_path, monkeypatch):
        # Every root, ``matrix_sqrt``'s and the kept problem's, goes through ``_root``.
        roots = []
        root = secrecy._root

        def counting(k):
            roots.append(np.array(k))
            return root(k)

        monkeypatch.setattr(secrecy, "_root", counting)
        # The sic path roots kbar twice: the input check and the plan.
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E, samples=2000)
        out = str(tmp_path / "report.json")
        assert run_cli(["simulate", "--input", path, "--scheme", "sic", "--out", out]) == 0
        assert len(roots) == 2
        assert all(np.array_equal(k, np.eye(2)) for k in roots)
        # A wiretap plan roots only the constraint: it builds on the factor of
        # the optimal covariance that the capacity call forms.
        h_b = np.array(GOLDEN_H_B) @ [1.0, 1j]
        h_e = np.array(GOLDEN_H_E) @ [1.0, 1j]
        secrecy.channel_gsv(h_b, h_e, 2.0 * np.eye(2))
        roots.clear()
        scheme.build_wiretap_plan(h_b, h_e, np.eye(2), "gsvd")
        assert len(roots) == 1 and np.array_equal(roots[0], np.eye(2))
        # Every later call on the same problem reads the root of the memo.
        scheme.build_dpc_plan(h_b, h_e, np.eye(2))
        scheme.build_broadcast_plan(h_b, h_e, np.eye(2))
        secrecy.broadcast_region(h_b, h_e, np.eye(2))
        assert len(roots) == 1

    def test_cli_flags_override_problem(self, tmp_path):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_e=GOLDEN_H_E,
                             samples=100, seed=0)
        out = str(tmp_path / "report.json")
        assert run_cli(["simulate", "--input", path, "--scheme", "wiretap",
                        "--samples", "9000", "--seed", "5", "--out", out]) == 0
        sim = read_report(out)["simulations"]["sic"]
        assert sim["samples"] == 9000
        assert sim["seed"] == 5


class TestStreamTables:
    """Every report's ``streams`` rows carry exactly their command's columns."""

    COLUMNS = {
        ("capacity",): {"gsv", "rate_bits"},
        ("simulate", "--scheme", "sic"): {"b", "sinr", "rate_bits"},
        ("simulate", "--scheme", "wiretap"): {
            "b", "e", "mu", "sinr", "secret_rate_bits", "fictitious_rate_bits"},
        ("simulate", "--scheme", "dpc"): {"b", "e", "alpha", "rate_bits", "rate_u_bits"},
        ("simulate", "--scheme", "broadcast"): {"user", "b", "c", "rate_bits"},
    }

    @pytest.mark.parametrize("args", sorted(COLUMNS), ids=lambda args: args[-1])
    def test_columns(self, tmp_path, args):
        other = "h_c" if "broadcast" in args else "h_e"
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, **{other: GOLDEN_H_E}, samples=2000)
        out = str(tmp_path / "report.json")
        assert run_cli([*args, "--input", path, "--out", out]) == 0
        rows = read_report(out)["streams"]
        assert [row["index"] for row in rows] == [0, 1]
        for row in rows:
            assert set(row) == {"index"} | self.COLUMNS[args]
            assert all(type(v) is float for k, v in row.items() if k not in ("index", "user"))

    def test_broadcast_users_in_order(self, tmp_path):
        # Parallel links: the first two streams favour bob, the third charlie.
        path = write_problem(tmp_path, h_b=matrix(np.diag([3.0, 2.0, 0.1])),
                             h_c=matrix(np.diag([0.1, 0.2, 2.0])), samples=2000)
        out = str(tmp_path / "report.json")
        assert run_cli(["simulate", "--scheme", "broadcast", "--input", path,
                        "--out", out]) == 0
        report = read_report(out)
        rows = report["streams"]
        assert [row["user"] for row in rows] == ["bob", "bob", "charlie"]
        assert [row["index"] for row in rows] == [0, 1, 2]
        assert np.isclose(sum(row["rate_bits"] for row in rows[:2]),
                          report["bob_total_bits"], rtol=1e-12)
        assert np.isclose(rows[2]["rate_bits"], report["charlie_total_bits"], rtol=1e-12)


# --------------------------------------------------------------- input boundary gate

# Valid for every command; ``t`` ends in the product of the singular values of
# GOLDEN_H_B, so ``gtd`` is feasible.
GOLDEN_PROBLEM = {"h_b": GOLDEN_H_B, "h_e": GOLDEN_H_E, "kbar": "identity", "power": 2.0,
                  "t": [1.0, 0.6281172263200553], "mode": "gsvd", "samples": 2000, "seed": 1}
COMMANDS = [["capacity"], ["region"], ["decompose", "--kind", "gtd"],
            ["decompose", "--kind", "gsvd"]] + [
    ["simulate", "--scheme", s] for s in ("sic", "wiretap", "dpc", "broadcast")]
# Each flag with the subcommands that take it.
FLAG_COMMANDS = {
    "samples": [c for c in COMMANDS if c[0] == "simulate"],
    "mode": [c for c in COMMANDS if c[0] == "simulate"],
    "seed": [["capacity"]] + [c for c in COMMANDS if c[0] == "simulate"],
    "power": [["capacity"]],
    "budget": [["capacity"]],
}

_NAN_INF = [float("nan"), float("inf"), -float("inf")]
_NON_FINITE = _NAN_INF + [10 ** 400]
_WRONG_TYPE = [None, True, False, "2", [], {}, [2], {"re": 1.0}]
# Flag text with no digits: never an integer, and as a float only NaN or +-inf.
_WORDS = st.text(alphabet="abcinfINFytxz _-.", max_size=8)


def _bad_matrix():
    """A malformed complex 2x2 matrix: wrong type, one bad entry, or ragged rows."""
    def with_bad_entry(case):
        i, j, pair = case
        rows = [[[1.0, 0.0]] * 2 for _ in range(2)]
        rows[i] = rows[i][:j] + [pair] + rows[i][j + 1:]
        return rows

    bad_pairs = [[x, 0.0] for x in _NON_FINITE] + [[True, 0.0], [1.0], [1.0, 2.0, 3.0], "1", None]
    ragged = [[[1.0, 0.0]] * 2, [[1.0, 0.0]] * 3]
    return st.one_of(
        st.sampled_from(_WRONG_TYPE + [[[]], [[1.0, 0.0]], ragged]),
        st.tuples(st.integers(0, 1), st.integers(0, 1),
                  st.sampled_from(bad_pairs)).map(with_bad_entry))


def _bad_count(minimum, maximum=None):
    # Without a maximum (the seed) any large integer is valid.
    above = [] if maximum is None else [st.integers(maximum + 1, 10 ** 20), st.just(10 ** 400)]
    return st.one_of(st.sampled_from(_WRONG_TYPE + _NAN_INF + [1.5, 100.0]),
                     st.integers(max_value=minimum - 1), *above)


def _bad_count_text(minimum, maximum=None):
    above = [] if maximum is None else [st.integers(maximum + 1, 10 ** 400).map(str)]
    return st.one_of(_WORDS, st.floats().map(repr),
                     st.integers(max_value=minimum - 1).map(str), *above)


_BAD_MODES = st.one_of(st.sampled_from(["zf", "GSVD", "", "1"]),
                       _WORDS.filter(lambda m: m not in cli.scheme.PRECODER_MODES))

FIELD_VALUES = {
    "h_b": _bad_matrix(),
    # 'h_b' has two columns, so any other count is the wrong shape.
    "h_e": st.one_of(_bad_matrix(), st.sampled_from([matrix(np.ones((2, 3))),
                                                     matrix(np.ones((2, 1)))])),
    # Next to the golden 'h_e', any matrix, valid or not, is a bad 'h_c'.
    "h_c": st.one_of(_bad_matrix(), st.sampled_from([GOLDEN_H_E, GOLDEN_H_B,
                                                     matrix(np.ones((2, 3)))])),
    "kbar": st.one_of(_bad_matrix(), st.sampled_from([
        "eye", "", 1.0, True,
        matrix(np.diag([1.0, -1.0])),                   # not PSD
        matrix(np.array([[1.0, 1.0], [0.0, 1.0]])),     # not Hermitian
        matrix(np.eye(3)), matrix(np.eye(1)), matrix(np.ones((2, 3)))])),
    # A null power means no power search, so None is not malformed here.
    "power": st.one_of(st.sampled_from([v for v in _WRONG_TYPE if v is not None]
                                       + _NON_FINITE + [0, 0.0, -1.0]),
                       st.floats(max_value=0.0)),
    "t": st.one_of(st.sampled_from(_WRONG_TYPE),
                   st.lists(st.floats(0.5, 4.0), max_size=5).filter(lambda t: len(t) != 2),
                   st.tuples(st.integers(0, 1),
                             st.sampled_from(_NON_FINITE + [0.0, -1.0, True, "1", None]))
                   .map(lambda case: [case[1] if i == case[0] else 1.0 for i in range(2)])),
    "mode": st.one_of(st.sampled_from(_WRONG_TYPE), _BAD_MODES),
    "samples": _bad_count(1, cli.MAX_SAMPLES),
    "seed": _bad_count(0),
}
FLAG_VALUES = {
    "samples": _bad_count_text(1, cli.MAX_SAMPLES),
    "seed": _bad_count_text(0),
    "budget": _bad_count_text(1, cli.MAX_BUDGET),
    "power": st.one_of(_WORDS, st.floats(max_value=0.0).map(repr),
                       st.sampled_from(["1e400", "-1e400", str(10 ** 400), "Infinity"])),
    "mode": _BAD_MODES,
}


def _field_case(name):
    return st.tuples(FIELD_VALUES[name], st.sampled_from(COMMANDS)).map(
        lambda case: (f"field '{name}'", {name: case[0]}, case[1]))


def _flag_case(name):
    # ``--flag=value`` keeps text that starts with '-' a value.
    return st.tuples(FLAG_VALUES[name], st.sampled_from(FLAG_COMMANDS[name])).map(
        lambda case: (f"flag '--{name}'", {}, case[1] + [f"--{name}={case[0]}"]))


BAD_INPUTS = st.one_of(st.sampled_from(sorted(FIELD_VALUES)).flatmap(_field_case),
                       st.sampled_from(sorted(FLAG_VALUES)).flatmap(_flag_case))


class TestInputBoundary:
    @settings(derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=BAD_INPUTS)
    def test_one_bad_input_exits_1_naming_it(self, tmp_path, capsys, monkeypatch, case):
        def never(*args, **kwargs):
            raise AssertionError("a run started on a malformed input")

        for name in ("simulate_sic", "simulate_leakage", "simulate_dpc",
                     "simulate_broadcast", "build_sic_plan", "build_wiretap_plan",
                     "build_dpc_plan", "build_broadcast_plan"):
            monkeypatch.setattr(cli.scheme, name, never)
        monkeypatch.setattr(cli.secrecy, "power_constrained_capacity", never)
        label, fields, argv = case
        path = write_problem(tmp_path, **{**GOLDEN_PROBLEM, **fields})
        capsys.readouterr()
        assert run_cli(argv + ["--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and label in err, (case, err)

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--scheme", "foo"], "--scheme"),
        (["simulate"], "--scheme"),
        (["decompose", "--kind", "lu"], "--kind"),
        (["decompose"], "--kind"),
        (["capacity", "--budget"], "--budget"),
    ] + [([*command, flag, "1"], flag) for command, flags in [
        (["decompose", "--kind", "qr"], ["--samples", "--seed", "--mode", "--csv", "--power"]),
        (["region"], ["--samples", "--seed", "--mode", "--csv", "--budget"]),
        (["capacity"], ["--samples", "--mode", "--scheme", "--kind"]),
        (["simulate", "--scheme", "sic"], ["--power", "--budget", "--kind"]),
    ] for flag in flags])
    def test_parser_error_exits_1_naming_the_flag(self, tmp_path, capsys, argv, flag):
        path = write_problem(tmp_path, **GOLDEN_PROBLEM)
        assert run_cli(argv + ["--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_h_e_and_h_c_together_rejected(self, tmp_path, capsys, command):
        # Both name the second receiver, so neither may silently win.
        path = write_problem(tmp_path, **GOLDEN_PROBLEM, h_c=GOLDEN_H_E)
        assert run_cli(command + ["--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "field 'h_e'" in err and "field 'h_c'" in err

    @pytest.mark.parametrize("kind", ["qr", "ql", "svd", "gmd", "gtd", "gsvd"])
    def test_wide_h_b_under_decompose_names_it(self, tmp_path, capsys, kind):
        path = write_problem(tmp_path, h_b=matrix(np.ones((2, 3))), h_e=matrix(np.eye(3)),
                             t=[1.0, 1.0, 1.0])
        assert run_cli(["decompose", "--kind", kind, "--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "field 'h_b'" in err

    @pytest.mark.parametrize("other", ["h_e", "h_c"])
    def test_wide_second_matrix_under_gsvd_names_it(self, tmp_path, capsys, other):
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, **{other: matrix(np.ones((1, 2)))})
        assert run_cli(["decompose", "--kind", "gsvd", "--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"field '{other}'" in err

    def test_wide_h_b_accepted_outside_decompose(self, tmp_path):
        # Only the decompositions need a tall matrix.
        path = write_problem(tmp_path, **{**GOLDEN_PROBLEM, "h_b": matrix(np.ones((1, 2)))})
        for command in [c for c in COMMANDS if c[0] != "decompose"]:
            out = str(tmp_path / "report.json")
            assert run_cli(command + ["--input", path, "--out", out]) in (0, 3), command

    def test_valid_golden_problem_runs(self, tmp_path):
        path = write_problem(tmp_path, **GOLDEN_PROBLEM)
        for command in COMMANDS:
            out = str(tmp_path / "report.json")
            assert run_cli(command + ["--input", path, "--out", out]) in (0, 3), command


def overflow_problem(tmp_path, v):
    # Finite entries; at 1.7e308 the norm of 'h_b' overflows.
    return write_problem(tmp_path, h_b=matrix([[v, v], [v, -v], [1.0, 2.0]]),
                         h_e=matrix([[1.0, 0.5], [0.25, 1.0]]), t=[1.0, 1.0])


#: A pair whose GSVD kernel returns its smallest GSV as exactly 0.
LOST_GSV_PAIR = {"h_b": matrix([[3.73783907e169, 3.88947911e168, -3.07600693e169]]),
                 "h_c": matrix([[-3.12195599e295, 1.50185864e295, -6.88618242e295]])}

#: A column whose Householder vector overflows a double, and the refusal that names it.
HOUSEHOLDER_OVERFLOW = {"h_b": matrix([[1e308], [1e308]])}
HOUSEHOLDER_RANGE = "matrix is out of range: a Householder vector of its QR overflows a double"

OVERFLOW_COMMANDS = (
    [["decompose", "--kind", k] for k in ("qr", "ql", "svd", "gmd", "gtd", "gsvd")]
    + [["capacity"], ["capacity", "--power", "2", "--budget", "120"], ["region"]]
    + [["simulate", "--scheme", s, "--mode", m] for s in ("sic", "wiretap", "dpc", "broadcast")
       for m in scheme.PRECODER_MODES])


class TestNumericalRange:
    @pytest.mark.parametrize("command", OVERFLOW_COMMANDS, ids=" ".join)
    def test_overflow_refused_with_one_error_line(self, tmp_path, capsys, command):
        path = overflow_problem(tmp_path, 1.7e308)
        out, csv = tmp_path / "report.json", tmp_path / "streams.csv"
        extra = ["--csv", str(csv)] if command[0] in ("capacity", "simulate") else []
        assert run_cli(command + ["--input", path, "--out", str(out)] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: field 'h_b' is out of range: its norm overflows a double\n"
        assert not out.exists() and not csv.exists()

    @pytest.mark.parametrize("field", ["h_b", "h_e", "h_c", "kbar"])
    def test_overflowing_norm_names_the_field(self, tmp_path, capsys, monkeypatch, field):
        # Each entry is finite, and the refusal comes before any computation.
        monkeypatch.setattr(cli.secrecy, "broadcast_region", None)
        fields = {"h_b": GOLDEN_H_B, "h_c" if field == "h_c" else "h_e": GOLDEN_H_E,
                  field: matrix(np.diag([1.7e308, 1.7e308]))}
        assert run_cli(["region", "--input", write_problem(tmp_path, **fields)]) == 1
        assert capsys.readouterr().err == (
            f"error: field '{field}' is out of range: its norm overflows a double\n")

    @pytest.mark.parametrize("other", ["h_e", "h_c"])
    def test_overflowing_product_with_kbar_root_names_both(self, tmp_path, capsys, other):
        # Both norms are finite, but the channel times the root of kbar (1e10) is not.
        big = matrix(1e300 * np.array([[1.0, 1.0], [1.0, -1.0]]))
        kbar = matrix(1e20 * np.eye(2))
        for name in ("h_b", other):
            fields = {"h_b": GOLDEN_H_B, other: GOLDEN_H_E, "kbar": kbar, name: big}
            assert run_cli(["region", "--input", write_problem(tmp_path, **fields)]) == 1
            assert capsys.readouterr().err == (
                f"error: field '{name}' times the root of field 'kbar' is out of range: "
                "its norm overflows a double\n")

    def test_largest_finite_norm_accepted(self, tmp_path):
        # A norm just inside the float range passes, though its squares overflow.
        path = write_problem(tmp_path, h_b=matrix(np.diag([1.2e308, 1.2e308])), h_e=GOLDEN_H_E)
        assert cli.load_problem(path)["h_b"][0, 0] == 1.2e308

    @pytest.mark.parametrize("command, fields, reason", [
        (["decompose", "--kind", "qr"], HOUSEHOLDER_OVERFLOW, HOUSEHOLDER_RANGE),
        (["simulate", "--scheme", "sic", "--mode", "svd_bob"],
         {"h_b": matrix([[1e300, 1e300], [1e300, -1e300], [1.0, 2.0]]),
          "h_e": matrix([[1.0, 0.5], [0.25, 1.0]])},
         "the report would hold a NaN or an infinity"),
        (["capacity"], {"h_b": GOLDEN_H_B, "h_e": GOLDEN_H_E}, "SVD did not converge"),
        (["region"], LOST_GSV_PAIR, "a channel-pair GSV is out of range: the kernel lost it to 0"),
        (["simulate", "--scheme", "broadcast"], LOST_GSV_PAIR,
         "a channel-pair GSV is out of range: the kernel lost it to 0"),
    ])
    def test_refusal_names_the_reason(self, tmp_path, capsys, monkeypatch, command, fields,
                                      reason):
        # A non-finite report, and a LinAlgError or DomainError of the library, take the
        # error route: a column of 1e308 overflows its Householder vector, entries of 1e300
        # the svd_bob SINRs, the kernel's LinAlgError is forced, and the region refuses a
        # GSV the kernel lost to 0.
        def no_convergence(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli.secrecy, "secrecy_capacity_cov", no_convergence)
        assert run_cli(command + ["--input", write_problem(tmp_path, **fields)]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"

    @pytest.mark.parametrize("kind, fields", [
        ("ql", HOUSEHOLDER_OVERFLOW),
        # The triangular GSVD's ``qr`` of ``h_e va`` overflows, not the diagonal form.
        ("gsvd", {"h_b": matrix(np.eye(3, 2)),
                  "h_e": matrix([[1.2e308, 0.0], [0.0, 1.2e308], [0.0, 0.0]])}),
    ])
    def test_householder_overflow_names_the_range(self, tmp_path, capsys, kind, fields):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["decompose", "--kind", kind,
                            "--input", write_problem(tmp_path, **fields)]) == 1
        assert capsys.readouterr().err == f"error: {HOUSEHOLDER_RANGE}\n"

    @pytest.mark.parametrize("kind", ["qr", "ql", "svd", "gmd"])
    def test_residual_of_huge_entries_does_not_overflow(self, tmp_path, capsys, kind):
        path = overflow_problem(tmp_path, 1e300)
        out = str(tmp_path / "report.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["decompose", "--kind", kind, "--input", path, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert read_report(out)["reconstruction_residual"] <= decomp.RECONSTRUCTION_RTOL

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    @pytest.mark.parametrize("kind", ["gmd", "gtd"])
    def test_gtd_schedule_far_from_unit_scale(self, tmp_path, capsys, kind, scale):
        # The squared singular values underflow or overflow a double, yet the GMD
        # and this GTD exist at every scale.
        h = np.array([[1.0 + 0.5j, -0.25 + 1.0j], [0.5 - 0.75j, 1.25], [0.25 + 0.25j, -0.5 + 0.5j]])
        g = np.sqrt(np.prod(np.linalg.svd(h, compute_uv=False)))
        want = [g, g] if kind == "gmd" else [1.1 * g, g / 1.1]
        path = write_problem(tmp_path, h_b=matrix(scale * h), t=[scale * v for v in want])
        out = str(tmp_path / "report.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["decompose", "--kind", kind, "--input", path, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        report = read_report(out)
        assert np.allclose(np.asarray(report["diagonal"]) / scale, want, rtol=1e-12)
        # The residual's norms are taken after an exact rescaling, so none underflows to 0.
        assert 0.0 < report["reconstruction_residual"] <= decomp.RECONSTRUCTION_RTOL

    def test_residual_is_scale_free(self):
        rng = np.random.default_rng(4)
        target = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        actual = target * (1.0 + 1e-15 * rng.standard_normal((3, 2)))
        want = cli._residual(actual, target)
        for exponent in (-900, -700, 700, 900):
            scale = 2.0 ** exponent
            assert cli._residual(actual * scale, target * scale) == want

    def test_overflowing_gsvd_right_factor_names_h_b(self, tmp_path, capsys):
        # The file loads, but the right factor ``x``, with ``x x' = h_b' h_b + h_e' h_e``, has
        # a norm of about 2e308 when both fields have entries of 1e308.
        big = matrix([[1e308, 0.0], [0.0, 1e308], [1.0, 2.0]])
        path = write_problem(tmp_path, h_b=big, h_e=matrix([[1e308, 0.0], [0.0, -1e308],
                                                             [0.5, 1.0]]))
        out = tmp_path / "report.json"
        assert run_cli(["decompose", "--kind", "gsvd", "--input", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: the GSVD right factor of field 'h_b' is out "
                                           "of range: its norm overflows a double\n")
        assert not out.exists()

    def test_gsvs_near_the_double_limit_decompose(self, tmp_path, capsys):
        # GSVs of about 1e300: ``sqrt(1 + mu^2)`` is taken with no overflow, and the right
        # factor's norm is about that of 'h_b'.
        path = overflow_problem(tmp_path, 1e300)
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["decompose", "--kind", "gsvd", "--input", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = read_report(out)
        assert report["gsv"][0] > 1e299
        for name, factor in report["factors"].items():
            assert np.isfinite(np.asarray(factor, dtype=float)).all(), name

    def test_overflowing_gsv_square_prints_nothing_on_stderr(self, tmp_path):
        # A GSV of 1e200 squares to inf, which is above 1 + LB_GSV_TOL.
        path = write_problem(tmp_path, h_b=matrix(np.diag([1e200, 1.0])), h_e=matrix(np.eye(2)))
        proc = subprocess.run([sys.executable, "-m", "wtd", "capacity", "--input", path],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["lb"] == 1

    @pytest.mark.parametrize("fail", [False, True])
    def test_warnings_shown_on_success_only(self, tmp_path, capsys, monkeypatch, fail):
        region = secrecy.broadcast_region

        def warn_then(*args):
            warnings.warn("probe", RuntimeWarning)
            if fail:
                raise NumericalFailure("probe failure")
            return region(*args)

        monkeypatch.setattr(cli.secrecy, "broadcast_region", warn_then)
        path = write_problem(tmp_path, h_b=GOLDEN_H_B, h_c=GOLDEN_H_E)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert run_cli(["region", "--input", path]) == (1 if fail else 0)
        assert [str(w.message) for w in shown] == ([] if fail else ["probe"])
        if fail:
            assert capsys.readouterr().err == "error: probe failure\n"

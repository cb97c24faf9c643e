"""Command-line pipeline: config grammar, exit codes, artifacts."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypocert import cli
from hypocert import solver as sv
from hypocert.certificate import build_certificate, certificate_kv
from hypocert.cli import ConfigError, RunConfig

from tests_support import count_builder_dags

CLASSICAL_ARGS = ["--model", "classical"]


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def module_env():
    """Environment in which `python -m hypocert` imports the package
    under test, also when pytest alone put it on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


class TestConfigGrammar:
    def test_full_key_set(self):
        text = """
        # comment
        model = relativistic
        theta = 4.0
        dim = 1

        grid.Nx = 32
        grid.Np = 96
        grid.P = 6.5
        scan.radius = 8.0
        scan.resolution = 11
        scan.quasi_random_count = 500
        time.tmax = 2.0
        time.dt = 1e-3
        time.sample_dt = 0.1
        initial_data = 1 + exp(-p^2)
        certificate.margin = 0.1
        certificate.path = cert.kv
        output_dir = results
        """
        fields = cli.parse_config_text(text)
        assert fields["model"] == "relativistic"
        assert fields["theta"] == 4.0
        assert fields["Nx"] == 32 and fields["Np"] == 96
        assert fields["P"] == 6.5
        assert fields["scan_resolution"] == 11
        assert fields["scan_count"] == 500
        assert fields["dt"] == 1e-3
        assert fields["initial_data"] == "1 + exp(-p^2)"
        assert fields["margin"] == 0.1
        assert fields["certificate_path"] == "cert.kv"
        assert fields["output_dir"] == "results"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            cli.parse_config_text("grid.Nz = 4")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            cli.parse_config_text("grid.Nx = many")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            cli.parse_config_text("just words")

    def test_repeated_key_rejected(self):
        # the last of two lines used to win silently
        with pytest.raises(ConfigError,
                           match="line 3: key 'grid.Nx' repeats line 1"):
            cli.parse_config_text("grid.Nx = 8\ngrid.Np = 32\ngrid.Nx = 16")

    def test_flags_override_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("grid.Nx = 32\ntime.tmax = 2.0\n")
        args = cli.build_parser().parse_args(
            ["check", "--config", str(conf), "--tmax", "5.0"]
        )
        cfg = cli.resolve_config(args)
        assert cfg.Nx == 32          # from file
        assert cfg.tmax == 5.0       # flag wins
        assert cfg.Np == RunConfig().Np

    def test_config_file_must_exist(self):
        args = cli.build_parser().parse_args(["check", "--config", "/nope.conf"])
        with pytest.raises(ConfigError, match="cannot read"):
            cli.resolve_config(args)

    def test_readme_example(self):
        # The ini block under "### Configuration" in README.md parses,
        # names every settings key once, and selects a model that loads.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration\n", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        fields = cli.parse_config_text(block, source="README.md")
        cli.load_model(RunConfig(**fields))
        keys = [key for _, key, _ in cli.read_kv(block, ConfigError)]
        assert sorted(keys) == sorted(row[0] for row in cli._SETTINGS)


class TestModelSelection:
    def test_classical_rejects_theta(self):
        with pytest.raises(ConfigError, match="no theta"):
            cli.load_model(RunConfig(model="classical", theta=1.0))

    def test_unknown_tag(self):
        with pytest.raises(ConfigError, match="neither a builtin tag"):
            cli.load_model(RunConfig(model="galilean"))

    def test_model_file(self, tmp_path):
        path = tmp_path / "model.ini"
        path.write_text(
            "[metric]\ng11 = 1\n[velocity]\nv1 = p1\n[energy]\nE = p1^2/2\n"
        )
        model = cli.load_model(RunConfig(model=str(path)))
        assert model.dim == 1

    def test_model_file_rejects_theta_flag(self, tmp_path):
        path = tmp_path / "model.ini"
        path.write_text(
            "[metric]\ng11 = 1\n[velocity]\nv1 = p1\n[energy]\nE = p1^2/2\n"
        )
        with pytest.raises(ConfigError, match="model file"):
            cli.load_model(RunConfig(model=str(path), theta=2.0))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_theta_exit_2(self, tmp_path, capsys, value):
        assert run_cli(["check", "--model", "relativistic", "--theta", value,
                        "--output-dir", tmp_path / "out"]) == 2
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_model_file_nonfinite_theta_exit_2(self, tmp_path, capsys, value):
        path = tmp_path / "model.ini"
        path.write_text(f"[model]\ntheta = {value}\n[metric]\ng11 = 1\n"
                        "[velocity]\nv1 = p1\n[energy]\nE = theta*p1^2/2\n")
        assert run_cli(["check", "--model", path,
                        "--output-dir", tmp_path / "out"]) == 2
        assert "theta" in capsys.readouterr().err


class TestOneDagPerModel:
    """Work counted: each command differentiates its model's fields on
    one DAG, the one of the model's jet builder."""

    @pytest.mark.parametrize("argv", [
        ["check", "--model", "classical"],
        ["certify", "--model", "classical"],
        ["simulate", "--model", "classical", "--tmax", "1"],
        ["check", "--model", "relativistic", "--theta", "4",
         "--scan-resolution", "5", "--scan-count", "100"],
    ], ids=["check", "certify", "simulate", "check-relativistic"])
    def test_one_dag(self, tmp_path, monkeypatch, argv):
        dags = count_builder_dags(monkeypatch)
        assert run_cli(argv + ["--output-dir", tmp_path / "out"]) == 0
        assert len(dags) == 1


class TestCheck:
    def test_classical_passes(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["check", "--model", "classical", "--output-dir", out]) == 0
        kv = read_kv(out / "assumptions.kv")
        assert abs(float(kv["sigma1"]) - 1.0) < 1e-8
        assert abs(float(kv["sigma2"]) - 1.0) < 1e-8
        for name in ("beta", "gamma", "omega"):
            assert abs(float(kv[name])) < 1e-8
        assert kv["required_ok"] == "true"
        assert kv["grid_seed"] != ""
        assert (out / "assumptions.txt").exists()

    def test_relativistic_1d_threshold(self, tmp_path):
        base = ["check", "--model", "relativistic", "--dim", "1",
                "--output-dir", tmp_path / "a"]
        assert run_cli(base + ["--theta", "4"]) == 0
        code = run_cli(["check", "--model", "relativistic", "--dim", "1",
                        "--theta", "0.1", "--output-dir", tmp_path / "b"])
        assert code == 1
        kv = read_kv(tmp_path / "b" / "assumptions.kv")
        assert float(kv["sigma1"]) < 0.0
        assert "sigma1" in kv["witnesses"]

    def test_failing_point_named(self, tmp_path, capsys):
        # g = p1^2 is not positive definite at p = 0, a lattice point.
        path = tmp_path / "model.ini"
        path.write_text(
            "[metric]\ng11 = p1^2\n[velocity]\nv1 = p1\n[energy]\nE = p1^2/2\n"
        )
        assert run_cli(["check", "--model", path,
                        "--output-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            "failure: metric not positive definite: Matrix is not positive "
            "definite at p = [0.]\n"
        )

    def test_config_error_exit_2(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("grid.Nz = 4\n")
        assert run_cli(["check", "--config", conf]) == 2
        conf.write_text("time.tmax = 1\ntime.tmax = 2\n")
        assert run_cli(["check", "--model", "classical", "--config", conf,
                        "--output-dir", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()
        assert run_cli(["check", "--model", "classical", "--theta", "1"]) == 2
        assert run_cli(["check", "--model", tmp_path / "missing.ini"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--scan-radius", "nan"], ["--scan-radius", "0"],
        ["--scan-radius", "-1"], ["--scan-count", "-5"],
        ["--scan-resolution", "0", "--scan-count", "0"],
    ])
    def test_bad_scan_grid_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert run_cli(["check", "--model", "classical",
                        "--output-dir", out] + flags) == 2
        assert "scan" in capsys.readouterr().err
        assert not (out / "assumptions.kv").exists()


class TestCertify:
    def test_classical_certificate(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["certify", "--model", "classical",
                        "--output-dir", out]) == 0
        kv = read_kv(out / "certificate.kv")
        assert float(kv["a"]) == 20.0
        assert float(kv["b"]) == 3.5
        assert float(kv["c"]) == 1.0
        assert float(kv["k"]) == 382.0
        assert abs(float(kv["lambda"]) - 0.5 / 382.0) < 1e-15
        assert kv["valid"] == "true"

    def test_margin_variants_both_valid(self, tmp_path):
        lams = []
        for margin in ("0.5", "0.05"):
            out = tmp_path / f"m{margin}"
            assert run_cli(["certify", "--model", "classical",
                            "--margin", margin, "--output-dir", out]) == 0
            kv = read_kv(out / "certificate.kv")
            assert kv["valid"] == "true"
            lams.append(float(kv["lambda"]))
        assert lams[0] != lams[1]

    def test_report_reuse_matches_fresh(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["check", "--model", "classical", "--output-dir", out]) == 0
        reuse = tmp_path / "reuse"
        assert run_cli(["certify", "--model", "classical",
                        "--report", out / "assumptions.kv",
                        "--output-dir", reuse]) == 0
        fresh = tmp_path / "fresh"
        assert run_cli(["certify", "--model", "classical",
                        "--output-dir", fresh]) == 0
        assert (reuse / "certificate.kv").read_text() == \
            (fresh / "certificate.kv").read_text()

    def test_negative_sigma1_report_fails(self, tmp_path):
        report = tmp_path / "r.kv"
        report.write_text(
            "sigma1 = -1.0\nsigma2 = 1.0\nbeta = 0.0\ngamma = 0.0\n"
            "omega = 0.0\nalpha = 1.0\npass_curvature = true\n"
            "pass_positivity = true\npass_dominance = true\n"
            "pass_hormander = true\npass_growth = true\n"
        )
        assert run_cli(["certify", "--report", report,
                        "--output-dir", tmp_path / "out"]) == 1

    def test_failed_gate_report_rejected(self, tmp_path):
        report = tmp_path / "r.kv"
        report.write_text(
            "sigma1 = 1.0\nsigma2 = 1.0\nbeta = 0.0\ngamma = 0.0\n"
            "omega = 0.0\nalpha = 1.0\npass_curvature = true\n"
            "pass_positivity = true\npass_dominance = true\n"
            "pass_hormander = false\npass_growth = true\n"
        )
        assert run_cli(["certify", "--report", report,
                        "--output-dir", tmp_path / "out"]) == 1

    def test_missing_or_malformed_report(self, tmp_path, capsys):
        assert run_cli(["certify", "--report", tmp_path / "none.kv",
                        "--output-dir", tmp_path / "out"]) == 2
        bad = tmp_path / "bad.kv"
        bad.write_text("sigma1 = 1.0\n")  # no pass_* fields
        assert run_cli(["certify", "--report", bad,
                        "--output-dir", tmp_path / "out"]) == 2
        # a saved report whose pass_growth line was deleted
        bad.write_text(
            "sigma1 = 1.0\nsigma2 = 1.0\nbeta = 0.0\ngamma = 0.0\n"
            "omega = 0.0\nalpha = 1.0\npass_curvature = true\n"
            "pass_positivity = true\npass_dominance = true\n"
            "pass_hormander = true\n"
        )
        capsys.readouterr()
        assert run_cli(["certify", "--report", bad,
                        "--output-dir", tmp_path / "out"]) == 2
        assert "field pass_growth is missing" in capsys.readouterr().err
        # a gate that is neither true nor false
        bad.write_text(bad.read_text() + "pass_growth = True\n")
        assert run_cli(["certify", "--report", bad,
                        "--output-dir", tmp_path / "out"]) == 2
        assert "pass_growth is 'True'" in capsys.readouterr().err
        # a failed gate followed by a passed one for the same gate
        bad.write_text(bad.read_text().replace("True", "true").replace(
            "pass_hormander = true", "pass_hormander = false")
            + "pass_hormander = true\n")
        assert run_cli(["certify", "--report", bad,
                        "--output-dir", tmp_path / "out"]) == 2
        assert (f"{bad} line 12: key 'pass_hormander' repeats line 10"
                in capsys.readouterr().err)
        assert not (tmp_path / "out" / "certificate.kv").exists()

    def test_rateless_model(self, tmp_path, capsys):
        # 1D relativistic: no certified log-Sobolev constant, no rate
        out = tmp_path / "out"
        assert run_cli(["certify", "--model", "relativistic", "--dim", "1",
                        "--theta", "4", "--output-dir", out]) == 0
        kv = read_kv(out / "certificate.kv")
        assert kv["lambda"] == ""
        assert "none" in capsys.readouterr().out


QUICK = ["--Nx", "16", "--Np", "48", "--P", "6",
         "--tmax", "0.5", "--sample-dt", "0.1"]


class TestSimulate:
    def test_quick_run_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["simulate", "--model", "classical",
                        "--initial-data", "1 + x*(1-x)",
                        "--output-dir", out] + QUICK)
        assert code == 0
        series = sv.series_from_csv(out / "series.csv")
        assert len(series) == 6
        summary = (out / "summary.txt").read_text()
        assert "lambda_cert" in summary
        assert "decay_bound = pass" in summary
        assert "mass_drift" in summary
        # certificate built on the fly was persisted for cmd_report
        assert (out / "certificate.kv").exists()
        assert (out / "assumptions.kv").exists()

    def test_equilibrium_insufficient_decay(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["simulate", "--model", "classical",
                        "--initial-data", "1", "--output-dir", out] + QUICK) == 0
        summary = (out / "summary.txt").read_text()
        assert "InsufficientDecay" in summary
        assert "declined" in summary

    def test_certificate_file_used(self, tmp_path):
        cert = build_certificate(1.0, 1.0, 0.0, 0.0, 0.0, alpha=1.0)
        path = tmp_path / "cert.kv"
        path.write_text(certificate_kv(cert))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--model", "classical",
                        "--certificate", path, "--initial-data", "1 + x*(1-x)",
                        "--output-dir", out] + QUICK) == 0
        assert f"certificate = file {path}" in (out / "summary.txt").read_text()
        # nothing new scanned: the certificate came from the file
        assert not (out / "assumptions.kv").exists()

    def test_other_models_certificate_exit_2(self, tmp_path, capsys):
        # the certificate.kv that a classical certify left in the output
        # directory does not certify a relativistic run
        out = tmp_path / "out"
        assert run_cli(["certify", "--model", "classical",
                        "--output-dir", out]) == 0
        capsys.readouterr()
        assert run_cli(["simulate", "--model", "relativistic", "--dim", "1",
                        "--theta", "10", "--tmax", "1",
                        "--output-dir", out]) == 2
        err = capsys.readouterr().err
        assert "model 'classical', not 'relativistic(theta=10, dim=1)'" in err
        assert not (out / "series.csv").exists()

    def test_tampered_certificate_rejected(self, tmp_path):
        cert = build_certificate(1.0, 1.0, 0.0, 0.0, 0.0, alpha=1.0)
        text = certificate_kv(cert).replace("b = 3.5", "b = 30.0")
        path = tmp_path / "cert.kv"
        path.write_text(text)
        assert run_cli(["simulate", "--model", "classical",
                        "--certificate", path,
                        "--output-dir", tmp_path / "out"] + QUICK) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("\n", "\nnot a pair\n", 1),
         "line 2: expected key = value"),
        (lambda text: "".join(line for line in text.splitlines(True)
                              if not line.startswith("eps1 ")),
         "missing field eps1"),
        (lambda text: text.replace("\n", "\nsigma1 = 2.0\n", 1),
         "line 2: key 'sigma1' repeats line 1"),
    ], ids=["no-equals-sign", "missing-field", "repeated-key"])
    def test_unparsable_certificate_exit_2(self, tmp_path, capsys, edit, message):
        # Nothing was validated, so this is a config error naming the file.
        cert = build_certificate(1.0, 1.0, 0.0, 0.0, 0.0, alpha=1.0)
        path = tmp_path / "cert.kv"
        path.write_text(edit(certificate_kv(cert)))
        assert run_cli(["simulate", "--model", "classical",
                        "--certificate", path,
                        "--output-dir", tmp_path / "out"] + QUICK) == 2
        assert f"certificate file {path}: {message}" in capsys.readouterr().err

    def test_order2_flag_exit_2(self, tmp_path, capsys):
        # MUSCL is reached only through solver.run(..., order2=True).
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--model", "classical", "--order2",
                     "--output-dir", out] + QUICK)
        assert exc.value.code == 2
        assert "unrecognized arguments: --order2" in capsys.readouterr().err
        assert not out.exists()

    def test_given_dt_bounds_the_sub_step(self, tmp_path):
        # 0.05 / 0.02 = 2.5 rounds down to two steps of 0.025, above
        # the step asked for; three steps keep within it.
        out = tmp_path / "out"
        assert run_cli(["simulate", "--model", "classical",
                        "--sample-dt", "0.05", "--dt", "0.02",
                        "--tmax", "0.1", "--output-dir", out]) == 0
        assert "dt = 0.0166667," in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("sample_dt", ["0.004", "0.0028"])
    def test_tmax_off_the_sampling_grid_exit_2(self, tmp_path, capsys,
                                                sample_dt):
        # 0.01 is 2.5 and 3.57 sample steps: the run would end at 0.008
        # or 0.0112, not at the tmax the summary reports.
        assert run_cli(["simulate", "--model", "classical",
                        "--sample-dt", sample_dt, "--tmax", "0.01",
                        "--output-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "tmax = 0.01 " in err and f"sample_dt = {sample_dt}" in err
        # rejected before the scan, so nothing is written
        for name in ("assumptions.kv", "assumptions.txt", "certificate.kv",
                     "series.csv"):
            assert not (tmp_path / "out" / name).exists()

    def test_requires_1d_model(self, tmp_path):
        assert run_cli(["simulate", "--model", "relativistic", "--theta", "4",
                        "--output-dir", tmp_path / "out"] + QUICK) == 2

    @pytest.mark.parametrize("flags", [
        ["--Nx", "4"], ["--P", "-1"], ["--initial-data", "log(x)"],
    ], ids=["Nx", "P", "initial-data"])
    def test_bad_grid_or_data_rejected_before_scan(self, tmp_path, flags):
        # the grid and initial state are built before the scan, so a bad
        # setting leaves no output directory behind
        out = tmp_path / "out"
        assert run_cli(["simulate", "--model", "classical",
                        "--output-dir", out] + flags) == 2
        assert not out.exists()

    def test_infinite_P_exit_2(self, tmp_path, capsys):
        # rejected when the grid is built, before numpy sees an inf
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["simulate", "--model", "classical", "--P", "inf",
                            "--output-dir", out]) == 2
        assert "P must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_initial_data_exit_2(self, tmp_path):
        assert run_cli(["simulate", "--model", "classical",
                        "--initial-data", "1 + cos(x)",
                        "--output-dir", tmp_path / "out"] + QUICK) == 2

    def test_negative_interpolant_exit_2_before_the_scan(self, tmp_path, capsys):
        # The datum's trigonometric interpolant in x dips below zero
        # between the 64 cells, so the exact shift would make h negative.
        out = tmp_path / "out"
        assert run_cli(["simulate", "--model", "classical", "--initial-data",
                        "exp(-5000*(x-0.5)^2)", "--output-dir", out]) == 2
        err = capsys.readouterr().err
        assert "falls to -0.0342 times its largest value" in err
        assert "use a larger Nx" in err
        assert not out.exists()

    def test_negative_sample_exit_1_names_t(self, tmp_path, capsys, monkeypatch):
        # With the interpolant check out of the way, the same datum's
        # first sample goes negative.
        monkeypatch.setattr(sv, "_positive_interpolant", lambda h: 0.0)
        cert = build_certificate(1.0, 1.0, 0.0, 0.0, 0.0, alpha=1.0)
        path = tmp_path / "cert.kv"
        path.write_text(certificate_kv(cert))
        assert run_cli(["simulate", "--model", "classical", "--certificate", path,
                        "--initial-data", "exp(-5000*(x-0.5)^2)", "--tmax", "0.1",
                        "--output-dir", tmp_path / "out"]) == 1
        assert "< 0 at t = 0.05" in capsys.readouterr().err

    def test_diagnostics_appended(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["simulate", "--model", "classical", "--diagnostics",
                        "--initial-data", "1 + x*(1-x)",
                        "--output-dir", out] + QUICK) == 0
        summary = (out / "summary.txt").read_text()
        assert "entropy-production residuals" in summary
        for row in ("dD", "dIpp", "dIxp", "dIxx", "Qpp_product", "Qxp_product"):
            assert row in summary

    def test_diagnostics_burn_in_stays_inside_the_limit(self, tmp_path):
        # The burn-in to t = 0.25 is one default step, which has no
        # transport limit: on this coarse grid the MUSCL limit is 0.1042.
        assert run_cli(["simulate", "--model", "classical", "--diagnostics",
                        "--Nx", "8", "--Np", "16", "--P", "1.2", "--tmax", "1",
                        "--output-dir", tmp_path / "out"]) == 0


class TestReport:
    def test_missing_inputs_exit_2(self, tmp_path, capsys):
        assert run_cli(["report", "--output-dir", tmp_path / "empty"]) == 2
        err = capsys.readouterr().err
        assert "missing inputs" in err
        assert "series.csv" in err

    def test_collation_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["simulate", "--model", "classical",
                        "--initial-data", "1 + x*(1-x)",
                        "--output-dir", out] + QUICK) == 0
        assert run_cli(["report", "--output-dir", out]) == 0
        first = (out / "report.txt").read_bytes()
        text = first.decode()
        for marker in ("assumption scan", "decay certificate",
                       "simulation summary", "series digest"):
            assert marker in text
        # the digest prints plain floats, whatever numpy's scalar repr
        for name in ("D", "Emod"):
            (line,) = [ln for ln in text.splitlines()
                       if ln.startswith(f"{name} = ")]
            start, end = line[len(f"{name} = "):].split(" -> ")
            float(start), float(end)
        assert run_cli(["report", "--output-dir", out]) == 0
        assert (out / "report.txt").read_bytes() == first


    def test_malformed_series_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("assumptions.txt", "certificate.kv", "summary.txt"):
            (out / name).write_text("")
        # header only; two 4-field rows
        for rows in ["", "0.0,1.0,0.0,0.0\n1.0,0.5,0.0,0.0\n"]:
            (out / "series.csv").write_text(sv.CSV_HEADER + "\n" + rows)
            assert run_cli(["report", "--output-dir", out]) == 2
            assert "series.csv" in capsys.readouterr().err
            assert not (out / "report.txt").exists()


class TestEntryPoint:
    def test_main_builds_one_parser_and_dispatches_by_name(self, monkeypatch):
        # The parser is built once per process, and main looks the
        # handler of args.command up when it is called.
        ran = []
        monkeypatch.setattr(cli, "cmd_report",
                            lambda cfg, args: ran.append(args.command) or 7)
        cli.build_parser.cache_clear()
        assert [cli.main(["report"]) for _ in range(2)] == [7, 7]
        assert ran == ["report", "report"]
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hypocert", "check", "--model", "classical",
             "--output-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=module_env(),
        )
        assert proc.returncode == 0
        assert "assumption check: pass" in proc.stdout

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hypocert", "frobnicate"],
            capture_output=True, text=True, env=module_env(),
        )
        assert proc.returncode == 2

    def test_import_and_scans_load_no_scipy(self, tmp_path):
        # The runtime is numpy alone: the scans and the solver too.
        out = str(tmp_path / "out")
        code = (
            "import sys, hypocert\n"
            "from hypocert import cli\n"
            "before = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            f"out = ['--model', 'classical', '--output-dir', {out!r}]\n"
            "assert cli.main(['check', *out]) == 0\n"
            "assert cli.main(['certify', *out]) == 0\n"
            "assert cli.main(['simulate', '--tmax', '1', *out]) == 0\n"
            "cli.main(['report', '--output-dir', out[-1]])\n"
            "after = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "print(before, after)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=module_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[] []"

    def test_check_and_certify_load_no_numpy_fft(self, tmp_path):
        # Only the solver's default step uses numpy.fft, which numpy 2
        # loads on first use; numpy 1 loads it with numpy itself.
        code = (
            "import sys\n"
            "import numpy\n"
            "eager = 'numpy.fft' in sys.modules\n"
            "from hypocert import cli\n"
            f"out = ['--model', 'classical', '--output-dir', {str(tmp_path / 'out')!r}]\n"
            "assert cli.main(['check', *out]) == 0\n"
            "assert cli.main(['certify', *out]) == 0\n"
            "print(eager or 'numpy.fft' not in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=module_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True"

    def test_check_loads_no_numpy_ma(self, tmp_path):
        # numpy.ma costs a cold check about 14 ms; np.unique(axis=0) was
        # the only thing that loaded it
        code = (
            "import sys\n"
            "from hypocert import cli\n"
            f"out = ['--output-dir', {str(tmp_path / 'out')!r}]\n"
            "assert cli.main(['check', '--model', 'classical', *out]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=module_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

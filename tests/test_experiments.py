"""Experiment drivers: configs, verdict margins, serialization, CLI."""

import hashlib
import json

import numpy as np
import pytest

from squeezelab.cli import main
from squeezelab.domains import ball, preset
from squeezelab.errors import ConfigError, DomainError
from squeezelab.experiments import (
    ExperimentConfig,
    emit,
    report_csv,
    report_json,
    run_counterexample,
    run_lemma24_25,
    run_pipeline,
)
from squeezelab.squeezing import squeeze_lower_planar


@pytest.fixture(scope="module")
def small_margin_report():
    return run_lemma24_25(ExperimentConfig("lemma24_25", scales=3))


@pytest.fixture(scope="module")
def ratio_report():
    return run_counterexample(ExperimentConfig("counterexample", scales=15))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("no-such-experiment")
        with pytest.raises(ConfigError):
            ExperimentConfig("lemma22", scales=2)

    def test_unknown_lemma22_preset_rejected(self):
        # an unknown preset used to run no job and return an empty report that passed
        with pytest.raises(ConfigError):
            ExperimentConfig("lemma22", domain_preset="nosuch")
        for name in ("all", "disc", "ball", "ellipsoid", "omega_prime"):
            ExperimentConfig("lemma22", domain_preset=name)

    @pytest.mark.parametrize("experiment", ["lemma24_25", "pipeline", "counterexample"])
    def test_preset_rejected_where_unused(self, experiment):
        ExperimentConfig(experiment, domain_preset="all")
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment, domain_preset="ball")

    def test_provenance_echo(self, small_margin_report):
        prov = small_margin_report.provenance
        assert prov["config"]["experiment"] == "lemma24_25"
        assert prov["config"]["scales"] == 3
        assert "version" in prov


class TestMarginSweep:
    def test_all_verdicts_pass(self, small_margin_report):
        assert small_margin_report.passed
        for v in small_margin_report.verdicts:
            assert v["passed"], v

    def test_sweep_covers_grid(self, small_margin_report):
        sweep = small_margin_report.tables["sweep"]
        assert {s["C"] for s in sweep} == {0.5, 1.0, 2.0}
        assert {s["d"] for s in sweep} == {1e-1, 1e-2, 1e-3}
        assert min(s["min_margin"] for s in sweep) >= 0.0


class TestRatioTrend:
    def test_ratio_decreases(self, ratio_report):
        rows = ratio_report.tables["radial"]
        R = [r["R_k"] for r in rows]
        assert all(b < a for a, b in zip(R[-6:], R[-5:]))
        assert ratio_report.tables["modulus"] == pytest.approx(0.34842830858, abs=1e-6)

    def test_distance_expansion_recorded(self, ratio_report):
        # the derivative of z log z blows up at 0, and the measured
        # boundary-distance distortion d(image)/d(source) grows with depth
        rows = ratio_report.tables["radial"]
        assert rows[-1]["distortion_ratio"] > rows[4]["distortion_ratio"] > 1.0
        assert rows[-1]["abs_phi_deriv"] > 10.0


class TestSerialization:
    def test_json_deterministic(self, small_margin_report):
        assert report_json(small_margin_report) == report_json(small_margin_report)
        payload = json.loads(report_json(small_margin_report))
        assert payload["passed"] is True

    def test_counterexample_csv_schema(self, ratio_report):
        lines = report_csv(ratio_report).splitlines()
        assert lines[0] == "k,p_k,d_k,L_k,R_k"
        assert len(lines) == 1 + len(ratio_report.tables["radial"])
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == 0.125

    def test_pipeline_report_bytes_frozen(self):
        # any change to how boundary images are evaluated must keep these bytes
        text = emit(run_pipeline(ExperimentConfig("pipeline", scales=3, seed=1)), "json", None)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6385abb05bede973c1db123153026bad613bcbf9b994dcbf3eed08c77bca2229")

    def test_counterexample_report_bytes_frozen(self):
        text = emit(run_counterexample(ExperimentConfig("counterexample", scales=12, seed=7)), "json")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "00e0354ffc4ecce292c06982725169ea2647e66a9f875e7b993cdf1a22887661")

    def test_emit_format_validation(self, small_margin_report):
        with pytest.raises(ConfigError):
            emit(small_margin_report, "xml")

    def test_emit_writes_file(self, small_margin_report, tmp_path):
        p = tmp_path / "report.json"
        text = emit(small_margin_report, "json", str(p))
        assert p.read_text() == text


class TestCli:
    def test_margin_subcommand_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["lemma24-25", "--scales", "3", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True
        assert "[PASS]" in capsys.readouterr().err

    def test_squeeze_subcommand(self, capsys):
        assert main(["squeeze", "--preset", "disc", "--at", "0.2"]) == 0
        assert "1.0" in capsys.readouterr().out

    def test_out_path_leaves_report_bytes_unchanged(self, tmp_path, capsys):
        args = ["pipeline", "--scales", "3", "--seed", "1"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert a.read_text() == b.read_text()
        assert printed == a.read_text() + "\n"

    def test_unknown_preset_reported_without_running(self, capsys):
        assert main(["lemma22", "--preset", "nosuch", "--scales", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nosuch" in captured.err and "Traceback" not in captured.err

    def test_squeeze_rejects_non_planar_preset(self, capsys):
        with pytest.raises(ConfigError):
            squeeze_lower_planar(ball(2), 0.1)
        assert main(["squeeze", "--preset", "ball", "--at", "0.1"]) == 2
        assert "planar" in capsys.readouterr().err

    @pytest.mark.parametrize("name, at", [("disc", "5"), ("omega_prime", "0.5")])
    def test_squeeze_rejects_point_outside_domain(self, name, at, capsys):
        with pytest.raises(DomainError, match="is not in the"):
            squeeze_lower_planar(preset(name), complex(at))
        assert main(["squeeze", "--preset", name, "--at", at]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "is not in the" in captured.err

    def test_rejects_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

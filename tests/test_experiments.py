"""Experiment drivers: configs, verdict margins, serialization, CLI."""

import hashlib
import json

import numpy as np
import pytest

from squeezelab.cli import main
from squeezelab.errors import ConfigError
from squeezelab.experiments import (
    ExperimentConfig,
    emit,
    report_csv,
    report_json,
    run_counterexample,
    run_lemma24_25,
    run_pipeline,
)


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

    def test_rejects_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

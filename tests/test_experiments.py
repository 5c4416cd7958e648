"""Experiment drivers: configs, verdict margins, serialization, CLI."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from squeezelab import domains
from squeezelab.cli import main
from squeezelab.conformal import AnnulusMap
from squeezelab.domains import ball, preset
from squeezelab.errors import ConfigError, DomainError
from squeezelab.experiments import (
    RUNNERS,
    ExperimentConfig,
    _lemma22_job,
    _lens_and_image,
    emit,
    report_csv,
    report_json,
    run_counterexample,
    run_lemma22,
    run_lemma24_25,
    run_pipeline,
)
from squeezelab.squeezing import squeeze_lower_planar


_COUNTEREXAMPLE_SEED7 = "b989e8707292c081fe0155e1ca8b1cd8ca2d30f5a86f290cd7b538439a97f244"


@pytest.fixture(scope="module")
def small_margin_report():
    return run_lemma24_25(ExperimentConfig("lemma24_25", scales=3))


@pytest.fixture(scope="module")
def ratio_report():
    return run_counterexample(ExperimentConfig("counterexample", scales=15))


class TestCounterexampleCalls:
    """A warm report makes one distance run for both domains and evaluates the lens's map once."""

    def test_one_brent_run_and_one_forward_gap(self, monkeypatch):
        run_counterexample(ExperimentConfig("counterexample", scales=40, seed=1))  # builds the domains and the map
        runs, gaps = [], []
        brent, forward_gap = domains._brentq, AnnulusMap.forward_gap

        def brent_spy(f, a, *args, **kw):
            runs.append(len(a))
            return brent(f, a, *args, **kw)

        def gap_spy(amap, z, **kw):
            gaps.append(np.shape(z))
            return forward_gap(amap, z, **kw)

        monkeypatch.setattr(domains, "_brentq", brent_spy)
        monkeypatch.setattr(AnnulusMap, "forward_gap", gap_spy)
        report = run_counterexample(ExperimentConfig("counterexample", scales=40, seed=2))
        assert len(runs) == 1  # the image points on Omega and the radial points on the lens together
        assert gaps == [(40 + len(report.tables["angular"]),)]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("no-such-experiment")
        with pytest.raises(ConfigError):
            ExperimentConfig("lemma22", scales=2)
        # a bool is an int to isinstance, and was written into the report as "seed": true
        for bad in ({"scales": 3.5}, {"scales": "5"}, {"seed": -1}, {"seed": 1.0}, {"seed": True}):
            with pytest.raises(ConfigError):
                ExperimentConfig("pipeline", **bad)

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
        # every row is a closed form on the true boundary: eps = 0 and inscribed = 1 on
        # the ball, eps d = 1 - 1/sqrt(2) and inscribed = 1/sqrt(2) on the ellipsoid
        text = emit(run_pipeline(ExperimentConfig("pipeline", scales=3, seed=1)), "json", None)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "757f45d319a4ba2c45403c87b3052129c5ab8f4153373664dc76d1dd51ffe46f")

    def test_pipeline_report_bytes_frozen_at_the_point_cap(self):
        # ten points per domain, the most a report takes; recorded before the ball and the
        # ellipsoid shared one stacked pipeline call
        text = emit(run_pipeline(ExperimentConfig("pipeline", scales=10, seed=1)), "json", None)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "02a58a4ff9ef5d4276e3cc909738294ba2d3446d06d4dd95f914e60aa2d900e8")

    def test_lemma24_25_report_bytes_frozen(self):
        text = emit(run_lemma24_25(ExperimentConfig("lemma24_25", scales=20, seed=7)), "json")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9d65d6e7d59ea3df024f43f0b16720b6cc69786c9943e7fe1ccfcd7e171b2aa9")

    def test_pipeline_seed_enters_only_the_provenance(self):
        a, b = (run_pipeline(ExperimentConfig("pipeline", scales=3, seed=s)) for s in (1, 2))
        assert a.tables == b.tables and a.verdicts == b.verdicts
        assert a.provenance != b.provenance

    def test_counterexample_report_bytes_frozen(self):
        _lens_and_image.cache_clear()  # the lens, its image and the lens's map are built afresh
        report = run_counterexample(ExperimentConfig("counterexample", scales=12, seed=7))
        assert hashlib.sha256(emit(report, "json").encode()).hexdigest() == _COUNTEREXAMPLE_SEED7
        # its CSV too, in this test because both carry the bits of the lens's map fit
        assert hashlib.sha256(emit(report, "csv").encode()).hexdigest() == (
            "5c2627617cbf7964a71c9969a018e2ddebcc5e8a51be756f5eadec2c02120b4a")

    def test_counterexample_bytes_frozen_with_a_warm_cache(self):
        # the digest was recorded from fresh builds; a report after another one reuses them
        run_counterexample(ExperimentConfig("counterexample", scales=12, seed=3))
        text = emit(run_counterexample(ExperimentConfig("counterexample", scales=12, seed=7)), "json")
        assert hashlib.sha256(text.encode()).hexdigest() == _COUNTEREXAMPLE_SEED7

    @pytest.mark.parametrize("name, digest", [
        pytest.param("disc", "c3fac891a76632b05b87b9beaca24cfd2507145a1e55068205ddcc8de2fc6e59", id="disc"),
        pytest.param("ball", "d169de14160690698c46b74811316200de1027f537a1674cbe2aac158cf744ec", id="ball"),
        pytest.param("ellipsoid", "0ae8ba7a2e50460caf0c57854a5a02d7feef92b9d7e4c7141c9794d2cac28f89", id="ellipsoid"),
        pytest.param("omega_prime", "9d9239865f8d7a4de182073af2dfe8aadfbfb6b2b2c3f1bfaadf09e522afb31e", id="omega_prime"),
    ])
    def test_lemma22_report_bytes_frozen(self, name, digest):
        # digests recorded with the shrinking-ball tangent radius and, on the
        # quadratic presets, the closed-form distance in the slice disc; the
        # disc's, again with ties among sample distances taken by lower index,
        # once more with one Brent lane per window that wraps past t = 0, and
        # again with the nearest points and tangent radii found as zeros of slopes,
        # and with each slice disc's foot and normal from its point's own distance query
        text = emit(run_lemma22(ExperimentConfig("lemma22", domain_preset=name, scales=20)), "json")
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("config, digest", [
        pytest.param(ExperimentConfig("pipeline", scales=3, seed=1),
                     "29f57f5454efb35f4ae0c7b16ba28888f4662aa6de6ecfead7dbb843e5b2e5a9", id="pipeline"),
        pytest.param(ExperimentConfig("lemma24_25", scales=3),
                     "387c4a92bbc9aba05e7d483a6fd081a8aaeae2eabd9d1a9babea31d70eb0804c", id="lemma24_25"),
        pytest.param(ExperimentConfig("lemma22", domain_preset="omega_prime", scales=20),
                     "3aeb6c96af60bfbe466f53fed8a4a746986c6371fdb885eca09b77336ecae170", id="lemma22-omega_prime"),
        pytest.param(ExperimentConfig("lemma22", domain_preset="ellipsoid", scales=20),
                     "889c41f2aff085f24ec69fbbd1d09ffe10370833b76fabde229706cbe6195c21", id="lemma22-ellipsoid"),
    ])
    def test_csv_bytes_frozen(self, config, digest):
        # the verdicts, or each lemma22 scale; the counterexample rows are frozen with its JSON
        text = emit(RUNNERS[config.experiment](config), "csv")
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_emit_format_validation(self, small_margin_report):
        with pytest.raises(ConfigError):
            emit(small_margin_report, "xml")

    @pytest.mark.parametrize("value", [np.float32(0.5), np.int64(3), np.array([0.5]), 0.5 + 1j])
    def test_emit_rejects_a_non_json_table_value(self, small_margin_report, value):
        # tables hold JSON-native values only (np.float64 subclasses float, so json writes it
        # as one): any other value is an error, not rewritten
        report = dataclasses.replace(small_margin_report, tables={"sweep": [{"margin": value}]})
        with pytest.raises(TypeError):
            emit(report, "json")

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

    def test_unparsable_annulus_modulus_reported(self, capsys):
        assert main(["squeeze", "--preset", "annulus_x", "--at", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "annulus_x" in captured.err and "Traceback" not in captured.err

    def test_unparsable_point_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["squeeze", "--at", "abc"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert "--at" in captured.err and "abc" in captured.err and "Traceback" not in captured.err

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


class TestBuiltOncePerProcess:
    def test_lens_fitted_once(self, fitted_domains):
        _lens_and_image.cache_clear()
        for seed in (1, 2):
            run_counterexample(ExperimentConfig("counterexample", scales=3, seed=seed))
        omega_prime = _lens_and_image()[0]
        squeeze_lower_planar(omega_prime, 0.05)
        assert fitted_domains == [omega_prime]
        assert _lemma22_job("omega_prime")[0] is omega_prime

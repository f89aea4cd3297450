import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bcrb
from bcrb import scenarios
from bcrb.cli import main
from bcrb.errors import ScenarioError
from bcrb.scenarios import canonical_json, format_value, load_config, load_schema, scenario_hash

SHIPPED_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_config(tmp_path, config, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def gaussian_optimal_config(nodes=2001):
    return {
        "kind": "optimal",
        "name": "gaussian-closed-form",
        "grid": {"lower": -8.0, "upper": 8.0, "nodes": nodes},
        "model": {
            "fisher": {"type": "constant", "value": 1.0},
            "weight": {"type": "constant", "value": 1.0},
        },
        "prior": {"type": "gaussian", "variance": 1.0},
        "n": 10.0,
    }


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        out = canonical_json({"b": 1.0 / 3.0, "a": 2})
        assert out.index('"a"') < out.index('"b"')
        assert "3.333333333333e-01" in out
        assert json.loads(out) == {"a": 2, "b": pytest.approx(1 / 3, rel=1e-12)}

    def test_non_finite_encoded(self):
        out = canonical_json({"x": float("inf"), "y": float("nan")})
        parsed = json.loads(out)
        assert parsed["x"] == "inf" and parsed["y"] == "nan"

    def test_format_value_row(self):
        row = [2048, 0.5, np.float64(1.0 / 3.0), "unit", float("nan"), np.float32(-np.inf)]
        assert [format_value(x) for x in row] == [
            "2048", "5.000000000000e-01", "3.333333333333e-01", "unit", "nan", "-inf"]

    def test_hash_stable_under_reserialization(self):
        cfg = gaussian_optimal_config()
        reloaded = json.loads(json.dumps(cfg))
        assert scenario_hash(cfg) == scenario_hash(reloaded)


class TestValidation:
    def test_empty_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        code = main(["optimal", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("target, reason", [
        ("directory", "Is a directory"),
        ("missing.json", "No such file"),
        ("binary.json", "can't decode"),
    ])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, target, reason):
        path = tmp_path / target
        if target == "directory":
            path.mkdir()
        elif target == "binary.json":
            path.write_bytes(b"\xff\xfe{}")
        code = main(["optimal", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert str(path) in err and reason in err and "Traceback" not in err

    @pytest.mark.parametrize("section, key, literal", [
        ("grid", "upper", "Infinity"),
        ("grid", "lower", "-Infinity"),
        ("grid", "upper", "NaN"),
        ("grid", "upper", "1e400"),
        (None, "n", "NaN"),
    ])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, section, key, literal):
        cfg = gaussian_optimal_config(nodes=201)
        (cfg[section] if section else cfg)[key] = 12345.5
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg).replace("12345.5", literal))
        code = main(["optimal", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"non-finite number {literal};" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, section, key, value, field", [
        ("waveform_rectangle.json", "discretization", "slots", 2048.0,
         "discretization.slots"),
        ("waveform_rectangle.json", "discretization", "sweep", [128, 256.0],
         "discretization.sweep.1"),
        ("gill_levit_bound.json", "grid", "nodes", 2001.0, "grid.nodes"),
        ("gill_levit_bound.json", "grid", "nodes", True, "grid.nodes"),
    ], ids=["slots", "sweep_entry", "grid_nodes", "bool_nodes"])
    def test_integral_float_in_integer_field_exit_2(self, tmp_path, capsys, config, section,
                                                    key, value, field):
        with open(os.path.join(SHIPPED_CONFIGS, config)) as fh:
            cfg = json.load(fh)
        cfg[section][key] = value
        code = main([cfg["kind"], "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "is not of type 'integer'" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_missing_field_names_path(self, tmp_path):
        cfg = gaussian_optimal_config()
        del cfg["prior"]
        with pytest.raises(ScenarioError) as exc:
            load_config(write_config(tmp_path, cfg))
        assert "prior" in str(exc.value)

    def test_bad_enum_reports_field(self, tmp_path):
        cfg = gaussian_optimal_config()
        cfg["prior"] = {"type": "cauchy"}
        with pytest.raises(ScenarioError) as exc:
            load_config(write_config(tmp_path, cfg))
        assert "prior" in str(exc.value)

    def test_kind_subcommand_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, gaussian_optimal_config())
        code = main(["bound", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "kind" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [{"seed": 7}, {"transform_v": False},
                                       {"alignmnet": 1.0}])
    def test_unknown_top_level_key_exit_2(self, tmp_path, capsys, extra):
        path = write_config(tmp_path, {**gaussian_optimal_config(nodes=201), **extra})
        code = main(["optimal", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert repr(next(iter(extra))) in capsys.readouterr().err

    def test_removed_basis_size_key_exit_2(self, tmp_path, capsys):
        cfg = {"kind": "imaging", "name": "rank-trend",
               "psf": {"catalog": "gaussian", "sigma": 1.0},
               "task": "helstrom_rank", "halvings": 2, "basis_size": 20}
        path = write_config(tmp_path, cfg)
        code = main(["imaging", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'basis_size'" in capsys.readouterr().err

    def test_unwritable_output_exit_4(self, tmp_path, capsys):
        path = write_config(tmp_path, gaussian_optimal_config(nodes=201))
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = main(["optimal", "--config", path, "--out", str(blocker)])
        assert code == 4


class TestOptimalScenario:
    def test_gaussian_value_and_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path, gaussian_optimal_config())
        out = tmp_path / "out"
        assert main(["optimal", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["results"]["bmax"] - 1.0 / 11.0) <= 1e-6
        assert (out / "least_favorable.csv").exists()
        assert (out / "bound.csv").exists()
        assert report["artifacts"] == ["bound.csv", "least_favorable.csv"]

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, gaussian_optimal_config(nodes=401))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["optimal", "--config", path, "--out", str(out1)]) == 0
        assert main(["optimal", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "bound.csv").read_bytes() == (out2 / "bound.csv").read_bytes()

    def test_round_trip_from_embedded_config(self, tmp_path):
        path = write_config(tmp_path, gaussian_optimal_config(nodes=401))
        out1 = tmp_path / "o1"
        main(["optimal", "--config", path, "--out", str(out1)])
        report = json.loads((out1 / "report.json").read_text())
        embedded = write_config(tmp_path, report["config"], "embedded.json")
        out2 = tmp_path / "o2"
        main(["optimal", "--config", embedded, "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_grid_scale_refines(self, tmp_path):
        path = write_config(tmp_path, gaussian_optimal_config(nodes=201))
        out = tmp_path / "o"
        assert main(["optimal", "--config", path, "--out", str(out),
                     "--grid-scale", "4"]) == 0
        report = json.loads((out / "report.json").read_text())
        rows = (out / "least_favorable.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 801

    def test_bump_prior_above_unit_field_bound(self, tmp_path):
        # rho ~ sin^4(pi theta) on [0, 1]: the unit field's bound is
        # 1/(n + 16 pi^2/3), and B_max is the largest over all fields
        cfg = gaussian_optimal_config(nodes=801)
        cfg["grid"] |= {"lower": 0.0, "upper": 1.0}
        cfg["prior"] = {"type": "bump", "power": 4}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["optimal", "--config", path, "--out", str(out)]) == 0
        bmax = json.loads((out / "report.json").read_text())["results"]["bmax"]
        assert bmax >= 1.0 / (10.0 + 16.0 * np.pi**2 / 3.0)

    def test_grid_scale_zero_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, gaussian_optimal_config(nodes=201))
        assert main(["optimal", "--config", path, "--out", str(tmp_path / "o"),
                     "--grid-scale", "0"]) == 2
        assert "--grid-scale must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestBoundScenario:
    def test_unit_v_gaussian(self, tmp_path):
        cfg = gaussian_optimal_config()
        cfg["kind"] = "bound"
        cfg["v"] = {"choice": "unit"}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["bound", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["results"]["bound_report"]["bound"] - 1.0 / 11.0) <= 1e-6

    # F = u = 1 under a standard Gaussian prior with n = 10: the natural
    # field is v = 1, the van Trees field v = 1/11, and v = 1 + theta/2 gives
    # <A> = 1, <F> = 5/4, <P> = 3/2
    @pytest.mark.parametrize("v, expected", [
        ({"choice": "natural"}, 1.0 / 11.0),
        ({"choice": "van_trees"}, 1.0 / 11.0),
        ({"choice": "polynomial", "coeffs": [1.0, 0.5]}, 1.0 / 14.0),
    ], ids=["natural", "van_trees", "polynomial"])
    def test_field_choice(self, tmp_path, v, expected):
        cfg = gaussian_optimal_config()
        cfg["kind"] = "bound"
        cfg["v"] = v
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["bound", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())["results"]["bound_report"]
        assert report["v_choice"] == v["choice"]
        assert abs(report["bound"] - expected) <= 1e-6

    def test_van_trees_under_prior_vanishing_at_edges(self, tmp_path):
        # the sin^4 bump is zero at both edge nodes of [0, 1]; B -> 1/(n + 16 pi^2/3)
        cfg = gaussian_optimal_config(nodes=401)
        cfg["kind"] = "bound"
        cfg["grid"] |= {"lower": 0.0, "upper": 1.0}
        cfg["prior"] = {"type": "bump"}
        cfg["v"] = {"choice": "van_trees"}
        out = tmp_path / "o"
        assert main(["bound", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())["results"]["bound_report"]
        assert abs(report["bound"] - 1.0 / (10.0 + 16.0 * np.pi**2 / 3.0)) <= 1e-5


class TestMinimaxScenario:
    def test_quadratic_rate_csv(self, tmp_path):
        cfg = {
            "kind": "minimax",
            "name": "harmonic-rates",
            "potential": {"type": "power", "exponent": 2.0, "amplitude": 1.0},
            "domain": {"half_width": 0.5, "nodes": 1501},
            "n_list": {"start": 1e2, "stop": 1e6, "count": 5},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["minimax", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["results"]["slope"] + 0.5) <= 0.05
        rows = (out / "rates.csv").read_text().strip().splitlines()
        assert rows[0] == "n,e_min,b_worst"
        assert len(rows) == 6

    def test_zero_alignment_exit_3(self, tmp_path, capsys):
        cfg = {
            "kind": "minimax",
            "name": "zero-alignment",
            "potential": {"type": "power", "exponent": 2.0, "amplitude": 1.0},
            "domain": {"half_width": 0.5, "nodes": 501},
            "n_list": {"start": 1e2, "stop": 1e5, "count": 4},
            "alignment": 0.0,
        }
        out = tmp_path / "o"
        assert main(["minimax", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
        assert "alignment" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_overflowing_potential_exit_3(self, tmp_path, capsys):
        # |tau|^2000 overflows to inf away from the origin of a box of half-width 4
        cfg = {
            "kind": "minimax",
            "name": "overflowing-potential",
            "potential": {"type": "power", "exponent": 2000.0, "amplitude": 1.0},
            "domain": {"half_width": 4.0, "nodes": 501},
            "n_list": {"start": 1e2, "stop": 1e5, "count": 4},
        }
        out = tmp_path / "o"
        assert main(["minimax", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
        assert "potential n*F is not finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_box_doubling_failure_names_its_cause(self, tmp_path, capsys):
        # the shipped config at 201 nodes: dx = 0.005 resolves no n = 1e6 state,
        # and every doubling of the box makes the grid coarser still
        with open(os.path.join(SHIPPED_CONFIGS, "minimax_rates_m2.json")) as fh:
            cfg = json.load(fh)
        cfg["domain"]["nodes"] = 201
        out = tmp_path / "o"
        assert main(["minimax", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "ground energy at n = 1e+06 did not converge within 40 box doublings" in err
        assert "the last box (-274877906944.0, 274877906944.0) has dx = 2.749e+09" in err
        assert "each doubling also doubles dx, so the fix is more nodes (nodes = 201)" in err
        assert not (out / "report.json").exists()


class TestQuantumScenario:
    def test_qubit_snr(self, tmp_path):
        cfg = {"kind": "quantum", "name": "qubit-snr", "problem": "qubit",
               "theta": 0.35, "snr_trials": 50}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["quantum", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        res = report["results"]
        assert res["all_bounded"] is True
        assert res["equality_gap"] <= 1e-8

    def test_gaussian_shift(self, tmp_path):
        cfg = {
            "kind": "quantum", "name": "shift", "problem": "gaussian_shift",
            "helstrom": [[2.0]], "prior_curvature": [[1.0]],
            "weight_vector": [1.0],
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["quantum", "--config", path, "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert abs(res["qmax"] - 1.0 / 3.0) <= 1e-12
        assert abs(res["achieved_risk"] - 0.5) <= 1e-12
        assert res["sandwich_holds"] is True

    @pytest.mark.parametrize("helstrom, message", [
        ([[1.0, 2.0], [0.0, 1.0]], "fisher asymmetry"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "must be a square matrix"),
    ], ids=["asymmetric", "non_square"])
    def test_gaussian_shift_bad_helstrom_exit_3(self, tmp_path, capsys, helstrom, message):
        cfg = {"kind": "quantum", "name": "shift", "problem": "gaussian_shift",
               "helstrom": helstrom, "prior_curvature": [[1.0, 0.0], [0.0, 1.0]],
               "weight_vector": [1.0, 1.0]}
        out = tmp_path / "o"
        assert main(["quantum", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_seed_changes_random_sweep(self, tmp_path):
        cfg = {"kind": "quantum", "name": "qubit-snr", "problem": "qubit",
               "theta": 0.35, "snr_trials": 8}
        path = write_config(tmp_path, cfg)
        o1, o2, o3 = (tmp_path / x for x in ("a", "b", "c"))
        main(["quantum", "--config", path, "--out", str(o1)])
        main(["quantum", "--config", path, "--out", str(o2)])
        main(["quantum", "--config", path, "--out", str(o3), "--seed", "7"])
        r1 = (o1 / "report.json").read_bytes()
        r2 = (o2 / "report.json").read_bytes()
        r3 = json.loads((o3 / "report.json").read_text())
        assert r1 == r2  # same default seed -> byte identical
        assert r3["seed"] == 7


class TestWaveformScenario:
    def test_rectangle_with_circulant_sweep(self, tmp_path):
        cfg = {
            "kind": "waveform",
            "name": "rectangle",
            "spectra": {"type": "rectangle", "nodes": 400001},
            "discretization": {"slots": 2048, "dt": 0.25,
                               "sweep": [128, 512, 2048]},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["waveform", "--config", path, "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert abs(res["qmax"] - 0.5) <= 5e-6
        assert abs(res["circulant_bound"] - 0.5) <= 0.01 * 0.5
        rows = (out / "circulant.csv").read_text().strip().splitlines()
        assert len(rows) == 4

    @pytest.mark.parametrize("sweep", [[2048, 128], [128]], ids=["slots_first", "slots_unswept"])
    def test_circulant_bound_is_the_bound_at_slots(self, tmp_path, sweep):
        cfg = {"kind": "waveform", "name": "rectangle",
               "spectra": {"type": "rectangle", "nodes": 200001},
               "discretization": {"slots": 2048, "dt": 0.25, "sweep": sweep}}
        out = tmp_path / "o"
        assert main(["waveform", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert '"circulant_bound": 5.004882812500e-01,' in (out / "report.json").read_text()
        rows = (out / "circulant.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["slots", *map(str, sweep)]
        assert rows[-1].startswith("128,5.078124999999e-01,")

    def test_empty_sweep_exit_2(self, tmp_path, capsys):
        cfg = {
            "kind": "waveform",
            "name": "empty-sweep",
            "spectra": {"type": "rectangle", "nodes": 4001},
            "discretization": {"slots": 64, "dt": 0.25, "sweep": []},
        }
        code = main(["waveform", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: discretization.sweep: ")

    def test_csv_spectra_with_violations(self, tmp_path):
        import csv

        omega = np.linspace(-40, 40, 4001)
        spath = tmp_path / "spec.csv"
        with open(spath, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "s_q", "s_theta", "s_z", "h_abs2", "hx_abs2"])
            for w in omega:
                writer.writerow([w, 0.25, 1.0 / (1.0 + w * w) ** 2,
                                 0.5 * 1.0, 1.0 / (1.0 + w * w), 1.0])
        cfg = {"kind": "waveform", "name": "csv-case",
               "spectra": {"csv": str(spath)}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["waveform", "--config", path, "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        # noise floor: S_Z/|hX|^2 = 0.5 < 1/(4*0.25) = 1 -> one band over the grid
        (band,) = res["violations"]
        assert (band["omega_lo"], band["omega_hi"]) == (-40.0, 40.0)
        assert band["omega"] == -40.0 and band["margin"] == 2.0
        assert "wiener_risk" in res


class TestImagingScenario:
    def test_fisher_task(self, tmp_path):
        cfg = {"kind": "imaging", "name": "one-source",
               "psf": {"catalog": "gaussian", "sigma": 1.0},
               "task": "fisher", "sources": [0.0]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["imaging", "--config", path, "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert abs(res["fisher"][0][0] - 1.0) <= 1e-3

    def test_rank_table(self, tmp_path):
        cfg = {"kind": "imaging", "name": "rank-trend",
               "psf": {"catalog": "gaussian", "sigma": 1.0},
               "task": "helstrom_rank", "halvings": 2}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["imaging", "--config", path, "--out", str(out)]) == 0
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()
        assert rows[0] == "scale,lambda1,lambda2,lambda3"
        assert len(rows) == 4
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["rank_trend_monotone"] is True

    def test_exponent_task(self, tmp_path):
        # two Gaussian sources lose separation information as tau^2
        cfg = {"kind": "imaging", "name": "exponent",
               "psf": {"catalog": "gaussian", "sigma": 1.0}, "task": "exponent"}
        out = tmp_path / "o"
        assert main(["imaging", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert abs(res["exponent"] - 2.0) <= 0.1
        rows = (out / "information.csv").read_text().strip().splitlines()
        assert rows[0] == "tau,information" and len(rows) == 9

    def test_quantum_vs_classical_task(self, tmp_path):
        cfg = {"kind": "imaging", "name": "quantum-vs-classical",
               "psf": {"catalog": "gaussian", "sigma": 1.0},
               "task": "quantum_vs_classical"}
        out = tmp_path / "o"
        assert main(["imaging", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["ordering_holds"] is True
        assert 0.0 < res["qmax"] <= res["bmax"]

    def test_rate_along_zero_direction_exit_3(self, tmp_path, capsys):
        cfg = {"kind": "imaging", "name": "zero-direction",
               "psf": {"catalog": "gaussian", "sigma": 1.0},
               "task": "rate", "direction": [0.0, 0.0]}
        out = tmp_path / "o"
        assert main(["imaging", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
        assert "GridValueError: direction must be nonzero" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_rank_table_from_coarse_csv_psf(self, tmp_path):
        # every 4th sample of the catalog Gaussian: its grid norm misses 1 by
        # ~1e-10, far inside the accepted deficit, and rho must still have
        # unit trace
        from bcrb.imaging import gaussian_psf

        x = np.linspace(-24.0, 24.0, 2049)
        amp = gaussian_psf(1.0).pair_at(x)[0]
        csv_path = tmp_path / "psf.csv"
        csv_path.write_text("x,amplitude\n" + "".join(
            "%.17g,%.17g\n" % row for row in zip(x, amp)))
        cfg = {"kind": "imaging", "name": "coarse-csv-rank-trend",
               "psf": {"csv": str(csv_path)}, "task": "helstrom_rank"}
        out = tmp_path / "o"
        assert main(["imaging", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["rank_trend_monotone"] is True


def invariance_config(map_spec):
    return {
        "kind": "invariance",
        "name": f"{map_spec['catalog']}-map",
        "grid": {"lower": 0.5, "upper": 2.0, "nodes": 2001},
        "model": {
            "fisher": {"type": "polynomial", "coeffs": [1.0, 0.0, 1.0]},
            "weight": {"type": "constant", "value": 1.0},
        },
        "prior": {"type": "gaussian_bump", "center": 1.2, "variance": 0.09},
        "v": {"choice": "unit"},
        "n": 10.0,
        "map": map_spec,
    }


class TestInvarianceScenario:
    def test_cube_map_report(self, tmp_path):
        cfg = invariance_config({"catalog": "odd_power", "power": 3, "target_nodes": 9001})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["invariance", "--config", path, "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["relative_difference"] <= 1e-5
        assert res["control_relative_difference"] > 1e-3
        assert res["invariant"] is True

    @pytest.mark.parametrize("map_spec", [
        {"catalog": "identity"},
        {"catalog": "affine", "scale": 2.0, "offset": 1.0},
        {"catalog": "logistic", "target_nodes": 8001},
    ], ids=["identity", "affine", "logistic"])
    def test_catalog_map_invariant(self, tmp_path, map_spec):
        path = write_config(tmp_path, invariance_config(map_spec))
        out = tmp_path / "o"
        assert main(["invariance", "--config", path, "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["map"] == map_spec["catalog"]
        assert res["invariant"] is True

    def test_van_trees_field_under_affine_map(self, tmp_path):
        cfg = invariance_config({"catalog": "affine", "scale": 2.0, "offset": 0.5})
        cfg["grid"] |= {"lower": -1.0, "upper": 3.4}
        cfg["prior"] = {"type": "gaussian", "center": 1.2, "variance": 0.09}
        cfg["v"] = {"choice": "van_trees"}
        out = tmp_path / "o"
        assert main(["invariance", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["v_choice"] == "van_trees"
        assert res["relative_difference"] <= 1e-12
        assert res["invariant"] is True

    @pytest.mark.parametrize("map_spec, message", [
        ({"catalog": "odd_power", "power": 2}, "odd exponent"),
        ({"catalog": "affine", "scale": 0.0}, "nonzero scale"),
    ], ids=["even_power", "zero_scale"])
    def test_rejected_map_parameters_exit_2(self, tmp_path, capsys, map_spec, message):
        out = tmp_path / "o"
        assert main(["invariance", "--config", write_config(tmp_path, invariance_config(map_spec)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "map: " in err and message in err
        assert not (out / "report.json").exists()


def shipped_results(tmp_path, name, grid_scale):
    path = os.path.join(SHIPPED_CONFIGS, f"{name}.json")
    config = load_config(path)
    out = tmp_path / f"{name}_x{grid_scale}"
    assert main([config["kind"], "--config", path, "--out", str(out),
                 "--grid-scale", str(grid_scale)]) == 0
    return config, json.loads((out / "report.json").read_text())["results"]


class TestObservedOrder:
    """Convergence under --grid-scale 1, 2, 4, read from the shipped reports."""

    SCALES = (1, 2, 4)

    @pytest.mark.parametrize("name, key", [
        ("gaussian_closed_form", lambda res: res["bmax"]),
        ("gill_levit_bound", lambda res: res["bound_report"]["bound"]),
    ], ids=["optimal", "bound"])
    def test_second_order_against_closed_form(self, tmp_path, name, key):
        # unit Fisher information, unit Gaussian prior, n = 10: B = 1 / 11.
        # The finest error sits near the resolution of the reports' %.12e
        # floats, so the threshold stays well below the observed order of ~4
        errs = [abs(key(shipped_results(tmp_path, name, s)[1]) - 1.0 / 11.0)
                for s in self.SCALES]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 1.8, (errs, orders)

    def test_rectangle_first_order_constant(self, tmp_path):
        # each band edge sits on a node, so qmax - 0.5 = d_omega / (8 pi);
        # the default rectangle's omega grid spans +-4 pi
        for s in self.SCALES:
            config, res = shipped_results(tmp_path, "waveform_rectangle", s)
            d_omega = 8.0 * np.pi / ((config["spectra"]["nodes"] - 1) * s)
            ratio = (res["qmax"] - 0.5) / d_omega
            assert abs(ratio * 8.0 * np.pi - 1.0) <= 1e-5, (s, ratio)


class TestNumericalFailureExit:
    def test_overflowing_grid_exit_2(self, tmp_path, capsys):
        cfg = gaussian_optimal_config(nodes=11)
        cfg.update(kind="bound", v={"choice": "unit"}, prior={"type": "uniform"})
        cfg["grid"].update(lower=-1e308, upper=1e308)  # upper - lower overflows
        code = main(["bound", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: grid: axis 0 bounds")
        assert not (tmp_path / "o").exists()

    def test_infinite_information_exit_3(self, tmp_path, capsys):
        cfg = gaussian_optimal_config()
        cfg.update(kind="bound", v={"choice": "polynomial", "coeffs": [1e10]})
        cfg["model"]["fisher"]["value"] = 1e300  # <F> = 1e320 overflows
        code = main(["bound", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "information is inf at n = 10.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_denominator_exit_3(self, tmp_path, capsys):
        cfg = gaussian_optimal_config()
        cfg.update(kind="bound", v={"choice": "unit"}, n=1e10)
        cfg["model"]["fisher"]["value"] = 1e300  # <F> is finite, n <F> is not
        code = main(["bound", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "overflows at n = 10000000000.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_prior_without_mass_exit_3(self, tmp_path, capsys):
        cfg = gaussian_optimal_config(nodes=201)
        cfg["prior"] = {"type": "gaussian", "center": 100.0, "variance": 0.01}
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["optimal", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: GridValueError: prior integrates to 0.0 on the grid; it needs "
            "positive, finite mass to be normalized\n")
        assert not caught
        assert not (tmp_path / "o").exists()
        # numerical warnings raised as errors: still the named error, not a traceback
        src = os.path.dirname(os.path.dirname(bcrb.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bcrb.cli", "optimal",
             "--config", path, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 3
        assert "prior integrates to 0.0" in done.stderr and "Traceback" not in done.stderr

    def test_boundary_violation_exit_3(self, tmp_path, capsys):
        cfg = gaussian_optimal_config(nodes=201)
        cfg["kind"] = "bound"
        cfg["prior"] = {"type": "uniform"}  # rho*v cannot vanish on the boundary
        cfg["v"] = {"choice": "unit"}
        path = write_config(tmp_path, cfg)
        code = main(["bound", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()


CSV_INPUTS = {
    "imaging": ("psf", ["x", "amplitude"], {"task": "fisher"}),
    "waveform": ("spectra", ["omega", "s_q"], {}),
}


class TestMalformedCsvInput:
    @pytest.mark.parametrize("kind", sorted(CSV_INPUTS))
    @pytest.mark.parametrize("rows, where", [
        ([], "no data rows"),
        ([["0.5", "0.5"], ["0.5"]], "line 3"),
        ([["0.5", "abc"]], "line 2"),
        (None, "No such file"),
    ], ids=["header_only", "ragged_row", "non_numeric_cell", "missing_file"])
    def test_exit_2_naming_field_file_and_line(self, tmp_path, capsys, kind, rows, where):
        key, header, extra = CSV_INPUTS[kind]
        csv_path = tmp_path / "input.csv"
        if rows is not None:
            csv_path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
        cfg = {"kind": kind, "name": "malformed-csv", key: {"csv": str(csv_path)}, **extra}
        code = main([kind, "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{key}.csv" in err and str(csv_path) in err and where in err


class TestShippedConfigs:
    def test_all_shipped_configs_validate(self):
        import glob

        paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                              "configs", "*.json")))
        assert len(paths) >= 7
        kinds = set()
        for path in paths:
            cfg = load_config(path)
            kinds.add(cfg["kind"])
        assert kinds == {"bound", "optimal", "minimax", "quantum", "waveform",
                         "imaging", "invariance"}

    def test_imaging_rate_task(self, tmp_path):
        cfg = {
            "kind": "imaging", "name": "rate-task",
            "psf": {"catalog": "gaussian", "sigma": 1.0},
            "task": "rate", "direction": [1.0, -1.0],
            "n_list": {"start": 1e2, "stop": 1e5, "count": 4},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["imaging", "--config", path, "--out", str(out)]) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert abs(res["slope"] + 0.5) <= 0.1


def write_psf_csv(tmp_path, bad=None, sigma=2.0, repeat_x=False):
    """Gaussian amplitude samples on [-24, 24]; ``bad`` replaces one amplitude,
    ``repeat_x`` gives one row the x of its neighbour."""
    x = np.linspace(-24.0, 24.0, 481)
    if repeat_x:
        x[241] = x[240]
    amp = np.exp(-x**2 / (4.0 * sigma**2))
    cells = ["%.17g" % a for a in amp]
    if bad is not None:
        cells[240] = bad
    path = tmp_path / "psf.csv"
    path.write_text("x,amplitude\n" + "".join(
        "%.17g,%s\n" % (xi, a) for xi, a in zip(x, cells)))
    return str(path)


def gaussian_shift_config():
    return {"kind": "quantum", "name": "shift", "problem": "gaussian_shift",
            "helstrom": [[2.0]], "prior_curvature": [[1.0]], "weight_vector": [1.0]}


def without(config, key):
    return {k: v for k, v in config.items() if k != key}


class TestSchemaHoldsEveryRule:
    def test_cli_validates_once(self, tmp_path, monkeypatch):
        calls = []
        validate = scenarios.validate_config
        monkeypatch.setattr(scenarios, "validate_config",
                            lambda config: calls.append(config) or validate(config))
        path = os.path.join(SHIPPED_CONFIGS, "quantum_qubit_snr.json")
        assert main(["quantum", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_shipped_schema_is_valid(self):
        from jsonschema.validators import validator_for

        schema = load_schema()
        validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("kind, config, field, key", [
        ("optimal", {**gaussian_optimal_config(201), "model": {
            "fisher": {"type": "constant"}, "weight": {"type": "constant", "value": 1.0}}},
         "model.fisher", "value"),
        ("optimal", {**gaussian_optimal_config(201), "model": {
            "fisher": {"type": "constant", "value": 1.0}, "weight": {"type": "polynomial"}}},
         "model.weight", "coeffs"),
        ("imaging", {"kind": "imaging", "name": "no-psf", "psf": {}, "task": "fisher"},
         "psf", "{}"),
        ("waveform", {"kind": "waveform", "name": "no-spectra", "spectra": {}},
         "spectra", "{}"),
        ("quantum", without(gaussian_shift_config(), "helstrom"), "<root>", "helstrom"),
        ("quantum", without(gaussian_shift_config(), "prior_curvature"),
         "<root>", "prior_curvature"),
        ("quantum", without(gaussian_shift_config(), "weight_vector"),
         "<root>", "weight_vector"),
        ("imaging", {"kind": "imaging", "name": "three-sources", "psf": {"catalog": "gaussian"},
                     "task": "quantum_vs_classical", "sources": [-0.5, 0.0, 0.5]},
         "sources", "is too long"),
        ("imaging", {"kind": "imaging", "name": "one-source", "psf": {"catalog": "gaussian"},
                     "task": "quantum_vs_classical", "sources": [0.0]},
         "sources", "is too short"),
    ], ids=["constant_without_value", "polynomial_without_coeffs", "empty_psf",
            "empty_spectra", "shift_without_helstrom", "shift_without_prior_curvature",
            "shift_without_weight_vector", "separation_with_three_sources",
            "separation_with_one_source"])
    def test_conditional_rule_exit_2_naming_field(self, tmp_path, capsys, kind, config,
                                                  field, key):
        code = main([kind, "--config", write_config(tmp_path, config),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and key in err

    def test_psf_with_catalog_and_csv_uses_csv(self, tmp_path):
        csv_path = write_psf_csv(tmp_path)
        results = {}
        for name, psf in [("both", {"catalog": "gaussian", "csv": csv_path}),
                          ("csv", {"csv": csv_path}), ("catalog", {"catalog": "gaussian"})]:
            cfg = {"kind": "imaging", "name": name, "psf": psf, "task": "fisher"}
            out = tmp_path / name
            assert main(["imaging", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                         "--out", str(out)]) == 0
            results[name] = json.loads((out / "report.json").read_text())["results"]
        assert results["both"] == results["csv"]
        assert results["both"] != results["catalog"]


class TestNonFinitePsf:
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("task", ["fisher", "helstrom_rank"])
    def test_exit_2_naming_psf_csv(self, tmp_path, capsys, bad, task):
        cfg = {"kind": "imaging", "name": "non-finite-psf",
               "psf": {"csv": write_psf_csv(tmp_path, bad)}, "task": task}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["imaging", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "psf.csv" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestPsfWithoutIntensityMass:
    def test_exit_2_naming_psf_csv(self, tmp_path, capsys):
        path = tmp_path / "psf.csv"
        path.write_text("x,amplitude\n" + "".join(
            "%.17g,0\n" % x for x in np.linspace(-24.0, 24.0, 481)))
        cfg = {"kind": "imaging", "name": "zero-psf", "psf": {"csv": str(path)},
               "task": "fisher"}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["imaging", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: psf.csv: ")
        assert "psf.csv: PSF intensity integrates to 0.0" in err
        assert not caught


class TestCatalogWidthOutOfRange:
    def test_exit_2_naming_psf_sigma(self, tmp_path, capsys):
        with open(os.path.join(SHIPPED_CONFIGS, "imaging_rank_trend.json")) as fh:
            cfg = json.load(fh)
        cfg["psf"]["sigma"] = 1e-200  # its squared width underflows to 0
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["imaging", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: psf.sigma: sigma = 1e-200 ")
        assert not caught
        # numerical warnings raised as errors: still the named error
        src = os.path.dirname(os.path.dirname(bcrb.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bcrb.cli", "imaging",
             "--config", path, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("error: psf.sigma: ") and "Traceback" not in done.stderr
        assert not (tmp_path / "o").exists()


class TestInfiniteFrequencyEndpoints:
    def test_exit_2_naming_spectra_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "spectra.csv"
        csv_path.write_text("omega,s_q,s_theta,h_abs2\n"
                            "-inf,1,1,0\n0,1,1,1\ninf,1,1,0\n")
        cfg = {"kind": "waveform", "name": "infinite-omega",
               "spectra": {"csv": str(csv_path)}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["waveform", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "spectra.csv" in err and "frequency grid must be finite" in err
        assert not caught
        assert not (tmp_path / "o").exists()


class TestRepeatedPsfX:
    @pytest.mark.parametrize("task", ["fisher", "helstrom_rank", "exponent"])
    def test_exit_2_naming_psf_csv(self, tmp_path, capsys, task):
        cfg = {"kind": "imaging", "name": "repeated-x-psf",
               "psf": {"csv": write_psf_csv(tmp_path, repeat_x=True)}, "task": task}
        code = main(["imaging", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: psf.csv: ") and "psf.csv: x values" in err


class TestStartup:
    def test_cli_import_leaves_scipy_interpolate_unloaded(self):
        # scipy.interpolate costs about half a second of every start; only
        # the code that interpolates imports it, when it first runs
        src = os.path.dirname(os.path.dirname(bcrb.__file__))
        code = "import sys, bcrb.cli; print('scipy.interpolate' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert done.stdout.strip() == "False"

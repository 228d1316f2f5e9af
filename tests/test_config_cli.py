import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resetctrl
from resetctrl import analysis
from resetctrl.cli import main
from resetctrl.config import (
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    ScheduleSpec,
    StatesSpec,
    SwitchingSpec,
    TolerancesSpec,
    default_config,
    qubit_defaults,
)
from resetctrl.generators import effective_hamiltonian
from resetctrl.models import bloch_density


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        cfg = default_config()
        assert ExperimentConfig.loads(cfg.dumps()) == cfg

    def test_qubit_defaults_round_trip(self):
        cfg = qubit_defaults()
        assert ExperimentConfig.loads(cfg.dumps()) == cfg

    def test_custom_round_trip(self):
        cfg = ExperimentConfig(
            model=ModelSpec(
                kind="oscillator_qubit",
                nu=2.0,
                omega=1.5,
                n_vec=(0.0, 1.0, 0.0),
                cutoff=14,
                switching=SwitchingSpec(kind="square_pulse", peak=1.2, start=0.1, stop=0.8),
            ),
            states=StatesSpec(rho_a_bloch=(0.0, 0.0, 1.0), initial_kind="fock", fock_index=2),
            schedule=ScheduleSpec(f_list=(8.0,), total_time=3.0, samples_per_cycle=2),
            tolerances=TolerancesSpec(step_tol=1e-8, map_tol=1e-9),
        )
        assert ExperimentConfig.loads(cfg.dumps()) == cfg

    def test_hash_stable_under_key_order(self):
        cfg = default_config()
        data = json.loads(cfg.dumps())
        reordered = {k: data[k] for k in reversed(list(data))}
        assert ExperimentConfig.from_dict(reordered).config_hash() == cfg.config_hash()

    def test_default_hashes_are_pinned(self):
        # the canonical JSON, and so the hash, of both default configs
        assert default_config().config_hash() == (
            "1896456d2fe61dd38fbf5becad45bd858632cf44e68a97f1b19a8fdff2448dfb"
        )
        assert qubit_defaults().config_hash() == (
            "d6875ea9bc0eea15c8b4dc29a4d53610416492596347ed934b35d206334109df"
        )

    def test_matrix_states_round_trip(self):
        cfg = ExperimentConfig(
            model=ModelSpec(kind="qubit_qubit", cutoff=2),
            states=StatesSpec(
                rho_a_bloch=(0.0, -0.4, 0.0),
                initial_kind="matrix",
                initial_matrix=(((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0))),
            ),
        )
        again = ExperimentConfig.loads(cfg.dumps())
        assert again == cfg
        rho_a = again.states.build_rho_a()
        np.testing.assert_allclose(rho_a.matrix, [[0.5, 0.2j], [-0.2j, 0.5]])
        _, rho0 = again.states.build_initial(2)
        np.testing.assert_allclose(rho0.matrix, [[1.0, 0.0], [0.0, 0.0]])


class TestConfigValidation:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict({"bogus": {}})

    def test_unknown_field_names_path(self):
        with pytest.raises(ConfigError, match="model"):
            ExperimentConfig.from_dict({"model": {"frequency": 1.0}})

    def test_bad_switching_kind(self):
        cfg = ExperimentConfig.from_dict({"model": {"switching": {"kind": "triangle"}}})
        with pytest.raises(ConfigError, match="switching.kind"):
            cfg.model.build()

    def test_bad_bloch_vector(self):
        cfg = ExperimentConfig.from_dict({"states": {"rho_a_bloch": [2.0, 0.0, 0.0]}})
        with pytest.raises(ConfigError, match="rho_a_bloch"):
            cfg.states.build_rho_a()

    def test_bad_schedule(self):
        with pytest.raises(ConfigError, match="f_list"):
            ExperimentConfig.from_dict({"schedule": {"f_list": [0.0]}})

    def test_snapping(self):
        sched = ScheduleSpec(f_list=(3.0,), total_time=1.0)
        n, t = sched.snapped_cycles(3.0)
        assert n == 3 and t == pytest.approx(1.0)
        n, t = sched.snapped_cycles(2.6)
        assert n == 3 and t == pytest.approx(3 / 2.6)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        from resetctrl.config import load_config

        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))


class TestSwitchingSpec:
    @pytest.mark.parametrize(
        "spec, mean",
        [
            (SwitchingSpec(kind="constant", peak=1.7), 1.7),
            (SwitchingSpec(kind="sin_squared", peak=2.0), 1.0),
            (SwitchingSpec(kind="square_pulse", peak=2.0, start=0.25, stop=0.75), 1.0),
            (SwitchingSpec(kind="table", zs=(0.0, 1.0), values=(0.0, 2.0)), 1.0),
        ],
    )
    def test_builtin_means(self, spec, mean):
        assert spec.build().mean == pytest.approx(mean, abs=1e-10)


class TestCli:
    def test_chernoff_csv_and_footer(self, tmp_path):
        out = tmp_path / "out"
        assert main(["chernoff", "--out", str(out), "--quiet"]) == 0
        header, rows = read_csv(out / "chernoff.csv")
        assert header == ["n", "deviation"]
        assert [r[0] for r in rows[:-1]] == ["16", "32", "64", "128", "256"]
        assert rows[-1][0] == "fitted_order"
        assert -1.3 <= float(rows[-1][1]) <= -0.7
        meta = json.loads((out / "chernoff.meta.json").read_text())
        assert meta["kind"] == "chernoff"
        assert meta["config_hash"] == qubit_defaults().config_hash()

    def test_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["chernoff", "--out", str(out), "--quiet"]) == 0
            assert main(["strobe", "--out", str(out), "--quiet"]) == 0
        for name in ("chernoff.csv", "chernoff.meta.json", "strobe.csv", "strobe.meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_lie_dimension(self, tmp_path):
        out = tmp_path / "out"
        assert main(["lie", "--out", str(out), "--quiet"]) == 0
        _, rows = read_csv(out / "lie.csv")
        assert rows == [["sigma_z|sigma_x", "3"]]

    def test_strobe_constant_switching_has_zero_deviation(self, tmp_path):
        cfg = dataclasses.replace(
            qubit_defaults(),
            model=dataclasses.replace(
                qubit_defaults().model, switching=SwitchingSpec(kind="constant", peak=1.0)
            ),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        out = tmp_path / "out"
        assert main(["strobe", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        header, rows = read_csv(out / "strobe.csv")
        dev_col = header.index("deviation")
        assert all(float(r[dev_col]) <= 1e-9 for r in rows)
        ok_col = header.index("bound_ok")
        assert all(r[ok_col] == "1" for r in rows)

    def test_effective_matches_api(self, tmp_path):
        out = tmp_path / "out"
        assert main(["effective", "--out", str(out), "--cutoff", "6", "--quiet"]) == 0
        header, rows = read_csv(out / "effective.csv")
        assert header == ["row", "col", "real", "imag"]
        cfg = dataclasses.replace(
            default_config(), model=dataclasses.replace(default_config().model, cutoff=6)
        )
        model, gen = cfg.model.build()
        h_eff = effective_hamiltonian(gen, bloch_density((1.0, 0.0, 0.0))).matrix
        got = np.zeros((6, 6), dtype=complex)
        for r in rows:
            got[int(r[0]), int(r[1])] = float(r[2]) + 1j * float(r[3])
        np.testing.assert_allclose(got, h_eff, atol=1e-12)

    def test_gradual_monotone(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gradual", "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "gradual.meta.json").read_text())
        assert meta["monotone_decreasing"] is True

    def test_gradual_unsorted_kappas_are_sorted(self, tmp_path):
        cfg = dataclasses.replace(
            qubit_defaults(),
            experiment=dataclasses.replace(
                qubit_defaults().experiment, gradual_kappas=(8.0, 4.0, 16.0, 32.0, 64.0)
            ),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        out = tmp_path / "out"
        assert main(["gradual", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        _, rows = read_csv(out / "gradual.csv")
        assert [float(r[0]) for r in rows] == [4.0, 8.0, 16.0, 32.0, 64.0]
        meta = json.loads((out / "gradual.meta.json").read_text())
        assert meta["monotone_decreasing"] is True

    def test_unknown_model_kind_exits_one(self, tmp_path, capsys):
        data = json.loads(qubit_defaults().dumps())
        data["model"]["kind"] = "qubit-qubit"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 1
        assert "config error: model.kind: " in capsys.readouterr().err
        assert not (tmp_path / "simulate.csv").exists()

    @pytest.mark.parametrize("kind, use_config", [("lie", False), ("effective", True)])
    def test_cutoff_on_qubit_model_exits_one(self, tmp_path, capsys, kind, use_config):
        args = [kind, "--cutoff", "13", "--out", str(tmp_path), "--quiet"]
        if use_config:
            path = tmp_path / "cfg.json"
            path.write_text(qubit_defaults().dumps())
            args += ["--config", str(path)]
        assert main(args) == 1
        assert "config error: --cutoff: " in capsys.readouterr().err
        assert not (tmp_path / f"{kind}.csv").exists()

    def test_config_output_path_used_when_no_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dataclasses.replace(
            qubit_defaults(), output=dataclasses.replace(qubit_defaults().output, path="from_cfg")
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["lie", "--config", str(path), "--quiet"]) == 0
        assert (tmp_path / "from_cfg" / "lie.csv").exists()

    def test_missing_actuator_state(self):
        with pytest.raises(ConfigError, match="states.rho_a_bloch"):
            ExperimentConfig.from_dict({"states": {"rho_a_bloch": None}})

    @pytest.mark.parametrize(
        "kind, section",
        [
            ("chernoff", {"experiment": {"chernoff_ns": [4, 8]}}),
            ("strobe", {"experiment": {"strobe_tau_fractions": [1.5]}}),
            ("gradual", {"experiment": {"gradual_time": -1.0}}),
            ("dissipative", {"schedule": {"f_list": [20.0, 40.0]}}),
        ],
    )
    def test_bad_grid_configs_exit_one(self, tmp_path, kind, section):
        data = json.loads(qubit_defaults().dumps())
        for key, value in section.items():
            data[key].update(value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "kind, section, field, order_key",
        [
            ("chernoff", "experiment", "chernoff_ns", "fitted_order"),
            ("dissipative", "schedule", "f_list", "slope_order"),
        ],
    )
    def test_reversed_grid_fits_the_same_order(self, tmp_path, kind, section, field, order_key):
        orders = []
        for name, flip in (("ascending", False), ("reversed", True)):
            data = json.loads(qubit_defaults().dumps())
            data[section][field] = sorted(data[section][field], reverse=flip)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            out = tmp_path / name
            assert main([kind, "--config", str(path), "--out", str(out), "--quiet"]) == 0
            orders.append(json.loads((out / f"{kind}.meta.json").read_text())[order_key])
        assert orders[0] == orders[1]

    @pytest.mark.parametrize(
        "kind, section",
        [
            ("chernoff", {"experiment": {"chernoff_ns": [16, 16, 32]}}),
            ("dissipative", {"schedule": {"f_list": [20.0, 20.0, 40.0]}}),
            ("gradual", {"experiment": {"gradual_kappas": [4.0, 8.0, 4.0]}}),
            ("simulate", {"schedule": {"f_list": [5.0, 5.0]}}),
            ("fig1", {"schedule": {"f_list": [5.0, 5.0]}}),
        ],
    )
    def test_repeated_grid_entries_exit_one(self, tmp_path, kind, section):
        data = json.loads(qubit_defaults().dumps())
        for key, value in section.items():
            data[key].update(value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == 1
        assert not (tmp_path / f"{kind}.csv").exists()

    @pytest.mark.parametrize(
        "kind, section, field",
        [
            ("chernoff", {"experiment": {"chernoff_ns": [16, 32.0, 64]}},
             "experiment.chernoff_ns"),
            ("chernoff", {"experiment": {"chernoff_ns": 32.5}}, "experiment.chernoff_ns"),
            ("simulate", {"schedule": {"samples_per_cycle": 2.0}}, "schedule.samples_per_cycle"),
            ("simulate", {"model": {"cutoff": "30"}}, "model.cutoff"),
            ("simulate", {"states": {"fock_index": 1.0}}, "states.fock_index"),
            ("simulate", {"model": {"switching": "sin_squared"}}, "model.switching"),
            ("chernoff", {"experiment": {"chernoff_time": "1"}}, "experiment.chernoff_time"),
            ("simulate", {"model": {"nu": "1"}}, "model.nu"),
            ("simulate", {"tolerances": {"step_tol": "1e-9"}}, "tolerances.step_tol"),
            ("simulate", {"states": {"alpha": [1, "x"]}}, "states.alpha"),
            ("effective", {"states": {"rho_a_bloch": None}}, "states.rho_a_bloch"),
            ("simulate", {"schedule": {"total_time": True}}, "schedule.total_time"),
            ("effective", {"model": {"nu": float("nan")}}, "model.nu"),
            ("chernoff", {"experiment": {"chernoff_time": float("inf")}}, "experiment.chernoff_time"),
            ("gradual", {"tolerances": {"step_tol": -1}}, "tolerances.step_tol"),
            ("chernoff", {"tolerances": {"map_tol": 0}}, "tolerances.map_tol"),
        ],
    )
    def test_malformed_field_exits_one_naming_it(self, tmp_path, capsys, kind, section, field):
        data = json.loads(qubit_defaults().dumps())
        for key, value in section.items():
            data[key].update(value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main([kind, "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 1
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / f"{kind}.csv").exists()

    @pytest.mark.parametrize(
        "kind, section, field, value",
        [
            ("effective", "states", "rho_a_matrix", None),
            ("lie", "experiment", "lie_generators", ["sigma_z", "sigma_x"]),
        ],
    )
    def test_removed_field_exits_one_naming_it(self, tmp_path, capsys, kind, section, field, value):
        # configs dumped before the actuator matrix and the Lie generator
        # names left the schema carry these fields, at their old defaults
        data = json.loads(qubit_defaults().dumps())
        data[section][field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main([kind, "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 1
        assert f"config error: {section}: unknown fields ['{field}']" in capsys.readouterr().err
        assert not (tmp_path / f"{kind}.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bogus": 1}')
        assert main(["chernoff", "--config", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("kind", ["chernoff", "dissipative", "strobe", "gradual"])
    def test_oversized_model_for_analysis_kind(self, tmp_path, kind):
        # the analysis kinds accept the oscillator model above the dense
        # superoperator limit (cutoff 13: joint dimension 26)
        path = tmp_path / "cfg.json"
        path.write_text(default_config().dumps())
        out = tmp_path / "out"
        args = [kind, "--config", str(path), "--cutoff", "13", "--out", str(out), "--quiet"]
        assert main(args) == 0
        header, rows = read_csv(out / f"{kind}.csv")
        assert rows

    def test_non_convergence_exit_code(self, tmp_path):
        cfg = dataclasses.replace(
            qubit_defaults(),
            schedule=ScheduleSpec(f_list=(5.0,), total_time=0.4, samples_per_cycle=1),
            tolerances=TolerancesSpec(step_tol=1e-16),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_non_convergence_prints_the_ladder(self, tmp_path, capsys):
        cfg = dataclasses.replace(
            qubit_defaults(),
            schedule=ScheduleSpec(f_list=(5.0,), total_time=0.4, samples_per_cycle=1),
            tolerances=TolerancesSpec(step_tol=1e-16),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical non-convergence: cycle propagation")
        # every level of the ladder up to the cap 2^14
        tried = re.findall(r"\[(\d+), [0-9.e+-]+\]", err.split("ladder", 1)[1])
        assert [int(s) for s in tried] == [2 ** k for k in range(1, 15)]

    def test_numerical_range_exit_code(self, tmp_path, capsys):
        # a reset rate of 1e6 puts the damped Liouvillian's 1-norm beyond the
        # exponential's range at the first ladder level
        cfg = dataclasses.replace(
            qubit_defaults(),
            experiment=dataclasses.replace(qubit_defaults().experiment, gradual_kappas=(4.0, 1e6)),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["gradual", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical range error: matrix 1-norm")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "gradual.csv").exists()

    def test_cutoff_flag_exit_code(self, tmp_path):
        # cutoff 13 passes the coherent tail check but trips the
        # top-two-level population flag during evolution
        assert main(["simulate", "--cutoff", "13", "--out", str(tmp_path), "--quiet"]) == 3
        meta = json.loads((tmp_path / "simulate.meta.json").read_text())
        assert meta["trajectory"]["cutoff_flag"] is True

    def test_fig1_cutoff_flag_exit_code(self, tmp_path):
        cfg = dataclasses.replace(
            default_config(),
            model=dataclasses.replace(default_config().model, cutoff=13),
            schedule=ScheduleSpec(f_list=(5.0,), total_time=2.0, samples_per_cycle=1),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["fig1", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 3
        # outputs are still written so the offending run can be inspected
        assert (tmp_path / "fig1.csv").exists()

    @pytest.mark.parametrize("kind", ["simulate", "fig1"])
    def test_cutoff_verdict_names_population_and_limit(self, tmp_path, capsys, kind):
        cfg = dataclasses.replace(
            default_config(),
            model=dataclasses.replace(default_config().model, cutoff=13),
            schedule=ScheduleSpec(f_list=(5.0,), total_time=2.0, samples_per_cycle=1),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main([kind, "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 3
        meta = json.loads((tmp_path / f"{kind}.meta.json").read_text())
        top = (meta["trajectory"] if kind == "simulate" else meta["per_f"]["5.0"])["top_level_max"]
        assert capsys.readouterr().err == (
            f"invariant violation: f=5.0: top-two-level population {top:.3e} exceeds "
            "the limit 1e-06; raise the cutoff\n"
        )

    def test_simulate_csv_schema(self, tmp_path):
        cfg = dataclasses.replace(
            default_config(),
            model=dataclasses.replace(default_config().model, cutoff=16),
            schedule=ScheduleSpec(f_list=(5.0,), total_time=1.0, samples_per_cycle=2),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        header, rows = read_csv(out / "simulate.csv")
        assert header == ["t", "fidelity_eff", "purity", "n_mean", "x_mean", "p_mean"]
        assert len(rows) == 1 + 5 * 2
        assert float(rows[0][1]) == pytest.approx(1.0)

    def test_fig1_cutoff_robustness(self, tmp_path):
        # truncation convergence: raising the Fock cutoff from 30 to 40
        # moves every fidelity value by less than 1e-6
        curves = {}
        for cutoff in (30, 40):
            out = tmp_path / f"c{cutoff}"
            assert main(["fig1", "--out", str(out), "--cutoff", str(cutoff), "--quiet"]) == 0
            header, rows = read_csv(out / "fig1.csv")
            curves[cutoff] = [(r[0], r[1], float(r[2])) for r in rows]
        assert len(curves[30]) == len(curves[40])
        worst = 0.0
        for (t30, f30, fid30), (t40, f40, fid40) in zip(curves[30], curves[40]):
            assert (t30, f30) == (t40, f40)
            worst = max(worst, abs(fid30 - fid40))
        assert worst < 1e-6

    def test_fig1_rows_ordered_by_config(self, tmp_path):
        cfg = dataclasses.replace(
            default_config(),
            model=dataclasses.replace(default_config().model, cutoff=20),
            schedule=ScheduleSpec(f_list=(4.0, 2.0), total_time=2.0, samples_per_cycle=2),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        out = tmp_path / "out"
        assert main(["fig1", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        header, rows = read_csv(out / "fig1.csv")
        assert header == ["t", "f", "fidelity"]
        fs = [float(r[1]) for r in rows]
        assert fs == sorted(fs, reverse=True)  # first configured f first
        times_f4 = [float(r[0]) for r in rows if r[1] == "4.0"]
        assert times_f4 == sorted(times_f4)
        assert len(times_f4) == 1 + 8 * 2

    @pytest.mark.parametrize("kind", ["strobe", "gradual"])
    @pytest.mark.parametrize("step_tol", [1e-4, 1e-12])
    def test_configured_step_tol_reaches_the_propagator(
        self, tmp_path, monkeypatch, kind, step_tol
    ):
        seen = []
        propagate = analysis.intra_cycle_trajectory

        def spy(*args, **kwargs):
            seen.append(kwargs.get("step_tol"))
            return propagate(*args, **kwargs)

        monkeypatch.setattr(analysis, "intra_cycle_trajectory", spy)
        cfg = dataclasses.replace(qubit_defaults(), tolerances=TolerancesSpec(step_tol=step_tol))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main([kind, "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        assert seen and set(seen) == {step_tol}


    @pytest.mark.parametrize(
        "switching",
        [
            {"kind": "table", "zs": [0, 0.4], "values": [1, 1]},
            {"kind": "square_pulse", "start": 0.7, "stop": 0.2},
            {"kind": "table", "zs": [0, 0.5, 1], "values": [1, 1]},
        ],
    )
    def test_invalid_switching_shape_exits_one(self, tmp_path, capsys, switching):
        data = json.loads(qubit_defaults().dumps())
        data["model"]["switching"].update(switching)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["effective", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: model.switching: ") and err.count("\n") == 1
        assert not (tmp_path / "effective.csv").exists()

    def test_dissipative_times_on_one_cycle_count_exit_one(self, tmp_path, capsys):
        # at f = 20 and f = 40 both times snap to a single cycle count
        data = json.loads(qubit_defaults().dumps())
        data["experiment"]["dissipative_times"] = [0.5, 0.51]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        args = ["dissipative", "--config", str(path), "--out", str(tmp_path), "--quiet"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment.dissipative_times: at f=20.0 ")
        assert err.count("\n") == 1
        assert not (tmp_path / "dissipative.csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "config root: expected an object"),
            ('{"schedule": {}, "bogus": {}}', "config root: unknown fields ['bogus']"),
        ],
    )
    def test_invalid_root_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["lie", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "lie.csv").exists()


class TestStdout:
    """Without --quiet each kind prints its summary; with it, nothing."""

    KINDS = ("effective", "simulate", "fig1", "chernoff", "dissipative", "strobe", "gradual", "lie")

    @staticmethod
    def _run(kind, tmp_path, capsys, quiet):
        if kind in ("effective", "fig1"):
            cfg = dataclasses.replace(
                default_config(),
                model=dataclasses.replace(default_config().model, cutoff=20),
                schedule=ScheduleSpec(f_list=(4.0, 2.0), total_time=2.0, samples_per_cycle=2),
            )
        else:
            cfg = dataclasses.replace(
                qubit_defaults(),
                schedule=dataclasses.replace(qubit_defaults().schedule, total_time=1.0),
            )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        out = tmp_path / "out"
        args = [kind, "--config", str(path), "--out", str(out)] + ["--quiet"] * quiet
        capsys.readouterr()
        assert main(args) == 0
        return out, capsys.readouterr().out

    @pytest.mark.parametrize("kind", KINDS)
    def test_quiet_prints_nothing(self, tmp_path, capsys, kind):
        assert self._run(kind, tmp_path, capsys, quiet=True)[1] == ""

    @pytest.mark.parametrize("kind", KINDS)
    def test_summary(self, tmp_path, capsys, kind):
        out, stdout = self._run(kind, tmp_path, capsys, quiet=False)
        _, rows = read_csv(out / f"{kind}.csv")
        meta = json.loads((out / f"{kind}.meta.json").read_text())
        if kind == "effective":
            h_eff = np.zeros((20, 20), dtype=complex)
            for r in rows:
                h_eff[int(r[0]), int(r[1])] = float(r[2]) + 1j * float(r[3])
            with np.printoptions(precision=6, suppress=True, linewidth=120):
                expected = f"effective Hamiltonian:\n{h_eff}\n"
        else:
            rounded = [float(f"{float(r[1]):.3e}") for r in rows]  # the gradual deviations
            expected = {
                "simulate": "",
                "fig1": "fig1: f=4.0 done (8 cycles)\nfig1: f=2.0 done (4 cycles)\n",
                "chernoff": f"chernoff: fitted order {meta.get('fitted_order')}\n",
                "dissipative": f"dissipative: slope-vs-f order {meta.get('slope_order')}\n",
                "strobe": "",
                "gradual": f"gradual: deviations {rounded}\n",
                "lie": "lie: algebra dimension 3\n",
            }[kind]
        assert stdout == expected


class TestRuntimeNeedsNoScipy:
    """scipy is a test dependency only: the package runs with it blocked."""

    @staticmethod
    def _python(code):
        src = str(Path(resetctrl.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300,
        )

    def test_cli_runs_with_scipy_blocked(self, tmp_path):
        done = self._python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from resetctrl.cli import main\n"
            f"sys.exit(main(['gradual', '--quiet', '--out', {str(tmp_path)!r}]))\n"
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "gradual.csv").exists()

    def test_import_loads_no_scipy(self):
        done = self._python(
            "import sys, resetctrl.cli\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


def test_parser_is_built_once():
    from resetctrl.cli import build_parser

    assert build_parser() is build_parser()
    # parsing leaves the shared parser as it was
    assert build_parser().parse_args(["fig1", "--quiet"]).kind == "fig1"
    assert build_parser().parse_args(["simulate"]).quiet is False


def test_effective_reference_is_evolved_for_all_times_at_once(rng):
    from resetctrl.experiments import _effective_evolver
    from resetctrl.qcore import expm_hermitian

    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = a + a.conj().T
    psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi0 /= np.linalg.norm(psi0)
    times = np.array([0.0, 0.3, 1.7, 4.0])
    got = _effective_evolver(h, times, psi0)
    assert got.shape == (4, 6)
    for row, t in zip(got, times):
        assert np.max(np.abs(row - expm_hermitian(h, -1j * t) @ psi0)) <= 1e-13

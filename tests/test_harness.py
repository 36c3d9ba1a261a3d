"""Scenario schema strictness, the run loop, file outputs, sweeps,
run_many, CLI."""

import csv
import json
import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from kslogistic import harness
from kslogistic.cli import main
from kslogistic.harness import (
    CSV_COLUMNS,
    HarnessError,
    emit_plot_data,
    run,
    run_experiment,
    run_many,
    sweep,
    write_sweep_csv,
)
from kslogistic.params import Params
from kslogistic.scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
    with_value,
)
from kslogistic.stepper import StepControl

TINY = {
    "schema_version": 1,
    "name": "tiny",
    "grid": {"dim": 1, "n": 64, "half_width": 10.0},
    "params": {"chi": 0.3, "a": 1.0, "b": 1.0},
    "ic": {"kind": "gaussian", "amplitude": 2.0, "width": 1.5},
    "control": {"dt": 0.01, "t_end": 0.5},
    "diagnostics": {"sample_interval": 0.1},
    "checks": {"sandwich": {}, "mass_growth": {"r": 1.0, "tol": 1e-6}},
}


# every section key of the scenario file, by the kind of value it takes
NUMBER_KEYS = [
    "grid.half_width", "params.chi", "params.a", "params.b",
    "ic.amplitude", "ic.center", "ic.radius", "ic.width", "ic.floor",
    "control.dt", "control.t_end", "control.negativity_budget",
    "control.blowup_threshold", "diagnostics.sample_interval",
    "diagnostics.front_level", "diagnostics.guard",
    "diagnostics.equilibrium_radius", "diagnostics.cstar_inner_factor",
]
INTEGER_KEYS = ["grid.dim", "grid.n", "ic.seed", "diagnostics.snapshot_every"]
OTHER_KEYS = ["control.dealias", "ic.kind"]
NULLABLE_KEYS = {
    "diagnostics.front_level", "diagnostics.equilibrium_radius",
    "control.negativity_budget", "control.blowup_threshold",
}
WRONG_KIND = (
    [(key, bad) for key in NUMBER_KEYS for bad in ("1.0", True)]
    + [(key, bad) for key in INTEGER_KEYS for bad in ("1", True, 2.5)]
    + [("control.dealias", 1), ("ic.kind", 3)]
)


def tiny(**patch) -> Scenario:
    data = json.loads(json.dumps(TINY))
    for key, val in patch.items():
        if isinstance(val, dict) and key in data:
            data[key].update(val)
        else:
            data[key] = val
    return scenario_from_dict(data)


class TestSchema:
    def test_round_trip_preserves_normalized_form(self):
        sc = tiny()
        again = scenario_from_dict(sc.to_dict())
        assert again == sc

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bundled_scenarios_load(self, name):
        sc = load_scenario(bundled_scenario_path(name))
        assert sc.name == name
        assert scenario_from_dict(sc.to_dict()) == sc

    def test_bundled_unknown_name(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            bundled_scenario_path("nope")

    def test_unknown_top_level_key(self):
        data = dict(TINY, extra=1)
        with pytest.raises(ScenarioError, match="extra"):
            scenario_from_dict(data)

    def test_unknown_nested_key_named(self):
        with pytest.raises(ScenarioError, match="refinement"):
            tiny(grid={"refinement": 2})

    def test_missing_required_section(self):
        data = {k: v for k, v in TINY.items() if k != "params"}
        with pytest.raises(ScenarioError, match="params"):
            scenario_from_dict(data)

    def test_wrong_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            tiny(schema_version=2)

    def test_number_field_rejects_string(self):
        with pytest.raises(ScenarioError, match="chi"):
            tiny(params={"chi": "big"})

    def test_number_field_rejects_bool(self):
        with pytest.raises(ScenarioError, match="chi"):
            tiny(params={"chi": True})

    def test_key_tables_cover_every_section_key(self):
        echo = tiny().to_dict()
        keys = {f"{sec}.{key}" for sec, body in echo.items()
                if sec != "checks" and isinstance(body, dict) for key in body}
        assert keys == set(NUMBER_KEYS + INTEGER_KEYS + OTHER_KEYS)

    @pytest.mark.parametrize("key, bad", WRONG_KIND)
    def test_wrong_kind_is_named_per_key(self, key, bad):
        sec, name = key.split(".")
        with pytest.raises(ScenarioError, match=rf"^scenario\.{sec}\.{name} must be"):
            tiny(**{sec: {name: bad}})

    @pytest.mark.parametrize("key", NUMBER_KEYS + INTEGER_KEYS + OTHER_KEYS)
    def test_null_only_where_the_field_is_optional(self, key):
        sec, name = key.split(".")
        if key in NULLABLE_KEYS:
            assert getattr(getattr(tiny(**{sec: {name: None}}), sec), name) is None
        else:
            with pytest.raises(ScenarioError, match=rf"^scenario\.{sec}\.{name} must be"):
                tiny(**{sec: {name: None}})

    def test_type_errors_name_the_value(self):
        with pytest.raises(ScenarioError) as err:
            tiny(ic={"center": [0.0, "a"]})
        assert str(err.value) == "scenario.ic.center[1] must be a number, got 'a'"
        with pytest.raises(ScenarioError) as err:
            tiny(ic={"kind": 3})
        assert str(err.value) == "scenario.ic.kind must be a string, got 3"

    def test_sample_interval_must_divide_evenly(self):
        with pytest.raises(ScenarioError, match="sample_interval"):
            tiny(diagnostics={"sample_interval": 0.03})

    def test_t_end_must_be_sample_multiple(self):
        with pytest.raises(ScenarioError, match="t_end"):
            tiny(control={"dt": 0.01, "t_end": 0.55})

    @pytest.mark.parametrize(
        "control, big, small",
        [
            ({"dt": 0.01, "t_end": 1.0e308}, "t_end", "sample_interval"),
            ({"dt": 1.0e-320, "t_end": 0.5}, "sample_interval", "dt"),
        ],
        ids=["t_end/sample_interval", "sample_interval/dt"],
    )
    def test_overflowing_timing_ratio_names_both_keys(self, control, big, small):
        with pytest.raises(ScenarioError, match=rf"{big} \(.* multiple of {small} \("):
            tiny(control=control)

    def test_overflowing_grid_spacing_rejected_on_load(self, tmp_path):
        import yaml

        data = json.loads(json.dumps(TINY))
        data["grid"]["half_width"] = 1.0e308
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match=r"grid: half_width must be positive, got 1e\+308"):
                load_scenario(path)

    def test_zero_growth_needs_explicit_front_level(self):
        with pytest.raises(ScenarioError, match="front_level"):
            tiny(params={"a": 0.0})

    def test_unknown_check_name(self):
        with pytest.raises(ScenarioError, match="telepathy"):
            tiny(checks={"telepathy": {}})

    def test_check_param_typo_named(self):
        with pytest.raises(ScenarioError, match="tolerance"):
            tiny(checks={"mass_growth": {"tolerance": 1e-6}})

    def test_speed_range_requires_bounds(self):
        with pytest.raises(ScenarioError, match="min"):
            tiny(checks={"speed_range": {"max": 2.0}})

    def test_parse_error_carries_line_info(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\ngrid: {dim: 1, n: 64\n")
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(bad)

    def test_params_validation_is_wrapped(self):
        with pytest.raises(ScenarioError, match="chi"):
            tiny(params={"chi": -0.5})

    @pytest.mark.parametrize(
        "patch, match",
        [
            ({"grid": {"n": 7}}, r"grid: n must be even"),
            ({"grid": {"dim": 3}}, r"grid: dim must be 1 or 2"),
            ({"grid": {"half_width": -1.0}}, r"grid: half_width must be positive"),
            ({"diagnostics": {"sample_interval": 0.1, "guard": 0.7}}, r"diagnostics: guard"),
            ({"diagnostics": {"sample_interval": 0.1, "snapshot_every": -1}},
             r"diagnostics: snapshot_every"),
            ({"diagnostics": {"sample_interval": 0.1, "front_level": 0.0}},
             r"diagnostics: front_level"),
        ],
    )
    def test_section_validation_is_wrapped(self, patch, match):
        with pytest.raises(ScenarioError, match=match):
            tiny(**patch)

    def test_hand_built_scenario_is_validated_and_normalized(self):
        sc = replace(tiny(), checks={"mass_growth": None})
        assert sc.checks == {"mass_growth": {"r": 1.0, "tol": 1e-6}}
        with pytest.raises(ScenarioError, match="telepathy"):
            replace(tiny(), checks={"telepathy": {}})
        with pytest.raises(ScenarioError, match="front_level"):
            replace(tiny(), params=Params(chi=0.3, a=0.0, b=1.0))
        with pytest.raises(ScenarioError, match="t_end"):
            replace(tiny(), control=StepControl(dt=0.01, t_end=0.55))

    def test_ic_placement_checked_at_load(self):
        # the rules realize applies, raised before any run
        with pytest.raises(ScenarioError, match=r"^scenario: ic: center has 2 components for a 1-D grid$"):
            tiny(ic={"center": [1.0, 2.0]})
        # the support, radius + 3 width = 5 + 4.5, against (1 - 0.1) * 10
        with pytest.raises(ScenarioError, match=r"ic: smoothed_indicator support reaches 9.5, beyond the guard boundary 9;"):
            tiny(ic={"kind": "smoothed_indicator", "radius": 5.0})
        assert tiny(ic={"center": [1.0]}).ic.center == (1.0,)
        assert tiny(ic={"kind": "smoothed_indicator", "radius": 4.0}).ic.radius == 4.0


class TestWithValue:
    def test_dotted_paths_hit_each_section(self):
        sc = tiny()
        assert with_value(sc, "params.chi", 0.7).params.chi == 0.7
        assert with_value(sc, "control.dt", 0.005).control.dt == 0.005
        assert with_value(sc, "grid.n", 128).grid.n == 128
        assert with_value(sc, "ic.amplitude", 1.0).ic.amplitude == 1.0

    def test_bare_name_resolves_when_unique(self):
        assert with_value(tiny(), "chi", 0.1).params.chi == 0.1

    def test_ambiguous_bare_name_rejected(self):
        # both grid and params carry a dim field
        with pytest.raises(ScenarioError, match="ambiguous"):
            with_value(tiny(), "dim", 2)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ScenarioError, match="no field"):
            with_value(tiny(), "params.xi", 0.1)
        # derived grid attributes are not constructor fields
        with pytest.raises(ScenarioError, match="no field"):
            with_value(tiny(), "grid.h", 0.1)

    def test_integer_axis_rejects_fraction(self):
        with pytest.raises(ScenarioError, match="integer"):
            with_value(tiny(), "grid.n", 96.5)

    def test_invalid_value_rejected_by_field_validation(self):
        with pytest.raises(ScenarioError, match="rejected"):
            with_value(tiny(), "params.chi", -1.0)


class TestRun:
    def test_sampling_cadence_and_columns(self):
        rep = run(tiny())
        assert rep.times == pytest.approx([0.1 * i for i in range(6)])
        for name in CSV_COLUMNS[1:]:
            assert len(rep.series[name]) == 6
        assert rep.abort is None
        assert rep.ok
        assert {v.name for v in rep.checks} == {"sandwich", "mass_growth"}

    def test_report_is_deterministic_modulo_wall_time(self):
        sc = tiny()
        first = run(sc).to_json(include_wall_time=False)
        second = run(sc).to_json(include_wall_time=False)
        assert first == second

    def test_report_json_is_strict(self):
        doc = json.loads(run(tiny()).to_json())
        assert doc["ok"] is True
        assert doc["scenario"]["name"] == "tiny"
        assert isinstance(doc["wall_time"], float)
        # non-finite floats must have been mapped to null
        assert "Infinity" not in run(tiny()).to_json()

    def test_regime_echo_matches_params(self):
        rep = run(tiny())
        assert rep.regime["global_bounded"] is True
        assert rep.regime["spreading"] is True
        assert rep.cstar_floor == pytest.approx(1.0832864634654802)

    def test_no_cstar_scan_at_a_zero(self):
        # at a = 0 the floor 2 sqrt(a - chi v) - chi |grad v| is defined
        # only where rounding leaves v <= 0: no sample scans, at a > 0
        # the same run does
        def scanned(a):
            sc = tiny(
                params={"a": a},
                diagnostics={"front_level": 0.25},
                checks={"cstar_positive": {}},
            )
            rep = run(sc)
            (verdict,) = [v for v in rep.checks if v.name == "cstar_positive"]
            return [not math.isnan(c) for c in rep.series["cstar_min"]], verdict

        none, verdict = scanned(0.0)
        assert not any(none) and len(none) == 6
        assert verdict.detail == "no usable far-field scan (a = 0)"
        assert all(scanned(1.0)[0])

    def test_bundled_a_zero_run_has_no_cstar_samples(self):
        from kslogistic.acceptance import bundled_report

        rep = bundled_report("mass_decay_1d")
        assert len(rep.times) == 51
        assert all(math.isnan(c) for c in rep.series["cstar_min"])

    def test_blowup_abort_is_recorded_not_raised(self):
        sc = tiny(control={"dt": 0.01, "t_end": 0.5, "blowup_threshold": 1.0})
        rep = run(sc)
        assert rep.abort is not None
        assert rep.abort["kind"] == "BlowupError"
        assert not rep.ok
        assert any(e["kind"] == "abort" for e in rep.events)
        assert len(rep.times) < 6

    def test_partial_check_config_gets_defaults(self):
        sc = tiny(checks={"mass_growth": {}})
        rep = run(sc)
        assert rep.scenario["checks"]["mass_growth"]["tol"] == 1e-6
        assert rep.ok

    def test_equilibrium_on_exact_fixed_point(self):
        sc = tiny(
            params={"chi": 0.4, "a": 1.0, "b": 1.0},
            ic={"kind": "constant", "amplitude": 1.0},
            checks={"equilibrium": {"tol": 1e-3}},
        )
        rep = run(sc)
        verdict = next(v for v in rep.checks if v.name == "equilibrium")
        assert verdict.passed and verdict.asserted
        assert not any(e["kind"] == "front_beyond_guard" for e in rep.events)

    def test_envelope_not_asserted_when_chi_exceeds_b(self):
        sc = tiny(
            params={"chi": 2.0, "a": 1.0, "b": 1.0},
            control={"dt": 0.01, "t_end": 0.1},
            checks={"envelope": {}},
        )
        rep = run(sc)
        verdict = next(v for v in rep.checks if v.name == "envelope")
        assert verdict.passed and not verdict.asserted
        assert "chi <= b" in verdict.detail

    def test_growth_exponent_beyond_safe_range_is_informational(self):
        sc = tiny(
            params={"chi": 2.0, "a": 1.0, "b": 1.0},
            control={"dt": 0.01, "t_end": 0.1},
            checks={"mass_growth": {"r": 3.0, "tol": 1e-6}},
        )
        rep = run(sc)
        verdict = next(v for v in rep.checks if v.name == "mass_growth")
        assert not verdict.asserted
        assert "l3" in rep.series

    def test_dt_advisory_becomes_event(self):
        sc = tiny(control={"dt": 0.25, "t_end": 0.5},
                  diagnostics={"sample_interval": 0.25})
        rep = run(sc)
        kinds = {e["kind"] for e in rep.events}
        assert "dt_advisory_reaction" in kinds


class TestOutputs:
    def test_run_experiment_writes_everything(self, tmp_path):
        rep, paths = run_experiment(tiny(), outdir=tmp_path)
        assert paths["report"].is_file()
        assert paths["series"].is_file()
        assert (paths["plots"] / "manifest.json").is_file()
        assert (paths["plots"] / "series_mass.dat").is_file()
        doc = json.loads(paths["report"].read_text())
        assert doc["ok"] is True
        header, first, *rest = paths["series"].read_text().splitlines()
        assert header == ",".join(CSV_COLUMNS)
        assert len(rest) + 1 == len(rep.times)
        row = dict(zip(CSV_COLUMNS, first.split(",")))
        assert float(row["t"]) == 0.0
        assert float(row["mass"]) == pytest.approx(rep.series["mass"][0])

    def test_overwrite_needs_force(self, tmp_path):
        run_experiment(tiny(), outdir=tmp_path)
        with pytest.raises(HarnessError, match="force"):
            run_experiment(tiny(), outdir=tmp_path)
        run_experiment(tiny(), outdir=tmp_path, force=True)

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KSLOGISTIC_OUTDIR", str(tmp_path / "env_out"))
        _, paths = run_experiment(tiny())
        assert str(paths["dir"]).startswith(str(tmp_path / "env_out"))

    def test_emit_plot_data_snapshots(self, tmp_path):
        sc = tiny(diagnostics={"sample_interval": 0.1, "snapshot_every": 2})
        rep = run(sc)
        assert len(rep.snapshots) == 3  # samples 0, 2, 4
        manifest = emit_plot_data(rep, tmp_path)
        assert len(manifest["snapshot_files"]) == 3
        snap = (tmp_path / manifest["snapshot_files"][0]["file"]).read_text()
        cols = snap.splitlines()[2].split()
        assert len(cols) == 3  # x u v
        with pytest.raises(HarnessError, match="force"):
            emit_plot_data(rep, tmp_path)

    @pytest.mark.parametrize(
        "patch",
        [
            {},
            {
                "grid": {"dim": 2, "n": 16, "half_width": 6.0},
                "control": {"dt": 0.02, "t_end": 0.4},
            },
        ],
    )
    def test_snapshot_tables_parse_back_exactly(self, tmp_path, patch):
        sc = tiny(diagnostics={"sample_interval": 0.1, "snapshot_every": 2}, **patch)
        rep = run(sc)
        manifest = emit_plot_data(rep, tmp_path)
        dim, n = sc.grid.dim, sc.grid.n
        for snap, entry in zip(rep.snapshots, manifest["snapshot_files"]):
            table = np.loadtxt(tmp_path / entry["file"])
            assert table.shape == (n**dim, dim + 2)
            assert np.array_equal(table[:, dim], np.ravel(snap["u"]))
            assert np.array_equal(table[:, dim + 1], np.ravel(snap["v"]))


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="run_many runs in process where fork is unavailable",
)


class RecordingPool(ProcessPoolExecutor):
    """A ProcessPoolExecutor that records its size and the grid sizes of
    the scenarios submitted to it, in submission order."""

    made: list = []

    def __init__(self, max_workers, **kwargs):
        super().__init__(max_workers, **kwargs)
        self.max_workers = max_workers
        self.submitted = []
        RecordingPool.made.append(self)

    def submit(self, fn, scenario):
        self.submitted.append(scenario.grid.n)
        return super().submit(fn, scenario)


def grid_n(scenario):
    return scenario.grid.n


def grid_n_unless_128(scenario):
    if scenario.grid.n == 128:
        raise HarnessError("n = 128 refused")
    return scenario.grid.n


class TestSweep:
    def test_rows_and_csv(self, tmp_path):
        rows = sweep(tiny(), "params.chi", [0.0, 0.3])
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert rows[0]["value"] == 0.0
        assert rows[0]["final_mass"] > 0
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, "params.chi", path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("value(params.chi),status,passed")

    def test_failed_run_recorded_and_sweep_continues(self):
        rows = sweep(
            tiny(), "control.blowup_threshold", [1e9, 1.0]
        )
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "abort"
        assert not rows[1]["passed"]
        assert "threshold" in rows[1]["message"]

    @pytest.mark.parametrize(
        "axis, good, bad, ic",
        [
            ("params.chi", 0.1, -0.1, {}),
            ("grid.n", 128, 7, {}),
            ("grid.half_width", 12.0, -5.0, {}),
            # 0.03 does not divide the sample interval 0.1
            ("control.dt", 0.005, 0.03, {}),
            # the support, radius + 3 width, must stay inside 0.9 half_width
            ("ic.radius", 2.0, 8.0, {"kind": "smoothed_indicator"}),
        ],
        ids=["params.chi", "grid.n", "grid.half_width", "control.dt", "ic.radius"],
    )
    def test_invalid_axis_value_fails_fast(self, axis, good, bad, ic):
        # a run failure would be recorded in a row; raising means no run started
        with pytest.raises(ScenarioError, match="rejected"):
            sweep(tiny(ic=ic), axis, [good, bad])

    def test_empty_values_rejected(self):
        with pytest.raises(ScenarioError, match="nonempty"):
            sweep(tiny(), "params.chi", [])

    def test_parallel_workers_agree_with_serial(self, tmp_path):
        def csv_less_wall_time(workers):
            path = tmp_path / f"sweep_{workers}.csv"
            write_sweep_csv(sweep(tiny(), "params.chi", [0.0, 0.2], workers=workers), "params.chi", path)
            rows = list(csv.reader(path.open()))
            col = rows[0].index("wall_time")
            return [row[:col] + row[col + 1:] for row in rows]

        serial = csv_less_wall_time(1)
        assert len(serial) == 3
        assert csv_less_wall_time(2) == serial

    @needs_fork
    def test_pool_has_one_worker_per_value_at_most(self, monkeypatch):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        RecordingPool.made.clear()
        rows = sweep(tiny(), "params.chi", [0.0, 0.3], workers=3)
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert [pool.max_workers for pool in RecordingPool.made] == [2]


class TestRunMany:
    SIZES = [64, 256, 128]

    def scenarios(self):
        return [tiny(grid={"n": n}) for n in self.SIZES]

    @needs_fork
    def test_calls_come_back_in_input_order_though_longest_is_submitted_first(self, monkeypatch):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        RecordingPool.made.clear()
        with run_many(self.scenarios(), 2, grid_n) as calls:
            assert [call() for call in calls] == self.SIZES
        (pool,) = RecordingPool.made
        assert pool.max_workers == 2
        assert pool.submitted == [256, 128, 64]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_call_raises_only_when_called(self, workers):
        if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no pool without fork")
        with run_many(self.scenarios(), workers, grid_n_unless_128) as calls:
            assert calls[0]() == 64 and calls[1]() == 256
            with pytest.raises(HarnessError, match="n = 128 refused"):
                calls[2]()
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_no_worker_outlives_a_block_whose_body_raised(self):
        with pytest.raises(RuntimeError, match="body failed"):
            with run_many(self.scenarios(), 2, grid_n) as calls:
                assert len(multiprocessing.active_children()) == 2
                calls[0]()
                raise RuntimeError("body failed")
        assert multiprocessing.active_children() == []

    def test_in_process_a_call_never_made_runs_nothing(self):
        made = []

        def recording(scenario):
            made.append(scenario.grid.n)
            return scenario.grid.n

        with run_many(self.scenarios(), 1, recording) as calls:
            assert made == []
            assert calls[1]() == 256
        assert made == [256]


class TestCli:
    def write_tiny(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        import yaml

        path.write_text(yaml.safe_dump(TINY))
        return path

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert "fisher_1d" in out and "spreading_1d" in out

    def test_classify_text_and_json(self, capsys):
        assert main(["classify", "--chi", "0.4", "--a", "1", "--b", "1"]) == 0
        text = capsys.readouterr().out
        assert "spreading" in text and "max_safe_r" in text
        assert main(["classify", "--chi", "0.4", "--a", "1", "--b", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stability"] is True
        assert doc["cstar_floor"] is not None

    def test_run_writes_and_exits_zero(self, tmp_path, capsys):
        path = self.write_tiny(tmp_path)
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: ok" in out
        assert (tmp_path / "out" / "tiny" / "report.json").is_file()

    def test_run_json_mode(self, tmp_path, capsys):
        path = self.write_tiny(tmp_path)
        code = main(["run", str(path), "--out", str(tmp_path / "o"), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"]["name"] == "tiny"

    def test_run_json_prints_the_written_report(self, tmp_path, capsys):
        path = self.write_tiny(tmp_path)
        assert main(["run", str(path), "--out", str(tmp_path / "o"), "--json"]) == 0
        written = (tmp_path / "o" / "tiny" / "report.json").read_text()
        assert capsys.readouterr().out == written

    def test_run_rejects_overflowing_t_end(self, tmp_path, capsys):
        data = json.loads(json.dumps(TINY))
        data["control"]["t_end"] = 1.0e308
        path = tmp_path / "long.yaml"
        import yaml

        path.write_text(yaml.safe_dump(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "t_end" in capsys.readouterr().err

    def test_run_missing_file_is_error_exit(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.yaml")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_refuses_overwrite(self, tmp_path, capsys):
        path = self.write_tiny(tmp_path)
        out = str(tmp_path / "out")
        assert main(["run", str(path), "--out", out]) == 0
        assert main(["run", str(path), "--out", out]) == 2
        assert main(["run", str(path), "--out", out, "--force"]) == 0

    def test_sweep_smoke(self, tmp_path, capsys):
        path = self.write_tiny(tmp_path)
        code = main(["sweep", str(path), "--axis", "params.chi",
                     "--values", "0.0,0.3", "--out", str(tmp_path / "out")])
        assert code == 0
        csv_path = tmp_path / "out" / "tiny_sweep_params_chi" / "sweep.csv"
        assert csv_path.is_file()
        assert len(csv_path.read_text().splitlines()) == 3

    def test_sweep_refuses_overwrite_before_running(self, tmp_path, monkeypatch):
        path = self.write_tiny(tmp_path)
        cmd = ["sweep", str(path), "--axis", "params.chi", "--values", "0.3",
               "--out", str(tmp_path / "out")]
        assert main(cmd) == 0
        calls = []
        monkeypatch.setattr(harness, "_sweep_one", lambda sc: calls.append(sc))
        assert main(cmd) == 2
        assert calls == []

    def test_failing_run_exits_nonzero(self, tmp_path):
        data = json.loads(json.dumps(TINY))
        data["control"]["blowup_threshold"] = 1.0
        path = tmp_path / "doomed.yaml"
        import yaml

        path.write_text(yaml.safe_dump(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1

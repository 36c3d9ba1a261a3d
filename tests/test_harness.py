"""Scenario schema strictness, the run loop, file outputs, sweeps,
run_many, CLI."""

import csv
import json
import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kslogistic import grid, harness
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
from kslogistic.helmholtz import solve
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

THREED_SMOKE = Path(__file__).parent / "data" / "threed_smoke.yaml"
SPLIT_SMOKE = Path(__file__).parent / "data" / "split_smoke.yaml"
# every scenario file in the repo: the bundled ones, the test data and
# the benchmark's own, read here and never edited
SCENARIO_FILES = (
    [bundled_scenario_path(name) for name in bundled_scenario_names()]
    + sorted((Path(__file__).parent / "data").glob("*.yaml"))
    + [Path(__file__).parents[1] / "bench" / "front_2d.yaml"]
)

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
    "ic.amplitude", "ic.radius", "ic.width", "ic.floor",
    "control.dt", "control.t_end", "control.negativity_budget",
    "control.blowup_threshold", "diagnostics.sample_interval",
    "diagnostics.front_level", "diagnostics.guard",
]
INTEGER_KEYS = ["grid.dim", "grid.n", "ic.seed", "diagnostics.snapshot_every"]
OTHER_KEYS = ["ic.kind"]
NULLABLE_KEYS = {
    "diagnostics.front_level", "control.negativity_budget", "control.blowup_threshold",
}
WRONG_KIND = (
    [(key, bad) for key in NUMBER_KEYS for bad in ("1.0", True)]
    + [(key, bad) for key in INTEGER_KEYS for bad in ("1", True, 2.5)]
    + [("ic.kind", 3)]
)
# settings that no scenario set, removed from the schema
REMOVED_KEYS = [
    "ic.center", "control.dealias",
    "diagnostics.equilibrium_radius", "diagnostics.cstar_inner_factor",
]


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

    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.stem)
    def test_bundled_scenarios_load(self, path):
        sc = load_scenario(path)
        assert sc.name == path.stem
        assert scenario_from_dict(sc.to_dict()) == sc

    def test_bundled_unknown_name(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            bundled_scenario_path("nope")

    def test_unknown_top_level_key(self):
        data = dict(TINY, extra=1)
        with pytest.raises(ScenarioError, match="extra"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("key", ["grid.refinement"] + REMOVED_KEYS)
    def test_unknown_nested_key_named(self, key):
        sec, name = key.split(".")
        with pytest.raises(ScenarioError, match=rf"^unknown key\(s\) \['{name}'\] in scenario\.{sec}$"):
            tiny(**{sec: {name: 1}})

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
            tiny(ic={"width": "a"})
        assert str(err.value) == "scenario.ic.width must be a number, got 'a'"
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

    # front_level sets the front radius that anchors the far-field scan;
    # no point reaches an infinite level, so the radius would read 0.0,
    # valid, at every sample
    @pytest.mark.parametrize("key", ["front_level"])
    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_far_field_settings_must_be_finite_and_positive(self, key, bad):
        with pytest.raises(ScenarioError, match=rf"^scenario\.diagnostics: {key} must be finite and positive"):
            tiny(diagnostics={"sample_interval": 0.1, key: bad})

    @pytest.mark.parametrize(
        "cfg, key",
        [({"r": 0.5}, "r"), ({"r": math.nan}, "r"), ({"tol": -1.0}, "tol"), ({"tol": math.inf}, "tol")],
    )
    def test_mass_growth_parameters_checked_at_load(self, cfg, key):
        # at r < 1 the first sample's lp_norm raises, at tol < 0 the
        # verdict: both after the run has started
        with pytest.raises(ScenarioError, match=rf"^scenario: checks\.mass_growth\.{key} must be"):
            tiny(checks={"mass_growth": cfg})
        assert tiny(checks={"mass_growth": {"r": math.inf, "tol": 0.0}}).checks["mass_growth"]["r"] == math.inf

    @pytest.mark.parametrize(
        "name, cfg, key",
        [
            ("envelope", {"tol": math.nan}, "tol"),
            ("envelope", {"tol": -1.0}, "tol"),
            ("boundary_guard", {"far_value": math.nan}, "far_value"),
            ("speed_range", {"min": -math.inf, "max": 2.0}, "min"),
            ("speed_range", {"min": 1.0, "max": math.nan}, "max"),
            ("equilibrium", {"tol": -1.0}, "tol"),
            ("equilibrium", {"trend_from": math.nan}, "trend_from"),
            ("equilibrium", {"trend_from": -1.0}, "trend_from"),
            ("spreading_limits", {"inner_tol": math.inf}, "inner_tol"),
            ("spreading_limits", {"outer_tol": -1e-4}, "outer_tol"),
            ("spreading_limits", {"inner_factor": -1.0}, "inner_factor"),
            ("spreading_limits", {"outer_factor": 0.0}, "outer_factor"),
        ],
    )
    def test_check_parameters_checked_at_load(self, name, cfg, key):
        # refused at load, not by the check after the whole run
        with pytest.raises(ScenarioError, match=rf"^scenario: checks\.{name}\.{key} must be"):
            tiny(checks={name: cfg})
        assert tiny(checks={"equilibrium": {"trend_from": 0.0}}).checks["equilibrium"]["trend_from"] == 0.0

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

    def test_speed_range_bounds_must_be_ordered(self):
        # refused at load, not by a verdict that no speed can pass
        with pytest.raises(ScenarioError) as err:
            tiny(checks={"speed_range": {"min": 3, "max": 1}})
        assert str(err.value) == (
            "scenario: checks.speed_range must have min <= max, got {'min': 3.0, 'max': 1.0}"
        )
        assert tiny(checks={"speed_range": {"min": 2, "max": 2}}).checks["speed_range"] == {"min": 2.0, "max": 2.0}

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
            ({"grid": {"dim": 4}}, r"grid: dim must be one of"),
            ({"grid": {"half_width": -1.0}}, r"grid: half_width must be positive"),
            ({"diagnostics": {"sample_interval": 0.1, "guard": 0.7}}, r"diagnostics: guard"),
            ({"diagnostics": {"sample_interval": 0.1, "snapshot_every": -1}},
             r"diagnostics: snapshot_every"),
            ({"diagnostics": {"sample_interval": 0.1, "front_level": 0.0}},
             r"diagnostics: front_level"),
            ({"ic": {"kind": "positive_random", "floor": 0.5, "seed": -1}},
             r"ic: seed must be nonnegative"),
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
        # the rule realize applies, raised before any run: the support,
        # radius + 3 width = 5 + 4.5, against (1 - 0.1) * 10
        with pytest.raises(ScenarioError, match=r"ic: smoothed_indicator support reaches 9.5, beyond the guard boundary 9;"):
            tiny(ic={"kind": "smoothed_indicator", "radius": 5.0})
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

    def test_run_returns_the_report_its_checks_read(self, monkeypatch):
        from kslogistic.checks import Sandwich

        seen = []
        observe, verdict = Sandwich.observe, Sandwich.verdict

        def observe_spy(self, t, u, v, rep):
            seen.append(rep)
            observe(self, t, u, v, rep)

        def verdict_spy(self, rep):
            seen.append(rep)
            return verdict(self, rep)

        monkeypatch.setattr(Sandwich, "observe", observe_spy)
        monkeypatch.setattr(Sandwich, "verdict", verdict_spy)
        rep = run(tiny())
        assert len(seen) == 7 and all(r is rep for r in seen)

    def test_scan_and_speed_error_are_not_written_out(self):
        # tiny's front fits in the box, so it is scanned; 6 samples are
        # too few for a speed fit
        rep = run(tiny(checks={"cstar_positive": {}}))
        assert rep.scan is not None and rep.speed is None and rep.speed_error
        text = rep.to_json()
        assert '"scan"' not in text and '"speed_error"' not in text
        assert set(json.loads(text)) == {
            "version", "scenario", "regime", "cstar_floor", "ok", "abort", "speed",
            "checks", "events", "times", "series", "snapshots", "wall_time",
        }

    def test_writing_the_ic_array_after_initial_state_changes_nothing(self, monkeypatch):
        # the t = 0 state holds its own copy of u0, so neither it nor the
        # t = 0 snapshot sees a later write to realize's array
        made, initial_state = [], harness.initial_state

        def initial_state_then_write(u0):
            state = initial_state(u0)
            made.append((u0.values.copy(), state))
            u0.values[:] = -1.0
            return state

        monkeypatch.setattr(harness, "initial_state", initial_state_then_write)
        rep = run(tiny(diagnostics={"sample_interval": 0.1, "snapshot_every": 5}))
        ((u0, state),) = made
        assert np.array_equal(state.u.values, u0) and not state.u.values.flags.writeable
        assert np.array_equal(rep.snapshots[0]["u"], u0)
        assert np.array_equal(rep.snapshots[0]["v"], solve(grid.Field(state.u.grid, u0)).values)

    def test_regime_echo_matches_params(self):
        rep = run(tiny())
        assert rep.regime.global_bounded is True
        assert rep.regime.spreading is True
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
        assert rep.scenario.checks["mass_growth"]["tol"] == 1e-6
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

    def test_split_and_serial_transforms_write_the_same_bytes(self, tmp_path, monkeypatch):
        """A 128^2 run splits its batched transforms across the helper
        thread where two CPUs are usable; with one it splits nothing."""
        sc = load_scenario(SPLIT_SMOKE)
        trees = []
        for cpus in (2, 1):
            monkeypatch.setattr(grid, "usable_cpus", lambda cpus=cpus: cpus)
            rep, paths = run_experiment(sc, outdir=tmp_path / str(cpus))
            assert rep.ok
            tree = {p.relative_to(paths["dir"]): p.read_bytes()
                    for p in paths["dir"].rglob("*") if p.is_file()}
            report = tree[Path("report.json")].splitlines(keepends=True)
            tree[Path("report.json")] = b"".join(line for line in report if b'"wall_time"' not in line)
            trees.append(tree)
        assert len(trees[0]) == 15 and trees[0] == trees[1]

    def test_three_dimensional_run_writes_every_point(self, tmp_path):
        sc = load_scenario(THREED_SMOKE)
        rep, paths = run_experiment(sc, outdir=tmp_path)
        assert rep.ok
        assert {v.name for v in rep.checks if v.passed} == {"sandwich", "mass_growth", "envelope"}
        n = sc.grid.n
        for entry in json.loads((paths["plots"] / "manifest.json").read_text())["snapshot_files"]:
            text = (paths["plots"] / entry["file"]).read_text()
            assert text.splitlines()[1] == "# x y z u v"
            assert np.loadtxt(paths["plots"] / entry["file"]).shape == (n**3, 5)
            # gnuplot blocks: one blank line after each run of the last axis
            assert text.count("\n\n") == n * n


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

    def test_csv_values_from_a_numpy_axis_parse_as_numbers(self, tmp_path):
        values = np.array([0.1, 0.2])
        rows = sweep(tiny(), "params.chi", values)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, "params.chi", path)
        with path.open() as fh:
            table = list(csv.DictReader(fh))
        assert [float(r["value(params.chi)"]) for r in table] == values.tolist()
        assert all(float(r["final_mass"]) > 0 for r in table)

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

    def test_classify_three_dimensional_json(self, capsys):
        assert main(["classify", "--chi", "0.3", "--a", "2", "--b", "1", "--dim", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["dim"] == 3
        assert doc["thresholds"]["half_dim"] == 1.5
        assert doc["thresholds"]["spreading_chi_below"] == pytest.approx(2 * 1 / (3 + math.sqrt(1 + 3 * 2)))

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

"""Which kslogistic functions the traced run wraps, and how the spans
reduce to the per-layer metrics.

Every per-layer metric and the end-to-end metric it should move:

  import.kslogistic_s, scenario.load_ms, icfactory.realize_ms
      -> setup_s on every workload
  stepper.steps, stepper.step_us, stepper.busy_s
      -> wall_s on long_1d (per-step overhead), chi_sweep and front_2d
         (transforms)
  grid.fft_calls_per_step, grid.fft_mb_per_step, grid.fft_busy_s,
  grid.fft_share_of_step
      -> wall_s on chi_sweep and front_2d; the share shows how much of
         long_1d is overhead around the transforms
  helmholtz.solve_us, helmholtz.grad_potential_us
      -> wall_s on front_2d (c* scan) and gate
  semigroup.apply_T_us, semigroup.apply_T_div_us -> wall_s on gate
  diagnostics.sample_us, diagnostics.cstar_functional_us,
  diagnostics.busy_s
      -> wall_s on front_2d and chi_sweep
  harness.run_self_s -> wall_s on long_1d
  harness.write_s, harness.output_mb -> wall_s on front_2d
  harness.sweep_point_s -> wall_s on chi_sweep
  acceptance.<criterion>_s -> wall_s on gate

Totals (counts, busy and self times, output size) are per traced
repetition.  Per-call figures are medians over every call in the run.
A layer a workload never reaches reads 0; a metric whose function no
longer exists is absent.
"""

from __future__ import annotations

from statistics import median

from tracer import SpanTable, Tracer

STEP = "stepper.step"
FFT = "grid.fft"
REP = "bench.rep"

DIAGNOSTICS = (
    "lp_norm",
    "check_lr_growth",
    "front_radius",
    "front_trace",
    "estimate_speed",
    "cstar_functional",
    "equilibrium_distance",
    "sandwich_check",
    "boundary_guard",
)

CRITERIA = (
    "elliptic_exactness",
    "operator_bounds",
    "sandwich_all_runs",
    "envelope_run",
    "mass_bounds",
    "stability_run",
    "fisher_speed",
    "spreading_run",
    "l2_growth",
    "convergence_order",
    "mutation_sanity",
)

#: per-layer metric name -> unit, in report order
UNITS = {
    "import.kslogistic_s": "s",
    "scenario.load_ms": "ms",
    "icfactory.realize_ms": "ms",
    "stepper.steps": "count",
    "stepper.step_us": "us",
    "stepper.busy_s": "s",
    "grid.fft_calls_per_step": "count",
    "grid.fft_mb_per_step": "MB",
    "grid.fft_busy_s": "s",
    "grid.fft_share_of_step": "ratio",
    "helmholtz.solve_us": "us",
    "helmholtz.grad_potential_us": "us",
    "semigroup.apply_T_us": "us",
    "semigroup.apply_T_div_us": "us",
    "diagnostics.sample_us": "us",
    "diagnostics.cstar_functional_us": "us",
    "diagnostics.busy_s": "s",
    "harness.run_self_s": "s",
    "harness.write_s": "s",
    "harness.output_mb": "MB",
    "harness.sweep_point_s": "s",
    **{f"acceptance.{c}_s": "s" for c in CRITERIA},
    "trace.overhead_s": "s",
}

#: metric -> span names it is computed from; a metric is absent when
#: any of them could not be wrapped
SOURCES = {
    "scenario.load_ms": ("scenario.load_scenario",),
    "icfactory.realize_ms": ("icfactory.realize",),
    "stepper.steps": (STEP,),
    "stepper.step_us": (STEP,),
    "stepper.busy_s": (STEP,),
    "grid.fft_calls_per_step": (STEP,),
    "grid.fft_mb_per_step": (STEP,),
    "grid.fft_share_of_step": (STEP,),
    "helmholtz.solve_us": ("helmholtz.solve",),
    "helmholtz.grad_potential_us": ("helmholtz.grad_potential",),
    "semigroup.apply_T_us": ("semigroup.apply_T",),
    "semigroup.apply_T_div_us": ("semigroup.apply_T_div",),
    "diagnostics.sample_us": ("harness.run",) + tuple(f"diagnostics.{d}" for d in DIAGNOSTICS),
    "diagnostics.cstar_functional_us": ("diagnostics.cstar_functional",),
    "diagnostics.busy_s": tuple(f"diagnostics.{d}" for d in DIAGNOSTICS),
    "harness.run_self_s": ("harness.run",),
    "harness.write_s": ("harness.run_experiment", "harness.run"),
    "harness.sweep_point_s": ("harness._sweep_one",),
    **{f"acceptance.{c}_s": (f"acceptance.{c}",) for c in CRITERIA},
}


def _count_samples(tracer: Tracer, i: int, args, report) -> None:
    tracer.count("samples", len(getattr(report, "times", ())))


def make_tracer() -> Tracer:
    """A tracer planned for every layer of kslogistic."""
    tr = Tracer()
    tr.target("kslogistic.stepper", "step", STEP)
    tr.target("kslogistic.helmholtz", "solve", "helmholtz.solve")
    tr.target("kslogistic.helmholtz", "grad_potential", "helmholtz.grad_potential")
    tr.target("kslogistic.semigroup", "apply_T", "semigroup.apply_T")
    tr.target("kslogistic.semigroup", "apply_T_div", "semigroup.apply_T_div")
    for d in DIAGNOSTICS:
        tr.target("kslogistic.diagnostics", d, f"diagnostics.{d}")
    tr.target("kslogistic.scenario", "load_scenario", "scenario.load_scenario")
    tr.target("kslogistic.icfactory", "realize", "icfactory.realize")
    tr.target("kslogistic.harness", "run", "harness.run", _count_samples)
    tr.target("kslogistic.harness", "run_experiment", "harness.run_experiment")
    tr.target("kslogistic.harness", "_sweep_one", "harness._sweep_one")
    for c in CRITERIA:
        tr.table_target("kslogistic.acceptance", "CRITERIA", c, f"acceptance.{c}")
    tr.fft_targets("scipy.fft", FFT)
    tr.fft_targets("numpy.fft", FFT)
    return tr


def _median(values) -> float:
    return float(median(values)) if values else 0.0


def layer_metrics(tr: Tracer, import_s: float, overhead_s: float,
                  output_bytes: float) -> tuple:
    """Reduce the spans to (metrics dict name -> value, absent names)."""
    st = SpanTable(tr)
    names, dur = st.names, st.durations
    reps = st.indices(REP)
    n_reps = max(len(reps), 1)
    in_rep = st.nearest(lambda n: n == REP)
    under_step = st.nearest(lambda n: n == STEP)
    under_run = st.nearest(lambda n: n == "harness.run")
    is_diag = [n.startswith("diagnostics.") for n in names]
    # a diagnostics span whose parent is not a diagnostics span
    outer_diag = [
        is_diag[i] and not (p >= 0 and is_diag[p]) for i, p in enumerate(st.parents)
    ]

    def rep_total(name: str) -> float:
        return sum(dur[i] for i in st.indices(name) if in_rep[i] >= 0) / n_reps

    def per_call_us(name: str) -> float:
        return _median([dur[i] for i in st.indices(name)]) * 1e6

    steps = [i for i in st.indices(STEP) if in_rep[i] >= 0]
    step_time = sum(dur[i] for i in steps)
    fft_in_step = [i for i, n in enumerate(names) if n == FFT and under_step[i] >= 0
                   and in_rep[i] >= 0]
    fft_all = [i for i, n in enumerate(names) if n == FFT and in_rep[i] >= 0]
    n_steps = len(steps)
    runs = [i for i in st.indices("harness.run") if in_rep[i] >= 0]
    samples = tr.counts.get("samples", 0)
    diag_in_run = sum(dur[i] for i in range(len(names))
                      if outer_diag[i] and under_run[i] >= 0 and in_rep[i] >= 0)
    write = 0.0
    for i in st.indices("harness.run_experiment"):
        if in_rep[i] >= 0:
            write += dur[i] - sum(dur[j] for j in runs if st.parents[j] == i)

    out = {
        "import.kslogistic_s": import_s,
        "scenario.load_ms": _median([dur[i] for i in st.indices("scenario.load_scenario")]) * 1e3,
        "icfactory.realize_ms": _median([dur[i] for i in st.indices("icfactory.realize")]) * 1e3,
        "stepper.steps": n_steps / n_reps,
        "stepper.step_us": per_call_us(STEP),
        "stepper.busy_s": step_time / n_reps,
        "grid.fft_calls_per_step": len(fft_in_step) / n_steps if n_steps else 0.0,
        "grid.fft_mb_per_step": (
            sum(st.nbytes[i] for i in fft_in_step) / n_steps / 1e6 if n_steps else 0.0
        ),
        "grid.fft_busy_s": sum(dur[i] for i in fft_all) / n_reps,
        "grid.fft_share_of_step": (
            sum(dur[i] for i in fft_in_step) / step_time if step_time > 0 else 0.0
        ),
        "helmholtz.solve_us": per_call_us("helmholtz.solve"),
        "helmholtz.grad_potential_us": per_call_us("helmholtz.grad_potential"),
        "semigroup.apply_T_us": per_call_us("semigroup.apply_T"),
        "semigroup.apply_T_div_us": per_call_us("semigroup.apply_T_div"),
        "diagnostics.sample_us": diag_in_run / samples * 1e6 if samples else 0.0,
        "diagnostics.cstar_functional_us": per_call_us("diagnostics.cstar_functional"),
        "diagnostics.busy_s": sum(
            dur[i] for i in range(len(names)) if outer_diag[i] and in_rep[i] >= 0
        ) / n_reps,
        "harness.run_self_s": sum(st.self_time(i) for i in runs) / n_reps,
        "harness.write_s": write / n_reps,
        "harness.output_mb": output_bytes / 1e6,
        "harness.sweep_point_s": _median([dur[i] for i in st.indices("harness._sweep_one")]),
        **{f"acceptance.{c}_s": rep_total(f"acceptance.{c}") for c in CRITERIA},
        "trace.overhead_s": overhead_s,
    }
    missing = set(tr.absent)
    absent = [m for m, srcs in SOURCES.items() if missing.intersection(srcs)]
    for m in absent:
        del out[m]
    return out, absent

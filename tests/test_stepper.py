import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kslogistic.checks import SpreadingLimits
from kslogistic.grid import Field, NonFiniteFieldError, make_grid
from kslogistic.harness import run
from kslogistic.icfactory import realize
from kslogistic.helmholtz import grad_potential, solve
from kslogistic.params import Params
from kslogistic.reference import logistic_exact
from kslogistic.scenario import bundled_scenario_path, load_scenario, scenario_from_dict
from kslogistic.stepper import (
    MAX_RUNG,
    BlowupError,
    NegativityError,
    SampleStepper,
    State,
    StepControl,
    StepperError,
    _phis,
    _plan,
    initial_state,
    stability_warnings,
    step,
)

from oracles import (
    divergence,
    etd_ab2_update,
    etd_ab3_update,
    full_fft_phis,
    full_fft_rhs_hat,
    full_fft_run,
    full_multipliers,
    nonlinearity,
    rk4_reaction_diffusion,
)


def gaussian_ic(grid, amp=1.2, width=1.5):
    x = grid.axes[0]
    return Field(grid, amp * np.exp(-(x**2) / (2 * width**2)))


def run_steps(u0, p, dt, nsteps, **ctrl):
    s = initial_state(u0)
    c = StepControl(dt=dt, t_end=dt * nsteps, **ctrl).resolved(u0, p)
    for _ in range(nsteps):
        s = step(s, p, c)
    return s


def test_uniform_field_follows_logistic_closed_form():
    # chemotaxis is inert on constants (v = u, grad v = 0), so the
    # trajectory must track m' = m (a - b m); expected value from the
    # closed form, budget 1e-8 at dt = 1e-3 over unit time
    g = make_grid(1, 32, 5.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    s = run_steps(Field(g, np.full(32, 3.0)), p, 1e-3, 1000)
    expect = logistic_exact(3.0, 1.0, 1.0, 1.0)
    spread = np.ptp(s.u.values)
    assert spread < 1e-12
    assert abs(float(s.u.values[0]) - expect) <= 1e-8


def test_uniform_subcapacity_follows_logistic_closed_form():
    g = make_grid(1, 32, 5.0)
    p = Params(chi=0.2, a=1.0, b=1.0, dim=1)
    s = run_steps(Field(g, np.full(32, 0.3)), p, 1e-4, 10000)
    assert abs(float(s.u.values[0]) - logistic_exact(0.3, 1.0, 1.0, 1.0)) <= 1e-8


def test_carrying_capacity_is_exact_fixed_point():
    g = make_grid(2, 16, 3.0)
    p = Params(chi=0.4, a=2.0, b=0.5, dim=2)
    s = run_steps(Field(g, np.full(g.shape, 4.0)), p, 0.05, 100)
    assert np.max(np.abs(s.u.values - 4.0)) < 1e-12


def test_single_step_exact_on_near_linear_problem():
    # a = 0, b ~ 0: F(u) = u cancels the propagator's -u, so one step
    # of a constant returns the constant
    g = make_grid(1, 16, 2.0)
    p = Params(chi=0.0, a=0.0, b=1e-14, dim=1)
    s = run_steps(Field(g, np.full(16, 2.0)), p, 0.01, 1)
    assert np.max(np.abs(s.u.values - 2.0)) < 1e-12


def test_matches_fourth_order_reference_at_coarser_step():
    g = make_grid(1, 256, 15.0)
    u0 = gaussian_ic(g)
    p = Params(chi=0.0, a=1.0, b=1.0, dim=1)
    s = run_steps(u0, p, 1e-3, 1000)
    ref = rk4_reaction_diffusion(u0.values, g, 1.0, 1.0, 1e-3 / 16, 1.0)
    assert np.max(np.abs(s.u.values - ref)) <= 1e-6


def test_chi_zero_reduction_matches_independent_stepper():
    g = make_grid(1, 256, 15.0)
    u0 = gaussian_ic(g)
    p = Params(chi=0.0, a=1.0, b=1.0, dim=1)
    s = run_steps(u0, p, 1e-4, 5000)
    ref = rk4_reaction_diffusion(u0.values, g, 1.0, 1.0, 5e-4, 0.5)
    assert np.max(np.abs(s.u.values - ref)) <= 1e-8


def test_exposed_v_is_resolvent_of_u():
    g = make_grid(1, 128, 10.0)
    p = Params(chi=0.6, a=1.0, b=1.0, dim=1)
    s = run_steps(gaussian_ic(g), p, 0.01, 37)
    assert np.max(np.abs(s.v.values - solve(s.u).values)) < 1e-13


def test_richardson_order_at_least_two_ish():
    g = make_grid(1, 128, 15.0)
    u0 = gaussian_ic(g)
    p = Params(chi=0.3, a=1.0, b=1.0, dim=1)
    T = 0.4
    sols = [run_steps(u0, p, dt, round(T / dt)).u.values for dt in (0.02, 0.01, 0.005)]
    e12 = np.max(np.abs(sols[0] - sols[1]))
    e24 = np.max(np.abs(sols[1] - sols[2]))
    assert np.log2(e12 / e24) >= 2.8


def test_negativity_budget_aborts_on_ringing():
    # a raw indicator is not resolvable: its first step rings below any
    # tiny budget, and the run must abort rather than clamp
    g = make_grid(1, 64, 10.0)
    u0 = Field(g, (np.abs(g.axes[0]) <= 2.0).astype(float))
    p = Params(chi=0.0, a=1.0, b=1.0, dim=1)
    with pytest.raises(NegativityError) as exc:
        run_steps(u0, p, 1e-3, 50)
    assert exc.value.value < 0


def test_blowup_threshold_aborts():
    g = make_grid(1, 32, 5.0)
    p = Params(chi=0.0, a=2.0, b=0.5, dim=1)
    with pytest.raises(BlowupError):
        run_steps(Field(g, np.ones(32)), p, 0.01, 200, blowup_threshold=2.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_input_rejected():
    g = make_grid(1, 32, 5.0)
    vals = np.ones(32)
    vals[5] = np.inf
    p = Params(chi=0.0, a=1.0, b=1.0, dim=1)
    s0 = initial_state(Field(g, np.ones(32)))
    bad = type(s0)(t=0.0, u=Field(g, vals), step_count=0)
    with pytest.raises(NonFiniteFieldError):
        step(bad, p, StepControl(dt=0.01, t_end=1.0).resolved(s0.u, p))


def test_nonlinearity_on_uniform_field():
    g = make_grid(2, 16, 2.0)
    p = Params(chi=0.7, a=1.5, b=0.5, dim=2)
    c = 2.0
    F = nonlinearity(Field(g, np.full(g.shape, c)), p)
    assert_allclose(F.values, (p.a + 1) * c - p.b * c**2, atol=1e-13)


def test_nonlinearity_matches_composed_operators():
    # same formula assembled from the already-tested primitives, on a
    # field whose spectrum is far below rounding at n/3, where the 2/3
    # rule truncates nothing that shows
    g = make_grid(1, 256, 15.0)
    u = gaussian_ic(g, amp=0.8)
    p = Params(chi=0.9, a=1.0, b=2.0, dim=1)
    got = nonlinearity(u, p).values
    gv = grad_potential(u)
    chem = divergence([Field(g, u.values * c.values) for c in gv]).values
    expect = -p.chi * chem + (p.a + 1) * u.values - p.b * u.values**2
    assert np.max(np.abs(got - expect)) < 1e-12


def test_drift_term_has_zero_mean():
    g = make_grid(1, 128, 10.0)
    u = gaussian_ic(g)
    with_drift = nonlinearity(u, Params(chi=0.8, a=1.0, b=1.0, dim=1))
    without = nonlinearity(u, Params(chi=0.0, a=1.0, b=1.0, dim=1))
    assert abs(np.mean(with_drift.values) - np.mean(without.values)) < 1e-14


def test_mass_stays_under_exponential_envelope():
    g = make_grid(1, 128, 10.0)
    rng = np.random.default_rng(4)
    u0 = Field(g, rng.uniform(0.2, 1.5, 128))
    p = Params(chi=0.4, a=1.0, b=1.0, dim=1)
    s = initial_state(u0)
    c = StepControl(dt=0.01, t_end=1.0).resolved(u0, p)
    mass0 = g.cell_volume * np.sum(u0.values)
    for _ in range(100):
        s = step(s, p, c)
        mass = g.cell_volume * np.sum(s.u.values)
        assert mass <= mass0 * np.exp(p.a * s.t) * (1 + 1e-6)


def test_stability_warnings_fire_and_stay_quiet():
    g = make_grid(1, 64, 5.0)
    p = Params(chi=1.0, a=1.0, b=1.0, dim=1)
    s = initial_state(Field(g, np.full(64, 2.0)))
    loud = stability_warnings(s, p, StepControl(dt=1.0, t_end=2.0))
    assert [kind for kind, _ in loud] == ["drift", "reaction"]
    assert "drift limit" in loud[0][1] and "reaction limit" in loud[1][1]
    assert stability_warnings(s, p, StepControl(dt=1e-3, t_end=2.0)) == []
    # between the two limits only the drift one is crossed
    drift_only = stability_warnings(s, p, StepControl(dt=0.05, t_end=2.0))
    assert [kind for kind, _ in drift_only] == ["drift"]
    # a run under time_tol measures its time error instead
    assert stability_warnings(s, p, StepControl(dt=1.0, t_end=2.0, time_tol=1e-6)) == []



def test_the_clock_checks_its_time_grid():
    p = Params(chi=1.0, a=1.0, b=1.0, dim=1)
    with pytest.raises(ValueError, match=r"^sample_interval \(0.25\) must be a positive integer multiple of dt \(0.1\)$"):
        SampleStepper(p, StepControl(dt=0.1, t_end=1.0), 0.25)
    with pytest.raises(ValueError, match=r"^t_end \(1.1\) must be a positive integer multiple of sample_interval"):
        SampleStepper(p, StepControl(dt=0.05, t_end=1.1), 0.25)
    with pytest.raises(ValueError, match=r"^under time_tol, sample_interval / dt \(8192\) must be at most 2\^12$"):
        SampleStepper(p, StepControl(dt=0.25 / 8192, t_end=1.0, time_tol=1e-6), 0.25)
    assert SampleStepper(p, StepControl(dt=0.25 / 4096, t_end=1.0, time_tol=1e-6), 0.25).rung == MAX_RUNG


def test_the_clock_yields_every_sample_then_its_first_advisories():
    g = make_grid(1, 64, 5.0)
    p = Params(chi=1.0, a=1.0, b=1.0, dim=1)
    u0 = Field(g, np.full(64, 2.0))
    clock = SampleStepper(p, StepControl(dt=0.05, t_end=1.0).resolved(u0, p), 0.25)
    events = []
    samples = clock.samples(initial_state(u0), events)
    i, t, s = next(samples)
    # a sample's advisories follow what its reader appends
    assert (i, t, s.step_count, events) == (0, 0.0, 0, [])
    events.append({"kind": "measured"})
    rest = list(samples)
    assert [(i, t, s.step_count) for i, t, s in rest] == [(i, 0.25 * i, 5 * i) for i in range(1, 5)]
    assert [(e.get("t"), e["kind"]) for e in events] == [(None, "measured"), (0.0, "dt_advisory_drift")]

def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepControl(dt=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        StepControl(dt=0.1, t_end=1.0, negativity_budget=-1e-10)
    with pytest.raises(ValueError):
        StepControl(dt=0.1, t_end=1.0, blowup_threshold=0.0)
    for bad in (0.0, -1e-7, math.inf, math.nan):
        with pytest.raises(ValueError, match="time_tol must be positive"):
            StepControl(dt=0.1, t_end=1.0, time_tol=bad)


def test_resolved_keeps_time_tol():
    g, u0 = _initial(1, 32, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    c = StepControl(dt=0.1, t_end=1.0, time_tol=3e-7).resolved(u0, p)
    assert c.time_tol == 3e-7
    assert c.negativity_budget is not None and c.blowup_threshold is not None


def test_dim_mismatch_rejected():
    g = make_grid(1, 32, 5.0)
    s = initial_state(Field(g, np.ones(32)))
    p = Params(chi=0.0, a=1.0, b=1.0, dim=2)
    with pytest.raises(ValueError, match="dim"):
        step(s, p, StepControl(dt=0.01, t_end=1.0).resolved(s.u, p))


# -- the half-spectrum stepper against the full complex-FFT scheme --------


def _initial(dim, n, L):
    g = make_grid(dim, n, L)
    r2 = sum(m**2 for m in np.meshgrid(*g.axes, indexing="ij"))
    return g, Field(g, 1.2 * np.exp(-r2 / 4.0) + 0.05)


@pytest.mark.parametrize("dim, n, chi", [(1, 128, 0.5), (1, 128, 0.0), (2, 32, 0.4)])
def test_matches_full_fft_scheme_over_200_steps(dim, n, chi):
    g, u0 = _initial(dim, n, 8.0)
    p = Params(chi=chi, a=1.0, b=1.0, dim=dim)
    dt = 0.01
    s = initial_state(u0)
    c = StepControl(dt=dt, t_end=2.0).resolved(u0, p)
    for _ in range(200):
        s = step(s, p, c)
    ref = full_fft_run(u0.values, g, p, dt, 200)
    amp = float(np.max(np.abs(ref)))
    assert np.max(np.abs(s.u.values - ref)) <= 1e-12 * (1.0 + amp)


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 32), (3, 16)])
def test_v_after_a_step_is_resolvent_of_u(dim, n):
    g, u0 = _initial(dim, n, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=dim)
    s = step(initial_state(u0), p, StepControl(dt=0.01, t_end=1.0).resolved(u0, p))
    assert np.max(np.abs(s.v.values - solve(s.u).values)) <= 1e-14


def test_stepped_state_is_read_only():
    g, u0 = _initial(1, 64, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    s = step(initial_state(u0), p, StepControl(dt=0.01, t_end=1.0).resolved(u0, p))
    with pytest.raises(ValueError):
        s.u.values[0] = 1.0
    with pytest.raises(ValueError):
        s.v.values[0] = 1.0


# budgets that any nonzero value crosses
_TIGHT = dict(dt=0.01, t_end=1.0, negativity_budget=1e-300, blowup_threshold=1e-300)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_directly_built_state_rejected(bad):
    g, u0 = _initial(1, 64, 8.0)
    vals = u0.values.copy()
    vals[7] = bad
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    with pytest.raises(NonFiniteFieldError):
        step(State(t=0.0, u=Field(g, vals), step_count=0), p, StepControl(**_TIGHT))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_mid_run_rejected(bad):
    g, u0 = _initial(1, 64, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    s = initial_state(u0)
    c = StepControl(dt=0.01, t_end=1.0).resolved(u0, p)
    for _ in range(10):
        s = step(s, p, c)
    # corrupt the carried spectrum the next step starts from
    s._uh = s._uh.copy()
    s._uh[0] = bad
    with pytest.raises(NonFiniteFieldError, match="step 11"):
        step(s, p, StepControl(**_TIGHT))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1])
def test_non_finite_carried_factors_rejected(bad, row):
    s, _ = _stepped(0.5)
    # corrupt the factors the next step starts from: u, then grad v
    synth, factors = s._factors
    factors = factors.copy()
    factors[row, 7] = bad
    s._factors = (synth, factors)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    with pytest.raises(NonFiniteFieldError, match="step 11"):
        step(s, p, StepControl(**_TIGHT))


def test_non_finite_overflow_mid_run_rejected():
    # u stays uniform, so the k = 0 mode follows the scheme's scalar
    # recursion.  The two starting Heun steps multiply u by about 2290
    # each; past a/b = 7e11 the -b u^2 term takes over, and each
    # Adams-Bashforth step about squares |u| times dt b: -5e35 after
    # step 8, -5e61, -4e113, -3e217 after step 11, whose square overflows
    # on step 12.  Neither budget can fire on a finite value before that
    g = make_grid(1, 32, 5.0)
    p = Params(chi=0.3, a=700.0, b=1e-9, dim=1)
    big = np.finfo(float).max
    s = initial_state(Field(g, np.ones(32)))
    c = StepControl(dt=0.1, t_end=10.0, negativity_budget=big, blowup_threshold=big)
    with pytest.raises(NonFiniteFieldError, match="step 12"), np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            s = step(s, p, c)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infinities_in_new_u_raise_before_budget_checks():
    # two modes above the 2/3 cutoff stay out of the products, so the new
    # u overflows to +inf and -inf at some points without turning NaN;
    # either budget check would fire first if it ran before finiteness
    g, u0 = _initial(1, 64, 8.0)
    uh = g.rfft(u0.values)
    uh[29] = uh[30] = 8e307
    p = Params(chi=0.5, a=0.0, b=1.0, dim=1)
    with pytest.raises(NonFiniteFieldError, match="step 1"):
        step(State(t=0.0, u=u0, uh=uh), p, StepControl(**dict(_TIGHT, dt=1e-3)))


_BATCH_AXES = {"rfft": 1, "irfft": 1, "fft": 1, "ifft": 1, "rfft2": 2, "irfft2": 2, "fft2": 2, "ifft2": 2}


def _count_transforms(monkeypatch):
    """Wrap every numpy.fft entry point; record (name, transforms) per
    call, a batched call counting one transform per batch entry.  An
    n-dimensional call transforms its axes, else all of them."""
    import numpy.fft

    calls = []
    for name in _BATCH_AXES.keys() | {"fftn", "ifftn", "rfftn", "irfftn"}:
        original = getattr(numpy.fft, name)

        def counted(x, *args, _name=name, _original=original, **kwargs):
            axes = _BATCH_AXES.get(_name) or len(kwargs.get("axes") or np.shape(x))
            calls.append((_name, int(np.prod(np.shape(x)[: np.ndim(x) - axes]))))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(numpy.fft, name, counted)
    return calls


@pytest.mark.parametrize("dim, n, expect", [(1, 128, 9), (2, 32, 13), (3, 16, 17)])
def test_transforms_per_step_with_chemotaxis(monkeypatch, dim, n, expect):
    # a later step starts from the carried factors; initial_state
    # transforms u0, and the first step then makes those factors (1 + dim)
    g, u0 = _initial(dim, n, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=dim)
    c = StepControl(dt=0.01, t_end=1.0).resolved(u0, p)
    calls = _count_transforms(monkeypatch)
    s = step(initial_state(u0), p, c)
    assert len(calls) == 6
    assert sum(k for _, k in calls) == expect + 1 + (1 + dim)
    calls.clear()
    s = step(s, p, c)
    assert sum(k for _, k in calls) == expect
    assert all(name.startswith(("rfft", "irfft")) for name, _ in calls)
    assert len(calls) == 4
    calls.clear()
    s.v  # v is formed on first read, with one more inverse transform
    s.v
    assert calls == [("irfft" if dim == 1 else "irfftn", 1)]


# -- the factors a step carries for the next one --------------------------


def _stepped(chi, nsteps=10):
    g, u0 = _initial(1, 64, 8.0)
    p = Params(chi=chi, a=1.0, b=1.0, dim=1)
    c = StepControl(dt=0.01, t_end=1.0).resolved(u0, p)
    s = initial_state(u0)
    for _ in range(nsteps):
        s = step(s, p, c)
    return s, c


@pytest.mark.parametrize(
    "chi, next_chi, next_dt, next_b",
    [(0.5, 0.3, 0.01, 1.0), (0.5, 0.5, 0.02, 1.0), (0.0, 0.5, 0.01, 1.0), (0.5, 0.0, 0.01, 2.0)],
)
def test_foreign_carried_factors_are_not_used(chi, next_chi, next_dt, next_b):
    # factors made under another plan (grid, dt, b, chi) must not leak
    # into the next step: it must match, bit for bit, the same state
    # without them
    s, c = _stepped(chi)
    p = Params(chi=next_chi, a=1.0, b=next_b, dim=1)
    c = StepControl(dt=next_dt, t_end=c.t_end).resolved(s.u, p)
    bare = State(t=s.t, u=s.u, step_count=s.step_count, uh=s._uh)
    for _ in range(3):
        s, bare = step(s, p, c), step(bare, p, c)
        assert np.array_equal(s.u.values, bare.u.values)
        assert np.array_equal(s._uh, bare._uh)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
def test_steps_without_carried_factors_give_the_same_bits(dim, n):
    # dropping the factors before every step makes each step transform
    # uh itself; the carried factors must give the same bits
    g, u0 = _initial(dim, n, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=dim)
    c = StepControl(dt=0.01, t_end=1.0).resolved(u0, p)
    carried = bare = initial_state(u0)
    for _ in range(5):
        carried = step(carried, p, c)
        bare = step(bare, p, c)
        assert bare._factors is not None
        bare._factors = None
    assert carried._factors is not None
    assert np.array_equal(carried.u.values, bare.u.values)
    assert np.array_equal(carried._uh, bare._uh)


def test_u_does_not_share_memory_with_carried_factors():
    s, _ = _stepped(0.5)
    synth, factors = s._factors
    assert not np.shares_memory(s.u.values, factors)
    assert s.u.values.base is None  # a kept u pins no larger block
    assert not s.u.values.flags.writeable
    assert not factors.flags.writeable
    assert not s._uh.flags.writeable
    assert factors.shape == (len(synth),) + s.u.values.shape


def test_stored_values_do_not_pin_the_factor_block(monkeypatch):
    sc = scenario_from_dict(
        {
            "schema_version": 1,
            "name": "kept",
            "grid": {"dim": 1, "n": 64, "half_width": 10.0},
            "params": {"chi": 0.3, "a": 1.0, "b": 1.0},
            "ic": {"kind": "gaussian", "amplitude": 1.0, "width": 1.5},
            "control": {"dt": 0.01, "t_end": 0.5},
            "diagnostics": {"sample_interval": 0.1, "snapshot_every": 2},
            "checks": {"spreading_limits": {}},
        }
    )
    kept = []
    observe = SpreadingLimits.observe

    def spy(self, t, u, v, record):
        kept.append(u.values)
        observe(self, t, u, v, record)

    monkeypatch.setattr(SpreadingLimits, "observe", spy)
    rep = run(sc)
    stored = kept[1:] + [snap["u"] for snap in rep.snapshots[1:]]
    assert len(stored) == 5 + 2
    assert all(vals.base is None for vals in stored)


# -- several steps in one call ---------------------------------------------


def _same_state(a, b):
    assert (a.t, a.step_count) == (b.t, b.step_count)
    assert np.array_equal(a.u.values, b.u.values)
    assert np.array_equal(a._uh, b._uh)
    assert a._factors[0] is b._factors[0]
    assert np.array_equal(a._factors[1], b._factors[1])


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("chi", [0.0, 0.5])
@pytest.mark.parametrize("fresh", [True, False])
def test_steps_in_one_call_equal_single_steps(dim, n, chi, fresh):
    g, u0 = _initial(dim, n, 8.0)
    p = Params(chi=chi, a=1.0, b=1.0, dim=dim)
    c = StepControl(dt=0.01, t_end=1.0).resolved(u0, p)
    s0 = initial_state(u0) if fresh else step(initial_state(u0), p, c, steps=3)
    single = s0
    for _ in range(7):
        single = step(single, p, c)
    _same_state(step(s0, p, c, steps=7), single)
    _same_state(step(step(s0, p, c, steps=4), p, c, steps=3), single)


def test_step_needs_resolved_budgets():
    # a budget scaled to a mid-run state's amplitude, not u0's, would
    # move the blow-up threshold with the run
    g, u0 = _initial(1, 32, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    for budgets in ({}, {"negativity_budget": 1e-10}, {"blowup_threshold": 1e4}):
        with pytest.raises(ValueError, match="resolved budgets"):
            step(initial_state(u0), p, StepControl(dt=0.01, t_end=1.0, **budgets))


def test_initial_state_keeps_its_own_copy_of_u0():
    g, u0 = _initial(1, 64, 8.0)
    vals = u0.values.copy()
    s = initial_state(u0)
    v0 = s.v.values.copy()
    u0.values[:] = -1.0
    assert np.array_equal(s.u.values, vals) and np.array_equal(s.v.values, v0)
    assert not (s.u.values.flags.writeable or s._uh.flags.writeable or s.v.values.flags.writeable)
    # v at t = 0 is the resolvent of u0, formed from the carried spectrum
    assert np.max(np.abs(v0 - solve(Field(g, vals)).values)) <= 1e-15


def test_steps_must_be_positive():
    g, u0 = _initial(1, 32, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    with pytest.raises(ValueError, match="steps"):
        step(initial_state(u0), p, StepControl(dt=0.01, t_end=1.0), steps=0)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
def test_a_returned_state_keeps_its_values(dim, n):
    g, u0 = _initial(dim, n, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=dim)
    c = StepControl(dt=0.01, t_end=1.0).resolved(u0, p)
    s = step(initial_state(u0), p, c, steps=5)
    kept = (s.u.values.copy(), s._uh.copy(), s._factors[1].copy())
    arrays = (s.u.values, s._uh, s._factors[1])
    later = step(s, p, c, steps=5)
    step(later, p, c, steps=5)
    step(s, p, c)
    for arr, before in zip(arrays, kept):
        assert not arr.flags.writeable
        assert np.array_equal(arr, before)
    # each call works in its own arrays
    assert not np.shares_memory(later._uh, s._uh)
    assert not np.shares_memory(later._factors[1], s._factors[1])


@pytest.mark.parametrize(
    "kind, u_of_x, params, ctrl",
    [
        # an under-resolved bump rings to -2.9e-4 on its first step and
        # past the budget on its second
        (NegativityError, lambda x: 3.0 * np.exp(-(x**2) / 0.5),
         dict(chi=1.0, a=1.0, b=1.0), dict(dt=0.01, negativity_budget=3.5e-4, blowup_threshold=1e9)),
        # logistic growth towards a/b = 4 crosses 2 after some steps
        (BlowupError, lambda x: np.ones_like(x),
         dict(chi=0.3, a=2.0, b=0.5), dict(dt=0.01, negativity_budget=1e-10, blowup_threshold=2.0)),
    ],
)
def test_an_abort_in_one_call_matches_single_steps(kind, u_of_x, params, ctrl):
    g = make_grid(1, 64, 10.0)
    p = Params(dim=1, **params)
    c = StepControl(t_end=10.0, **ctrl)
    s = initial_state(Field(g, u_of_x(g.axes[0])))
    with pytest.raises(kind) as one:
        step(s, p, c, steps=200)
    with pytest.raises(kind) as single:
        for _ in range(200):
            s = step(s, p, c)
    one, single = one.value, single.value
    assert one.t > 1.5 * c.dt  # not on the call's first step
    assert str(one) == str(single)
    assert (one.t, one.value) == (single.t, single.value)


# -- the Adams-Bashforth scheme and its two-step start ---------------------


def _exact_phis(z):
    """phi_1, phi_2, phi_3 at z from the exact rational sum of the first
    terms of phi_1(z) = sum_j z^j / (j + 1)!, each rounded once to float.

    With z = zn / zd exactly, the nested form 1 + z/2 (1 + z/3 (...))
    is kept as an unreduced integer fraction num / den.  Past j = e |z|
    the terms shrink geometrically, so 3 |z| + 40 of them leave a
    remainder far below float64 rounding.  phi_(k+1) = (phi_k - 1/k!) / z
    holds term by term, so in exact arithmetic it gives the Taylor sums
    of phi_2 and phi_3, with none of the cancellation it has in floats.
    """
    zn, zd = Fraction(z).as_integer_ratio()
    num, den = 1, 1
    for m in range(int(3 * abs(z)) + 41, 1, -1):
        den *= zd * m
        num = den + zn * num
    phis = []
    for k in (1, 2, 3):
        phis.append(num / den)
        # (num / den - 1/k!) / (zn / zd)
        num, den = (num * math.factorial(k) - den) * zd, den * math.factorial(k) * zn
    return phis


_PHI_POINTS = (-1e-8, -0.5, -0.999, -1.0, -1.001, -5.0, -50.0, -1e4)


def test_phis_match_exact_taylor_sums():
    # both sides of the series/closed-form switch at |z| = 1, and far out
    got = _phis(np.array(_PHI_POINTS))
    for i, z in enumerate(_PHI_POINTS):
        for k, want in enumerate(_exact_phis(z), start=1):
            assert abs(got[k - 1, i] - want) <= 1e-15 * abs(want), (z, k)


def _same_history(a, b):
    (key_a, past_a), (key_b, past_b) = a._history, b._history
    assert key_a == key_b and len(past_a) == len(past_b)
    assert all(np.array_equal(x, y) for x, y in zip(past_a, past_b))
    assert not any(f.flags.writeable for f in past_a)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
def test_steps_across_the_start_equal_single_steps(dim, n):
    # steps 1 and 2 are two-stage, from step 3 on Adams-Bashforth: a call
    # of k steps from initial_state gives the bits of k calls of one
    g, u0 = _initial(dim, n, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=dim)
    c = StepControl(dt=0.01, t_end=1.0).resolved(u0, p)
    singles = [initial_state(u0)]
    for _ in range(5):
        singles.append(step(singles[-1], p, c))
    for k in range(1, 6):
        one = step(initial_state(u0), p, c, steps=k)
        _same_state(one, singles[k])
        _same_history(one, singles[k])
        assert len(one._history[1]) == min(k, 2)


@pytest.mark.parametrize("next_dt, next_a, restarts", [(0.02, 1.0, True), (0.01, 1.5, True), (0.01, 1.0, False)])
def test_a_resumed_state_restarts_with_the_two_stage_update(next_dt, next_a, restarts):
    # a history of F made under another dt (another plan) or another a
    # (which the plan is not keyed on) must not be used: the next steps
    # match, bit for bit, the same state without a history, which starts
    # with two two-stage steps.  Under its own plan and a it is used.
    s, c = _stepped(0.5)
    p = Params(chi=0.5, a=next_a, b=1.0, dim=1)
    c = StepControl(dt=next_dt, t_end=c.t_end).resolved(s.u, p)
    bare = State(t=s.t, u=s.u, step_count=s.step_count, uh=s._uh)
    for _ in range(4):
        s, bare = step(s, p, c), step(bare, p, c)
        assert np.array_equal(s._uh, bare._uh) == restarts


def test_history_survives_the_plan_leaving_its_cache():
    # _plan is a bounded cache; a plan rebuilt after it was evicted has
    # the same bits, so the run keeps its Adams-Bashforth steps and
    # matches an uninterrupted run bit for bit
    s, c = _stepped(0.5, nsteps=3)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    kept = step(s, p, c, steps=3)
    for _ in range(3):
        _plan.cache_clear()
        s = step(s, p, c)
    assert (s.t, s.step_count) == (kept.t, kept.step_count)
    assert np.array_equal(s.u.values, kept.u.values)
    assert np.array_equal(s._uh, kept._uh)
    assert np.array_equal(s._factors[1], kept._factors[1])
    _same_history(s, kept)


@pytest.mark.parametrize("dim, n, chi, expect", [(1, 128, 0.0, 3), (1, 128, 0.5, 5), (2, 32, 0.5, 7), (3, 16, 0.5, 9)])
def test_transforms_per_adams_bashforth_step(monkeypatch, dim, n, chi, expect):
    # one batched forward transform of the products (u^2, then u dv/dx_i
    # when chi != 0) and one batched inverse of the new u and its factors
    g, u0 = _initial(dim, n, 8.0)
    p = Params(chi=chi, a=1.0, b=1.0, dim=dim)
    c = StepControl(dt=0.01, t_end=1.0).resolved(u0, p)
    s = step(initial_state(u0), p, c, steps=2)
    calls = _count_transforms(monkeypatch)
    step(s, p, c)
    assert len(calls) == 2
    assert sum(k for _, k in calls) == expect


def test_time_error_at_mass_growth_dt_is_a_tenth_of_the_two_stage_schemes():
    # the two-stage scheme is what a state without a history takes, so
    # dropping the history before every step runs it alone.  The
    # reference is the third-order scheme at dt/8, whose own error is
    # about 1/512 of its error at dt, far below both errors compared.
    sc = load_scenario(bundled_scenario_path("mass_growth_1d"))
    p, dt, T = sc.params, sc.control.dt, sc.control.t_end
    u0 = realize(sc.ic, sc.grid, guard=sc.diagnostics.guard)
    c = StepControl(dt=dt, t_end=T).resolved(u0, p)
    fine = StepControl(dt=dt / 8, t_end=T).resolved(u0, p)
    ref = step(initial_state(u0), p, fine, steps=8 * round(T / dt)).u.values
    ab3 = step(initial_state(u0), p, c, steps=round(T / dt)).u.values
    s = initial_state(u0)
    for _ in range(round(T / dt)):
        s._history = None
        s = step(s, p, c)
    err_ab3 = np.max(np.abs(ab3 - ref))
    err_two_stage = np.max(np.abs(s.u.values - ref))
    assert err_ab3 <= 0.1 * err_two_stage


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
def test_grad_v_is_formed_from_the_carried_spectrum(monkeypatch, dim, n):
    g, u0 = _initial(dim, n, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=dim)
    s = step(initial_state(u0), p, StepControl(dt=0.01, t_end=1.0).resolved(u0, p), steps=3)
    calls = _count_transforms(monkeypatch)
    gv = s.grad_v
    assert s.grad_v is gv
    assert calls == [("irfft" if dim == 1 else "irfftn", dim)]
    for got, want in zip(gv, grad_potential(s.u)):
        assert not got.values.flags.writeable
        assert np.max(np.abs(got.values - want.values)) <= 1e-14


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
def test_time_error_is_the_gap_between_ab3_and_ab2(dim, n):
    # the stepper's estimate, from the second difference of its own F
    # history, against the explicit AB3 and AB2 updates of the oracle
    # from the F of the same three states on the full spectrum.  The gap
    # (~1e-5 here) is a difference of two O(1) updates, so rounding
    # limits the agreement to ~1e-16 / 1e-5 relative; it reads ~1e-11.
    g, u0 = _initial(dim, n, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=dim)
    dt = 0.02
    c = StepControl(dt=dt, t_end=1.0, time_tol=1.0).resolved(u0, p)
    states = [initial_state(u0)]
    for _ in range(3):
        states.append(step(states[-1], p, c))
    # two-stage steps have no AB3 - AB2 gap
    assert [st.time_error for st in states[:3]] == [None] * 3
    f0, f1, f2 = (full_fft_rhs_hat(np.fft.fftn(st.u.values, norm="forward"), g, p) for st in states[:3])
    z = -dt * (1.0 + full_multipliers(g).k2)
    E, (phi1, phi2, phi3) = np.exp(z), full_fft_phis(z)
    uh = np.fft.fftn(states[2].u.values, norm="forward")
    ab3 = etd_ab3_update(uh, f2, f1, f0, E, phi1, phi2, phi3, dt)
    gap = ab3 - etd_ab2_update(uh, f2, f1, E, phi1, phi2, dt)
    assert np.max(np.abs(np.fft.ifftn(ab3, norm="forward").real - states[3].u.values)) <= 1e-13
    # twice the l1 norm of the half-spectrum, the stepper's sup bound
    want = 2.0 * np.sum(np.abs(gap[..., : n // 2 + 1]))
    assert 1e-7 < want < 1e-4
    assert states[3].time_error == pytest.approx(want, rel=1e-8)
    # without time_tol, no estimate is made
    fixed = StepControl(dt=dt, t_end=1.0).resolved(u0, p)
    assert step(states[2], p, fixed).time_error is None


def _ladder(tol, dt, interval=0.25, n=32):
    g, u0 = _initial(1, n, 8.0)
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    c = StepControl(dt=dt, t_end=1.0, time_tol=tol).resolved(u0, p)
    return SampleStepper(p, c, interval), initial_state(u0)


def test_a_loose_tolerance_climbs_to_four_steps_an_interval_and_stays():
    advance, s = _ladder(tol=1.0, dt=0.25 / 64)
    assert advance.rung == 6
    events = []
    for i in range(8):
        s = advance(s, events)
        assert s.t == 0.25 * (i + 1)
    assert advance.rung == 2
    assert [e["kind"] for e in events] == ["dt_change"] * 4
    assert [e["dt"] for e in events] == [0.25 / 32, 0.25 / 16, 0.25 / 8, 0.25 / 4]
    assert s.step_count == 64 + 32 + 16 + 8 + 4 * 4


def test_an_interval_rejected_at_the_last_rung_aborts():
    advance, s = _ladder(tol=1e-300, dt=0.25 / 2 ** (MAX_RUNG - 1))
    events = []
    with pytest.raises(StepperError, match="the finest step") as err:
        advance(s, events)
    assert type(err.value) is StepperError
    assert err.value.t == 0.0 and err.value.value > 1e-300
    assert [e["kind"] for e in events] == ["interval_rejected", "dt_change", "interval_rejected"]
    assert [e["dt"] for e in events] == [0.25 / 2 ** (MAX_RUNG - 1), 0.25 / 2**MAX_RUNG, 0.25 / 2**MAX_RUNG]


def test_an_abort_under_time_tol_is_not_retried():
    advance, s = _ladder(tol=1e-300, dt=0.25 / 4)
    advance.control = replace(advance.control, blowup_threshold=1.0)
    events = []
    with pytest.raises(BlowupError):
        advance(s, events)
    assert events == [] and advance.rung == 2


def _worst_dispersion_error(dt):
    """Largest gap, over chi in {0.5, 3, 4.2, 6} and k = m/8 for m in
    {2, 4, 8, 12}, between the growth rate of mode m over t in [0, 2]
    from u0 = 1 + 1e-7 cos(k x) and the linear dispersion relation about
    a/b, sigma(k) = -k^2 - a + chi (a/b) k^2 / (1 + k^2)."""
    g = make_grid(1, 128, 8 * math.pi)
    worst = 0.0
    for chi in (0.5, 3.0, 4.2, 6.0):
        p = Params(chi=chi, a=1.0, b=1.0, dim=1)
        for m in (2, 4, 8, 12):
            k = m / 8
            u0 = Field(g, 1.0 + 1e-7 * np.cos(k * g.axes[0]))
            c = StepControl(dt=dt, t_end=2.0).resolved(u0, p)
            s = step(initial_state(u0), p, c, steps=round(2.0 / dt))
            rate = math.log(abs(g.rfft(s.u.values)[m]) / abs(g.rfft(u0.values)[m])) / 2.0
            sigma = -k * k - p.a + chi * (p.a / p.b) * k * k / (1.0 + k * k)
            worst = max(worst, abs(rate - sigma))
    return worst


def test_small_modes_about_a_over_b_grow_at_the_linear_dispersion_rate():
    # measured: 4.4e-5 at dt = 0.02 and 5.6e-6 at dt = 0.01, i.e. 5.5 dt^3;
    # growing modes (chi = 4.2 at k = 1, chi = 6 at k = 1, 1.5) fix chi's sign
    coarse, fine = (_worst_dispersion_error(dt) for dt in (0.02, 0.01))
    assert coarse <= 10 * 0.02**3 and fine <= 10 * 0.01**3
    assert 6.0 <= coarse / fine <= 10.0

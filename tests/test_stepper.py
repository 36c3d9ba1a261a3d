import numpy as np
import pytest
from numpy.testing import assert_allclose

from kslogistic.checks import SpreadingLimits
from kslogistic.grid import Field, NonFiniteFieldError, make_grid
from kslogistic.harness import run
from kslogistic.helmholtz import grad_potential, solve
from kslogistic.params import Params
from kslogistic.reference import logistic_exact
from kslogistic.scenario import scenario_from_dict
from kslogistic.stepper import (
    BlowupError,
    NegativityError,
    State,
    StepControl,
    initial_state,
    stability_warnings,
    step,
)

from oracles import divergence, full_fft_step, nonlinearity, rk4_reaction_diffusion


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
    assert np.log2(e12 / e24) >= 1.9


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


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepControl(dt=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        StepControl(dt=0.1, t_end=1.0, negativity_budget=-1e-10)
    with pytest.raises(ValueError):
        StepControl(dt=0.1, t_end=1.0, blowup_threshold=0.0)


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
    ref = u0.values
    for _ in range(200):
        s = step(s, p, c)
        ref = full_fft_step(ref, g, p, dt)
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
    # unchecked exponential growth overflows on the eighth step; neither
    # budget can fire on a finite value before that
    g = make_grid(1, 32, 5.0)
    p = Params(chi=0.3, a=700.0, b=1e-9, dim=1)
    big = np.finfo(float).max
    s = initial_state(Field(g, np.ones(32)))
    c = StepControl(dt=0.1, t_end=10.0, negativity_budget=big, blowup_threshold=big)
    with pytest.raises(NonFiniteFieldError, match="step 8"), np.errstate(over="ignore", invalid="ignore"):
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

"""Mode-function solver, Wronskian conservation, and the classical flow of a mode-function point."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iontomo import (
    GaussianState,
    InvalidTrajectoryError,
    OscillatorParams,
    SolverError,
    epsilon_at,
    evolve_tomogram,
    evolve_wigner,
    omega_squared,
    solve_epsilon,
)
from iontomo import oscillator
from iontomo.oscillator import _BLOCK, _MAX_STEPS
from oracles import eval_wavefunction, nested_epsilon_at

PARAMS04 = OscillatorParams(kappa=0.4, omega_drive=2.0)

# Frozen output of an independent high-order integrator (DOP853 at
# rtol=atol=1e-12) for kappa=0.4, Omega=2 at t=10.  Regenerated by
# test_frozen_reference_reproducible_by_scipy when scipy is available.
EPS_AT_10 = -0.5705545107619477 - 0.7926747852266474j
DEPS_AT_10 = 0.8485518880469056 - 0.5737827117542950j


@pytest.mark.parametrize(
    "t, kappa, omega, expected",
    [
        (0.0, 0.5, 2.0, 1.0),
        (1.7, 0.0, 3.0, 1.0),
        (math.pi / 4, 1.0, 1.0, 1.5),
    ],
)
def test_omega_squared_values(t, kappa, omega, expected):
    params = OscillatorParams(kappa=kappa, omega_drive=omega)
    assert omega_squared(t, params) == pytest.approx(expected, abs=1e-14)


def test_omega_squared_vectorized_and_bounded_below():
    t = np.linspace(0.0, 30.0, 500)
    w2 = omega_squared(t, OscillatorParams(kappa=1.3, omega_drive=2.7))
    assert w2.shape == t.shape
    assert np.all(w2 >= 1.0)


@pytest.mark.parametrize("kappa, omega", [(-0.1, 1.0), (0.5, 0.0), (0.5, -2.0)])
def test_params_validation(kappa, omega):
    with pytest.raises(ValueError):
        OscillatorParams(kappa=kappa, omega_drive=omega)


def test_initial_conditions(traj04):
    assert traj04.times[0] == 0.0
    assert traj04.eps[0] == 1.0 + 0.0j
    assert traj04.deps[0] == 1.0j


@pytest.mark.parametrize("kappa, omega", [(0.0, 1.0), (0.4, 2.0), (1.0, 2.0)])
def test_wronskian_conserved(kappa, omega):
    traj = solve_epsilon(OscillatorParams(kappa=kappa, omega_drive=omega), t_end=20.0)
    assert np.max(np.abs(traj.wronskian() - 1.0)) <= 1e-8


def test_static_trap_closed_form():
    traj = solve_epsilon(OscillatorParams(kappa=0.0, omega_drive=1.0), t_end=20.0)
    exact = np.exp(1j * traj.times)
    assert np.max(np.abs(traj.eps - exact)) <= 1e-8
    assert np.max(np.abs(traj.deps - 1j * exact)) <= 1e-8


def test_matches_frozen_reference(traj04):
    assert abs(traj04.eps[-1] - EPS_AT_10) <= 1e-10
    assert abs(traj04.deps[-1] - DEPS_AT_10) <= 1e-10


def test_frozen_reference_reproducible_by_scipy():
    integrate = pytest.importorskip("scipy.integrate")

    def rhs(t, y):
        w2 = 1.0 + (0.4 * math.sin(2.0 * t)) ** 2
        return [y[1], -w2 * y[0]]

    sol = integrate.solve_ivp(
        rhs, (0.0, 10.0), [1.0 + 0.0j, 1.0j], method="DOP853", rtol=1e-12, atol=1e-12
    )
    assert abs(sol.y[0, -1] - EPS_AT_10) <= 1e-9
    assert abs(sol.y[1, -1] - DEPS_AT_10) <= 1e-9


def test_grid_refinement_fourth_order():
    # endpoint error against a much finer run must drop ~2^4 per halving
    params = OscillatorParams(kappa=1.0, omega_drive=2.0)
    ref = solve_epsilon(params, t_end=5.0, n_steps=16000).eps[-1]
    e_coarse = abs(solve_epsilon(params, t_end=5.0, n_steps=500).eps[-1] - ref)
    e_fine = abs(solve_epsilon(params, t_end=5.0, n_steps=1000).eps[-1] - ref)
    order = math.log2(e_coarse / e_fine)
    assert 3.5 <= order <= 4.5


def test_epsilon_at_zero_is_exact():
    assert epsilon_at(PARAMS04, 0.0) == (1.0 + 0.0j, 1.0j)


def test_epsilon_at_matches_endpoint(traj04):
    # the period table's grid (h = T / n) is not the endpoint's (10 / 20000),
    # so the two agree to the solver's accuracy rather than bit for bit
    eps, deps = epsilon_at(traj04.params, 10.0)
    scale = max(abs(traj04.eps[-1]), abs(traj04.deps[-1]))
    assert abs(eps - traj04.eps[-1]) <= 1e-13 * scale
    assert abs(deps - traj04.deps[-1]) <= 1e-13 * scale


def test_epsilon_at_matches_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(25):
        k2 = mpmath.mpf(PARAMS04.kappa) ** 2
        om = mpmath.mpf(PARAMS04.omega_drive)

        def rhs(t, y):
            w2 = 1 + k2 * mpmath.sin(om * t) ** 2
            return [y[1], -w2 * y[0], y[3], -w2 * y[2]]

        # Re eps and Im eps: the solutions from (1, 0) and from (0, 1)
        u, du, v, dv = (complex(c) for c in mpmath.odefun(rhs, 0, [1, 0, 0, 1])(2))
    eps, deps = epsilon_at(PARAMS04, 2.0)
    assert abs(eps - (u + 1j * v)) <= 1e-13
    assert abs(deps - (du + 1j * dv)) <= 1e-13


def test_epsilon_at_period_over_the_step_cap_raises(monkeypatch):
    # T = pi / 1e-4 needs 2000 T > 2**24 steps, and so does the span 16384 of
    # t = 8192, the least power of two above it: refused before any integration
    def never(*args):
        raise AssertionError("_rk4 called")

    monkeypatch.setattr(oscillator, "_rk4", never)
    with pytest.raises(SolverError, match="tolerance unreachable"):
        epsilon_at(OscillatorParams(0.4, 1e-4), 8192.0)


def kept_passes():
    """``(params, span, tol, n_steps)`` of each pass ``epsilon_at`` keeps, least recently used span first."""
    return [(*key, n) for key, passes in oscillator._tables.items() for n in passes]


@pytest.mark.parametrize("t, span", [(1e-300, 8.0), (1.0, 8.0), (8.0, 16.0), (10.0, 16.0), (100.0, 128.0)])
def test_slow_drive_tables_span_the_query(monkeypatch, t, span):
    # below the period the table spans the least power of two above t (at
    # least 8), so its cost follows t; k = 0, and the point is that table's
    # node and partial step
    monkeypatch.setattr(oscillator, "_tables", {})
    params = OscillatorParams(0.4, 1e-4)
    eps, deps = epsilon_at(params, t)
    assert kept_passes() == [(params, span, oscillator.DEFAULT_TOL, max(1000, math.ceil(2000 * span)))]
    traj = solve_epsilon(params, t_end=t, n_steps=max(1000, math.ceil(2000 * t)))
    scale = max(1.0, abs(traj.eps[-1]))
    assert abs(eps - traj.eps[-1]) <= 1e-11 * scale
    assert abs(deps - traj.deps[-1]) <= 1e-11 * scale


def test_epsilon_at_unreachable_in_resonance():
    # |eps| ~ 1e12 at t = 300: round-off alone puts Im(eps* deps) far off 1
    with pytest.raises(SolverError, match="tolerance unreachable"):
        epsilon_at(OscillatorParams(1.0, 1.2247), 300.0)


def test_epsilon_at_rejects_negative_time():
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        epsilon_at(PARAMS04, -1e-9)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_epsilon_at_rejects_non_finite_time(t):
    # refused before the Floquet step, which cannot split a non-finite t into periods
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        epsilon_at(PARAMS04, t)


def _monodromy(params):
    table = solve_epsilon(params, t_end=math.pi / params.omega_drive)  # the period table epsilon_at keeps
    return np.array([[table.eps[-1].real, table.eps[-1].imag],
                     [table.deps[-1].real, table.deps[-1].imag]])


# kappa in [0, 1.5] and Omega in [0.5, 4] reach the first instability tongue,
# centred near (1, 1.2247), where |eps| grows like the Floquet multiplier
DRIVES = {"kappa": st.floats(0.0, 1.5), "omega": st.floats(0.5, 4.0)}


@settings(max_examples=25, deadline=None)
@given(**DRIVES, t=st.floats(0.0, 30.0))
@example(kappa=1.0, omega=1.2247, t=30.0)
@example(kappa=0.4, omega=2.0, t=math.pi / 2)
def test_floquet_table_matches_direct_solve(kappa, omega, t):
    params = OscillatorParams(kappa, omega)
    gate = 10.0 * oscillator.DEFAULT_TOL
    assert abs(np.linalg.det(_monodromy(params)) - 1.0) <= gate
    eps, deps = epsilon_at(params, t)
    assert abs((eps.conjugate() * deps).imag - 1.0) <= gate
    if t == 0.0:
        assert (eps, deps) == (1.0, 1.0j)
        return
    traj = solve_epsilon(params, t_end=t)
    scale = max(1.0, abs(traj.eps[-1]))
    assert abs(eps - traj.eps[-1]) <= 1e-11 * scale
    assert abs(deps - traj.deps[-1]) <= 1e-11 * scale


@settings(max_examples=25, deadline=None)
@given(**DRIVES)
@example(kappa=1.0, omega=1.2247)
@example(kappa=1.5, omega=1.45)
def test_floquet_growth_exactly_outside_the_stable_band(kappa, omega):
    # det Phi(T) = 1, so eps((k + 1) T) = tr eps(k T) - eps((k - 1) T): with
    # |tr| < 2 the sequence rotates by cos(theta) = tr / 2 and stays bounded,
    # with |tr| > 2 it grows by the multiplier (|tr| + sqrt(tr^2 - 4)) / 2
    params = OscillatorParams(kappa, omega)
    tr = float(np.trace(_monodromy(params)))
    assume(abs(abs(tr) - 2.0) > 0.05)  # near the band edge growth takes too many periods
    period = math.pi / omega
    # a loose tol lets round-off in Im(eps* deps) grow with |eps|^2 up to 1e-1
    eps = [epsilon_at(params, k * period, tol=1e-2)[0] for k in range(2)]
    if abs(tr) < 2.0:
        sin_theta = math.sqrt(1.0 - tr * tr / 4.0)
        bound = abs(eps[0]) + abs(eps[1] - eps[0] * tr / 2.0) / sin_theta
        for k in range(2, 60):
            eps.append(epsilon_at(params, k * period, tol=1e-2)[0])
        assert max(map(abs, eps)) <= bound * (1.0 + 1e-9)
    else:
        multiplier = (abs(tr) + math.sqrt(tr * tr - 4.0)) / 2.0
        k = math.ceil(math.log(1e4) / math.log(multiplier))
        grown = [abs(epsilon_at(params, j * period, tol=1e-2)[0]) for j in (k - 1, k)]
        assert grown[1] > 1e3
        assert grown[1] / grown[0] == pytest.approx(multiplier, rel=1e-3)


def test_monodromy_trace_at_mathieu_band_edges():
    # With tau = Omega t the mode equation is Mathieu's y'' + (a - 2 q cos 2 tau) y = 0
    # at a = (1 + kappa^2 / 2) / Omega^2, q = kappa^2 / (4 Omega^2) (Abramowitz &
    # Stegun ch. 20).  At a characteristic value a_r(q) or b_r(q) a solution of
    # period pi or 2 pi in tau exists, so the monodromy Phi(T) has the multiplier
    # (-1)^r twice and the trace Re eps(T) + Im deps(T) = 2 (-1)^r.  The edges
    # below have gaps wide enough that a 1e-8 relative change of kappa moves the
    # trace at least 2e-11 off the edge (measured: at least 2.1e-11, and the
    # edges themselves at most 2.4e-13 off)
    special = pytest.importorskip("scipy.special")
    edges = 0
    for r in (1, 2, 3):
        for q in (0.5, 0.7, 1.0):
            for characteristic in (special.mathieu_a, special.mathieu_b):
                a = characteristic(r, q)
                if not a > 2.0 * q:  # no real drive frequency reaches it
                    continue
                omega = 1.0 / math.sqrt(a - 2.0 * q)
                kappa = 2.0 * math.sqrt(q) * omega
                off = [abs(np.trace(_monodromy(OscillatorParams(k, omega))) - 2.0 * (-1) ** r)
                       for k in (kappa, kappa * (1.0 + 1e-8))]
                assert off[0] <= 1e-12
                assert off[1] >= 2e-11
                edges += 1
    assert edges == 14


@pytest.mark.parametrize("params", [PARAMS04, OscillatorParams(1.0, 1.2247)], ids=["stable", "resonance"])
def test_epsilon_at_integrates_one_period_table(monkeypatch, params):
    # a step count, not a timing: 100 queries over [0, 100] cost one table
    # (with its step-count doublings), never a solve from t = 0
    steps = []
    rk4 = oscillator._rk4

    def counted(p, t_end, n_steps):
        steps.append(n_steps)
        return rk4(p, t_end, n_steps)

    monkeypatch.setattr(oscillator, "_rk4", counted)
    monkeypatch.setattr(oscillator, "_tables", {})
    returned = 0
    for t in np.linspace(0.0, 100.0, 100):
        try:
            epsilon_at(params, t)
            returned += 1
        except SolverError:  # late resonant points whose round-off exceeds the gate
            assert params != PARAMS04
    assert returned >= 90
    assert sum(steps) <= 2 * max(steps) <= 4 * math.ceil(2000 * math.pi / params.omega_drive)


def test_period_tables_are_bounded_by_samples(monkeypatch):
    monkeypatch.setattr(oscillator, "_tables", {})
    tol = oscillator.DEFAULT_TOL
    resonant = OscillatorParams(1.0, 1.2247)
    doubled = [(resonant, math.pi / 1.2247, tol, n) for n in (5131, 10262)]
    epsilon_at(resonant, 95.0)  # |eps| ~ 1e4: the point needs a doubled table
    assert kept_passes() == doubled
    # Omega = 2, 2.5, 3: tables of 3143, 2515 and 2096 samples
    drives = [OscillatorParams(0.4, omega) for omega in (2.0, 2.5, 3.0)]
    monkeypatch.setattr(oscillator, "_TABLE_SAMPLES", 6000)
    for params in drives:
        epsilon_at(params, 1.0)
    assert [key[0] for key in oscillator._tables] == drives[1:]
    epsilon_at(OscillatorParams(0.4, 0.5), 1.0)  # 12567 samples: kept while it is the last used
    assert [key[0] for key in oscillator._tables] == [OscillatorParams(0.4, 0.5)]
    epsilon_at(drives[1], 1.0)  # rebuilt, and the larger table, now least recently used, dropped
    assert [key[0] for key in oscillator._tables] == [drives[1]]
    epsilon_at(resonant, 95.0)  # 15395 samples: every table of the span last used stays
    assert kept_passes() == doubled


@pytest.mark.parametrize("params, times", [
    (OscillatorParams(300.0, 2.0), (0.01, 1.6, 10.0, 30.0)),
    (OscillatorParams(3000.0, 2.0), (0.01, 1.6, 10.0, 30.0)),
    (OscillatorParams(1e4, 2.0), (0.01, 1.6)),  # later times there take a 3.2M-step doubling
    (OscillatorParams(1.0, 1.2247), (1.0, 30.0, 80.0, 95.0, 100.0, 120.0, 300.0)),
], ids=["kappa300", "kappa3000", "kappa1e4", "resonance"])
def test_one_retry_loop_matches_the_nested_retries(monkeypatch, params, times):
    # stiff drives whose period tables take up to nine doublings, and resonant
    # points that need a doubled table or give up: each point has the bits of
    # a table gated on its own with the point retried on top, or raises where
    # that gives up; later calls start at the first pass that met the gate
    monkeypatch.setattr(oscillator, "_tables", {})
    for t, want in zip(times, nested_epsilon_at(params, times)):
        if want is None:
            with pytest.raises(SolverError, match="tolerance unreachable"):
                epsilon_at(params, t)
        else:
            assert np.array(epsilon_at(params, t)).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("params, t, bound", [
    # |eps|^2 + |deps|^2 ~ 1e50: on the fifth pass (50272 steps) the drift,
    # 1.1e26, could not reach the gate within 2**24 steps even falling as h^5.
    # Gating the period table first took about 3.2M steps
    (OscillatorParams(1e4, 2.0), 100.0, 2 ** 17),
    # the 321792-step pass fails to halve the drift the 160896-step one, which
    # met the gate, left: round-off sets it.  Stopping on that only on a
    # resolved grid doubled on to a 10.3M-step pass, 20M steps in all
    (OscillatorParams(3000.0, 5.0), 10.0, 2 ** 20),
], ids=["kappa1e4", "kappa3000"])
def test_hopeless_point_fails_fast(monkeypatch, params, t, bound):
    steps = []
    rk4 = oscillator._rk4

    def counted(p, t_end, n_steps):
        steps.append(n_steps)
        return rk4(p, t_end, n_steps)

    monkeypatch.setattr(oscillator, "_rk4", counted)
    monkeypatch.setattr(oscillator, "_tables", {})
    with pytest.raises(SolverError, match=f"at t={t} .*tolerance unreachable"):
        epsilon_at(params, t)
    assert sum(steps) <= bound


def test_only_passes_that_meet_the_gate_are_kept(monkeypatch):
    # kappa 3000: the passes of 3142 to 201088 steps miss the gate and none is
    # kept or held while the next is built, so the peak is the 402176-step
    # table (40 bytes per step) and block scratch; t = 10 needs its doubling
    monkeypatch.setattr(oscillator, "_tables", {})
    params = OscillatorParams(3000.0, 2.0)
    tracemalloc.start()
    try:
        epsilon_at(params, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = [(params, math.pi / 2.0, oscillator.DEFAULT_TOL, n) for n in (402176, 804352)]
    assert kept_passes() == kept[:1]
    assert peak <= 40 * 402177 + 2 ** 20
    epsilon_at(params, 10.0)
    assert kept_passes() == kept


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_end": 0.0},
        {"t_end": -1.0},
        {"t_end": 1.0, "tol": 0.0},
        {"t_end": 1.0, "n_steps": 1},
    ],
)
def test_solve_epsilon_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        solve_epsilon(PARAMS04, **kwargs)


@pytest.mark.parametrize(
    "params, kwargs",
    [
        # steps of 1.7e-12 (there is no step-size floor): round-off keeps the
        # Wronskian drift near 2e-16, which even falling as h^5 would need
        # about 3e7 steps to bring to a 1e-30 target, so the first pass ends it
        (PARAMS04, {"t_end": 1e-7, "n_steps": 60001, "tol": 1e-30}),
        # inside the first instability tongue |eps| reaches ~1e4 by t = 100 and
        # roundoff holds the drift near 1e-7 whatever the step count
        (OscillatorParams(1.0, 1.2247), {"t_end": 100.0}),
    ],
    ids=["step-floor", "resonance"],
)
def test_solver_error_when_tolerance_unreachable(params, kwargs):
    with pytest.raises(SolverError, match="tolerance unreachable"):
        solve_epsilon(params, **kwargs)


def test_step_count_cap_fails_fast():
    # kappa = 1e4 would keep doubling toward h * sqrt(1 + kappa^2) <= 1/2000,
    # about 2e9 steps at t_end = 100, before the resolved-grid stop could apply
    with pytest.raises(SolverError, match=f"cap of {_MAX_STEPS} steps"):
        solve_epsilon(OscillatorParams(1e4, 2.0), t_end=100.0)


def test_user_step_count_over_cap_fails_before_integration(monkeypatch):
    def never(*args):
        raise AssertionError("_rk4 called")

    monkeypatch.setattr(oscillator, "_rk4", never)
    with pytest.raises(SolverError, match=f"cap of {_MAX_STEPS} steps"):
        solve_epsilon(PARAMS04, t_end=1.0, n_steps=_MAX_STEPS + 1)


@pytest.mark.parametrize("t_end", [1e5, 1e308])
def test_long_default_step_count_fails_before_integration(monkeypatch, t_end):
    # 2000 * 1e308 is inf: the default step count is capped before it is rounded
    def never(*args):
        raise AssertionError("_rk4 called")

    monkeypatch.setattr(oscillator, "_rk4", never)
    with pytest.raises(SolverError, match="tolerance unreachable"):
        solve_epsilon(PARAMS04, t_end=t_end)


def test_coarse_start_refines_until_converged():
    # from 8 steps the drift first rises (0.47 -> 0.56) before RK4 converges;
    # the no-progress stop must not fire on an unresolved grid
    traj = solve_epsilon(OscillatorParams(3.0, 5.0), t_end=10.0, n_steps=8)
    assert traj.times.size == 2049
    assert np.max(np.abs(traj.wronskian() - 1.0)) <= 1e-8


def _loop_rk4(params, t_end, n_steps):
    """Reference: the classic RK4 loop, one Python step at a time."""
    t = np.linspace(0.0, t_end, n_steps + 1)
    h = t_end / n_steps
    eps = np.empty(n_steps + 1, dtype=complex)
    deps = np.empty(n_steps + 1, dtype=complex)
    eps[0] = 1.0
    deps[0] = 1.0j

    k2 = params.kappa ** 2
    om = params.omega_drive

    def f(ti, y0, y1):
        w2 = 1.0 + k2 * math.sin(om * ti) ** 2
        return y1, -w2 * y0

    y0, y1 = eps[0], deps[0]
    for i in range(n_steps):
        ti = t[i]
        a0, a1 = f(ti, y0, y1)
        b0, b1 = f(ti + h / 2, y0 + h / 2 * a0, y1 + h / 2 * a1)
        c0, c1 = f(ti + h / 2, y0 + h / 2 * b0, y1 + h / 2 * b1)
        d0, d1 = f(ti + h, y0 + h * c0, y1 + h * c1)
        y0 = y0 + h / 6 * (a0 + 2 * b0 + 2 * c0 + d0)
        y1 = y1 + h / 6 * (a1 + 2 * b1 + 2 * c1 + d1)
        eps[i + 1] = y0
        deps[i + 1] = y1
    return eps, deps


@pytest.mark.parametrize("n", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
@settings(max_examples=8, deadline=None)
@given(kappa=st.floats(0.0, 1.5), omega=st.floats(0.2, 4.0))
def test_step_matrix_product_matches_loop_across_blocks(n, kappa, omega):
    params = OscillatorParams(kappa, omega)
    traj = solve_epsilon(params, t_end=n / 1000.0, n_steps=n, tol=1.0)
    eps, deps = _loop_rk4(params, n / 1000.0, n)
    assert traj.times.size == n + 1
    scale = max(1.0, np.max(np.abs(eps)), np.max(np.abs(deps)))
    assert np.max(np.abs(traj.eps - eps)) <= 1e-13 * scale
    assert np.max(np.abs(traj.deps - deps)) <= 1e-13 * scale


def rk4_reference(params, t_end, n_steps, block):
    """Full-array step-matrix product: every step matrix is built before the per-block doubling.

    The doubling and the carry are written entry by entry in the solver's
    order, ``(late + early) + (l_i0 e_0j + l_i1 e_1j)`` and
    ``y + (D_i0 y_0 + D_i1 y_1)`` on real and imaginary parts apart.
    """
    t = np.linspace(0.0, t_end, n_steps + 1)
    d = oscillator._step_matrices(params, t[:-1], t_end / n_steps)
    y = np.empty((n_steps + 1, 2), dtype=complex)
    y[0] = 1.0, 1.0j
    for s in range(0, n_steps, block):
        (a, b), (c, e) = d[..., s:s + block]
        k = 1
        while k < len(a):
            (la, ea), (lb, eb), (lc, ec), (le, ee) = ((x[k:], x[:-k]) for x in (a, b, c, e))
            a[k:], b[k:], c[k:], e[k:] = ((la + ea) + (la * ea + lb * ec), (lb + eb) + (la * eb + lb * ee),
                                          (lc + ec) + (lc * ea + le * ec), (le + ee) + (lc * eb + le * ee))
            k *= 2
        y0, y1 = y[s]
        for part in ("real", "imag"):
            u, v = getattr(y0, part), getattr(y1, part)
            getattr(y[s + 1:s + 1 + len(a), 0], part)[:] = u + (a * u + b * v)
            getattr(y[s + 1:s + 1 + len(a), 1], part)[:] = v + (c * u + e * v)
    return t, y[:, 0], y[:, 1]


def matmul_products(d):
    """The running products of stacked step matrices by ``@``: ``D <- L + E + L @ E`` per doubling pass."""
    b = np.moveaxis(d, -1, 0).copy()
    k = 1
    while k < len(b):
        late, early = b[k:], b[:-k]
        b[k:] = late + early + late @ early
        k *= 2
    return np.moveaxis(b, 0, -1)


@pytest.mark.parametrize("n", [1, 2, 7, _BLOCK])
@pytest.mark.parametrize("params", [PARAMS04, OscillatorParams(1.0, 1.2247)], ids=["stable", "resonance"])
def test_running_products_match_the_matmul_form(params, n):
    # the elementwise doubling differs from the stacked @ form only in how its
    # sums round (the matmul kernel may fuse them): within 4 ulps per doubling
    # pass of each product's scale; measured up to 19.4 ulps over the 12
    # passes of a 4096-step block at resonance, and 0 at 7 steps
    passes = (n - 1).bit_length()
    for start in (0.0, 40.0):
        d = oscillator._step_matrices(params, start + np.arange(n) * 0.01, 0.01)
        want = matmul_products(d)
        got = oscillator._running_products(d.copy())
        scale = 1.0 + np.max(np.abs(want), axis=(0, 1))
        assert np.all(np.abs(got - want) <= 4 * passes * np.finfo(float).eps * scale)


@pytest.mark.parametrize("block", [3, _BLOCK])
@pytest.mark.parametrize("n", [2, 3, 4, 7, 2 * _BLOCK + 5])
@pytest.mark.parametrize("params", [PARAMS04, OscillatorParams(1.0, 1.2247)], ids=["stable", "resonance"])
def test_blocked_trajectory_is_bit_identical_to_full_arrays(monkeypatch, block, n, params):
    # step matrices, Wronskian and drift are taken one block at a time; every
    # value is elementwise, so each must equal its full-array form bit for bit
    monkeypatch.setattr(oscillator, "_BLOCK", block)
    t_end = n / 100.0  # h = 0.01 keeps the drift off 0 in every case (at 0.002 it rounds to 0 for n <= 7)
    t, eps, deps = rk4_reference(params, t_end, n, block)
    blocks = list(oscillator._rk4(params, t_end, n))
    assert [b[0].size for b in blocks] == [1] + [min(block, n - s) for s in range(0, n, block)]
    for got, want in zip(zip(*blocks), (t, eps, deps)):
        assert np.concatenate(got).tobytes() == want.tobytes()
    traj = solve_epsilon(params, t_end=t_end, n_steps=n, tol=1.0)
    assert traj.eps.tobytes() == eps.tobytes() and traj.deps.tobytes() == deps.tobytes()
    w = np.imag(np.conj(eps) * deps)
    assert traj.wronskian().tobytes() == w.tobytes()
    # the drift solve_epsilon gates, taken block by block, is max |w - 1| of the
    # whole arrays: a gate of exactly that passes, the next float below fails
    # (the cap at n leaves no retry)
    drift = np.max(np.abs(w - 1.0))
    assert drift > 0.0  # else no gate lies below it and the check below could not fail
    monkeypatch.setattr(oscillator, "_MAX_STEPS", n)
    tol = drift / 10.0
    while 10.0 * tol < drift:
        tol = np.nextafter(tol, math.inf)
    while 10.0 * np.nextafter(tol, 0.0) >= drift:
        tol = np.nextafter(tol, 0.0)
    assert solve_epsilon(params, t_end=t_end, n_steps=n, tol=tol).eps.tobytes() == eps.tobytes()
    with pytest.raises(SolverError, match=f"Wronskian drift {drift:.3e} exceeds"):
        solve_epsilon(params, t_end=t_end, n_steps=n, tol=np.nextafter(tol, 0.0))


def nan_at(bad):
    """An ``_rk4`` stand-in whose 10 samples, in blocks of 3 after the start point, are exact but one NaN (none for None)."""
    def rk4(params, t_end, n_steps):
        eps = np.ones(10, dtype=complex)
        deps = np.full(10, 1.0j)
        if bad is not None:
            deps[bad] = complex(np.nan, np.nan)
        for b in (slice(0, 1), slice(1, 4), slice(4, 7), slice(7, 10)):
            yield np.arange(10.0)[b], eps[b], deps[b]
    return rk4


@pytest.mark.parametrize("bad", [1, 7])
def test_blocked_drift_is_nan_when_any_sample_is(monkeypatch, bad):
    # an overflowed grid must keep failing the gate, whichever block holds the NaN
    monkeypatch.setattr(oscillator, "_rk4", nan_at(None))
    assert solve_epsilon(PARAMS04, 1.0, 9, tol=0.1).times.size == 10
    monkeypatch.setattr(oscillator, "_rk4", nan_at(bad))
    with pytest.raises(SolverError, match="Wronskian drift nan exceeds"):
        solve_epsilon(PARAMS04, 1.0, 9, tol=0.1)


def test_solve_epsilon_scratch_is_bounded():
    # the trajectory takes 40 bytes per step; step matrices and the drift only
    # ever hold one block (a full-array pass peaked at about 88 bytes per step)
    n = 2 ** 18
    tracemalloc.start()
    try:
        traj = solve_epsilon(PARAMS04, t_end=n / 2000, n_steps=n, tol=1.0)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        w = traj.wronskian()
        wronskian_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert traj.times.size == n + 1
    assert solve_peak <= 48 * n + 2 ** 20
    assert wronskian_peak <= w.nbytes + 2 ** 20


def frame_of(eps, deps, mu, nu):
    """The frame evolve_tomogram hands its initial evaluator."""
    return evolve_tomogram(lambda y, mu_t, nu_t: (mu_t, nu_t), eps, deps, 0.0, mu, nu)


def point_of(eps, deps, q, p):
    """The point evolve_wigner hands its initial evaluator."""
    return evolve_wigner(lambda q0, p0: (q0, p0), eps, deps, q, p)


def test_identity_map_at_t0():
    assert point_of(1.0 + 0.0j, 1.0j, 0.7, -1.3) == (0.7, -1.3)
    assert frame_of(1.0 + 0.0j, 1.0j, 0.4, 2.0) == (0.4, 2.0)


def test_quarter_period_rotation():
    # kappa=0 at t=pi/2: eps=i, deps=-1; the flow back is the quarter-turn
    eps, deps = epsilon_at(OscillatorParams(0.0, 1.0), math.pi / 2)
    assert (eps, deps) == pytest.approx((1.0j, -1.0), abs=1e-12)
    assert point_of(1.0j, -1.0 + 0.0j, 1.0, 0.0) == (0.0, 1.0)
    assert point_of(1.0j, -1.0 + 0.0j, 0.0, 1.0) == (-1.0, 0.0)
    # and the frame forward: the q marginal at t = pi/2 is the initial p marginal
    assert frame_of(1.0j, -1.0 + 0.0j, 1.0, 0.0) == (0.0, 1.0)
    assert frame_of(1.0j, -1.0 + 0.0j, 0.0, 1.0) == (-1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(i=st.integers(min_value=0, max_value=20000), mu=st.floats(-5.0, 5.0), nu=st.floats(-5.0, 5.0),
       q=st.floats(-5.0, 5.0), p=st.floats(-5.0, 5.0))
def test_flow_keeps_the_quadrature_along_trajectory(traj04, i, mu, nu, q, p):
    # the marginal follows the classical flow: the quadrature mu_t q0 + nu_t p0
    # of the carried frame at the point sent back is W (mu q + nu p)
    assume(mu != 0.0 or nu != 0.0)
    eps, deps = traj04.eps[i], traj04.deps[i]
    mu_t, nu_t = frame_of(eps, deps, mu, nu)
    q0, p0 = point_of(eps, deps, q, p)
    w = (np.conj(eps) * deps).imag
    scale = (abs(mu) + abs(nu)) * (abs(q) + abs(p)) * (abs(eps) + abs(deps)) ** 2
    assert abs(mu_t * q0 + nu_t * p0 - w * (mu * q + nu * p)) <= 1e-15 * scale


def test_invalid_trajectory_point_rejected():
    with pytest.raises(InvalidTrajectoryError):
        point_of(1.0 + 0.0j, 2.0j, 0.0, 0.0)
    with pytest.raises(InvalidTrajectoryError):
        GaussianState(1.0 + 0.0j, 2.0j)
    with pytest.raises(InvalidTrajectoryError):
        eval_wavefunction("ground", 1.0 + 0.0j, 2.0j, 0.0)


def test_wronskian_gate_is_relative_to_the_amplitude():
    # |eps|^2 + |deps|^2 = 2e8 as in parametric resonance, where the solver's
    # drift builds up to about 2**-51 of that sum; the gate there is
    # 1e-6 + 2**-46 * 2e8 = 3.8e-6, so W off by 2e-6 passes, which an absolute
    # 1e-6 gate rejects, and W off by 1e-5 is a wrong point, not rounding
    eps = 1e4 + 0.0j
    assert GaussianState(eps, complex(1e4, (1.0 + 2e-6) / 1e4)).d == pytest.approx((1.0 + 2e-6) ** 2 / 4, rel=1e-9)
    with pytest.raises(InvalidTrajectoryError):
        GaussianState(eps, complex(1e4, (1.0 + 1e-5) / 1e4))
    with pytest.raises(InvalidTrajectoryError):
        frame_of(complex(math.nan, 0.0), 1.0j, 1.0, 0.0)


RESONANCE = OscillatorParams(1.0, 1.2247)


@pytest.mark.parametrize("scale", [-1.0, 2.0, 1.0001])
def test_resonant_points_off_the_invariant_are_rejected(scale):
    # |eps|^2 + |deps|^2 = 1.06e7 at t 80, so the gate is 1.15e-6: W = -1,
    # W = 2 and W off by 1e-4 are wrong points, not drift
    eps, deps = epsilon_at(RESONANCE, 80.0)
    with pytest.raises(InvalidTrajectoryError):
        GaussianState(eps, scale * deps)
    with pytest.raises(InvalidTrajectoryError):
        frame_of(eps, scale * deps, 1.0, 0.0)
    with pytest.raises(InvalidTrajectoryError):
        point_of(eps, scale * deps, 0.0, 0.0)


@pytest.mark.parametrize("t_end, tol", [(80.0, oscillator.DEFAULT_TOL), (150.0, 1e-2)])
def test_resonant_solver_points_pass_the_gate(t_end, tol):
    # the samples nearest the gate by drift, by drift per |eps|^2 + |deps|^2 and
    # by drift per |eps| |deps|, and every 500th.  On [0, 80] the drift peaks
    # at about 2e-9; at tol 1e-2 on [0, 150] |eps|^2 + |deps|^2 reaches 1.8e13
    # and the drift 2.4e-3, and |eps| |deps| dips to 1e-6 of that sum where eps
    # passes near 0, so a gate on the product rejects 198 solver points there
    traj = solve_epsilon(RESONANCE, t_end, tol=tol)
    drift = np.abs(traj.wronskian() - 1.0)
    size = np.abs(traj.eps) ** 2 + np.abs(traj.deps) ** 2
    assert np.max(drift / (oscillator.WRONSKIAN_ATOL + oscillator._WRONSKIAN_REL * size)) < 0.1
    product = np.abs(traj.eps) * np.abs(traj.deps)
    picks = {int(np.argmax(drift)), int(np.argmax(drift / size)), int(np.argmax(drift / product)),
             *range(0, traj.times.size, 500)}
    points = [(traj.eps[i], traj.deps[i]) for i in sorted(picks)]
    if tol == oscillator.DEFAULT_TOL:
        points += [epsilon_at(RESONANCE, t) for t in np.linspace(0.0, t_end, 161)]
    for eps, deps in points:
        GaussianState(eps, deps)
        frame_of(eps, deps, 1.0, 0.0)
        point_of(eps, deps, 0.0, 0.0)

"""Gaussian and cat states: wavefunctions, Wigner functions, grids.

The independent oracle here is the textbook Wigner transform
W(q, p) = Integral psi*(q + y/2) psi(q - y/2) e^{i p y} dy, evaluated by
quadrature straight from the wavefunctions, never from the closed-form
Wigner expressions it is used to check.
"""

import dataclasses
import math
import re
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontomo import (
    CatSpec,
    GaussianState,
    InvalidTrajectoryError,
    NormalizationDivergenceError,
    OscillatorParams,
    SolverError,
    WignerGrid,
    epsilon_at,
    evolve_wigner,
    solve_epsilon,
    tomogram_cat,
    tomogram_gaussian,
    wigner_cat,
    wigner_gaussian,
)
from iontomo import _container, states
from iontomo.states import _catmull_rom_weights
from oracles import Moments, eval_wavefunction, load_csv_triples_reference, schroedinger_relation_check

ROOT2 = math.sqrt(2.0)


def wigner_by_transform(psi_fn, q, p, y_half=16.0, n=4001):
    y = np.linspace(-y_half, y_half, n)
    f = np.conj(psi_fn(q + y / 2.0)) * psi_fn(q - y / 2.0) * np.exp(1j * p * y)
    return float(np.real(np.trapezoid(f, y)))


# ---------------------------------------------------------------- GaussianState


def test_vacuum_defaults():
    s = GaussianState()
    assert s.T == 1.0
    assert s.d == 0.25
    # the point and the amplitude are held as complex, however given
    assert [type(v) for v in dataclasses.astuple(GaussianState(1, 1j, 1))] == [complex] * 3


@pytest.mark.parametrize(
    "fields",
    [
        {"deps": 2.0j},  # Im(eps* deps) = 2: sigma_pp = 2, d = 1
        {"eps": 0.0},  # Im(eps* deps) = 0: sigma_qq = 0, d = 0
        {"eps": complex(math.nan, 0.0)},
    ],
)
def test_gaussian_state_validation(fields):
    # a state is its mode-function point: one off the Wronskian invariant is refused
    with pytest.raises(InvalidTrajectoryError, match="Wronskian"):
        GaussianState(**fields)


def test_gaussian_from_epsilon_vacuum():
    s = GaussianState(1.0 + 0.0j, 1.0j)
    assert (s.mean_p, s.mean_q) == (0.0, 0.0)
    assert (s.sigma_qq, s.sigma_pp, s.sigma_pq) == (0.5, 0.5, 0.0)


@pytest.mark.parametrize(
    "alpha, mean_q, mean_p",
    [(1.0 + 0.0j, ROOT2, 0.0), (1.0j, 0.0, ROOT2), (0.5 - 0.5j, ROOT2 / 2, -ROOT2 / 2)],
)
def test_gaussian_from_epsilon_coherent_means(alpha, mean_q, mean_p):
    s = GaussianState(1.0 + 0.0j, 1.0j, alpha)
    assert s.mean_q == pytest.approx(mean_q, abs=1e-15)
    assert s.mean_p == pytest.approx(mean_p, abs=1e-15)


def test_purity_along_trajectory(traj04):
    idx = np.linspace(0, traj04.times.size - 1, 100).astype(int)
    for i in idx:
        s = GaussianState(traj04.eps[i], traj04.deps[i])
        assert abs(s.d - 0.25) <= 1e-10


def test_gaussian_from_epsilon_on_resonant_points():
    # inside the first instability tongue |eps| reaches ~1e4 by t = 100, where
    # sigma_pp sigma_qq and sigma_pq^2 (~1e15) agree to every digit
    params = OscillatorParams(1.0, 1.2247)
    points = []
    for t in np.linspace(60.0, 100.0, 400):
        try:
            points.append(epsilon_at(params, t))
        except SolverError:  # the point's Wronskian drift is round-off above 10 * tol
            pass
    assert len(points) > 300
    cancelled = 0
    for eps, deps in points:
        s = GaussianState(eps, deps)
        assert abs(s.d - 0.25) <= 1e-7
        cancelled += not s.sigma_pp * s.sigma_qq - s.sigma_pq ** 2 > 0.0
    assert cancelled > 0  # the naive determinant would have rejected these states


def test_gaussian_state_rejects_a_determinant_off_its_sigmas():
    # d and the sigmas come from the one point (eps, deps), so a point whose
    # d = W^2 / 4 is off 1/4 is refused, and a new amplitude keeps d
    state = GaussianState(1.0, 1.0j)
    with pytest.raises(InvalidTrajectoryError, match="Wronskian"):
        dataclasses.replace(state, deps=1.0001 * state.deps)
    assert dataclasses.replace(state, alpha=1.0 + 0.5j).d == 0.25


def _expanded_tomogram(state, Y, mu, nu):
    """Gaussian marginal with sigma_X = |mu eps + nu deps|^2 / 2 written out in the real and imaginary parts."""
    eps, deps = state.eps, state.deps
    sig = ((mu * eps.real + nu * deps.real) ** 2 + (mu * eps.imag + nu * deps.imag) ** 2) / 2.0
    ybar = mu * state.mean_q + nu * state.mean_p
    return np.exp(-((Y - ybar) ** 2) / (2.0 * sig)) / np.sqrt(2.0 * math.pi * sig)


def _expanded_wigner(eps, deps, alpha, q, p):
    """Gaussian Wigner function of (eps, deps) with |dp eps - dq deps|^2 / 2 written out."""
    state = GaussianState(eps, deps, alpha)
    dq = np.asarray(q, dtype=float) - state.mean_q
    dp = np.asarray(p, dtype=float) - state.mean_p
    d = float((np.conj(eps) * deps).imag) ** 2 / 4.0
    quad = ((dp * eps.real - dq * deps.real) ** 2 + (dp * eps.imag - dq * deps.imag) ** 2) / 2.0
    return np.exp(-quad / (2.0 * d)) / math.sqrt(d)


def test_resonant_forms_match_expanded_reference():
    # the carried frame and the point sent back carry the same products as the
    # quadratic forms written out in (eps, deps), so the bits agree
    resonance = OscillatorParams(1.0, 1.2247)
    points = [epsilon_at(resonance, t) for t in (0.7, 5.0, 20.0, 41.3, 60.0, 80.0)]
    rng = np.random.default_rng(7)
    for _ in range(20):
        eps = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-2.0, 3.0)
        points.append((eps, (rng.normal() + 1j) / eps.conjugate()))
    for eps, deps in points:
        alpha = complex(*rng.normal(size=2))
        state = GaussianState(eps, deps, alpha)
        # random frames plus the squeezed direction, where the sigma form fails
        mu = np.append(rng.normal(size=64), deps.imag)
        nu = np.append(rng.normal(size=64), -eps.imag)
        width = np.hypot(mu * eps.real + nu * deps.real, mu * eps.imag + nu * deps.imag)
        Y = state.mean_q * mu + state.mean_p * nu + rng.normal(size=65) * width
        assert np.array_equal(tomogram_gaussian(state, Y, mu, nu), _expanded_tomogram(state, Y, mu, nu))
        q = state.mean_q + rng.normal(size=(8, 8)) * abs(eps)
        p = state.mean_p + rng.normal(size=(8, 8)) * abs(deps)
        assert np.array_equal(wigner_gaussian(state, q, p), _expanded_wigner(eps, deps, alpha, q, p))


def test_resonant_wigner_keeps_its_long_axis():
    # deep in resonance the sigmas (~5e6) cancel to rounding along the long
    # axis of W; the quadratic form in (eps, deps) must match the evolved vacuum
    eps, deps = epsilon_at(OscillatorParams(1.0, 1.2247), 80.0)
    state = GaussianState(eps, deps)
    vals, vecs = np.linalg.eigh([[state.sigma_qq, state.sigma_pq], [state.sigma_pq, state.sigma_pp]])
    c = np.array([0.5, 1.0, 2.0])[:, np.newaxis] * math.sqrt(vals[1]) * vecs[:, 1]
    want = evolve_wigner(partial(wigner_gaussian, GaussianState()), eps, deps, c[:, 0], c[:, 1])
    np.testing.assert_allclose(wigner_gaussian(state, c[:, 0], c[:, 1]), want, rtol=1e-8)
    # the Wronskian gate's slack here is 1e-6 + 2**-46 (|eps|^2 + |deps|^2), about
    # 1.15e-6, so deps scaled by 1.0001 (W off by 1e-4) is a wrong point
    with pytest.raises(InvalidTrajectoryError, match="Wronskian"):
        dataclasses.replace(state, alpha=1.0, deps=1.0001 * deps)


def test_static_trap_variance_constant():
    traj = solve_epsilon(OscillatorParams(0.0, 1.0), t_end=10.0)
    sigma_qq = np.abs(traj.eps) ** 2 / 2.0
    assert np.max(np.abs(sigma_qq - 0.5)) <= 1e-12


def test_driven_trap_squeezes(traj04):
    # kappa > 0 pushes sigma_qq below the vacuum level at some times
    sigma_qq = np.abs(traj04.eps) ** 2 / 2.0
    assert sigma_qq.min() < 0.5


def test_schroedinger_relation():
    assert schroedinger_relation_check(GaussianState()) == (0.0, 0.0)
    r, residual = schroedinger_relation_check(Moments(0.0, 0.0, sigma_qq=1.0, sigma_pp=1.0, sigma_pq=0.0))
    assert (r, residual) == (0.0, 0.75)


def test_schroedinger_relation_minimized_along_trajectory(traj04):
    for i in (1200, 7000, 15000):
        s = GaussianState(traj04.eps[i], traj04.deps[i])
        r, residual = schroedinger_relation_check(s)
        assert -1.0 < r < 1.0
        assert residual < 1e-10


# ----------------------------------------------------------------------- specs


def test_odd_cat_needs_nonzero_alpha():
    with pytest.raises(NormalizationDivergenceError):
        CatSpec(alpha=0.0j, parity="odd")
    with pytest.raises(NormalizationDivergenceError):
        CatSpec(alpha=1e-200 + 0.0j, parity="odd")  # |alpha|^2 underflows to 0
    with pytest.raises(NormalizationDivergenceError):
        CatSpec(alpha=1e-155 + 0.0j, parity="odd")  # N^2 ~ 1 / (4 |alpha|^2) overflows
    assert math.isfinite(CatSpec(alpha=4e-155 + 0.0j, parity="odd").norm_squared)


@pytest.mark.parametrize("alpha", [1e200, complex(1e154, 1e154), complex(1.7e308, 1.7e308), math.nan,
                                   complex(0.0, math.inf), complex(math.inf, math.nan)],
                         ids=["square-overflows", "hypot-square-overflows", "abs-overflows", "nan", "inf", "inf-nan"])
def test_an_amplitude_without_a_finite_square_is_refused(alpha):
    for make in (lambda: GaussianState(alpha=alpha), lambda: CatSpec(alpha, "even"), lambda: CatSpec(alpha, "odd")):
        with pytest.raises(ValueError, match=r"alpha must have a finite \|alpha\|\^2") as exc:
            make()
        assert not isinstance(exc.value, NormalizationDivergenceError)
    # the largest amplitudes whose square is finite still make a state
    assert GaussianState(alpha=1e154).alpha == 1e154
    assert CatSpec(1e154, "odd").norm_squared == 0.5


def test_cat_spec_norm():
    assert CatSpec(alpha=0.0j, parity="even").norm_squared == pytest.approx(0.25)
    # cosh|alpha|^2 overflows a float from |alpha| = 26.7 on
    X = np.linspace(-60.0, 60.0, 24001)
    for parity in ("even", "odd"):
        spec = CatSpec(alpha=27.0 + 0.0j, parity=parity)
        assert spec.norm_squared == 0.5
        w = tomogram_cat(spec, X, 0.6, 0.8)
        assert np.trapezoid(w, X) == pytest.approx(1.0, abs=1e-12)


def test_parity_validated():
    with pytest.raises(ValueError):
        CatSpec(alpha=1.0 + 0.0j, parity="both")


# --------------------------------------------------------------- wavefunctions


def test_ground_state_at_origin():
    psi = eval_wavefunction("ground", 1.0, 1.0j, 0.0)
    assert complex(psi) == pytest.approx(math.pi ** -0.25, abs=1e-15)


def test_first_number_state_node_at_origin():
    psi = eval_wavefunction("number", 1.0, 1.0j, 0.0, m=1)
    assert abs(complex(psi)) <= 1e-15
    x = np.linspace(-5, 5, 11)
    np.testing.assert_allclose(
        eval_wavefunction("number", 1.0, 1.0j, x, m=0),
        eval_wavefunction("ground", 1.0, 1.0j, x),
        atol=1e-15,
    )


@pytest.mark.parametrize(
    "kind, kwargs, half, n, tol",
    [
        ("ground", {}, 10.0, 4001, 1e-9),
        ("coherent", {"alpha": 1.0 + 0.5j}, 12.0, 4001, 1e-9),
        ("number", {"m": 5}, 12.0, 4001, 1e-9),
        ("number", {"m": 40}, 16.0, 8001, 1e-9),
        ("number", {"m": 200}, 26.0, 20001, 1e-6),
        ("cat", {"cat": CatSpec(2.0 + 0.0j, "even")}, 12.0, 8001, 1e-9),
        ("cat", {"cat": CatSpec(1.5j, "odd")}, 12.0, 8001, 1e-9),
        # cosh / sinh(sqrt(2) alpha x) overflow at real |alpha| >= 20, where the envelope underflows
        ("cat", {"cat": CatSpec(20.0 + 0.0j, "even")}, 60.0, 24001, 1e-9),
        ("cat", {"cat": CatSpec(27.0j, "odd")}, 60.0, 24001, 1e-9),
        ("cat", {"cat": CatSpec(27.0 + 0.0j, "odd")}, 60.0, 24001, 1e-9),
    ],
)
def test_wavefunction_normalized(kind, kwargs, half, n, tol):
    x = np.linspace(-half, half, n)
    psi = eval_wavefunction(kind, 1.0, 1.0j, x, **kwargs)
    assert np.all(np.isfinite(psi))
    assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(1.0, abs=tol)


@pytest.mark.parametrize("alpha", [1e-6, 0.3, 1.5 + 0.5j, 3.0j, 5.0, 3.8 + 3.2j])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_cat_wavefunction_matches_hyperbolic_form(alpha, parity, point04_t2):
    """Up to |alpha| = 5, where it cannot overflow, the textbook form
    2 N psi_0 exp(-|alpha|^2/2 - eps* alpha^2 / (2 eps)) cosh / sinh(sqrt(2) alpha x / eps)
    is the reference, to rounding."""
    spec = CatSpec(complex(alpha), parity)
    x = np.linspace(-12.0, 12.0, 2001)
    hyp = np.cosh if parity == "even" else np.sinh
    for eps, deps in ((1.0, 1.0j), point04_t2):
        psi0 = math.pi ** -0.25 / np.sqrt(eps) * np.exp(0.5j * deps / eps * x ** 2)
        ref = (2.0 * math.sqrt(spec.norm_squared) * psi0
               * np.exp(-abs(alpha) ** 2 / 2.0 - np.conj(eps) * alpha ** 2 / (2.0 * eps))
               * hyp(ROOT2 * alpha * x / eps))
        psi = eval_wavefunction("cat", eps, deps, x, cat=spec)
        np.testing.assert_allclose(psi, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


def test_wavefunction_normalized_at_evolved_time(point04_t2):
    eps, deps = point04_t2
    x = np.linspace(-14.0, 14.0, 8001)
    for kind, kwargs in (
        ("ground", {}),
        ("coherent", {"alpha": 1.0 + 0.0j}),
        ("cat", {"cat": CatSpec(2.0 + 0.0j, "even")}),
    ):
        psi = eval_wavefunction(kind, eps, deps, x, **kwargs)
        assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(1.0, abs=1e-9)


def test_wavefunction_argument_errors():
    with pytest.raises(ValueError):
        eval_wavefunction("thermal", 1.0, 1.0j, 0.0)
    with pytest.raises(ValueError):
        eval_wavefunction("number", 1.0, 1.0j, 0.0, m=-1)
    with pytest.raises(ValueError):
        eval_wavefunction("number", 1.0, 1.0j, 0.0, m=201)
    with pytest.raises(ValueError):
        eval_wavefunction("cat", 1.0, 1.0j, 0.0)


# -------------------------------------------------------------------- wigner


def test_wigner_gaussian_values():
    vac = GaussianState()
    assert wigner_gaussian(vac, 0.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert wigner_gaussian(vac, 1.0, 1.0) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-15)
    assert wigner_gaussian(vac, 4.0, -3.0) > 0.0


def test_wigner_gaussian_grid_normalized():
    vac = GaussianState()
    axis = np.linspace(-8.0, 8.0, 161)
    grid = WignerGrid.from_evaluator(lambda q, p: wigner_gaussian(vac, q, p), axis, axis)
    assert grid.integral() == pytest.approx(1.0, abs=1e-3)


def test_wigner_cat_limits():
    assert wigner_cat(CatSpec(0.0j, "even"), 0.0, 0.0) == pytest.approx(2.0, abs=1e-12)
    for alpha in (2.0 + 0.0j, 1.3j, 0.4 - 0.9j):
        assert wigner_cat(CatSpec(alpha, "odd"), 0.0, 0.0) == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("modulus", [1e-8, 1e-12, 1e-150])
def test_small_odd_cat_wigner_is_the_one_phonon_wigner(modulus):
    # the four-kernel sum cancels here: it was off by 2.0 of the peak 2 at 1e-8,
    # by 1.1e8 at 1e-12 and by 2.0 at 1e-150; measured now: at most 1e-15
    grid = np.linspace(-3.0, 3.0, 61)
    Q, P = np.meshgrid(grid, grid, indexing="ij")
    r2 = Q ** 2 + P ** 2
    one = 2.0 * (2.0 * r2 - 1.0) * np.exp(-r2)
    got = wigner_cat(CatSpec(modulus * (0.6 + 0.8j), "odd"), Q, P)
    assert np.max(np.abs(got - one)) <= 1e-14


def test_wigner_cat_grid_normalized():
    spec = CatSpec(2.0 + 0.0j, "even")
    axis = np.linspace(-7.0, 7.0, 181)
    grid = WignerGrid.from_evaluator(lambda q, p: wigner_cat(spec, q, p), axis, axis)
    assert grid.integral() == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("point", [(0.0, 0.0), (0.5, 0.3), (1.5, -1.0), (-1.0, 0.7)])
def test_wigner_gaussian_matches_transform(point, point04_t2):
    q, p = point
    state0 = GaussianState(1.0, 1.0j, 0.7 + 0.3j)
    ref0 = wigner_by_transform(
        lambda x: eval_wavefunction("coherent", 1.0, 1.0j, x, alpha=0.7 + 0.3j), q, p
    )
    assert wigner_gaussian(state0, q, p) == pytest.approx(ref0, abs=1e-8)

    eps, deps = point04_t2
    state_t = GaussianState(eps, deps)
    ref_t = wigner_by_transform(lambda x: eval_wavefunction("ground", eps, deps, x), q, p)
    assert wigner_gaussian(state_t, q, p) == pytest.approx(ref_t, abs=1e-8)


@pytest.mark.parametrize("point", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.2), (0.8, -0.6), (2.0, 2.0)])
def test_wigner_cat_matches_transform(point):
    q, p = point
    spec = CatSpec(1.0 + 0.0j, "even")
    ref = wigner_by_transform(
        lambda x: eval_wavefunction("cat", 1.0, 1.0j, x, cat=spec), q, p
    )
    assert wigner_cat(spec, q, p) == pytest.approx(ref, abs=1e-8)


def test_position_density_is_momentum_integral(point04_t2):
    p = np.linspace(-12.0, 12.0, 4001)

    eps, deps = point04_t2
    state = GaussianState(eps, deps)
    for q0 in (0.0, 0.8):
        dens = np.trapezoid(wigner_gaussian(state, q0, p), p) / (2.0 * math.pi)
        psi = complex(eval_wavefunction("ground", eps, deps, q0))
        assert dens == pytest.approx(abs(psi) ** 2, abs=1e-6)

    spec = CatSpec(1.0 + 0.0j, "even")
    for q0 in (0.0, 1.0):
        dens = np.trapezoid(wigner_cat(spec, q0, p), p) / (2.0 * math.pi)
        psi = complex(eval_wavefunction("cat", 1.0, 1.0j, q0, cat=spec))
        assert dens == pytest.approx(abs(psi) ** 2, abs=1e-6)

    # number state: Wigner values come from the transform oracle itself
    y = np.linspace(-16.0, 16.0, 2001)
    for q0 in (0.0, 0.9):
        g = np.conj(eval_wavefunction("number", 1.0, 1.0j, q0 + y / 2.0, m=1)) \
            * eval_wavefunction("number", 1.0, 1.0j, q0 - y / 2.0, m=1)
        W = np.real(np.exp(1j * np.outer(p, y)) @ g * (y[1] - y[0]))
        dens = np.trapezoid(W, p) / (2.0 * math.pi)
        psi = complex(eval_wavefunction("number", 1.0, 1.0j, q0, m=1))
        assert dens == pytest.approx(abs(psi) ** 2, abs=1e-6)


def test_cat_term_structure():
    A = np.asarray([2.0 + 0.0j])
    grid = np.linspace(-3.0, 3.0, 21)
    Q, P = np.meshgrid(grid, grid, indexing="ij")
    Z = ((Q + 1j * P) / ROOT2)[..., np.newaxis]
    direct = _wab_n_modes(A, A, Z) + _wab_n_modes(-A, -A, Z)
    assert np.all(np.real(direct) >= 0.0)
    assert np.max(np.abs(np.imag(direct))) <= 1e-12
    cross = _wab_n_modes(A, -A, Z) + _wab_n_modes(-A, A, Z)
    assert np.max(np.abs(np.imag(cross))) <= 1e-12


def test_multimode_cat_values():
    assert wigner_cat(CatSpec(0.0j, "even"), 0.0, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert wigner_cat(CatSpec(2.0 + 0.0j, "odd"), 0.0, 0.0) == pytest.approx(-2.0, abs=1e-12)


def _wab_n_modes(A, B, Z):
    """n-mode coherent-pair kernel, modes summed over the last axis: the reference."""
    n = Z.shape[-1]
    expo = (-2.0 * Z * np.conj(Z) + 2.0 * A * np.conj(Z) + 2.0 * np.conj(B) * Z
            - A * np.conj(B) - np.abs(A) ** 2 / 2.0 - np.abs(B) ** 2 / 2.0)
    return 2.0 ** n * np.exp(expo.sum(axis=-1))


def _wigner_cat_n_modes(spec, q, p):
    """The n-mode cat Wigner function at n = 1, with the mode on a trailing axis."""
    Z = ((np.asarray(q, dtype=float) + 1j * np.asarray(p, dtype=float)) / ROOT2)[..., np.newaxis]
    A = np.asarray((complex(spec.alpha),))
    sign = 1.0 if spec.parity == "even" else -1.0
    total = (_wab_n_modes(A, A, Z) + _wab_n_modes(-A, -A, Z)
             + sign * (_wab_n_modes(A, -A, Z) + _wab_n_modes(-A, A, Z)))
    return spec.norm_squared * np.real(total)


@pytest.mark.parametrize("spec", [CatSpec(0.0j, "even"), CatSpec(1.5 + 0.5j, "even"),
                                  CatSpec(2.0 + 0.0j, "odd"), CatSpec(-0.3 + 1.1j, "odd")])
def test_one_mode_cat_equals_n_mode_path(spec):
    # the real closed form against the four complex kernels: rounding apart,
    # measured at most 1.4e-15 (the peak is 2)
    grid = np.linspace(-4.0, 4.0, 41)
    Q, P = np.meshgrid(grid, grid, indexing="ij")
    np.testing.assert_allclose(wigner_cat(spec, Q, P), _wigner_cat_n_modes(spec, Q, P), rtol=0.0, atol=4e-15)
    np.testing.assert_allclose(wigner_cat(spec, grid, 0.7), _wigner_cat_n_modes(spec, grid, 0.7), rtol=0.0, atol=4e-15)
    point = wigner_cat(spec, 0.3, -1.2)
    assert point.shape == () and point == pytest.approx(_wigner_cat_n_modes(spec, 0.3, -1.2), rel=0.0, abs=4e-15)


# -------------------------------------------------------------------- evolve


def test_evolve_wigner_identity():
    vac = GaussianState()
    q = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(
        evolve_wigner(partial(wigner_gaussian, vac), 1.0 + 0.0j, 1.0j, q, q[::-1]),
        wigner_gaussian(vac, q, q[::-1]),
        atol=0.0,
    )


def test_evolve_wigner_vacuum_rotation_invariant():
    eps, deps = epsilon_at(OscillatorParams(0.0, 1.0), 0.77)
    vac = GaussianState()
    q = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(
        evolve_wigner(partial(wigner_gaussian, vac), eps, deps, q, 0.3 * q),
        wigner_gaussian(vac, q, 0.3 * q),
        atol=1e-12,
    )


def test_evolve_wigner_cat_quarter_turn():
    # solved map at t=pi/2 (kappa=0) against the exact rotated arguments
    spec = CatSpec(2.0 + 0.0j, "even")
    eps, deps = epsilon_at(OscillatorParams(0.0, 1.0), math.pi / 2)
    rng = np.random.default_rng(11)
    for q, p in rng.uniform(-3, 3, size=(25, 2)):
        rotated = wigner_cat(spec, -p, q)  # q0 = -p, p0 = q at a quarter turn
        assert evolve_wigner(partial(wigner_cat, spec), eps, deps, q, p) == pytest.approx(rotated, abs=1e-8)


# ---------------------------------------------------------------- WignerGrid


def test_wigner_grid_validation():
    good = np.linspace(-1, 1, 5)
    with pytest.raises(ValueError):
        WignerGrid(q_axis=np.array([0.0, 0.5, 2.0]), p_axis=good, values=np.zeros((3, 5)))
    with pytest.raises(ValueError):
        WignerGrid(q_axis=good, p_axis=good, values=np.zeros((4, 5)))
    bad = np.zeros((5, 5))
    bad[2, 2] = np.nan
    with pytest.raises(ValueError):
        WignerGrid(q_axis=good, p_axis=good, values=bad)


def test_wigner_grid_interpolation():
    vac = GaussianState()
    axis = np.linspace(-6.0, 6.0, 241)
    grid = WignerGrid.from_evaluator(lambda q, p: wigner_gaussian(vac, q, p), axis, axis)
    assert grid.interpolate(axis[50], axis[80]) == pytest.approx(grid.values[50, 80], abs=1e-15)
    rng = np.random.default_rng(7)
    qs = rng.uniform(-3, 3, 200)
    ps = rng.uniform(-3, 3, 200)
    assert np.max(np.abs(grid.interpolate(qs, ps) - wigner_gaussian(vac, qs, ps))) <= 1e-4
    assert grid.interpolate(7.0, 0.0) == 0.0
    assert grid.interpolate(0.0, -6.5) == 0.0


def interpolate_reference(grid, q, p):
    """Catmull-Rom on the broadcast inputs with 16 two-axis gathers (the original loop)."""
    q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
    nq, npp = grid.values.shape
    sq = (q - grid.q_axis[0]) / grid.dq
    sp = (p - grid.p_axis[0]) / grid.dp
    inside = (sq >= 0.0) & (sq <= nq - 1.0) & (sp >= 0.0) & (sp <= npp - 1.0)
    sq = np.where(inside, sq, 0.0)
    sp = np.where(inside, sp, 0.0)
    iq = np.minimum(sq.astype(int), nq - 2)
    ip = np.minimum(sp.astype(int), npp - 2)
    padded = np.zeros((nq + 2, npp + 2))
    padded[1:-1, 1:-1] = grid.values
    wq = _catmull_rom_weights(sq - iq)
    wp = _catmull_rom_weights(sp - ip)
    out = np.zeros_like(sq)
    for a in range(4):
        row = np.zeros_like(sq)
        for b in range(4):
            row += wp[b] * padded[iq + a, ip + b]
        out += wq[a] * row
    return np.where(inside, out, 0.0)


@st.composite
def _axis(draw):
    n = draw(st.integers(2, 9))
    # dyadic steps put the last node exactly at s = n - 1
    step = draw(st.one_of(st.sampled_from([0.125, 0.5, 1.0]), st.floats(0.05, 2.0)))
    start = draw(st.integers(-8, 8)) * step
    return start + step * np.arange(n)


def _points(axis, shape):
    lo, hi = axis[0], axis[-1]
    span = hi - lo
    point = st.one_of(
        st.floats(lo, hi),
        st.floats(lo - span, hi + span),
        st.sampled_from([lo, hi, math.nan]),
    )
    size = math.prod(shape)
    return st.lists(point, min_size=size, max_size=size).map(lambda v: np.array(v).reshape(shape))


@settings(max_examples=300, deadline=None)
@given(q_axis=_axis(), p_axis=_axis(), seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5),
       k=st.integers(1, 5), layout=st.sampled_from(["scalar", "row-q", "row-p", "outer"]), data=st.data())
def test_interpolate_matches_sixteen_gather_reference(q_axis, p_axis, seed, n, k, layout, data):
    values = np.random.default_rng(seed).standard_normal((q_axis.size, p_axis.size))
    grid = WignerGrid(q_axis=q_axis, p_axis=p_axis, values=values)
    q_shape, p_shape = {"scalar": ((), ()), "row-q": ((1, k), (n, k)),
                        "row-p": ((n, k), (1, k)), "outer": ((n, 1), (1, k))}[layout]
    q = data.draw(_points(q_axis, q_shape))
    p = data.draw(_points(p_axis, p_shape))
    got = grid.interpolate(q, p)
    assert got.shape == np.broadcast_shapes(q_shape, p_shape)
    assert np.all(got == interpolate_reference(grid, q, p))


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_wigner_grid_round_trip(tmp_path, fmt):
    spec = CatSpec(1.0 + 0.0j, "odd")
    axis = np.linspace(-4.0, 4.0, 33)
    grid = WignerGrid.from_evaluator(lambda q, p: wigner_cat(spec, q, p), axis, axis)
    path = str(tmp_path / f"grid.{fmt}")
    grid.save(path, fmt=fmt)
    back = WignerGrid.load(path)
    assert np.array_equal(back.q_axis, grid.q_axis)
    assert np.array_equal(back.p_axis, grid.p_axis)
    assert np.array_equal(back.values, grid.values)


def test_container_axes_are_linspace_bit_for_bit(tmp_path):
    # the header keeps first, last and n of each axis, and the load rebuilds it with np.linspace
    path = tmp_path / "axis.bin"
    for n in range(1, 401):
        for axis in (np.linspace(0.0, (n - 1) * math.pi / n, n), np.linspace(-6.5, 6.5, n)):
            _container.save_container(str(path), "axis", ["a"], [axis], np.arange(n, dtype=float))
            _, (back,), values = _container.load_container(str(path))
            assert back.tobytes() == axis.tobytes()
            assert np.array_equal(values, np.arange(n))
    path.unlink()
    # 2 of 12, 44 of 180 and 334 of 360 such angles are off the linspace through their ends: refused, nothing written
    for n in (12, 180, 360):
        with pytest.raises(ValueError, match="axis 'phi' is not np.linspace"):
            _container.save_container(str(path), "sinogram", ["phi", "x"],
                                      [np.arange(n) * math.pi / n, np.linspace(-1.0, 1.0, 3)], np.zeros((n, 3)))
        assert list(tmp_path.iterdir()) == []


def test_csv_golden_bytes(tmp_path):
    # %.17g text: signed zero, subnormal, inexact decimal, huge and plain values
    ax0 = np.array([-1.5, 0.1])
    ax1 = np.array([-0.0, 1e308])
    values = np.array([[5e-324, 0.1], [1e308, -0.0]])
    path = tmp_path / "table.csv"
    _container.save_csv_triples(str(path), ("q", "p", "w"), ax0, ax1, values)
    assert path.read_text() == (
        "q,p,w\n"
        "-1.5,-0,4.9406564584124654e-324\n"
        "-1.5,1e+308,0.10000000000000001\n"
        "0.10000000000000001,-0,1e+308\n"
        "0.10000000000000001,1e+308,-0\n"
    )
    back = _container.load_csv_triples(str(path), ("q", "p", "w"))
    for got, want in zip(back, (ax0, ax1, values)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("per_call", [3, 1024, 4096])
def test_csv_triples_match_row_writer(tmp_path, monkeypatch, per_call):
    # the triple writer formats each axis value once; its bytes must equal the
    # generic row writer's on the repeated and tiled axes, across kernel calls:
    # 300, 2 and 1 calls of the triple writer, 2100, 6 and 2 of the row writer
    monkeypatch.setattr(_container, "_CSV_TEXT_VALUES", per_call)
    rng = np.random.default_rng(5)
    ax0 = np.linspace(0.0, math.pi, 300, endpoint=False)
    ax1 = np.linspace(-8.0, 8.0, 7)
    values = rng.standard_normal((300, 7)) * 10.0 ** rng.integers(-300, 300, (300, 7))
    values[0, 0] = -0.0
    triples, rows = tmp_path / "triples.csv", tmp_path / "rows.csv"
    _container.save_csv_triples(str(triples), ("phi", "x", "w"), ax0, ax1, values)
    _container.save_csv_rows(str(rows), ("phi", "x", "w"),
                             (np.repeat(ax0, ax1.size), np.tile(ax1, ax0.size), values.ravel()))
    assert triples.read_bytes() == rows.read_bytes()


def wigner_grid_reference(evaluator, q_axis, p_axis):
    """The evaluator on the whole meshgrid at once."""
    Q, P = np.meshgrid(q_axis, p_axis, indexing="ij")
    return np.asarray(evaluator(Q, P), dtype=float)


def csv_rows_reference(colnames, columns):
    """The whole table stacked at once, then one ``%.17g`` row at a time."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    lines = [",".join(colnames)] + [",".join("%.17g" % v for v in row) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("block_points", [3, states._EVAL_BLOCK_POINTS])
def test_from_evaluator_blocks_are_bit_identical(monkeypatch, block_points):
    # blocks of whole q rows (one row per block at 3 points); the evolved odd
    # cat is the reference the CLI samples
    monkeypatch.setattr(states, "_EVAL_BLOCK_POINTS", block_points)
    spec = CatSpec(1.5 + 0.5j, "odd")
    evaluator = partial(evolve_wigner, partial(wigner_cat, spec), *epsilon_at(OscillatorParams(0.4, 2.0), 3.0))

    q_axis, p_axis = np.linspace(-6.0, 6.0, 101), np.linspace(-5.0, 5.0, 67)
    grid = WignerGrid.from_evaluator(evaluator, q_axis, p_axis)
    assert grid.values.tobytes() == wigner_grid_reference(evaluator, q_axis, p_axis).tobytes()


def test_from_evaluator_scratch_is_bounded():
    # a 201^2 cat on the whole meshgrid took about 4.2 MB of scratch
    spec = CatSpec(1.5 + 0.5j, "odd")
    axis = np.linspace(-6.0, 6.0, 201)
    tracemalloc.start()
    try:
        grid = WignerGrid.from_evaluator(lambda q, p: wigner_cat(spec, q, p), axis, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= grid.values.nbytes + 2 ** 20


@pytest.mark.parametrize("per_call", [3, 1024])
def test_csv_rows_blocks_are_bit_identical(tmp_path, monkeypatch, per_call):
    # rows of 4 values: 1 row per kernel call at 3 values, 4 calls in all;
    # at 1024, two equal calls of 257 rows
    monkeypatch.setattr(_container, "_CSV_TEXT_VALUES", per_call)
    rng = np.random.default_rng(7)
    n = 2 * max(1, per_call // 4) + 2
    columns = [np.arange(n) * 0.1, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
               rng.standard_normal(n).astype(np.float32), list(range(n))]
    columns[1][:4] = -0.0, 5e-324, np.inf, np.nan
    path = tmp_path / "rows.csv"
    _container.save_csv_rows(str(path), ("a", "b", "c", "d"), columns)
    assert path.read_bytes() == csv_rows_reference(("a", "b", "c", "d"), columns)


def test_csv_rows_scratch_is_bounded(tmp_path):
    # a full-table copy of these columns would take 1.6 MB
    rng = np.random.default_rng(3)
    columns = [rng.standard_normal(2 ** 15) for _ in range(6)]
    tracemalloc.start()
    try:
        _container.save_csv_rows(str(tmp_path / "rows.csv"), tuple("abcdef"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_csv_triples_scratch_is_bounded(tmp_path):
    # the benchmark's sinogram shape, written from the array: the text
    # kernel's scratch, its tables included, stays 1 MiB above the inputs.  The
    # tomogram step formats each row block as it is sampled and holds no
    # sinogram (test_cli.py's test_tomogram_scratch_is_bounded)
    rng = np.random.default_rng(13)
    phi, x = np.linspace(0.0, math.pi, 360, endpoint=False), np.linspace(-8.0, 8.0, 513)
    values = rng.standard_normal((phi.size, x.size))
    tracemalloc.start()
    try:
        _container.save_csv_triples(str(tmp_path / "sino.csv"), ("phi", "x", "w"), phi, x, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_csv_triples_load_scratch_is_bounded(tmp_path):
    # a one-shot np.loadtxt of these 65,664 rows held about 34 B per row
    rng = np.random.default_rng(11)
    phi, x = np.linspace(0.0, math.pi, 128, endpoint=False), np.linspace(-8.0, 8.0, 513)
    values = rng.standard_normal((phi.size, x.size))
    path = str(tmp_path / "sino.csv")
    _container.save_csv_triples(path, ("phi", "x", "w"), phi, x, values)
    tracemalloc.start()
    try:
        back = _container.load_csv_triples(path, ("phi", "x", "w"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for got, want in zip(back, (phi, x, values)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert peak <= values.nbytes + 2 ** 20


@pytest.mark.parametrize("columns", [(np.zeros(5), np.zeros(4)), (np.zeros(4), np.zeros((4, 1)))],
                         ids=["unequal", "2-D"])
def test_csv_rows_rejects_uneven_columns_before_writing(tmp_path, columns):
    # a per-block writer would otherwise drop the tail of the longer column
    with pytest.raises(ValueError, match="equal length"):
        _container.save_csv_rows(str(tmp_path / "rows.csv"), ("a", "b"), columns)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flaw, row", [("reversed", 11), ("outer", 9), ("nan", 1), ("number", 17)])
def test_csv_triples_rejects_a_broken_grid(tmp_path, monkeypatch, flaw, row):
    # 4 runs of 5, parsed 3 lines at a time: the third run lists its inner
    # axis in reverse, the second run holds a stray outer value, the first
    # outer value is NaN (which starts no run), or a malformed number sits in
    # the sixth block; the first inner run, which spans two blocks, sets the grid
    monkeypatch.setattr(_container, "_CSV_BLOCK_ROWS", 3)
    ax0, ax1 = np.arange(4.0), np.linspace(-2.0, 2.0, 5)
    col0, col1 = np.repeat(ax0, 5), np.tile(ax1, 4)
    if flaw == "reversed":
        col1[10:15] = ax1[::-1]
    elif flaw == "outer":
        col0[8] = 7.0
    elif flaw == "nan":
        col0[0] = np.nan
    path = tmp_path / "grid.csv"
    _container.save_csv_rows(str(path), ("q", "p", "w"), (col0, col1, np.arange(20.0)))
    message = f"row {row} after the header"
    if flaw == "number":
        lines = path.read_text().splitlines(keepends=True)
        lines[row] = "3,x,16\n"
        path.write_text("".join(lines))
        # the message a one-shot load gives, which counts its rows in the file
        with pytest.raises(ValueError) as one_shot:
            np.loadtxt(path, delimiter=",", skiprows=1)
        assert f"at row {row - 1}," in str(one_shot.value)  # numpy counts from 0
        message = re.escape(str(one_shot.value))
    with pytest.raises(ValueError, match=message):
        _container.load_csv_triples(str(path), ("q", "p", "w"))


@pytest.mark.parametrize("block_rows", [1, 3, 1024])
def test_csv_triples_reject_a_nan_in_a_one_run_grid(tmp_path, monkeypatch, block_rows):
    # one run of 7 rows has no later run to hold its inner axis against; its
    # NaN inner value is still named by its row
    monkeypatch.setattr(_container, "_CSV_BLOCK_ROWS", block_rows)
    ax1 = np.linspace(-1.0, 1.0, 7)
    ax1[4] = np.nan
    path = tmp_path / "grid.csv"
    _container.save_csv_rows(str(path), ("q", "p", "w"), (np.zeros(7), ax1, np.arange(7.0)))
    with pytest.raises(ValueError, match=r"row 5 after the header: \(q, p\) = \(0.0, nan\)"):
        _container.load_csv_triples(str(path), ("q", "p", "w"))


def test_csv_triples_load_of_one_long_run_is_bounded(tmp_path):
    # 40,000 rows of one q: the open first run is kept as its p pieces, so the
    # scratch stays within 1 MiB of the values; joining its (q, p) rows block
    # by block peaked at 1.63 MB above the process
    rng = np.random.default_rng(17)
    ax0, ax1 = np.array([0.5]), np.linspace(-8.0, 8.0, 40_000)
    values = rng.standard_normal((1, ax1.size))
    path = str(tmp_path / "run.csv")
    _container.save_csv_triples(path, ("phi", "x", "w"), ax0, ax1, values)
    assert _container._CSV_BLOCK_ROWS == 1024
    tracemalloc.start()
    try:
        back = _container.load_csv_triples(path, ("phi", "x", "w"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for got, want in zip(back, (ax0, ax1, values)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert peak <= values.nbytes + 2 ** 20


def test_csv_triples_load_of_two_long_runs_is_bounded(tmp_path):
    # 2 runs of 200,000 rows: the first run is held as its p pieces and joined
    # once, and the second is checked block by block as it arrives; holding the
    # open run's rows until it was whole peaked at 15.07 MB here
    rng = np.random.default_rng(19)
    ax0, ax1 = np.array([-0.5, 0.5]), np.linspace(-8.0, 8.0, 200_000)
    values = rng.standard_normal((ax0.size, ax1.size))
    path = str(tmp_path / "runs.csv")
    _container.save_csv_triples(path, ("phi", "x", "w"), ax0, ax1, values)
    tracemalloc.start()
    try:
        back = _container.load_csv_triples(path, ("phi", "x", "w"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for got, want in zip(back, (ax0, ax1, values)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert peak <= values.nbytes + 2 * ax1.nbytes + 2 ** 20


@pytest.mark.parametrize("body", ["", "\n\n# only a comment\n"], ids=["header-only", "blank-and-comment"])
@pytest.mark.parametrize("block_rows", [1, 1024])
def test_csv_triples_reject_an_empty_table(tmp_path, monkeypatch, body, block_rows):
    # loadtxt warns on a block with no rows; the reader keeps that warning to
    # itself and reports the empty table as one column, as a one-shot load did
    monkeypatch.setattr(_container, "_CSV_BLOCK_ROWS", block_rows)
    path = tmp_path / "grid.csv"
    path.write_text("q,p,w\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="expected 3 columns, got 1"):
            _container.load_csv_triples(str(path), ("q", "p", "w"))


def malformed_grid_csv(rng) -> bytes:
    """A q,p,w grid CSV of up to 5 x 6 points with 1 to 3 faults, and LF, CRLF or CR endings."""
    n0, n1 = (int(n) for n in rng.integers(1, 6, 2))
    ax0, ax1 = np.sort(rng.choice(12, n0, replace=False)) * 0.25, np.linspace(-1.0, 1.0, n1 + 1)[:n1]
    lines = [["%.17g" % a, "%.17g" % b, "%.17g" % w] for a, b, w in
             zip(np.repeat(ax0, n1), np.tile(ax1, n0), rng.standard_normal(n0 * n1))]
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, len(lines) + 1))
        data = [line for line in lines if len(line) >= 3] or [["0.0", "0.0", "0.0"]]
        row = data[int(rng.integers(0, len(data)))]
        fault = rng.choice(["nan", "stray", "drop", "duplicate", "reverse", "column", "number", "blank", "comment"])
        if fault == "nan":
            row[int(rng.integers(0, 2))] = "nan"
        elif fault == "stray":
            lines.insert(i, ["%.17g" % rng.choice(ax0), "%.17g" % rng.choice(ax1), "1.5"])
        elif fault == "drop" and lines:
            del lines[min(i, len(lines) - 1)]
        elif fault == "duplicate":
            lines.insert(i, list(row))
        elif fault == "reverse" and n1 > 1:
            run = data[min(i, len(data) - 1) // n1 * n1:][:n1]
            for line, b in zip(run, [line[1] for line in run][::-1]):
                line[1] = b
        elif fault == "column":
            row.append("0")
        elif fault == "number":
            row[int(rng.integers(0, 3))] = str(rng.choice(["x", "1e", "--1", ""]))
        elif fault == "blank":
            lines.insert(i, [])
        elif fault == "comment":
            lines.insert(i, ["# note"])
    end = str(rng.choice(["\n", "\r\n", "\r"]))
    return end.join(["q,p,w"] + [",".join(line) for line in lines] + [""]).encode()


def _outcome(load, path):
    try:
        return load(path, ("q", "p", "w"))
    except ValueError:
        return None


def test_csv_triples_match_a_one_shot_load_on_malformed_grids(tmp_path, monkeypatch):
    # 1000 seeded grids with NaN, stray, dropped, duplicated, reversed, widened
    # and unparsable rows, blank and comment lines: at every block size the
    # reader accepts and rejects as one np.loadtxt of the whole body does, and
    # returns the same bytes
    rng = np.random.default_rng(2028)
    path = tmp_path / "grid.csv"
    accepted = 0
    for case in range(1000):
        path.write_bytes(malformed_grid_csv(rng))
        want = _outcome(load_csv_triples_reference, str(path))
        accepted += want is not None
        for block_rows in (1, 2, 3, 5, 1024):
            monkeypatch.setattr(_container, "_CSV_BLOCK_ROWS", block_rows)
            got = _outcome(_container.load_csv_triples, str(path))
            assert (got is None) == (want is None), (case, block_rows, path.read_bytes())
            if want is not None:
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (case, block_rows)
    assert 100 <= accepted <= 900


def test_wigner_grid_save_rejects_unknown_format(tmp_path):
    grid = WignerGrid(
        q_axis=np.linspace(-1, 1, 3), p_axis=np.linspace(-1, 1, 3), values=np.zeros((3, 3))
    )
    with pytest.raises(ValueError):
        grid.save(str(tmp_path / "grid.npy"), fmt="npy")

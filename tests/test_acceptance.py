"""End-to-end acceptance gate.

One test per acceptance criterion.  Each test prints a single
``criterion N (<label>): PASS/FAIL ...`` line with the measured numbers
before asserting, so the whole scorecard is visible with

    pytest tests/test_acceptance.py -s

Tolerances here are contractual; do not loosen them to make a test pass.
"""

import math
import time
from functools import partial

import numpy as np
import pytest

from iontomo import (
    CatSpec,
    GaussianState,
    OpticalSinogram,
    OscillatorParams,
    epsilon_at,
    evolve_tomogram,
    frozen_frame_evolution,
    gaussian_from_epsilon,
    invert_to_wigner,
    moment_odes_check,
    pde_residual,
    radon_reconstruct,
    replacement_evolution,
    solve_epsilon,
    tomogram_cat,
    tomogram_gaussian,
    wigner_cat,
    wigner_gaussian,
)
from oracles import project_wigner

VACUUM = GaussianState()
COHERENT = gaussian_from_epsilon(1.0, 1.0j, 1.0 + 0.0j)
CAT_SPECS = [
    CatSpec(alpha, parity)
    for alpha in (1.0 + 0.0j, 2.0 + 0.0j, 2.0j)
    for parity in ("even", "odd")
]
PARAMS04 = OscillatorParams(kappa=0.4, omega_drive=2.0)


def _gate(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status}  {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _random_frames(rng, n):
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(rng.uniform(0.25, 4.0, n))
    return r * np.cos(theta), r * np.sin(theta)


@pytest.fixture(scope="module")
def trajectories():
    return {
        (kappa, om): solve_epsilon(OscillatorParams(kappa, om), t_end=20.0)
        for kappa in (0.0, 0.4, 1.0)
        for om in (1.0, 2.0)
    }


def test_criterion_1_wronskian(trajectories):
    worst = max(float(np.max(np.abs(tr.wronskian() - 1.0))) for tr in trajectories.values())
    _gate(1, "wronskian conservation", worst <= 1e-8,
          f"max |Im(eps* deps) - 1| = {worst:.3e} over 6 drives, t in [0, 20]")


def test_criterion_2_static_trap_closed_form(trajectories):
    worst = 0.0
    for om in (1.0, 2.0):
        tr = trajectories[(0.0, om)]
        target = np.exp(1j * tr.times)
        worst = max(worst,
                    float(np.max(np.abs(tr.eps - target))),
                    float(np.max(np.abs(tr.deps - 1j * target))))
    _gate(2, "static-trap closed form", worst <= 1e-8,
          f"sup |eps - exp(it)| = {worst:.3e} on [0, 20]")


def test_criterion_3_purity_invariant(trajectories):
    worst = 0.0
    for tr in trajectories.values():
        idx = np.linspace(0, len(tr.times) - 1, 100).astype(int)
        for i in idx:
            state = gaussian_from_epsilon(tr.eps[i], tr.deps[i], 1.0 + 0.0j)
            worst = max(worst, abs(state.d - 0.25))
    _gate(3, "purity invariant", worst <= 1e-10,
          f"max |d - 1/4| = {worst:.3e} at 100 times along each trajectory")


def test_criterion_4_tomogram_normalization():
    rng = np.random.default_rng(2026)
    mu, nu = _random_frames(rng, 50)
    delta = rng.uniform(-2.0, 2.0, 50)

    worst_gauss = 0.0
    for state in (VACUUM, COHERENT):
        for k in range(50):
            sig = (mu[k] ** 2 * state.sigma_qq + nu[k] ** 2 * state.sigma_pp
                   + 2.0 * mu[k] * nu[k] * state.sigma_pq)
            center = mu[k] * state.mean_q + nu[k] * state.mean_p + delta[k]
            half = 12.0 * math.sqrt(sig)
            X = np.linspace(center - half, center + half, 4001)
            w = tomogram_gaussian(state, X - delta[k], mu[k], nu[k])
            worst_gauss = max(worst_gauss, abs(float(np.trapezoid(w, X)) - 1.0))

    worst_cat = 0.0
    for spec in CAT_SPECS:
        for k in range(50):
            r = math.hypot(mu[k], nu[k])
            half = r * (2.0 * math.sqrt(2.0) * abs(spec.alpha) + 9.0)
            X = np.linspace(delta[k] - half, delta[k] + half, 8001)
            w = tomogram_cat(spec, X - delta[k], mu[k], nu[k])
            worst_cat = max(worst_cat, abs(float(np.trapezoid(w, X)) - 1.0))

    ok = worst_gauss <= 1e-6 and worst_cat <= 1e-5
    _gate(4, "tomogram normalization", ok,
          f"|int w dX - 1|: gaussian {worst_gauss:.3e} (tol 1e-6), "
          f"cat {worst_cat:.3e} (tol 1e-5), 50 frames each")


def test_criterion_5_tomogram_vs_wigner_projection():
    rng = np.random.default_rng(7)
    pairs = [(partial(tomogram_gaussian, s), partial(wigner_gaussian, s)) for s in (VACUUM, COHERENT)]
    pairs += [(partial(tomogram_cat, spec), partial(wigner_cat, spec)) for spec in CAT_SPECS]

    worst = 0.0
    for analytic, wig in pairs:
        mu, nu = _random_frames(rng, 100)
        delta = rng.uniform(-1.0, 1.0, 100)
        X = delta + rng.uniform(-6.0, 6.0, 100)
        for k in range(100):
            q = (X[k] - delta[k], mu[k], nu[k])
            # 12 widths: far-offset lines through a cat need the extra tail room
            oracle = project_wigner(wig, *q, halfwidth_sigmas=12.0)
            worst = max(worst, abs(float(analytic(*q)) - oracle))
    _gate(5, "tomogram vs wigner projection", worst <= 1e-5,
          f"max |analytic - projected| = {worst:.3e} over 100 queries x 8 states")


def test_criterion_6_replacement_rule_transport():
    initial = partial(tomogram_gaussian, COHERENT)
    X = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]).reshape(5, 1, 1, 1)
    mu = np.array([0.3, 0.6, 0.9, 1.2, 1.5]).reshape(1, 5, 1, 1)
    nu = np.array([-1.2, -0.6, 0.0, 0.6, 1.2]).reshape(1, 1, 5, 1)
    delta = np.array([-1.0, -0.5, 0.0, 0.5, 1.0]).reshape(1, 1, 1, 5)
    q = (X - delta, mu, nu)

    worst = 0.0
    for t in (1.0, 3.0, 7.0):
        eps, deps = epsilon_at(PARAMS04, t)
        evolved = evolve_tomogram(initial, eps, deps, *q)
        direct = tomogram_gaussian(gaussian_from_epsilon(eps, deps, 1.0 + 0.0j), *q)
        worst = max(worst, float(np.max(np.abs(evolved - direct))))
    _gate(6, "replacement-rule transport", worst <= 1e-8,
          f"sup |evolved - direct| = {worst:.3e} on 5^4 grid, t in {{1, 3, 7}}")


def test_criterion_7_evolution_equation_residual():
    gauss = pde_residual(replacement_evolution(partial(tomogram_gaussian, COHERENT), PARAMS04), PARAMS04)
    cat = pde_residual(
        replacement_evolution(partial(tomogram_cat, CatSpec(1.0 + 0.0j, "even")), PARAMS04), PARAMS04
    )
    # the control state must actually move, so freeze the coherent evaluator
    frozen = pde_residual(frozen_frame_evolution(partial(tomogram_gaussian, COHERENT)), PARAMS04)

    ok = (gauss.max_abs_residual < 1e-4 and 1.7 <= gauss.convergence_order <= 2.3
          and cat.max_abs_residual < 1e-4 and 1.7 <= cat.convergence_order <= 2.3
          and frozen.max_abs_residual >= 1e-1)
    _gate(7, "evolution-equation residual", ok,
          f"gaussian {gauss.max_abs_residual:.3e} (order {gauss.convergence_order:.2f}), "
          f"cat {cat.max_abs_residual:.3e} (order {cat.convergence_order:.2f}), "
          f"frozen control {frozen.max_abs_residual:.3e} (must be >= 1e-1)")


def test_criterion_8_moment_odes():
    results = {}
    for kappa, om in ((0.0, 1.0), (0.4, 2.0)):
        report = moment_odes_check(OscillatorParams(kappa, om), 10.0, 1.0 + 0.0j, h=1e-4)
        results[kappa] = report.max_abs_residual
    ok = all(v < 1e-6 for v in results.values())
    _gate(8, "moment ODEs", ok,
          f"max residual: kappa=0 {results[0.0]:.3e}, kappa=0.4 {results[0.4]:.3e} (tol 1e-6)")


def _grid_moments(grid):
    q, p, W = grid.q_axis, grid.p_axis, grid.values
    Q, P = q[:, None], p[None, :]

    def integral(F):
        return float(np.trapezoid(np.trapezoid(F, p, axis=1), q, axis=0)) / (2.0 * math.pi)

    norm = integral(W)
    mq = integral(W * Q) / norm
    mp = integral(W * P) / norm
    sqq = integral(W * (Q - mq) ** 2) / norm
    spp = integral(W * (P - mp) ** 2) / norm
    spq = integral(W * (Q - mq) * (P - mp)) / norm
    return norm, mq, mp, sqq, spp, spq


def test_criterion_9a_fourier_inversion():
    phi = np.arange(180) * math.pi / 180.0
    sino = OpticalSinogram.from_evaluator(partial(tomogram_gaussian, VACUUM), phi, np.linspace(-8.0, 8.0, 257))
    axis = np.linspace(-6.0, 6.0, 121)
    grid = invert_to_wigner(sino, axis, axis)
    w00 = float(grid.values[60, 60])
    _, mq, mp, sqq, spp, spq = _grid_moments(grid)

    mean_err = max(abs(mq), abs(mp))
    cov_err = max(abs(sqq - 0.5), abs(spp - 0.5), abs(spq))
    ok = abs(w00 - 2.0) <= 2e-2 and mean_err <= 1e-3 and cov_err <= 1e-2
    _gate("9a", "fourier inversion", ok,
          f"W(0,0) = {w00:.4f} (target 2 +/- 2e-2), mean err {mean_err:.3e} (tol 1e-3), "
          f"cov err {cov_err:.3e} (tol 1e-2)")


def test_criterion_9b_filtered_backprojection():
    start = time.perf_counter()
    spec = CatSpec(2.0 + 0.0j, "even")
    phi = np.arange(180) * math.pi / 180.0
    x_axis = np.linspace(-8.0, 8.0, 257)
    sino = OpticalSinogram.from_evaluator(partial(tomogram_cat, spec), phi, x_axis)

    axis = np.linspace(-6.0, 6.0, 121)
    grid = radon_reconstruct(sino, axis, axis)
    Q, P = np.meshgrid(axis, axis, indexing="ij")
    exact = wigner_cat(spec, Q, P)
    rel_l2 = float(np.linalg.norm(grid.values - exact) / np.linalg.norm(exact))
    elapsed = time.perf_counter() - start

    ok = rel_l2 < 0.05 and elapsed < 60.0
    _gate("9b", "filtered backprojection", ok,
          f"relative L2 error {rel_l2:.4f} (tol 0.05), elapsed {elapsed:.1f} s (limit 60 s)")


def test_criterion_10_homogeneity_and_shift_covariance():
    evaluators = [
        partial(tomogram_gaussian, COHERENT),
        partial(tomogram_cat, CatSpec(2.0 + 0.0j, "even")),
        partial(tomogram_cat, CatSpec(2.0j, "odd")),
    ]
    Y = np.linspace(-3.0, 3.0, 13)
    worst = 0.0
    for ev in evaluators:
        for lam in (-2.0, 0.5, 3.0):
            for mu, nu in ((1.0, 0.0), (0.6, -0.8), (-1.2, 0.9)):
                diff = np.abs(ev(lam * Y, lam * mu, lam * nu) * abs(lam) - ev(Y, mu, nu))
                worst = max(worst, float(np.max(diff)))

    # delta enters only the (X, mu, nu, delta, t) evolutions, as Y = X - delta
    shift_exact = True
    for ev in evaluators:
        for evolution in (replacement_evolution(ev, PARAMS04), frozen_frame_evolution(ev)):
            for delta in (-1.7, 0.9):
                for t in (0.0, 3.0):
                    shifted = evolution(Y, 0.8, 0.7, delta, t)
                    shift_exact = shift_exact and bool(np.array_equal(shifted, evolution(Y - delta, 0.8, 0.7, 0.0, t)))

    ok = worst <= 1e-10 and shift_exact
    _gate(10, "homogeneity and shift covariance", ok,
          f"max homogeneity defect {worst:.3e} (tol 1e-10), delta shift exact: {shift_exact}")

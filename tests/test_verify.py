"""Evolution-equation residuals, moment ODEs, and the wavefunction oracle."""

import json
import math
from functools import partial

import numpy as np
import pytest

from iontomo import (
    CatSpec,
    GaussianState,
    OscillatorParams,
    ProbeGrid,
    epsilon_at,
    frozen_frame_evolution,
    gaussian_from_epsilon,
    moment_odes_check,
    pde_residual,
    replacement_evolution,
    eval_wavefunction,
    tomogram_cat,
    tomogram_gaussian,
)

STATIC = OscillatorParams(0.0, 1.0)
ROOT2 = math.sqrt(2.0)


# ------------------------------------------------------------- evolution law


def test_pde_residual_vacuum_static_trap():
    evolution = replacement_evolution(partial(tomogram_gaussian, GaussianState()), STATIC)
    report = pde_residual(evolution, STATIC)
    assert report.max_abs_residual < 1e-5
    assert 1.7 <= report.convergence_order <= 2.3


def test_pde_residual_driven_gaussian(params04):
    initial = partial(tomogram_gaussian, gaussian_from_epsilon(1.0, 1.0j, 1.0 + 0.0j))
    report = pde_residual(replacement_evolution(initial, params04), params04)
    assert report.max_abs_residual < 1e-4
    assert 1.7 <= report.convergence_order <= 2.3


def test_pde_residual_driven_cat(params04):
    initial = partial(tomogram_cat, CatSpec(1.0 + 0.0j, "even"))
    report = pde_residual(replacement_evolution(initial, params04), params04)
    assert report.max_abs_residual < 1e-4
    assert 1.7 <= report.convergence_order <= 2.3


def test_frozen_frame_fails_loudly():
    # the control state must actually move (the vacuum is stationary here)
    initial = partial(tomogram_gaussian, gaussian_from_epsilon(1.0, 1.0j, 1.0 + 0.0j))
    honest = pde_residual(replacement_evolution(initial, STATIC), STATIC)
    frozen = pde_residual(frozen_frame_evolution(initial), STATIC)
    assert frozen.max_abs_residual >= 1e-1
    assert frozen.max_abs_residual >= 1e3 * honest.max_abs_residual


def test_frozen_frame_shifts_and_ignores_time():
    initial = partial(tomogram_gaussian, GaussianState())
    frozen = frozen_frame_evolution(initial)
    X = np.linspace(-2, 2, 9)
    early = frozen(X, 0.8, -0.4, 0.5, 0.1)
    np.testing.assert_array_equal(early, initial(X - 0.5, 0.8, -0.4))
    np.testing.assert_array_equal(early, frozen(X, 0.8, -0.4, 0.5, 99.0))


def test_non_finite_residual_rejected():
    def evolution(X, mu, nu, delta, t):
        return np.asarray(X, dtype=float) * np.asarray(delta, dtype=float) * np.nan

    with pytest.raises(ValueError, match=r"non-finite residual at t=0\.5, mu=0\.3, nu=-1\.2$"):
        pde_residual(evolution, STATIC)

    def one_bad_frame(X, mu, nu, delta, t):
        bad = (t > 1.5) & np.isclose(mu, 0.9) & np.isclose(nu, 0.6)
        return np.where(bad, np.nan, 0.0) + X + delta

    with pytest.raises(ValueError, match=r"non-finite residual at t=2\.0, mu=0\.9, nu=0\.6$"):
        pde_residual(one_bad_frame, STATIC)


def test_custom_probe_grid_is_honored():
    probe = ProbeGrid(
        x_values=(0.0, 1.0),
        mu_values=(0.5, 1.0),
        nu_values=(0.0, 0.5),
        t_values=(0.5, 1.0),
        delta_values=(0.0,),
        h_t=2e-3,
        h_mu=2e-3,
        h_nu=1e-3,
    )
    evolution = replacement_evolution(partial(tomogram_gaussian, GaussianState()), STATIC)
    report = pde_residual(evolution, STATIC, probe)
    assert report.grid_spec == probe.spec()
    assert (report.h_t, report.h_mu, report.h_nu) == (2e-3, 2e-3, 1e-3)
    assert report.max_abs_residual < 1e-4

    decoded = json.loads(json.dumps(report.as_dict()))
    assert decoded["grid_spec"]["t_values"] == [0.5, 1.0]


# ---------------------------------------------------------------- moment ODEs


def test_moment_odes_static_trap():
    report = moment_odes_check(STATIC, 10.0, 0j, h=1e-4)
    assert report.max_abs_residual < 1e-6


def test_moment_odes_driven(params04):
    report = moment_odes_check(params04, 10.0, 1.0 + 0.0j, h=1e-4)
    assert report.max_abs_residual < 1e-6
    assert 1.7 <= report.convergence_order <= 2.3
    assert report.grid_spec["alpha"] == [1.0, 0.0]


def test_harmonic_coherent_means():
    # static trap: <q>(t) = sqrt(2) cos t, <p>(t) = -sqrt(2) sin t for alpha = 1
    for t in (0.9, 2.2, 5.0):
        eps, deps = epsilon_at(STATIC, t)
        s = gaussian_from_epsilon(eps, deps, 1.0 + 0.0j)
        assert s.mean_q == pytest.approx(ROOT2 * math.cos(t), abs=1e-9)
        assert s.mean_p == pytest.approx(-ROOT2 * math.sin(t), abs=1e-9)
        assert s.sigma_qq == pytest.approx(0.5, abs=1e-9)


# --------------------------------------------------------------------- oracle


def wavefunction_moment_oracle(kind, eps, deps, alpha=0j):
    """Gaussian moments recomputed by quadrature over the wavefunction.

    Position moments integrate |Psi|^2 directly; momentum moments use the
    analytic derivative of the closed-form exponent,
    Psi' = (i deps x / eps + sqrt(2) alpha / eps) Psi, never a finite
    difference.  Only the Gaussian family is supported.
    """
    if kind not in ("ground", "coherent"):
        raise ValueError(f"moment oracle supports 'ground' and 'coherent', got {kind!r}")
    eps = complex(eps)
    deps = complex(deps)
    alpha = complex(alpha) if kind == "coherent" else 0j

    sigma_q = abs(eps) / ROOT2
    center = ROOT2 * (alpha * np.conj(eps)).real
    x = np.linspace(center - 12.0 * sigma_q, center + 12.0 * sigma_q, 4001)
    dx = x[1] - x[0]
    w = np.full(x.size, dx)
    w[[0, -1]] *= 0.5

    psi = eval_wavefunction(kind, eps, deps, x, alpha=alpha)
    dpsi = (1j * deps * x / eps + ROOT2 * alpha / eps) * psi
    prob = np.abs(psi) ** 2
    if max(prob[0], prob[-1]) > 1e-14 * prob.max():
        raise RuntimeError("quadrature window does not capture the wavefunction support")

    norm = float(prob @ w)
    mean_q = float((x * prob) @ w) / norm
    sigma_qq = float(((x - mean_q) ** 2 * prob) @ w) / norm
    mean_p = float(np.real(np.conj(psi) * (-1j) * dpsi @ w)) / norm
    p2 = float(np.abs(dpsi) ** 2 @ w) / norm
    corr = np.conj(psi) * x * dpsi
    # <(qp + pq)/2> = Re(-i (integral psi* x psi' dx + 1/2))
    sym = float(np.real(-1j * (complex(corr @ w) + 0.5 * norm))) / norm
    return GaussianState(
        mean_p=mean_p,
        mean_q=mean_q,
        sigma_pp=p2 - mean_p ** 2,
        sigma_qq=sigma_qq,
        sigma_pq=sym - mean_q * mean_p,
    )


def test_oracle_ground_state():
    s = wavefunction_moment_oracle("ground", 1.0, 1.0j)
    for got, want in zip(
        (s.mean_q, s.mean_p, s.sigma_qq, s.sigma_pp, s.sigma_pq),
        (0.0, 0.0, 0.5, 0.5, 0.0),
    ):
        assert got == pytest.approx(want, abs=1e-10)


def test_oracle_coherent_state():
    s = wavefunction_moment_oracle("coherent", 1.0, 1.0j, alpha=1.0 + 0.0j)
    assert s.mean_q == pytest.approx(ROOT2, abs=1e-10)
    assert s.mean_p == pytest.approx(0.0, abs=1e-10)
    assert s.sigma_qq == pytest.approx(0.5, abs=1e-10)
    assert s.sigma_pp == pytest.approx(0.5, abs=1e-10)
    assert s.sigma_pq == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("kind, alpha", [("ground", 0j), ("coherent", 0.8 + 0.5j)])
def test_oracle_matches_mode_function_moments(kind, alpha, point04_t2):
    eps, deps = point04_t2
    got = wavefunction_moment_oracle(kind, eps, deps, alpha=alpha)
    want = gaussian_from_epsilon(eps, deps, alpha)
    for name in ("mean_q", "mean_p", "sigma_qq", "sigma_pp", "sigma_pq"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-8), name


def test_oracle_supports_only_gaussian_kinds():
    with pytest.raises(ValueError, match="ground"):
        wavefunction_moment_oracle("number", 1.0, 1.0j)

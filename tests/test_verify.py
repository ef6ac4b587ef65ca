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
    tomogram_cat,
    tomogram_gaussian,
)
from oracles import wavefunction_moment_oracle

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

"""Finite-difference verification of the tomogram evolution law and moment dynamics.

The evolved tomogram of the trapped ion must satisfy the first-order equation

    dw/dt - mu dw/dnu + omega^2(t) nu dw/dmu = 0

for any state.  This harness measures central-difference residuals of that
equation on probe grids and checks the Ehrenfest/variance ODEs of the
Gaussian moments.  Mode-function values at stencil times come from
:func:`~iontomo.oscillator.epsilon_at`: exact at t from the one-period table,
never interpolated, so discretization of the trajectory cannot leak into the
residuals.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .oscillator import OscillatorParams, epsilon_at, omega_squared
from .states import gaussian_from_epsilon
from .tomography import evolve_tomogram

__all__ = [
    "ProbeGrid",
    "ResidualReport",
    "pde_residual",
    "moment_odes_check",
    "replacement_evolution",
    "frozen_frame_evolution",
]


@dataclass(frozen=True)
class ProbeGrid:
    """Probe points and stencil steps for the evolution-equation residual.

    Defaults give a 5x5x5x5 tensor grid over (X, mu, nu, t) with delta probed
    at the exact-covariance representatives {-1, 0, 2}.  The mu range stays
    positive so no stencil point can reach the degenerate frame (0, 0);
    homogeneity makes the mirrored half-plane redundant.
    """

    x_values: tuple = (-2.0, -1.0, 0.0, 1.0, 2.0)
    mu_values: tuple = (0.3, 0.6, 0.9, 1.2, 1.5)
    nu_values: tuple = (-1.2, -0.6, 0.0, 0.6, 1.2)
    t_values: tuple = (0.5, 1.0, 2.0, 4.0, 7.0)
    delta_values: tuple = (-1.0, 0.0, 2.0)
    h_t: float = 1e-3
    h_mu: float = 1e-3
    h_nu: float = 1e-3

    def spec(self) -> dict:
        return {
            "x_values": list(self.x_values),
            "mu_values": list(self.mu_values),
            "nu_values": list(self.nu_values),
            "t_values": list(self.t_values),
            "delta_values": list(self.delta_values),
        }


@dataclass(frozen=True)
class ResidualReport:
    """Residual summary of one verification run.

    ``max_abs_extrapolated`` is the max of |(4 r_{h/2} - r_h) / 3| over the
    residuals r at the steps h and h / 2: Richardson extrapolation cancels the
    h^2 error the central differences share, and keeps a defect of the
    evolution itself.
    """

    max_abs_residual: float
    rms_residual: float
    max_abs_extrapolated: float
    h_t: float | None = None
    h_mu: float | None = None
    h_nu: float | None = None
    convergence_order: float | None = None
    grid_spec: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def replacement_evolution(initial: Callable, params: OscillatorParams) -> Callable:
    """Evolution evaluator (X, mu, nu, delta, t) by frame transport.

    ``initial`` is a t=0 tomogram evaluator (Y, mu, nu).  The mode function at
    each requested t comes from :func:`epsilon_at`, exact at t from the
    one-period table.
    """
    def evolution(X, mu, nu, delta, t):
        eps, deps = epsilon_at(params, float(t))
        return evolve_tomogram(initial, eps, deps, X - delta, mu, nu)
    return evolution


def frozen_frame_evolution(initial: Callable) -> Callable:
    """Negative control: ignores t entirely, so the transport terms go unbalanced."""
    def evolution(X, mu, nu, delta, t):
        return initial(X - delta, mu, nu)
    return evolution


def _residual_samples(evolution: Callable, params: OscillatorParams, probe: ProbeGrid,
                      h_t: float, h_mu: float, h_nu: float) -> np.ndarray:
    mu, nu, X, delta = np.ix_(*(np.asarray(v, dtype=float) for v in (
        probe.mu_values, probe.nu_values, probe.x_values, probe.delta_values)))
    # the four frame stencils (nu +- h_nu, mu +- h_mu) on one leading axis: one call per t
    mu_s = np.stack([mu, mu, mu + h_mu, mu - h_mu])
    nu_s = np.stack([nu + h_nu, nu - h_nu, nu, nu])
    # an evolution whose value does not depend on the frame may drop that axis
    frames_shape = np.broadcast_shapes(mu_s.shape, nu_s.shape, X.shape, delta.shape)
    out = []
    for t in probe.t_values:
        w2 = float(omega_squared(t, params))
        d_t = (evolution(X, mu, nu, delta, t + h_t)
               - evolution(X, mu, nu, delta, t - h_t)) / (2.0 * h_t)
        frames = np.broadcast_to(evolution(X, mu_s, nu_s, delta, t), frames_shape)
        d_nu = (frames[0] - frames[1]) / (2.0 * h_nu)
        d_mu = (frames[2] - frames[3]) / (2.0 * h_mu)
        res = d_t - mu * d_nu + w2 * nu * d_mu
        bad = np.argwhere(~np.isfinite(res))
        if bad.size:
            i, j = bad[0][:2]
            raise ValueError(f"non-finite residual at t={t}, mu={mu.flat[i]}, nu={nu.flat[j]}")
        out.append(res.ravel())
    return np.concatenate(out)


def _report(res_h: np.ndarray, res_half: np.ndarray, **fields) -> ResidualReport:
    """Summary of the signed residuals at step h and at half steps.

    Max and rms of the step-h residuals, the max of their Richardson
    extrapolation, and the order log2 of the rms ratio to half steps.
    """
    rms = float(np.sqrt(np.mean(res_h ** 2)))
    rms_half = float(np.sqrt(np.mean(res_half ** 2)))
    order = math.log2(rms / rms_half) if rms_half > 0.0 else None
    return ResidualReport(max_abs_residual=float(np.abs(res_h).max()), rms_residual=rms,
                          max_abs_extrapolated=float(np.abs((4.0 * res_half - res_h) / 3.0).max()),
                          convergence_order=order, **fields)


def pde_residual(evolution: Callable, params: OscillatorParams, probe: ProbeGrid | None = None) -> ResidualReport:
    """Central-difference residual of the evolution equation on the probe grid.

    ``evolution(X, mu, nu, delta, t)`` must broadcast over array X, mu, nu and
    delta, as every evolution in this package does; each call covers one t,
    and the four frame stencils at a probe time share one call through a
    leading axis of mu and nu.
    Runs the stencil at the probe steps and again at half steps; the reported
    convergence order is log2 of the rms ratio and should sit near 2.
    """
    if probe is None:
        probe = ProbeGrid()
    res_h = _residual_samples(evolution, params, probe, probe.h_t, probe.h_mu, probe.h_nu)
    res_half = _residual_samples(evolution, params, probe,
                                 probe.h_t / 2.0, probe.h_mu / 2.0, probe.h_nu / 2.0)
    return _report(res_h, res_half, h_t=probe.h_t, h_mu=probe.h_mu, h_nu=probe.h_nu,
                   grid_spec=probe.spec())


_MOMENT_FRACTIONS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95)


def _moments(params: OscillatorParams, t: float, alpha: complex) -> np.ndarray:
    eps, deps = epsilon_at(params, t)
    s = gaussian_from_epsilon(eps, deps, alpha)
    return np.array([s.mean_q, s.mean_p, s.sigma_qq, s.sigma_pq, s.sigma_pp])


def _moment_residuals(params: OscillatorParams, alpha: complex, t_values, h: float) -> np.ndarray:
    rows = []
    for t in t_values:
        m = _moments(params, t, alpha)
        dm = (_moments(params, t + h, alpha) - _moments(params, t - h, alpha)) / (2.0 * h)
        w2 = float(omega_squared(t, params))
        q, p, sqq, spq, spp = m
        rows.append([
            dm[0] - p,                 # d<q>/dt = <p>
            dm[1] + w2 * q,            # d<p>/dt = -omega^2 <q>
            dm[2] - 2.0 * spq,         # dsigma_qq/dt = 2 sigma_pq
            dm[3] - (spp - w2 * sqq),  # dsigma_pq/dt = sigma_pp - omega^2 sigma_qq
            dm[4] + 2.0 * w2 * spq,    # dsigma_pp/dt = -2 omega^2 sigma_pq
        ])
    return np.array(rows)


def moment_odes_check(params: OscillatorParams, t_end: float, alpha: complex = 0j, *,
                      h: float = 1e-4) -> ResidualReport:
    """Ehrenfest and variance ODE residuals over the span [0, t_end].

    Probe times are interior fractions of the span; moments at the stencil
    points come from :func:`epsilon_at`, exact at t from the one-period table
    and never interpolated, so the residual is pure stencil truncation plus
    solver noise.  No trajectory over the span is solved.
    """
    t_values = [max(h, f * float(t_end)) for f in _MOMENT_FRACTIONS]
    res_h = _moment_residuals(params, complex(alpha), t_values, h)
    res_half = _moment_residuals(params, complex(alpha), t_values, h / 2.0)
    return _report(res_h, res_half, h_t=h,
                   grid_spec={"t_values": list(t_values), "alpha": [complex(alpha).real, complex(alpha).imag]})

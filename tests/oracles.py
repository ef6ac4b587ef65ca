"""Independent oracles the tests compare the package against.

:func:`project_wigner` integrates a Wigner function along one quadrature
line, so it checks every analytic tomogram without their moment formulas.
:func:`eval_wavefunction` gives the position wavefunction of each state
family, from which :func:`wavefunction_moment_oracle` recomputes Gaussian
moments by quadrature, as a :class:`Moments` record, and the state tests
build Wigner functions by transform; :func:`schroedinger_relation_check`
tests the moments against the uncertainty relation.  No CLI step runs any
of them, so they live here and not in ``src/``.
"""

import math
import warnings
from typing import Callable, NamedTuple, Union

import numpy as np

from iontomo import CatSpec, DegenerateFrameError, GaussianState, WignerGrid
from iontomo.oscillator import _check_wronskian
from iontomo.states import _uniform_trapezoid

ROOT2 = math.sqrt(2.0)


class Moments(NamedTuple):
    """Quadrature means and dispersion matrix as measured, with no invariant checked."""

    mean_q: float
    mean_p: float
    sigma_qq: float
    sigma_pp: float
    sigma_pq: float


class SupportTruncationWarning(UserWarning):
    """Evaluation grid leaves non-negligible mass at its boundary."""


WignerSource = Union[WignerGrid, Callable]


def _support(u: np.ndarray, f) -> tuple:
    """|f|-weighted mean and standard deviation (at least 1e-3) of the scan points ``u`` along axis 0."""
    density = np.abs(np.asarray(f, dtype=float))
    mass = np.maximum(density.sum(axis=0), np.finfo(float).tiny)
    centre = (u * density).sum(axis=0) / mass
    return centre, np.sqrt(np.maximum(((u - centre) ** 2 * density).sum(axis=0) / mass, 1e-6))


#: Points of :func:`project_wigner`'s support scan and of its trapezoid pass.
_LINE_SCAN_POINTS = 321
_LINE_POINTS = 2049
#: Half-length of the line :func:`project_wigner` scans for a callable's support.
_LINE_REACH = 40.0


def project_wigner(source: WignerSource, Y, mu, nu, *, halfwidth_sigmas: float = 10.0) -> float:
    """Tomogram value at Y = X - delta by direct line integration of a Wigner function.

    Integrates W along the line mu q + nu p = Y and divides by
    2 pi sqrt(mu^2 + nu^2).  A coarse scan of |W| along the line (over +-40
    for a callable) locates the support; the fine trapezoid pass covers its
    center +- ``halfwidth_sigmas`` standard widths with 2049 points.  Serves
    as the independent oracle for every analytic tomogram, so it never reuses
    their moment formulas.

    ``source`` is a WignerGrid (bicubic interpolation, 0 outside) or a
    callable W(q, p).
    """
    mu, nu, Y = float(mu), float(nu), float(Y)
    if mu == 0.0 and nu == 0.0:
        raise DegenerateFrameError("projection frame (mu, nu) = (0, 0)")
    r = math.hypot(mu, nu)

    base_q = mu * Y / r ** 2
    base_p = nu * Y / r ** 2
    tan_q = -nu / r
    tan_p = mu / r

    if isinstance(source, WignerGrid):
        f = source.interpolate
        # exact line-box intersection; outside the box the interpolant is 0,
        # and ending the window on the box edge lets the truncation check see
        # any mass the grid cuts off
        scan_lo, scan_hi = -math.inf, math.inf
        for base, tan, axis in ((base_q, tan_q, source.q_axis), (base_p, tan_p, source.p_axis)):
            if tan != 0.0:
                a, b = (axis[0] - base) / tan, (axis[-1] - base) / tan
                scan_lo = max(scan_lo, min(a, b))
                scan_hi = min(scan_hi, max(a, b))
            elif not (axis[0] <= base <= axis[-1]):
                return 0.0
        if scan_hi <= scan_lo:
            return 0.0
    else:
        f = source
        scan_lo, scan_hi = -_LINE_REACH, _LINE_REACH

    u = np.linspace(scan_lo, scan_hi, _LINE_SCAN_POINTS)
    vals = np.asarray(f(base_q + u * tan_q, base_p + u * tan_p), dtype=float)
    lo, hi = scan_lo, scan_hi
    if np.abs(vals).sum() > 0.0:
        center, width = _support(u, vals)
        lo = max(center - halfwidth_sigmas * width, scan_lo)
        hi = min(center + halfwidth_sigmas * width, scan_hi)

    uf = np.linspace(lo, hi, _LINE_POINTS)
    wf = np.asarray(f(base_q + uf * tan_q, base_p + uf * tan_p), dtype=float)
    peak = np.max(np.abs(wf))
    # peak <= 1e-12 means the line never meets the support; endpoint noise on
    # such lines is not truncation
    if peak > 1e-12 and max(abs(wf[0]), abs(wf[-1])) > 1e-6 * peak:
        warnings.warn(
            "integration window truncates the Wigner support on this line",
            SupportTruncationWarning,
            stacklevel=2,
        )
    du = (hi - lo) / (_LINE_POINTS - 1)
    return float(wf @ _uniform_trapezoid(_LINE_POINTS, du)) / (2.0 * math.pi * r)


#: Largest supported number-state index; the normalized-Hermite recurrence is
#: overflow-safe up to (at least) this order.
MAX_NUMBER_INDEX = 200


def schroedinger_relation_check(state: Union[GaussianState, Moments]) -> tuple[float, float]:
    """Correlation coefficient and minimization residual of the uncertainty relation.

    Returns ``(r, residual)`` with ``r = sigma_pq / sqrt(sigma_qq sigma_pp)``
    and ``residual = |sigma_qq sigma_pp - (1/4)/(1 - r^2)|``.  The residual
    vanishes exactly for states that minimize the relation, which includes
    every :class:`~iontomo.GaussianState`.
    """
    r = state.sigma_pq / math.sqrt(state.sigma_qq * state.sigma_pp)
    residual = abs(state.sigma_qq * state.sigma_pp - 0.25 / (1.0 - r ** 2))
    return r, residual


def _hermite_orthonormal(m: int, xi: np.ndarray) -> np.ndarray:
    """h_m(xi) = H_m(xi) / (2^{m/2} sqrt(m!)), via the stable three-term recurrence."""
    h_prev = np.zeros_like(xi)
    h = np.ones_like(xi)
    for k in range(1, m + 1):
        h, h_prev = xi * math.sqrt(2.0 / k) * h - math.sqrt((k - 1) / k) * h_prev, h
    return h


def eval_wavefunction(
    kind: str,
    eps: complex,
    deps: complex,
    x,
    *,
    alpha: complex = 0j,
    m: int = 0,
    cat: CatSpec | None = None,
) -> np.ndarray:
    """Position wavefunction Psi(x) at one instant of the mode function.

    Parameters
    ----------
    kind : {'ground', 'coherent', 'number', 'cat'}
        Family selector.  'coherent' uses ``alpha``, 'number' uses ``m``,
        'cat' uses ``cat``.
    eps, deps : complex
        Mode function value and derivative (Wronskian-valid).
    x : array_like
        Evaluation points.

    Returns
    -------
    ndarray of complex
        Psi(x); unit L2 norm for every kind.
    """
    eps, deps = _check_wronskian(eps, deps)
    x = np.asarray(x, dtype=float)

    # common squeezed-vacuum envelope pi^{-1/4} eps^{-1/2} exp(i deps x^2 / (2 eps))
    scale = math.pi ** -0.25 / np.sqrt(eps)
    envelope = 0.5j * deps / eps * x ** 2
    psi0 = scale * np.exp(envelope)

    def displaced(alpha: complex, shift) -> np.ndarray:
        # the coherent state |alpha> for shift = sqrt(2) alpha x / eps, as one
        # exp of the summed exponent: apart, the envelope underflows where
        # exp(shift) overflows
        return scale * np.exp(envelope - abs(alpha) ** 2 / 2.0 - alpha ** 2 * np.conj(eps) / (2.0 * eps)
                              + shift)

    if kind == "ground":
        return psi0
    if kind == "coherent":
        alpha = complex(alpha)
        return displaced(alpha, math.sqrt(2.0) * alpha * x / eps)
    if kind == "number":
        if not (0 <= m <= MAX_NUMBER_INDEX):
            raise ValueError(f"number index must be in [0, {MAX_NUMBER_INDEX}], got {m}")
        phase = (np.conj(eps) / eps) ** (m / 2.0)
        return phase * _hermite_orthonormal(m, x / abs(eps)) * psi0
    if kind == "cat":
        if cat is None:
            raise ValueError("kind='cat' requires a CatSpec")
        alpha = complex(cat.alpha)
        # N (displaced(alpha, shift) +/- displaced(alpha, -shift)), factored as
        # N displaced(alpha, t) (1 + exp(-2t)) (even) or -s N displaced(alpha, t)
        # expm1(-2t) (odd) with t = s shift and the sign s that makes Re t >= 0,
        # so no factor overflows; expm1 keeps the odd difference's digits at
        # small |alpha|
        shift = math.sqrt(2.0) * alpha * x / eps
        s = np.where(shift.real >= 0.0, 1.0, -1.0)
        t = s * shift
        pair = 1.0 + np.exp(-2.0 * t) if cat.parity == "even" else -s * np.expm1(-2.0 * t)
        return math.sqrt(cat.norm_squared) * displaced(alpha, t) * pair
    raise ValueError(f"unknown wavefunction kind {kind!r}")


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
    w = _uniform_trapezoid(x.size, x[1] - x[0])

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
    return Moments(
        mean_q=mean_q,
        mean_p=mean_p,
        sigma_qq=sigma_qq,
        sigma_pp=p2 - mean_p ** 2,
        sigma_pq=sym - mean_q * mean_p,
    )

"""Gaussian and even/odd cat states of the trapped ion: wavefunctions and Wigner functions.

All moments derive from the mode function: ``sigma_qq = |eps|^2 / 2``,
``sigma_pp = |eps'|^2 / 2``, ``sigma_pq = Re(eps* eps') / 2``, and for a
coherent amplitude ``alpha`` the means are ``<q> = sqrt(2) Re(alpha eps*)``,
``<p> = sqrt(2) Re(alpha eps'*)``.  Wigner functions follow the convention
``integral W dq dp = 2 pi`` per mode, so every tomographic marginal built from
them is a unit-normalized probability density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from . import _container
from .errors import NormalizationDivergenceError
from .oscillator import _check_wronskian, _wronskian, symplectic_map

__all__ = [
    "GaussianState",
    "CatSpec",
    "WignerGrid",
    "gaussian_from_epsilon",
    "schroedinger_relation_check",
    "eval_wavefunction",
    "wigner_gaussian",
    "wigner_cat",
    "evolve_wigner",
]

#: Largest supported number-state index; the normalized-Hermite recurrence is
#: overflow-safe up to (at least) this order.
MAX_NUMBER_INDEX = 200

#: Points per block of :meth:`WignerGrid.from_evaluator`.
_EVAL_BLOCK_POINTS = 4096

Parity = Literal["even", "odd"]


@dataclass(frozen=True)
class GaussianState:
    """Quadrature means and dispersion matrix of a one-mode Gaussian state.

    Attributes
    ----------
    mean_p, mean_q : float
        First moments ``<p>``, ``<q>``.
    sigma_pp, sigma_qq, sigma_pq : float
        Second central moments; the dispersion matrix must be positive
        definite (``sigma_pp, sigma_qq > 0`` and ``d > 0``).
    """

    mean_p: float = 0.0
    mean_q: float = 0.0
    sigma_pp: float = 0.5
    sigma_qq: float = 0.5
    sigma_pq: float = 0.0
    # (eps, deps) of a mode-function state: in resonance the sigmas (~|eps|^2)
    # cannot carry the squeezed variance (~1 / |eps|^2) or d, whose two terms
    # agree to all digits; the map of (eps, deps) and W^2 / 4 can
    _eps: tuple[complex, complex] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.sigma_pp > 0.0 and self.sigma_qq > 0.0):
            raise ValueError("sigma_pp and sigma_qq must be positive")
        if self._eps is not None and _eps_moments(*self._eps) != (self.sigma_pp, self.sigma_qq, self.sigma_pq):
            raise ValueError("sigma_pp, sigma_qq, sigma_pq do not match the mode function (eps, deps)")
        if not (self.d > 0.0):
            raise ValueError(f"dispersion determinant d = {self.d} must be positive")

    @property
    def T(self) -> float:
        """Trace invariant sigma_pp + sigma_qq."""
        return self.sigma_pp + self.sigma_qq

    @property
    def d(self) -> float:
        """Determinant invariant sigma_pp sigma_qq - sigma_pq^2; 1/4 for pure states.

        For a state from :func:`gaussian_from_epsilon` it is the equal,
        cancellation-free W^2 / 4 of the Wronskian ``W = Im(eps* deps)``.
        """
        if self._eps is not None:
            return float(_wronskian(*self._eps)) ** 2 / 4.0
        return self.sigma_pp * self.sigma_qq - self.sigma_pq ** 2


@dataclass(frozen=True)
class CatSpec:
    """One-mode even/odd coherent superposition |alpha> +/- |-alpha>."""

    alpha: complex
    parity: Parity

    def __post_init__(self) -> None:
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        # the odd N^2 ~ 1 / (4 |alpha|^2) overflows for |alpha| below about
        # 3.7e-155, and |alpha|^2 underflows to 0 below about 1e-162
        if self.parity == "odd" and not (abs(self.alpha) ** 2 > 0.0 and math.isfinite(self.norm_squared)):
            raise NormalizationDivergenceError(
                f"odd cat normalization diverges at |alpha| = {abs(self.alpha):.3g}")

    @property
    def norm_squared(self) -> float:
        """N^2 = exp(|alpha|^2) / (4 cosh|alpha|^2) (even) or sinh (odd).

        Evaluated as 1 / (2 (1 +/- exp(-2|alpha|^2))), which cannot overflow.
        """
        a2 = abs(self.alpha) ** 2
        if self.parity == "even":
            return 0.5 / (1.0 + math.exp(-2.0 * a2))
        return -0.5 / math.expm1(-2.0 * a2)


def gaussian_from_epsilon(eps: complex, deps: complex, alpha: complex = 0j) -> GaussianState:
    """Gaussian state carried by the mode function at one instant.

    Parameters
    ----------
    eps, deps : complex
        Mode function value and derivative; must satisfy the Wronskian
        invariant, ``|Im(eps* deps) - 1| < 1e-6 * max(1, |eps| |deps|)``.
    alpha : complex
        Coherent amplitude (0 for the squeezed ground state).

    Returns
    -------
    GaussianState
        Pure state with d = W^2 / 4 for the Wronskian ``W = Im(eps* deps)``,
        so 1/4 up to the solver's drift.  ``d`` is taken from ``W`` rather
        than from ``sigma_pp sigma_qq - sigma_pq^2``, whose two terms cancel
        to rounding at large ``|eps|``.
    """
    eps, deps = _check_wronskian(eps, deps)
    alpha = complex(alpha)
    sq2 = math.sqrt(2.0)
    sigma_pp, sigma_qq, sigma_pq = _eps_moments(eps, deps)
    return GaussianState(
        mean_p=sq2 * (alpha * np.conj(deps)).real,
        mean_q=sq2 * (alpha * np.conj(eps)).real,
        sigma_pp=sigma_pp,
        sigma_qq=sigma_qq,
        sigma_pq=sigma_pq,
        _eps=(eps, deps),
    )


def _eps_moments(eps: complex, deps: complex) -> tuple[float, float, float]:
    """(sigma_pp, sigma_qq, sigma_pq) of the mode-function point (eps, deps)."""
    return abs(deps) ** 2 / 2.0, abs(eps) ** 2 / 2.0, float((np.conj(eps) * deps).real) / 2.0


def _quadrature_variance(state: GaussianState, mu, nu):
    """sigma_X = mu^2 sigma_qq + nu^2 sigma_pp + 2 mu nu sigma_pq on the frame (mu, nu).

    A state from :func:`gaussian_from_epsilon` uses the equal
    |mu eps + nu deps|^2 / 2, the frame carried by its map, which keeps its
    squeezed direction in resonance.
    """
    if state._eps is not None:
        mu_t, nu_t = symplectic_map(*state._eps).frame(mu, nu)
        return (mu_t ** 2 + nu_t ** 2) / 2.0
    return mu ** 2 * state.sigma_qq + nu ** 2 * state.sigma_pp + 2.0 * mu * nu * state.sigma_pq


def schroedinger_relation_check(state: GaussianState) -> tuple[float, float]:
    """Correlation coefficient and minimization residual of the uncertainty relation.

    Returns ``(r, residual)`` with ``r = sigma_pq / sqrt(sigma_qq sigma_pp)``
    and ``residual = |sigma_qq sigma_pp - (1/4)/(1 - r^2)|``.  The residual
    vanishes exactly for states that minimize the relation, which includes
    every output of :func:`gaussian_from_epsilon`.
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


def wigner_gaussian(state: GaussianState, q, p):
    """Gaussian Wigner function (2 pi convention).

    W = d^{-1/2} exp( -[sigma_qq (p-<p>)^2 + sigma_pp (q-<q>)^2
                        - 2 sigma_pq (p-<p>)(q-<q>)] / (2d) ), strictly positive.
    For a state from :func:`gaussian_from_epsilon` the bracket is the equal
    |(p-<p>) eps - (q-<q>) deps|^2 / 2, the squared initial point of its map,
    which keeps the squeezed direction in resonance, where the sigma terms
    cancel to rounding.
    """
    dq = np.asarray(q, dtype=float) - state.mean_q
    dp = np.asarray(p, dtype=float) - state.mean_p
    d = state.d
    if state._eps is not None:
        p0, q0 = symplectic_map(*state._eps).apply(dp, dq)
        quad = (p0 ** 2 + q0 ** 2) / 2.0
    else:
        quad = state.sigma_qq * dp ** 2 + state.sigma_pp * dq ** 2 - 2.0 * state.sigma_pq * dp * dq
    return np.exp(-quad / (2.0 * d)) / math.sqrt(d)


def _wab(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Coherent-pair Wigner kernel W_{a,b}(z) of one mode.

    W_{a,b} = 2 exp(-2 z z* + 2 a z* + 2 b* z - a b* - |a|^2/2 - |b|^2/2)
    """
    expo = (-2.0 * z * np.conj(z) + 2.0 * a * np.conj(z) + 2.0 * np.conj(b) * z
            - a * np.conj(b) - np.abs(a) ** 2 / 2.0 - np.abs(b) ** 2 / 2.0)
    return 2.0 * np.exp(expo)


def wigner_cat(spec: CatSpec, q, p):
    """Wigner function of a one-mode even/odd cat at phase-space points.

    Returns
    -------
    ndarray of float
        Real value of the broadcast shape of q and p; the two interference
        terms are complex conjugates, so the imaginary part cancels
        identically.  May be negative; the odd cat has W(0) = -2.
    """
    z = (np.asarray(q, dtype=float) + 1j * np.asarray(p, dtype=float)) / math.sqrt(2.0)
    shape = z.shape
    # arrays, never scalars: numpy rounds scalar complex products differently
    z = np.atleast_1d(z)
    a = np.full(1, complex(spec.alpha))
    sign = 1.0 if spec.parity == "even" else -1.0
    total = (_wab(a, a, z) + _wab(-a, -a, z)
             + sign * (_wab(a, -a, z) + _wab(-a, a, z)))
    return spec.norm_squared * np.real(total).reshape(shape)


def evolve_wigner(initial: Callable, eps: complex, deps: complex, q, p):
    """Wigner value at time t of the mode function: the initial function at the mapped point.

    ``initial`` is any evaluator ``W0(q, p)``; the map of ``(eps, deps)``
    sends the query point back along the classical flow (no shift term: the
    trap Hamiltonian has no linear force).
    """
    p0, q0 = symplectic_map(eps, deps).apply(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    return initial(q0, p0)


def _uniform_spacing(axis: np.ndarray, name: str) -> float:
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"{name} must be 1-D with at least 2 points")
    steps = np.diff(axis)
    h = steps[0]
    if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError(f"{name} must be uniformly increasing")
    return float(h)


def _uniform_trapezoid(n: int, step: float) -> np.ndarray:
    """Trapezoid quadrature weights on ``n`` samples a uniform ``step`` apart."""
    w = np.full(n, step)
    w[[0, -1]] *= 0.5
    return w


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights on the increasing samples ``x``."""
    dx = np.diff(x)
    w = np.zeros(x.size)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


@dataclass(frozen=True)
class WignerGrid:
    """One-mode Wigner function sampled on a uniform rectangular (q, p) grid.

    ``values[i, j] = W(q_axis[i], p_axis[j])`` under the 2 pi normalization
    convention.  Immutable; construction validates axis uniformity and
    finiteness.
    """

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    dq: float = field(init=False)
    dp: float = field(init=False)

    def __post_init__(self) -> None:
        q = np.asarray(self.q_axis, dtype=float)
        p = np.asarray(self.p_axis, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "q_axis", q)
        object.__setattr__(self, "p_axis", p)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "dq", _uniform_spacing(q, "q_axis"))
        object.__setattr__(self, "dp", _uniform_spacing(p, "p_axis"))
        if v.shape != (q.size, p.size):
            raise ValueError(f"values shape {v.shape} does not match axes ({q.size}, {p.size})")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")

    @classmethod
    def from_evaluator(cls, evaluator: Callable, q_axis, p_axis) -> "WignerGrid":
        """Sample ``evaluator(q, p)`` on the tensor grid (serial, deterministic).

        The evaluator must act pointwise: it is called on blocks of whole q
        rows of about 4096 points, so its scratch stays bounded however large
        the grid (a one-mode cat takes about 100 bytes per point, 0.4 MB a
        block).
        """
        q_axis = np.asarray(q_axis, dtype=float)
        p_axis = np.asarray(p_axis, dtype=float)
        values = np.empty((q_axis.size, p_axis.size))
        rows = max(1, _EVAL_BLOCK_POINTS // max(1, p_axis.size))
        for s in range(0, q_axis.size, rows):
            Q, P = np.meshgrid(q_axis.flat[s:s + rows], p_axis, indexing="ij")
            values[s:s + rows] = evaluator(Q, P)
        return cls(q_axis=q_axis, p_axis=p_axis, values=values)

    def integral(self) -> float:
        """Trapezoid estimate of (integral W dq dp) / 2 pi; 1 when support is captured."""
        wq = _uniform_trapezoid(self.q_axis.size, self.dq)
        return float(wq @ self.values @ _uniform_trapezoid(self.p_axis.size, self.dp)) / (2.0 * math.pi)

    def interpolate(self, q, p):
        """Catmull-Rom bicubic interpolation; 0 outside the grid.

        Error is O(h^4) for smooth data, which keeps grid-backed projections
        usable as oracles at desk tolerances.  The stencil index, weights and
        inside mask are formed once per axis, on that axis's own input shape;
        each of the 16 stencil values is then one flat gather over the
        broadcast shape of q and p, which is the shape of the result.
        """
        nq, npp = self.values.shape
        iq, wq, inside_q = _stencil(np.asarray(q, dtype=float), self.q_axis[0], self.dq, nq)
        ip, wp, inside_p = _stencil(np.asarray(p, dtype=float), self.p_axis[0], self.dp, npp)

        # zero-padded by one ring so the 4-point stencil never leaves the array;
        # padded[iq + a, ip + b] is flat[a * stride + b + base]
        stride = npp + 2
        flat = np.zeros((nq + 2) * stride)
        flat.reshape(nq + 2, stride)[1:-1, 1:-1] = self.values
        base = iq * stride + ip

        out = sum(wq[a] * sum(wp[b] * flat[a * stride + b:].take(base) for b in range(4))
                  for a in range(4))
        return np.where(inside_q & inside_p, out, 0.0)

    def save(self, path: str, fmt: str = "csv") -> None:
        """Write as CSV rows ``q,p,w`` or as the JSON+binary container."""
        _container.save_grid(path, fmt, "wigner", self.q_axis, self.p_axis, self.values)

    @staticmethod
    def load(path: str) -> "WignerGrid":
        q_axis, p_axis, values = _container.load_grid(path, "wigner")
        return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=values)


def _stencil(x: np.ndarray, start: float, step: float, n: int):
    """Stencil start index, Catmull-Rom weights and inside mask along one axis.

    Points outside [start, start + (n - 1) step], NaN included, get index 0 so
    the gather stays in bounds; the caller zeroes them through the mask.
    """
    s = (x - start) / step
    inside = (s >= 0.0) & (s <= n - 1.0)
    s = np.where(inside, s, 0.0)
    i = np.minimum(s.astype(int), n - 2)
    return i, _catmull_rom_weights(s - i), inside


def _catmull_rom_weights(t: np.ndarray) -> list[np.ndarray]:
    t2 = t * t
    t3 = t2 * t
    return [
        -0.5 * t3 + t2 - 0.5 * t,
        1.5 * t3 - 2.5 * t2 + 1.0,
        -1.5 * t3 + 2.0 * t2 + 0.5 * t,
        0.5 * t3 - 0.5 * t2,
    ]

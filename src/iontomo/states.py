"""Gaussian and even/odd cat states of the trapped ion: moments and Wigner functions.

A Gaussian state is a mode-function point and a coherent amplitude ``alpha``:
``sigma_qq = |eps|^2 / 2``, ``sigma_pp = |eps'|^2 / 2``, ``sigma_pq =
Re(eps* eps') / 2``, ``<q> = sqrt(2) Re(alpha eps*)`` and
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
from .oscillator import _check_wronskian, _flow_back, _wronskian

__all__ = [
    "GaussianState",
    "CatSpec",
    "WignerGrid",
    "wigner_gaussian",
    "wigner_cat",
    "evolve_wigner",
]

#: Points per evaluator call of :func:`_row_blocks`, the one block rule of
#: :meth:`WignerGrid.from_evaluator`, :meth:`OpticalSinogram.from_evaluator` and
#: the CLI's tomogram samples; it bounds an evaluator's scratch, not its values.
_EVAL_BLOCK_POINTS = 4096

Parity = Literal["even", "odd"]


def _row_blocks(n_rows: int, row_points: int):
    """Slices of whole rows of ``row_points``: about ``_EVAL_BLOCK_POINTS`` points each, at least one row."""
    rows = max(1, _EVAL_BLOCK_POINTS // max(1, row_points))
    for start in range(0, n_rows, rows):
        yield slice(start, start + rows)


def _finite_alpha(alpha) -> complex:
    """``alpha`` as a complex; a ValueError names it unless ``|alpha|^2`` is finite (no NaN, inf or overflow)."""
    alpha = complex(alpha)
    r = math.hypot(alpha.real, alpha.imag)
    if not math.isfinite(r * r):
        raise ValueError(f"alpha must have a finite |alpha|^2, got {alpha}")
    return alpha


@dataclass(frozen=True)
class GaussianState:
    """The squeezed, correlated state the trap makes from ``|alpha>``; the vacuum by default.

    Attributes
    ----------
    eps, deps : complex
        Mode function value and derivative; off the Wronskian invariant
        ``|Im(eps* deps) - 1| < 1e-6 + 2**-46 (|eps|^2 + |deps|^2)``, or not
        finite, they raise InvalidTrajectoryError.
    alpha : complex
        Coherent amplitude (0 for the squeezed ground state).
    """

    eps: complex = 1.0 + 0.0j
    deps: complex = 1.0j
    alpha: complex = 0j

    def __post_init__(self) -> None:
        eps, deps = _check_wronskian(self.eps, self.deps)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "deps", deps)
        object.__setattr__(self, "alpha", _finite_alpha(self.alpha))

    @property
    def mean_q(self) -> float:
        return math.sqrt(2.0) * (self.alpha * np.conj(self.eps)).real

    @property
    def mean_p(self) -> float:
        return math.sqrt(2.0) * (self.alpha * np.conj(self.deps)).real

    @property
    def sigma_qq(self) -> float:
        return abs(self.eps) ** 2 / 2.0

    @property
    def sigma_pp(self) -> float:
        return abs(self.deps) ** 2 / 2.0

    @property
    def sigma_pq(self) -> float:
        return float((np.conj(self.eps) * self.deps).real) / 2.0

    @property
    def T(self) -> float:
        """Trace invariant sigma_pp + sigma_qq."""
        return self.sigma_pp + self.sigma_qq

    @property
    def d(self) -> float:
        """Determinant invariant sigma_pp sigma_qq - sigma_pq^2; 1/4 up to the solver's drift.

        Taken as the equal W^2 / 4 of ``W = Im(eps* deps)``: the two sigma terms cancel at large ``|eps|``.
        """
        return float(_wronskian(self.eps, self.deps)) ** 2 / 4.0


@dataclass(frozen=True)
class CatSpec:
    """One-mode even/odd coherent superposition |alpha> +/- |-alpha>."""

    alpha: complex
    parity: Parity

    def __post_init__(self) -> None:
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        _finite_alpha(self.alpha)
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


def wigner_gaussian(state: GaussianState, q, p):
    """Gaussian Wigner function (2 pi convention).

    W = d^{-1/2} exp( -[sigma_qq (p-<p>)^2 + sigma_pp (q-<q>)^2
                        - 2 sigma_pq (p-<p>)(q-<q>)] / (2d) ), strictly positive.
    The bracket is evaluated as the equal |(p-<p>) eps - (q-<q>) deps|^2 / 2, the squared
    point (dq, dp) sent back along the flow, which keeps the squeezed direction in resonance.
    """
    dq = np.asarray(q, dtype=float) - state.mean_q
    dp = np.asarray(p, dtype=float) - state.mean_p
    d = state.d
    q0, p0 = _flow_back(state.eps, state.deps, dq, dp)
    quad = (p0 ** 2 + q0 ** 2) / 2.0
    return np.exp(-quad / (2.0 * d)) / math.sqrt(d)


def wigner_cat(spec: CatSpec, q, p):
    """Wigner function of a one-mode even/odd cat at phase-space points.

    W = 4 exp(-2 |z|^2) N^2 [exp(-2 |alpha|^2) cosh x +/- cos y] with
    z = (q + i p) / sqrt(2), x = 4 Re(alpha z*) and y = 4 Im(alpha z*): the two
    displaced Gaussians and their interference.  The Gaussians are summed as
    2 N^2 exp(-2 m) (1 + exp(-2 |x|)) with m = min |z -/+ alpha|^2, which
    cannot overflow.  N^2 times the odd bracket is summed in the exact form
    N^2 (2 exp(-2 |alpha|^2) sinh^2(x / 2) + 2 sin^2(y / 2)) - 1/2, since
    N^2 expm1(-2 |alpha|^2) = -1/2: no term cancels another, so the odd cat
    keeps its digits as alpha -> 0, where N^2 ~ 1 / (4 |alpha|^2) and W tends
    to the one-phonon 2 (2 r^2 - 1) exp(-r^2).  As in :func:`tomogram_cat`,
    n = N meets the small factors before any square, so nothing underflows
    or overflows down to the CatSpec floor.

    Returns
    -------
    ndarray of float
        Value of the broadcast shape of q and p.  May be negative; the odd cat
        has W(0) = -2.
    """
    zq = np.asarray(q, dtype=float) / math.sqrt(2.0)
    zp = np.asarray(p, dtype=float) / math.sqrt(2.0)
    a = complex(spec.alpha)
    x = 4.0 * (a.real * zq + a.imag * zp)
    y = 4.0 * (a.imag * zq - a.real * zp)
    m = np.minimum((zq - a.real) ** 2 + (zp - a.imag) ** 2, (zq + a.real) ** 2 + (zp + a.imag) ** 2)
    centre = np.exp(-2.0 * (zq ** 2 + zp ** 2))
    n = math.sqrt(spec.norm_squared)
    if spec.parity == "odd":
        total = (2.0 * (n * np.exp(-m) * np.expm1(-np.abs(x))) ** 2
                 + 8.0 * centre * (n * np.sin(y / 2.0)) ** 2 - 2.0 * centre)
    else:
        total = spec.norm_squared * (2.0 * np.exp(-2.0 * m) * (1.0 + np.exp(-2.0 * np.abs(x)))
                                     + 4.0 * centre * np.cos(y))
    return np.asarray(total)


def evolve_wigner(initial: Callable, eps: complex, deps: complex, q, p):
    """Wigner value at time t of the mode function: the initial function at the mapped point.

    ``initial`` is any evaluator ``W0(q, p)``; the query point goes back along
    the classical flow to ``q0 = Im(q deps - p eps)``, ``p0 = Re(p eps - q deps)``
    (no shift term: the trap Hamiltonian has no linear force).  A point off
    the Wronskian invariant of :class:`GaussianState` raises InvalidTrajectoryError.
    """
    eps, deps = _check_wronskian(eps, deps)
    return initial(*_flow_back(eps, deps, np.asarray(q, dtype=float), np.asarray(p, dtype=float)))


def _uniform_spacing(axis: np.ndarray, name: str) -> float:
    """The step ``(last - first) / (n - 1)`` of ``np.linspace``; ValueError unless it is positive and finite
    and every step is within a relative 1e-9 of it."""
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"{name} must be 1-D with at least 2 points")
    h = float((axis[-1] - axis[0]) / (axis.size - 1))
    if not 0.0 < h < math.inf or not np.allclose(np.diff(axis), h, rtol=1e-9, atol=0.0):
        raise ValueError(f"{name} must be uniformly increasing")
    return h


def _uniform_trapezoid(n: int, step: float) -> np.ndarray:
    """Trapezoid quadrature weights on ``n`` samples a uniform ``step`` apart."""
    w = np.full(n, step)
    w[[0, -1]] *= 0.5
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

        The evaluator is called on the blocks of :func:`_row_blocks`, whole q
        rows of about 4096 points, with ``q`` a column of the block's q values
        and ``p`` the p axis; it must act pointwise and broadcast the column
        against the row.  So its scratch stays bounded however large the grid
        (a one-mode cat takes about 100 bytes per point, 0.4 MB a block).
        """
        q_axis = np.asarray(q_axis, dtype=float)
        p_axis = np.asarray(p_axis, dtype=float)
        values = np.empty((q_axis.size, p_axis.size))
        for b in _row_blocks(q_axis.size, p_axis.size):
            values[b] = evaluator(q_axis[b, None], p_axis)
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

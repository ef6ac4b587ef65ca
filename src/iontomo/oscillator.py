"""Classical mode function of the trapped ion and its linear integrals of motion.

The ion motion is modelled as a parametric oscillator with dimensionless
frequency ``omega^2(t) = 1 + kappa^2 sin^2(Omega t)`` (units with
``hbar = m = omega(0) = 1``).  Everything downstream is built from the complex
mode function ``eps(t)`` solving

    eps'' + omega^2(t) eps = 0,   eps(0) = 1,   eps'(0) = 1j,

whose Wronskian ``Im(eps* eps') = 1`` is conserved exactly by the flow.  A
point ``(eps, eps')`` is the whole classical flow to its time: it carries a
tomographic frame forward and a phase-space point back (the two helpers
below), and the Wronskian certifies that both are symplectic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTrajectoryError, SolverError

__all__ = [
    "OscillatorParams",
    "EpsilonTrajectory",
    "omega_squared",
    "solve_epsilon",
    "epsilon_at",
]

#: Absolute Wronskian slack of a mode-function point a caller supplies: 100
#: times the solver's default gate ``10 * DEFAULT_TOL``.
WRONSKIAN_ATOL = 1e-6

#: Wronskian slack per unit of ``|eps|^2 + |deps|^2``.  In parametric resonance
#: the solver's drift builds up with the amplitude along the path, so it scales
#: with this sum, not with ``|eps| |deps|``, which dips to 1e-6 of it where eps
#: passes near 0.  Sampled over [0, 60-200] at kappa 0.5-2 on the first
#: resonance (sums up to 1e15), the drift stayed below 2**-50.9 of the sum.
_WRONSKIAN_REL = 2.0 ** -46

#: Default local-error target for :func:`solve_epsilon`.
DEFAULT_TOL = 1e-9

#: Steps per unit time when the caller does not fix ``n_steps``.
_STEPS_PER_UNIT_TIME = 2000

#: Hard floor on the RK4 step size; below this the tolerance is unreachable.
_MIN_STEP = 1e-12

#: Steps per block of :func:`_rk4`'s step matrices and samples per block of the
#: Wronskian; bounds their scratch at about 0.5 MB.
_BLOCK = 4096

#: Most RK4 steps one pass of :func:`solve_epsilon` integrates.  A pass only
#: ever holds one block of steps and samples; the trajectory
#: :func:`solve_epsilon` returns takes 40 bytes per step, about 0.67 GB at the
#: cap, while the ``epsilon`` CLI step writes each block as it comes and peaks
#: under 1 MiB of Python allocations however many steps it takes.
_MAX_STEPS = 2 ** 24

#: Samples the Floquet tables of :func:`epsilon_at` may hold together (40
#: bytes each, so about 42 MB).
_TABLE_SAMPLES = 2 ** 20

#: RK4 is stable for y'' = -omega^2 y while h * omega <= 2 sqrt(2).
_RK4_STABLE = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class OscillatorParams:
    """Trap drive parameters.

    Parameters
    ----------
    kappa : float
        Dimensionless drive strength, ``kappa >= 0``.
    omega_drive : float
        Dimensionless drive frequency ``Omega > 0`` in units of the static
        trap frequency.
    """

    kappa: float
    omega_drive: float

    def __post_init__(self) -> None:
        if not (self.kappa >= 0.0):
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if not (self.omega_drive > 0.0):
            raise ValueError(f"omega_drive must be > 0, got {self.omega_drive}")


def omega_squared(t, params: OscillatorParams):
    """Squared trap frequency ``1 + kappa^2 sin^2(Omega t)``.

    Accepts scalar or array ``t``; the result is always >= 1.
    """
    s = np.sin(params.omega_drive * np.asarray(t, dtype=float))
    return 1.0 + (params.kappa * s) ** 2


@dataclass(frozen=True)
class EpsilonTrajectory:
    """Densely sampled mode function on a uniform time grid.

    Attributes
    ----------
    params : OscillatorParams
        Drive that generated the trajectory.
    times : ndarray
        Strictly increasing samples starting at 0.
    eps, deps : ndarray of complex
        ``eps(t_i)`` and ``eps'(t_i)``.
    """

    params: OscillatorParams
    times: np.ndarray
    eps: np.ndarray
    deps: np.ndarray

    def wronskian(self) -> np.ndarray:
        """``Im(eps* eps')`` at every sample; identically 1 for the exact flow."""
        w = np.empty(self.eps.shape)
        for b in _blocks(w.size):
            w[b] = _wronskian(self.eps[b], self.deps[b])
        return w


def _blocks(n: int):
    """Slices of ``range(n)`` in blocks of ``_BLOCK``."""
    return (slice(s, s + _BLOCK) for s in range(0, n, _BLOCK))


def _wronskian(eps, deps):
    """``Im(eps* deps)`` of mode-function samples."""
    return np.imag(np.conj(eps) * deps)


def _step_matrices(params: OscillatorParams, t0, h: float) -> np.ndarray:
    """RK4 step matrices ``d`` with ``y(t0 + h) = (I + d) y(t0)``, shape ``(2, 2) + t0.shape``.

    Entry ``d[i, j]`` is the real array of the matrices' (i, j) component, so
    a block of steps is four arrays and its products are elementwise.
    """
    t0 = np.asarray(t0, dtype=float)
    w0, wm, w1 = (omega_squared(t0 + c, params) for c in (0.0, h / 2, h))
    # the four RK4 stages of y' = [[0, 1], [-omega^2, 0]] y, summed into one matrix
    d = np.empty((2, 2) + t0.shape)
    d[0, 0] = -h * h / 6 * (w0 + 2 * wm - h * h / 4 * w0 * wm)
    d[0, 1] = h - h ** 3 / 6 * wm
    d[1, 0] = -h / 6 * (w0 + 4 * wm + w1 - h * h / 2 * wm * (w0 + w1))
    d[1, 1] = -h * h / 6 * (2 * wm + w1 - h * h / 4 * wm * w1)
    return d


def _running_products(d: np.ndarray) -> np.ndarray:
    """``D_i`` with ``I + D_i = (I + d_i) ... (I + d_0)`` for the step matrices ``d`` of
    :func:`_step_matrices`, in the same layout; ``d`` is used as scratch.

    log2(m) doubling passes each set ``D_i <- (L + E) + L E`` for ``L = D_i``
    and ``E = D_{i-k}``, so the identity is never rounded into a step.  Every
    entry of ``L E`` is ``l_i0 e_0j + l_i1 e_1j``, two IEEE products and a sum,
    so the bits do not depend on numpy's matmul or BLAS kernels.
    """
    spare, scratch = np.empty_like(d), np.empty_like(d)
    k = 1
    while k < d.shape[-1]:
        late, early = d[..., k:], d[..., :-k]
        out, tmp = spare[..., k:], scratch[..., k:]
        np.multiply(late[:, :1], early[np.newaxis, 0], out=out)
        out += np.multiply(late[:, 1:], early[np.newaxis, 1], out=tmp)
        out += np.add(late, early, out=tmp)
        spare[..., :k] = d[..., :k]
        d, spare = spare, d
        k *= 2
    return d


def _rk4(params: OscillatorParams, t_end: float, n_steps: int):
    """Classic fixed-step RK4 over (eps, eps'), as a running product of step matrices.

    Yields ``(t, eps, deps)`` of the start point, then of the samples each run
    of at most ``_BLOCK`` steps reaches; the times are those of
    ``np.linspace(0, t_end, n_steps + 1)``, bit for bit.  Each step is
    ``y_{i+1} = (I + d_i) y_i`` for a real 2x2 ``d_i``; each block's samples
    come from its start point by :func:`_block_samples`.  No matrix product is
    taken, so the trajectory is the same on every BLAS.  Only one block exists
    at a time.  An unstable grid may overflow; its samples are then inf or
    NaN, without a warning.
    """
    h = t_end / n_steps
    y = np.array([1.0, 1.0j])
    yield np.zeros(1), y[:1], y[1:]
    for s in range(0, n_steps, _BLOCK):
        e = min(s + _BLOCK, n_steps)
        t = np.arange(s, e + 1) * h
        if e == n_steps:
            t[-1] = t_end
        ys = _block_samples(params, t, h, y)
        y = ys[:, -1].copy()
        yield t[1:], ys[0], ys[1]


def _block_samples(params: OscillatorParams, t, h: float, y) -> np.ndarray:
    """Rows ``(eps, deps)`` at ``t[1:]`` from the point ``y = (eps, deps)`` at ``t[0]``.

    Sample i is ``y + (D_i0 y_0 + D_i1 y_1)`` for the ``D_i`` of
    :func:`_running_products`, taken on real and imaginary parts apart.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        D = _running_products(_step_matrices(params, t[:-1], h))
        y = y.view(float).reshape(2, 1, 2)  # [eps or deps, -, re or im]
        ys = np.empty((2, t.size - 1), dtype=complex)
        parts = ys.view(float).reshape(2, -1, 2)
        np.multiply(D[:, 0, :, np.newaxis], y[0], out=parts)
        parts += D[:, 1, :, np.newaxis] * y[1]
        parts += y
    return ys


class _Pass:
    """One RK4 pass of ``n_steps`` steps, read once.

    Iterating yields ``(t, eps, deps, w)`` blocks as :func:`_rk4` makes them,
    with the Wronskian ``w``; ``drift`` is ``max |w - 1|`` so far, NaN once
    any sample is, and ``met`` whether it meets the gate.
    """

    def __init__(self, params: OscillatorParams, t_end: float, n_steps: int, gate: float):
        self.n_steps = n_steps
        self.gate = gate
        self.drift = 0.0
        self._blocks = self._integrate(params, t_end)

    def __iter__(self):
        return self._blocks

    @property
    def met(self) -> bool:
        return self.drift <= self.gate

    def _integrate(self, params, t_end):
        for t, eps, deps in _rk4(params, t_end, self.n_steps):
            with np.errstate(over="ignore", invalid="ignore"):
                w = _wronskian(eps, deps)
                self.drift = np.maximum(self.drift, np.max(np.abs(w - 1.0)))
            yield t, eps, deps, w


def _passes(params: OscillatorParams, t_end: float, n_steps: int | None, tol: float):
    """The passes of :func:`solve_epsilon`'s retry policy, one :class:`_Pass` at a time.

    The caller reads each pass; what it leaves unread is integrated here, so
    the policy always sees the drift of the whole pass.  The iteration ends
    after the first pass that meets the gate, and raises as
    :func:`solve_epsilon` documents when the policy gives up.
    """
    if not (t_end > 0.0):
        raise ValueError(f"t_end must be > 0, got {t_end}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    if n_steps is None:
        # checked as a float: 2000 * t_end is inf for t_end above about 9e304
        if _STEPS_PER_UNIT_TIME * t_end > _MAX_STEPS:
            raise SolverError(f"t_end={t_end} needs more than the cap of {_MAX_STEPS} steps; "
                              "tolerance unreachable")
        n_steps = max(1000, math.ceil(_STEPS_PER_UNIT_TIME * t_end))
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps}")
    if n_steps > _MAX_STEPS:
        raise SolverError(f"n_steps={n_steps} exceeds the cap of {_MAX_STEPS} steps; tolerance unreachable")

    gate = 10.0 * tol
    omega_max = math.hypot(1.0, params.kappa)
    resolved_step = 1.0 / (_STEPS_PER_UNIT_TIME * omega_max)
    prev_drift = math.inf
    while True:
        run = _Pass(params, t_end, n_steps, gate)
        yield run
        for _ in run:
            pass
        if run.met:
            return
        drift = run.drift
        h = t_end / n_steps
        # on a stable grid the drift falls no faster than h^5; NaN (overflow)
        # there counts as needing too many steps
        needed = n_steps * (drift / gate) ** 0.2
        if h <= resolved_step and drift > prev_drift / 2:
            why = f"doubling to n_steps={n_steps} on a resolved grid did not halve it from {prev_drift:.3e}"
        elif h / 2 < _MIN_STEP:
            why = f"n_steps={n_steps} is at the step-size floor"
        elif 2 * n_steps > _MAX_STEPS or (h * omega_max <= _RK4_STABLE and not needed <= _MAX_STEPS):
            why = f"n_steps={n_steps} cannot reach it within the cap of {_MAX_STEPS} steps"
        else:
            prev_drift, n_steps = drift, 2 * n_steps
            continue
        raise SolverError(f"Wronskian drift {drift:.3e} exceeds gate {gate:.3e}: {why}; tolerance unreachable")


def solve_epsilon(
    params: OscillatorParams,
    t_end: float,
    n_steps: int | None = None,
    tol: float = DEFAULT_TOL,
) -> EpsilonTrajectory:
    """Integrate the mode equation on ``[0, t_end]``.

    Parameters
    ----------
    params : OscillatorParams
    t_end : float
        Final time, > 0.
    n_steps : int, optional
        Number of uniform RK4 steps.  Defaults to 2000 per unit time (at
        least 1000), which holds the Wronskian near machine precision for
        moderate ``kappa * Omega``; large products need finer grids.
    tol : float
        Accuracy target.  The Wronskian drift is required to stay below
        ``10 * tol``; if it does not, the step count is doubled and the
        integration retried.  Once ``h * sqrt(1 + kappa^2) <= 1/2000`` (the
        default density at the fastest trap frequency), a doubling that fails
        to halve the drift ends the retries: round-off, not the step, sets it.
        No pass takes more than ``_MAX_STEPS = 2**24`` steps.  On a grid where
        RK4 is stable (``h * sqrt(1 + kappa^2) <= 2 sqrt(2)``) the retries also
        end once the drift, falling no faster than ``h^5``, would need more
        steps than that.

    Returns
    -------
    EpsilonTrajectory

    Raises
    ------
    SolverError
        If a doubling of a resolved grid fails to halve the drift, at the
        step-size floor, or when the tolerance needs more than ``_MAX_STEPS``
        steps (a user ``n_steps`` above it, or a ``t_end`` whose default
        step count is above it, fails before any integration).
    """
    for run in _passes(params, t_end, n_steps, tol):
        times = np.empty(run.n_steps + 1)
        eps = np.empty(run.n_steps + 1, dtype=complex)
        deps = np.empty_like(eps)
        i = 0
        for t, e, d, _ in run:
            times[i:i + t.size], eps[i:i + t.size], deps[i:i + t.size] = t, e, d
            i += t.size
    return EpsilonTrajectory(params=params, times=times, eps=eps, deps=deps)


#: Floquet tables by (params, tol, n_steps), least recently used first.
_tables: dict[tuple[OscillatorParams, float, int | None], EpsilonTrajectory] = {}


def _period_table(params: OscillatorParams, tol: float, n_steps: int | None) -> EpsilonTrajectory:
    """The mode function over one drive period ``pi / Omega``: the Floquet table.

    Tables are kept while all of them together hold at most ``_TABLE_SAMPLES``
    samples, the least recently used dropped first; a larger table is
    returned without being kept.
    """
    key = (params, tol, n_steps)
    table = _tables.pop(key, None)
    if table is None:
        table = solve_epsilon(params, t_end=math.pi / params.omega_drive, n_steps=n_steps, tol=tol)
    if table.times.size <= _TABLE_SAMPLES:
        _tables[key] = table
        while sum(kept.times.size for kept in _tables.values()) > _TABLE_SAMPLES:
            del _tables[next(iter(_tables))]
    return table


def _floquet_point(table: EpsilonTrajectory, t: float) -> tuple[complex, complex]:
    """``(eps, deps)`` at ``t = k T + s`` from a one-period table.

    Re and Im of the table are the two real fundamental solutions, so node j
    holds ``Phi(j h)`` and the last node the monodromy ``Phi(T)``; the point is
    ``(I + d(j h, r)) Phi(j h) Phi(T)^k (1, i)`` with one partial RK4 step of
    length ``r = s - j h`` from the last node at or below ``s``.
    """
    def phi(i):
        return np.array([[table.eps[i].real, table.eps[i].imag],
                         [table.deps[i].real, table.deps[i].imag]])

    times = table.times
    k, s = divmod(t, float(times[-1]))  # 0 <= s < T = times[-1]
    j = int(np.searchsorted(times, s, side="right")) - 1
    y = phi(j) @ (np.linalg.matrix_power(phi(-1), int(k)) @ np.array([1.0, 1.0j]))
    # the partial step adds its increment, so the identity is never rounded into it
    y = y + _step_matrices(table.params, times[j], s - times[j]) @ y
    return complex(y[0]), complex(y[1])


def epsilon_at(params: OscillatorParams, t: float, tol: float = DEFAULT_TOL) -> tuple[complex, complex]:
    """``(eps, deps)`` at a single time, with the sample landing exactly on ``t``.

    Used where interpolation error is not acceptable, e.g. finite-difference
    stencils in the verification harness.

    The drive has period ``T = pi / Omega``, so the flow follows from one
    period: the first call for a ``(params, tol)`` pair solves ``[0, T]`` with
    :func:`solve_epsilon` and keeps that table.  A query ``t = k T + s`` then
    costs one 2x2 power ``Phi(T)^k`` (repeated squaring), one table node at or
    below ``s`` and one partial RK4 step onto ``s``, never an interpolation.
    ``t == 0`` returns the exact initial point.  A drive whose period needs
    more than ``_MAX_STEPS`` steps (``Omega`` below about ``4e-4``) raises.

    The returned point always meets ``|Im(eps* deps) - 1| <= 10 * tol``.  When
    it does not, the table's step count is doubled; if that fails to halve the
    point's drift, or would pass ``_MAX_STEPS``, the call raises.  Each
    doubled table is kept too, so a later query walks the same steps without
    integrating.

    A table holds 40 bytes per step: about 80 kB per unit of ``T`` at the
    default 2000 steps per unit time, twice that per doubling.  The process
    keeps the most recently used tables up to ``2**20`` samples (about 42 MB)
    in all; a larger table is rebuilt on every call.

    Raises
    ------
    ValueError
        If ``t < 0`` or ``t`` is not finite.
    SolverError
        As :func:`solve_epsilon`, or when the point's drift cannot meet the
        gate; the message says "tolerance unreachable".
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return 1.0 + 0.0j, 1.0j
    gate = 10.0 * tol
    prev_drift = math.inf
    n_steps = None
    while True:
        table = _period_table(params, tol, n_steps)
        # far into a resonance Phi(T)^k overflows; the NaN drift then raises below
        with np.errstate(over="ignore", invalid="ignore"):
            eps, deps = _floquet_point(table, float(t))
        drift = abs(_wronskian(eps, deps) - 1.0)
        if drift <= gate:
            return eps, deps
        n_steps = 2 * (table.times.size - 1)
        if not drift <= prev_drift / 2 or n_steps > _MAX_STEPS:
            raise SolverError(f"Wronskian drift {drift:.3e} at t={t} exceeds gate {gate:.3e} from a "
                              f"{n_steps // 2}-step period table; tolerance unreachable")
        prev_drift = drift


def _check_wronskian(eps: complex, deps: complex) -> tuple[complex, complex]:
    """``(eps, deps)`` as complex, or InvalidTrajectoryError off the Wronskian invariant."""
    eps = complex(eps)
    deps = complex(deps)
    w = _wronskian(eps, deps)
    if not abs(w - 1.0) < WRONSKIAN_ATOL + _WRONSKIAN_REL * (abs(eps) ** 2 + abs(deps) ** 2):
        raise InvalidTrajectoryError(f"Im(eps* deps) = {w!r} violates the Wronskian invariant")
    return eps, deps


def _carry_frame(eps: complex, deps: complex, mu, nu):
    """The frame ``(mu, nu)`` at time 0 carried to the time of ``(eps, deps)``:
    the real and imaginary parts of ``mu eps + nu deps``, as real products
    (complex arithmetic would round differently)."""
    return eps.real * mu + deps.real * nu, eps.imag * mu + deps.imag * nu


def _flow_back(eps: complex, deps: complex, q, p):
    """The point ``(q, p)`` at the time of ``(eps, deps)`` sent back to time 0
    along the classical flow: ``(Im(q deps - p eps), Re(p eps - q deps))``."""
    return deps.imag * q - eps.imag * p, eps.real * p - deps.real * q

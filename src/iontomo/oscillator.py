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

#: Most RK4 steps :func:`solve_epsilon` integrates (its trajectory takes 40
#: bytes per step, about 0.67 GB at the cap) and most rows ``epsilon`` writes.
_MAX_STEPS = 2 ** 24

#: Samples the Floquet tables of :func:`epsilon_at` may hold together (40
#: bytes each, so about 42 MB), beside those of the span last used.
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
    """Slices of ``range(n)`` in blocks of ``_BLOCK``, the last one ending at ``n``."""
    return (slice(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK))


def _wronskian(eps, deps):
    """``Im(eps* deps)`` of mode-function samples."""
    return np.imag(np.conj(eps) * deps)


def _step_matrices(params: OscillatorParams, t0, h: float) -> np.ndarray:
    """RK4 step matrices ``d`` with ``y(t0 + h) = (I + d) y(t0)``, shape ``(2, 2) + t0.shape``.

    Entry ``d[i, j]`` is the real array of the matrices' (i, j) component, so
    a block of steps is four arrays and its products are elementwise.
    """
    t0 = np.asarray(t0, dtype=float)
    w0, wm, w1 = omega_squared(np.array([t0, t0 + h / 2, t0 + h]), params)
    # the four RK4 stages of y' = [[0, 1], [-omega^2, 0]] y, summed into one matrix
    hh6, hh4, wm2 = -h * h / 6, h * h / 4, 2 * wm
    d = np.empty((2, 2) + t0.shape)
    d[0, 0] = hh6 * (w0 + wm2 - hh4 * w0 * wm)
    d[0, 1] = h - h ** 3 / 6 * wm
    d[1, 0] = -h / 6 * (w0 + 4 * wm + w1 - h * h / 2 * wm * (w0 + w1))
    d[1, 1] = hh6 * (wm2 + w1 - hh4 * wm * w1)
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


def _step_count(t_end: float, n_steps: int | None) -> int:
    """``n_steps``, by default 2000 per unit of ``t_end`` (at least 1000); SolverError above ``_MAX_STEPS``."""
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
    return n_steps


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
        steps than that.  A pass takes its drift one block at a time.

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
    if not (t_end > 0.0):
        raise ValueError(f"t_end must be > 0, got {t_end}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    n_steps = _step_count(t_end, n_steps)
    gate = 10.0 * tol
    omega_max = math.hypot(1.0, params.kappa)
    resolved_step = 1.0 / (_STEPS_PER_UNIT_TIME * omega_max)
    prev_drift = math.inf
    while True:
        times = np.empty(n_steps + 1)
        eps = np.empty(n_steps + 1, dtype=complex)
        deps = np.empty_like(eps)
        drift = 0.0  # NaN once any sample is
        i = 0
        for t, e, d in _rk4(params, t_end, n_steps):
            times[i:i + t.size], eps[i:i + t.size], deps[i:i + t.size] = t, e, d
            i += t.size
            with np.errstate(over="ignore", invalid="ignore"):
                drift = np.maximum(drift, np.max(np.abs(_wronskian(e, d) - 1.0)))
        if drift <= gate:
            return EpsilonTrajectory(params=params, times=times, eps=eps, deps=deps)
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


#: Floquet tables by (params, span, tol, n_steps), least recently used first.
_tables: dict[tuple[OscillatorParams, float, float, int | None], EpsilonTrajectory] = {}


def _table(params: OscillatorParams, span: float, tol: float, n_steps: int | None) -> EpsilonTrajectory:
    """The mode function over ``[0, span]``, kept with every table of the span last used (a point
    may need any doubling) and the most recently used others up to ``_TABLE_SAMPLES`` samples."""
    key = (params, span, tol, n_steps)
    table = _tables.pop(key, None)
    if table is None:
        table = solve_epsilon(params, t_end=span, n_steps=n_steps, tol=tol)
    _tables[key] = table
    for old in [old for old in _tables if old[:3] != key[:3]]:
        if sum(kept.times.size for kept in _tables.values()) > _TABLE_SAMPLES:
            del _tables[old]
    return table


def _mul(a, b):
    """2x2 products ``a b``, stacked on the last axis, entry by entry: ``a_i0 b_0j + a_i1 b_1j``."""
    return a[:, :1] * b[np.newaxis, 0] + a[:, 1:] * b[np.newaxis, 1]


def _floquet_points(table: EpsilonTrajectory, t: np.ndarray):
    """``(eps, deps)`` at the times ``t = k S + s`` from a table over ``[0, S]``.

    Re and Im of the table are the two real fundamental solutions, so a point
    is ``(I + d(j h, r)) Phi(j h) Phi(S)^k (1, i)`` for the last node j at or
    below s and one partial RK4 step ``r = s - j h``.  ``Phi(S)^k`` is taken
    once per distinct k in ``numpy.linalg.matrix_power``'s order; every
    product is :func:`_mul`.
    """
    def phi(i):
        eps, deps = table.eps[i], table.deps[i]
        return np.array([[eps.real, eps.imag], [deps.real, deps.imag]])

    times, shape = table.times, t.shape
    if t.size == 1:  # numpy scalars cost a fraction of 1-element arrays
        t = t.reshape(())
    k, s = np.divmod(t, times[-1])  # 0 <= s < S = times[-1]
    j = np.searchsorted(times, s, side="right") - 1
    ks = np.sort(k, axis=None)  # the distinct k, without np.unique, whose first call imports numpy.ma
    distinct = ks = ks[np.concatenate(([True], ks[1:] != ks[:-1]))]
    z = phi([-1])
    power = np.zeros((2, 2, ks.size))
    power[0, 0] = power[1, 1] = 1.0
    for b in range(int(ks[-1]).bit_length()):
        if b:
            z = _mul(z, z)
        ks, bit = np.divmod(ks, 2.0)  # exact: ks holds whole numbers
        power = np.where(bit == 1.0, _mul(power, z), power)
    y = _mul(phi(j), power[..., np.searchsorted(distinct, k)])
    # the partial step adds its increment, so the identity is never rounded into it
    y += _mul(_step_matrices(table.params, times[j], s - times[j]), y)
    points = np.empty((2,) + t.shape, dtype=complex)  # columns 0 and 1 are the Re and Im parts
    points.real, points.imag = y[:, 0], y[:, 1]
    return points[0].reshape(shape), points[1].reshape(shape)


def _epsilon_points(params: OscillatorParams, t: np.ndarray, tol: float):
    """:func:`epsilon_at` at each of the finite times ``t >= 0``, the first t that fails named."""
    gate = 10.0 * tol
    eps, deps = np.empty((2, t.size), dtype=complex)
    period = math.pi / params.omega_drive
    with np.errstate(over="ignore"):  # from t = 2**1023 on the power is inf, so the span the period
        spans = np.maximum(np.ldexp(1.0, np.frexp(t)[1]), 8.0)  # frexp: t = m 2^e, 1/2 <= m < 1
    spans[spans >= period] = period
    for span in sorted(set(spans.tolist())):
        todo = np.flatnonzero(spans == span)
        prev_drift, n_steps = np.full(todo.size, math.inf), None
        while True:
            try:
                table = _table(params, span, tol, n_steps)
            except SolverError as exc:  # named by the first t that needs the table, not by its span
                raise SolverError(f"t={float(t[todo[0]])}: table over [0, {span}]: {exc}") from None
            # far into a resonance Phi(T)^k overflows; the NaN drift then raises below
            with np.errstate(over="ignore", invalid="ignore"):
                e, d = _floquet_points(table, t[todo])
                drift = np.abs(_wronskian(e, d) - 1.0)
                met = drift <= gate
                eps[todo[met]], deps[todo[met]] = e[met], d[met]
                if met.all():
                    break
                todo, drift, prev_drift = todo[~met], drift[~met], prev_drift[~met]
                steps = table.times.size - 1
                # as in solve_epsilon: the drift falls no faster than h^5, and a NaN drift never
                hopeless = ~(drift <= prev_drift / 2) | ~(steps * (drift / gate) ** 0.2 <= _MAX_STEPS)
            if hopeless.any() or 2 * steps > _MAX_STEPS:
                miss = int(np.argmax(hopeless))  # the first missed point when none is hopeless
                raise SolverError(f"Wronskian drift {drift[miss]:.3e} at t={float(t[todo[miss]])} exceeds gate "
                                  f"{gate:.3e} from a {steps}-step table over [0, {span}]; tolerance unreachable")
            prev_drift, n_steps = drift, 2 * steps
    return eps, deps


def epsilon_at(params: OscillatorParams, t: float, tol: float = DEFAULT_TOL) -> tuple[complex, complex]:
    """``(eps, deps)`` at a single time, with the sample landing exactly on ``t``.

    Used where interpolation error is not acceptable, e.g. finite-difference
    stencils in the verification harness.

    The drive has period ``T = pi / Omega``, so the flow follows from one
    period: the first call for a ``(params, tol)`` pair solves ``[0, T]`` with
    :func:`solve_epsilon` and keeps that table.  A query ``t = k T + s`` then
    costs one 2x2 power ``Phi(T)^k`` (repeated squaring), one table node at or
    below ``s`` and one partial RK4 step onto ``s``, never an interpolation;
    every product is written out entry by entry, so no BLAS sets the bits.
    Where the least power of two above ``t``, at least 8, is shorter than
    ``T``, the table spans it instead (``k = 0``), so a slow drive's tables
    follow its queries, not its period; only where ``2000 T`` passes
    ``_MAX_STEPS`` (``Omega`` below about ``3.75e-4``) does a ``t`` from 8192
    on raise.  ``t == 0`` returns the exact initial point.

    The returned point always meets ``|Im(eps* deps) - 1| <= 10 * tol``.  When
    it does not, the table's step count is doubled; if that fails to halve the
    point's drift, would pass ``_MAX_STEPS``, or could not reach the gate
    within it were the drift to fall as ``h^5``, the call raises.

    A table holds 40 bytes per step, about 80 kB per unit of its span at the
    default density, twice that per doubling.  The process keeps every table
    of the span last used, and beside them the most recently used tables up
    to ``2**20`` samples (about 42 MB) in all.

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
    eps, deps = _epsilon_points(params, np.array([t], dtype=float), tol)
    return complex(eps[0]), complex(deps[0])


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

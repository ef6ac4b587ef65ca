"""Independent oracles the tests compare the package against.

:func:`project_wigner` integrates a Wigner function along one quadrature
line, so it checks every analytic tomogram without their moment formulas.
:func:`eval_wavefunction` gives the position wavefunction of each state
family, from which :func:`wavefunction_moment_oracle` recomputes Gaussian
moments by quadrature, as a :class:`Moments` record, and the state tests
build Wigner functions by transform; :func:`schroedinger_relation_check`
tests the moments against the uncertainty relation.
:func:`nested_epsilon_at` serves mode-function points by two nested retries,
a table's own and the point's, against which ``epsilon_at``'s one retry loop
is compared.
:func:`table_invert_to_wigner` inverts a sinogram from a table of all its rows'
spectra, against which the single streamed pass is compared.
:func:`load_csv_triples_reference` reads a grid CSV with one ``np.loadtxt``
call and a check of the whole table, against which the blockwise reader is
compared.  No CLI step runs any of them, so they live here and not in ``src/``.
"""

import math
import warnings
from typing import Callable, NamedTuple, Union

import numpy as np

from iontomo import CatSpec, DegenerateFrameError, GaussianState, WignerGrid
from iontomo import oscillator
from iontomo.errors import SolverError
from iontomo.oscillator import _check_wronskian
from iontomo.states import _uniform_spacing, _uniform_trapezoid

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


def load_csv_triples_reference(path: str, colnames: tuple[str, str, str]):
    """(ax0, ax1, values) of a grid CSV from one ``np.loadtxt`` of its whole body.

    The whole table is then checked at once: the first ax0 run fixes the
    inner length, and each run must hold one ax0 value and repeat the first
    run's ax1.  Any fault raises ValueError, whatever it names first.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(colnames):
            raise ValueError(f"{path}: expected header {','.join(colnames)!r}, got {header!r}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, got {data.shape[1]}")
    col0 = data[:, 0]
    starts_run = col0 != col0[0]
    n1 = int(np.argmax(starts_run)) if starts_run.any() else data.shape[0]
    if n1 == 0 or data.shape[0] % n1 != 0:
        raise ValueError(f"{path}: a NaN first {colnames[0]} or a ragged grid")
    grid = data.reshape(-1, n1, 3)
    if np.any((grid[:, :, 0] != grid[:, :1, 0]) | (grid[:, :, 1] != grid[:1, :, 1])):
        raise ValueError(f"{path}: a run off the grid")
    return grid[:, 0, 0].copy(), grid[0, :, 1].copy(), grid[:, :, 2].copy()


def nested_epsilon_at(params, times, tol=oscillator.DEFAULT_TOL):
    """``(eps, deps)`` at each time, or None where the nested retries give up, for a drive of period at most 8.

    Each Floquet table over the period is its own doubling loop: RK4 passes
    from a given step count (the default one for the first table) until the
    pass's drift meets ``10 * tol``, given up when a doubling on a resolved
    grid (``h * sqrt(1 + kappa^2) <= 1/2000``) fails to halve it, at a step
    below 1e-12, past the 2**24-step cap, or when on a stable grid the drift,
    falling as ``h^5``, would need more steps than that.  A point retries on
    the table from twice the last table's steps, given up when its drift does
    not halve, would need more than the cap as ``h^5``, or the next table
    would pass the cap.  The tables are shared among the times.
    """
    gate = 10.0 * tol
    span = math.pi / params.omega_drive
    assert span <= 8.0  # longer periods take tables over powers of two below them
    omega_max = math.hypot(1.0, params.kappa)
    tables = {}

    def table(n_steps):
        if n_steps not in tables:
            n, prev = n_steps or oscillator._step_count(span, None), math.inf
            while True:
                traj, drift = oscillator._pass(params, span, n)
                if drift <= gate:
                    break
                h = span / n
                resolved, stable = h <= 1.0 / (2000 * omega_max), h * omega_max <= 2.0 * ROOT2
                needed = n * (drift / gate) ** 0.2
                if ((resolved and drift > prev / 2) or h / 2 < 1e-12 or 2 * n > oscillator._MAX_STEPS
                        or (stable and not needed <= oscillator._MAX_STEPS)):
                    raise SolverError("table: tolerance unreachable")
                prev, n = drift, 2 * n
            tables[n_steps] = traj
        return tables[n_steps]

    def point(t):
        n_steps, prev = None, math.inf
        while True:
            try:
                traj = table(n_steps)
            except SolverError:
                return None
            with np.errstate(over="ignore", invalid="ignore"):
                eps, deps = oscillator._floquet_points(traj, np.array([t]))
                drift = float(np.abs(oscillator._wronskian(eps, deps) - 1.0)[0])
            if drift <= gate:
                return complex(eps[0]), complex(deps[0])
            steps = traj.times.size - 1
            if not (drift <= prev / 2 and steps * (drift / gate) ** 0.2 <= oscillator._MAX_STEPS) \
                    or 2 * steps > oscillator._MAX_STEPS:
                return None
            prev, n_steps = drift, 2 * steps

    return [point(float(t)) for t in times]


def table_invert_to_wigner(sinogram, q_axis, p_axis, *, k_max: float = 12.0, n_nodes: int = 193) -> np.ndarray:
    """Grid values of the Fourier inversion read from a table of every wrapped row's spectrum.

    The inversion as :func:`iontomo.tomography.invert_to_wigner` defines it,
    computed the way it was before its single pass: :func:`table_ray_spectrum`
    transforms all the rows into one table first, the half plane of F is then
    evaluated one mu row at a time, and W = Re(A_h F_h B) / 2 pi is one
    product.  The stencils are the package's own, so the two agree to
    rounding.
    """
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    nodes = np.linspace(-k_max, k_max, n_nodes)
    nodes = 0.5 * (nodes - nodes[::-1])
    half = (n_nodes + 1) // 2
    spectrum = table_ray_spectrum(sinogram, float(np.hypot(nodes[-1], nodes[-1])))
    F = np.empty((half, n_nodes), dtype=complex)
    for i, m in enumerate(nodes[:half]):
        degenerate = (m == 0.0) & (nodes == 0.0)
        F[i, :] = spectrum(m, np.where(degenerate, 1.0, nodes))
        F[i, degenerate] = 1.0
    w_nodes = _uniform_trapezoid(n_nodes, _uniform_spacing(nodes, "nodes"))
    w_rows = 2.0 * w_nodes[:half]
    w_rows[n_nodes // 2:] *= 0.5
    A = np.exp(-1j * np.outer(q_axis, nodes[:half])) * w_rows
    B = np.exp(-1j * np.outer(nodes, p_axis)) * w_nodes[:, np.newaxis]
    return np.real(A @ F @ B) / (2.0 * math.pi)


def table_ray_spectrum(sinogram, k_reach: float) -> Callable:
    """F(m, nu) of one mu row from :func:`row_spectra_table`, for any nonzero frames (m, nu)."""
    from iontomo import _fourier, tomography

    table, dk, n_fft, phi0, dphi, n_x = row_spectra_table(sinogram, k_reach)
    n_rows, n_cols = table.shape[0] - 2, table.shape[1]
    flat = table.ravel()
    odd_x = (n_x - 1) % 2
    offsets = np.arange(_fourier._K_STENCIL) - (_fourier._K_STENCIL // 2 - 1)
    denominators = np.array([np.prod([float(d - e) for e in offsets if e != d]) for d in offsets])
    taps = np.arange(_fourier._K_STENCIL)[:, np.newaxis]

    def spectrum(m, nu):
        angle, k = tomography._fold(m, nu)
        i, w, _ = tomography._stencil(angle, phi0, dphi, n_rows)
        s = np.abs(k) / dk
        periods = np.floor(s / n_fft)
        s -= periods * n_fft
        j = s.astype(int)
        diffs = (s - j)[np.newaxis, :] - offsets[:, np.newaxis]
        ones = np.ones((1, s.size))
        before = np.cumprod(np.vstack((ones, diffs[:-1])), axis=0)
        after = np.cumprod(np.vstack((ones, diffs[:0:-1])), axis=0)[::-1]
        lagrange = before * after / denominators[:, np.newaxis]
        at = (i * n_cols + j + 1)[np.newaxis, :] + taps
        row_sum = sum(w[a] * (lagrange * flat[at + a * n_cols]).sum(axis=0) for a in range(4))
        row_sum = np.where(periods % 2 * odd_x == 1.0, -row_sum, row_sum)
        return np.where(k < 0.0, np.conj(row_sum), row_sum)

    return spectrum


def row_spectra_table(sinogram, k_reach: float):
    """``(table, dk, n, phi0, dphi, n_x)``: the spectra of all the wrapped rows, zero rows around them.

    ``table[r + 1, c]`` = sum_j w_rj exp(i k x_j) at k = (c - _K_STENCIL // 2) dk
    for wrapped row r, whose angles start at phi0 in steps of dphi (the
    sinogram's rows with two wrap rows, X reversed, on each side of
    [0, pi)).  Each row is one zero-padded rfft of length
    n = ``_fft_length(_K_OVERSAMPLE n_x)``; only the columns of
    0 <= k <= ``k_reach``, at most one period, and a stencil guard on each
    side are kept.  The sinogram is checked as the package checks it.
    """
    from iontomo import _fourier, tomography
    from iontomo._checks import checked_rows

    rows = list(checked_rows(tomography._blocks(sinogram), fold=True))
    phi = np.concatenate([r[0] for r in rows])
    values = np.concatenate([r[2] for r in rows])
    x = rows[0][1]
    dx = tomography._uniform_spacing(x, "x_axis")
    n_fft = tomography._fft_length(_fourier._K_OVERSAMPLE * x.size)
    dk = 2.0 * math.pi / (n_fft * dx)
    half = _fourier._K_STENCIL // 2
    cols = np.arange(min(int(k_reach / dk), n_fft) + 2 * half + 2) - half
    wrapped = cols % n_fft
    upper = wrapped > n_fft // 2
    column = np.where(upper, n_fft - wrapped, wrapped)
    phase = np.exp(1j * (cols * dk) * x[0])
    ext = np.concatenate((values[-2:, ::-1], values, values[:2, ::-1]))
    table = np.zeros((ext.shape[0] + 2, cols.size), dtype=complex)
    spec = np.fft.rfft(ext * _uniform_trapezoid(x.size, dx), n=n_fft)[:, column]
    table[1:-1] = np.where(upper, spec, np.conj(spec)) * phase
    n = phi.size
    step = math.pi / n
    phi0 = phi[0] - step * 2.0
    return table, dk, n_fft, phi0, float((phi[-1] + step * 2.0 - phi0) / (n + 3)), x.size

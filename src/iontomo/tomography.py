"""Symplectic tomograms: analytic marginals, time evolution, projection, inversion.

A tomogram w(X, mu, nu, delta) is the probability density of the quadrature
X = mu q + nu p + delta.  Only Y = X - delta matters (exact shift covariance),
and scaling (Y, mu, nu) by lambda rescales the density by 1/|lambda|
(homogeneity), so the optical restriction mu = cos(phi), nu = sin(phi),
delta = 0 already determines the full tomogram.

Evolution never solves a PDE here: frame parameters are transported along the
classical mode function, w(X, mu, nu, t) = w0(X - delta, mu(t), nu(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _container
from .errors import DegenerateFrameError, InsufficientAnglesError
from .oscillator import _carry_frame, _check_wronskian
from .states import CatSpec, GaussianState, WignerGrid, _row_blocks, _stencil, _uniform_spacing, _uniform_trapezoid

__all__ = [
    "OpticalSinogram",
    "tomogram_gaussian",
    "tomogram_cat",
    "evolve_tomogram",
    "optical_slice",
    "invert_to_wigner",
    "radon_reconstruct",
    "sinogram_evaluator",
]


def _frame_arrays(mu, nu):
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if np.any((mu == 0.0) & (nu == 0.0)):
        raise DegenerateFrameError("tomogram frame (mu, nu) = (0, 0) has no density")
    return mu, nu


def tomogram_gaussian(state: GaussianState, Y, mu, nu):
    """Gaussian marginal (2 pi sigma_X)^{-1/2} exp(-(Y - Ybar)^2 / (2 sigma_X)).

    sigma_X = mu^2 sigma_qq + nu^2 sigma_pp + 2 mu nu sigma_pq and
    Ybar = mu <q> + nu <p>, where Y = X - delta for the quadrature
    X = mu q + nu p + delta.  sigma_X is evaluated as the equal
    |mu eps + nu deps|^2 / 2 of the state's mode-function point, which keeps
    its squeezed direction in resonance, where the sigma terms cancel to
    rounding.
    """
    mu, nu = _frame_arrays(mu, nu)
    mu_t, nu_t = _carry_frame(state.eps, state.deps, mu, nu)
    sig = (mu_t ** 2 + nu_t ** 2) / 2.0
    if np.any(sig <= 0.0):
        raise DegenerateFrameError("sigma_X <= 0; dispersion matrix not positive on this frame")
    ybar = mu * state.mean_q + nu * state.mean_p
    return np.exp(-((np.asarray(Y, dtype=float) - ybar) ** 2) / (2.0 * sig)) / np.sqrt(2.0 * math.pi * sig)


def tomogram_cat(spec: CatSpec, Y, mu, nu):
    """Even/odd cat marginal at Y = X - delta.

    N^2 (pi r2)^{-1/2} [w1 + w2 +/- (w3 + w4)] with r2 = mu^2 + nu^2, the
    displaced Gaussians w1, w2 = exp(-(Y -/+ a)^2 / r2) and the conjugate
    interference pair w3, w4 = exp(-2 |alpha|^2 - (Y -/+ i b)^2 / r2), where
    a + i b = 2 s and s = alpha (mu - i nu) / sqrt(2).  N^2 times the bracket
    is summed as (E (1 +/- e^-u))^2 -/+ F with u = 2 |a Y| / r2, n = N,
    E = n exp(-(|Y| - |a|)^2 / (2 r2)) and F = exp(-(Y^2 + a^2) / r2) (2 n sin(b Y / r2))^2:
    no term cancels another, so the odd cat keeps its digits as alpha -> 0,
    where N^2 ~ 1 / (4 |alpha|^2), and n meets the small factors 1 - e^-u and
    sin(b Y / r2) before any square, so nothing overflows down to the CatSpec
    floor.  Nonnegative up to rounding; integrates to 1 over X for any frame.
    """
    mu, nu = _frame_arrays(mu, nu)
    r2 = mu ** 2 + nu ** 2
    Y = np.asarray(Y, dtype=float)
    s = complex(spec.alpha) * (mu - 1j * nu) / math.sqrt(2.0)
    a, b = 2.0 * s.real, 2.0 * s.imag
    u = np.abs(2.0 * a * Y / r2)
    n = math.sqrt(spec.norm_squared)
    E = n * np.exp(-((np.abs(Y) - np.abs(a)) ** 2) / (2.0 * r2))
    F = np.exp(-(Y ** 2 + a ** 2) / r2) * (2.0 * n * np.sin(b * Y / r2)) ** 2
    total = (E * -np.expm1(-u)) ** 2 + F if spec.parity == "odd" else (E * (1.0 + np.exp(-u))) ** 2 - F
    return total / np.sqrt(math.pi * r2)


def evolve_tomogram(initial: Callable, eps: complex, deps: complex, Y, mu, nu):
    """Tomogram at time t of the mode function: w0(Y, mu(t), nu(t)) with Y = X - delta.

    ``initial`` is the t=0 evaluator with signature (Y, mu, nu).  The frame
    parameters are transported as mu(t) + i nu(t) = mu eps + nu deps; the
    transport has determinant Im(eps* deps) = 1, so an evolved frame can only
    degenerate if the inputs were already invalid.  A point off the Wronskian
    invariant of :class:`GaussianState` raises InvalidTrajectoryError.
    """
    eps, deps = _check_wronskian(eps, deps)
    mu_t, nu_t = _carry_frame(eps, deps, *_frame_arrays(mu, nu))
    if np.any((mu_t == 0.0) & (nu_t == 0.0)):
        raise DegenerateFrameError("evolved frame collapsed to (0, 0); trajectory point invalid")
    return initial(Y, mu_t, nu_t)


def optical_slice(evaluator: Callable, phi, X):
    """Rotated-quadrature restriction mu = cos(phi), nu = sin(phi), delta = 0."""
    phi = np.asarray(phi, dtype=float)
    return evaluator(np.asarray(X, dtype=float), np.cos(phi), np.sin(phi))


def invert_to_wigner(sinogram: OpticalSinogram, q_axis, p_axis, *, k_max: float = 12.0,
                     n_nodes: int = 193) -> WignerGrid:
    """Wigner function from an optical sinogram by the reduced Fourier inversion.

    W(q, p) = (1/2 pi) integral P(Y, mu, nu) exp(i (Y - mu q - nu p)) dY dmu dnu,
    discretized with trapezoid rules on uniform mu, nu in [-k_max, k_max]
    (``n_nodes`` each).  k_max must cover the Fourier transform of the state:
    superpositions of coherent pieces separated by 2 alpha carry interference
    lobes centered at radius 2 sqrt(2) |alpha|, so the default reaches
    |alpha| = 3.  The node mu = nu = 0 is never evaluated; its Fourier
    coefficient is exactly 1 for a normalized tomogram.  A tomogram evaluator
    is sampled first with :meth:`OpticalSinogram.from_evaluator`; its optical
    slices determine it.

    By homogeneity the coefficient on the ray (mu, nu) = r (cos phi, sin phi)
    is the 1-D transform of one marginal, F = integral w_opt(X, phi)
    exp(i k X) dX with k = r, or k = -r where phi folds back into [0, pi).
    The marginal at phi combines four wrapped angle rows with the Catmull-Rom
    weights of :func:`sinogram_evaluator`; its transform is the trapezoid sum
    on the sinogram's own X samples, so nothing is interpolated in X.  Each
    row's sum is taken once for all k, by a zero-padded FFT at least 8x
    oversampled in k, and read at k = +-r by a 16-point Lagrange stencil:
    within about 1e-12 of max |F| of the sum at each node, and 2.8e-15 of
    max |W| on the benchmark's 180x321 sinogram at seed 0.

    Only the half plane of the first ``(n_nodes + 1) // 2`` mu rows is
    evaluated and contracted.  The rest follows from
    F(-mu, -nu) = conj F(mu, nu), which holds because homogeneity at
    lambda = -1 gives w(Y, -mu, -nu) = w(-Y, mu, nu), the fold every sinogram
    is read with: on nodes made exactly antisymmetric, the mirrored rows add
    the conjugate of the half plane's term, so W = Re(A_h F_h B) / 2 pi with
    the half plane's mu weights doubled (the middle row of an odd
    ``n_nodes`` kept once).  The peak memory is the wrapped sinogram and its
    row table, with half of F filled beside them; the phase factors and
    products come after the table is dropped and are smaller.

    The grid is returned whatever its normalization, as from
    :func:`radon_reconstruct`; ``grid.integral()`` far from 1 means k_max or
    the output window is too small, and the caller gates it.

    Raises
    ------
    ValueError
        When the sinogram has fewer than 2 angles or an X axis not symmetric
        about 0.
    """
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    nodes = np.linspace(-k_max, k_max, n_nodes)
    # exactly antisymmetric (moves linspace by at most 1 ulp), so row and
    # column n - 1 - i hold the mirrored frame (-mu, -nu)
    nodes = 0.5 * (nodes - nodes[::-1])
    half = (n_nodes + 1) // 2

    spectrum = _ray_spectrum(sinogram, float(np.hypot(nodes[-1], nodes[-1])))
    F = np.empty((half, n_nodes), dtype=complex)
    for i, m in enumerate(nodes[:half]):
        degenerate = (m == 0.0) & (nodes == 0.0)
        F[i, :] = spectrum(m, np.where(degenerate, 1.0, nodes))
        F[i, degenerate] = 1.0
    # the sinogram and its row table are dropped before the matmuls
    del spectrum

    # separable phase factors turn the double (mu, nu) sum into two matmuls.  The
    # mirrored row n - 1 - i adds the conjugate of row i's term, so the real part
    # counts row i twice, and the middle row of an odd n_nodes once
    w_nodes = _uniform_trapezoid(n_nodes, _uniform_spacing(nodes, "nodes"))
    w_rows = 2.0 * w_nodes[:half]
    w_rows[n_nodes // 2:] *= 0.5
    A = np.exp(-1j * np.outer(q_axis, nodes[:half])) * w_rows
    B = np.exp(-1j * np.outer(nodes, p_axis)) * w_nodes[:, np.newaxis]
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=np.real(A @ F @ B) / (2.0 * math.pi))


#: FFT length of a sinogram row, as a multiple of its sample count (rounded up
#: by :func:`_fft_length`): the k grid then samples each row spectrum at least
#: 8x finer than its bandwidth, the half-length of the X range.
_K_OVERSAMPLE = 8
#: Points of the Lagrange stencil that reads a row spectrum between k nodes.
#: At 8x oversampling 16 points keep the error near 1e-12 of max |F| even for
#: rows with their mass on the X ends; 10 points leave about 1e-9 there.
_K_STENCIL = 16
#: Rows per rfft call; bounds the zero-padded FFT buffers to this many rows.
_FFT_BLOCK_ROWS = 8


def _ray_spectrum(sinogram: OpticalSinogram, k_reach: float) -> Callable:
    """Coefficients F(m, nu) of one mu row as 1-D transforms of sinogram marginals.

    The transform is linear in the marginal, so the Catmull-Rom combination of
    four angle rows is applied to the rows' spectra from :func:`_row_spectra`.
    A node reads each row at |k| with a ``_K_STENCIL``-point Lagrange stencil
    in k and conjugates where k < 0 (the rows are real).  Nothing is
    interpolated in X.
    """
    grid = _wrapped_grid(sinogram)
    n_rows = grid.values.shape[0]
    table, dk, n_fft = _row_spectra(grid, k_reach)
    n_cols = table.shape[1]
    flat = table.ravel()
    odd_x = (grid.p_axis.size - 1) % 2
    offsets = np.arange(_K_STENCIL) - (_K_STENCIL // 2 - 1)
    denominators = np.array([np.prod([float(d - e) for e in offsets if e != d]) for d in offsets])
    taps = np.arange(_K_STENCIL)[:, np.newaxis]

    def spectrum(m, nu):
        angle, k = _fold(m, nu)
        i, w, _ = _stencil(angle, grid.q_axis[0], grid.dq, n_rows)
        s = np.abs(k) / dk
        # on an X axis symmetric about 0 the X sum repeats every n_fft
        # columns up to the sign (-1)^(n_x - 1), so the table holds at most one period
        periods = np.floor(s / n_fft)
        s -= periods * n_fft
        j = s.astype(int)
        lagrange = _lagrange_weights(s - j, offsets, denominators)
        # the stencil of |k| = (j + t) dk covers table columns j + 1 .. j + _K_STENCIL
        at = (i * n_cols + j + 1)[np.newaxis, :] + taps
        row_sum = sum(w[a] * (lagrange * flat[at + a * n_cols]).sum(axis=0) for a in range(4))
        row_sum = np.where(periods % 2 * odd_x == 1.0, -row_sum, row_sum)
        return np.where(k < 0.0, np.conj(row_sum), row_sum)

    return spectrum


def _row_spectra(grid: WignerGrid, k_reach: float) -> tuple[np.ndarray, float, int]:
    """Transforms of the trapezoid-weighted rows of a wrapped sinogram on a k grid.

    Returns ``(table, dk, n)`` with ``table[r + 1, c]`` = sum_j w_rj exp(i k x_j)
    at k = (c - _K_STENCIL // 2) dk; rows 0 and -1 are zero padding, as in
    :meth:`WignerGrid.interpolate`.  On the X axis symmetric about 0 that
    :func:`_wrapped_grid` requires, the rows have the smallest bandwidth in k,
    half the X range.  Each row is one zero-padded rfft of length
    n = ``_fft_length(_K_OVERSAMPLE n_x)``, weighted and taken in blocks of
    ``_FFT_BLOCK_ROWS`` rows; only the columns of 0 <= k <= ``k_reach``, at
    most one period of n columns, and a stencil guard on each side are kept.
    """
    x = grid.p_axis
    trapezoid = _uniform_trapezoid(x.size, grid.dp)
    n_fft = _fft_length(_K_OVERSAMPLE * x.size)
    dk = 2.0 * math.pi / (n_fft * grid.dp)
    half = _K_STENCIL // 2
    cols = np.arange(min(int(k_reach / dk), n_fft) + 2 * half + 2) - half
    # the X sum at k = c dk is conj(rfft[c mod n]) up to n / 2 and rfft[n - c mod n] past it
    wrapped = cols % n_fft
    upper = wrapped > n_fft // 2
    column = np.where(upper, n_fft - wrapped, wrapped)
    phase = np.exp(1j * (cols * dk) * x[0])
    table = np.zeros((len(grid.values) + 2, cols.size), dtype=complex)
    for start in range(0, len(grid.values), _FFT_BLOCK_ROWS):
        spec = np.fft.rfft(grid.values[start:start + _FFT_BLOCK_ROWS] * trapezoid, n=n_fft)[:, column]
        table[1 + start:1 + start + spec.shape[0]] = np.where(upper, spec, np.conj(spec)) * phase
    return table, dk, n_fft


def _fft_length(m: int) -> int:
    """The smallest even 2^a 3^b 5^c >= m, a length that numpy's FFT takes in radix-2, 3 and 5 passes."""
    best = 2
    while best < m:
        best *= 2
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            n = 2 * p35
            while n < m:
                n *= 2
            best = min(best, n)
            p35 *= 3
        p5 *= 5
    return best


def _lagrange_weights(t: np.ndarray, offsets: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """Lagrange weights of the integer ``offsets`` at ``t``, one row per offset.

    Products of all factors but one come from prefix and suffix products, so a
    t exactly on a node gives weight 1 there and 0 elsewhere.
    """
    diffs = t[np.newaxis, :] - offsets[:, np.newaxis]
    ones = np.ones((1, t.size))
    before = np.cumprod(np.vstack((ones, diffs[:-1])), axis=0)
    after = np.cumprod(np.vstack((ones, diffs[:0:-1])), axis=0)[::-1]
    return before * after / denominators[:, np.newaxis]


@dataclass(frozen=True)
class OpticalSinogram:
    """Rotated-quadrature marginals w(X, phi) on a uniform (phi, X) grid.

    ``values[i, j] = w(x_axis[j], phi_axis[i])``.  The n angles tile [0, pi):
    they increase in steps of pi / n from a start in [0, pi / n), the step
    that filtered backprojection and the angle fold take.  Every column is a
    probability density in X; construction checks each one integrates to 1
    within 5e-2 (looser checks belong to callers).
    """

    phi_axis: np.ndarray
    x_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi_axis, dtype=float)
        x = np.asarray(self.x_axis, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "phi_axis", phi)
        object.__setattr__(self, "x_axis", x)
        object.__setattr__(self, "values", v)
        if phi.ndim != 1 or phi.size < 1:
            raise ValueError("phi_axis must be a 1-D grid")
        if phi[0] < 0.0 or phi[-1] >= math.pi:
            raise ValueError("phi_axis must lie inside [0, pi)")
        # the angle step of filtered backprojection and of the angle fold
        if phi.size > 1 and not math.isclose(_uniform_spacing(phi, "phi_axis"), math.pi / phi.size, rel_tol=1e-9):
            raise ValueError(f"phi_axis must tile [0, pi): its {phi.size} angles need the step pi / {phi.size}")
        _uniform_spacing(x, "x_axis")
        if v.shape != (phi.size, x.size):
            raise ValueError(f"values shape {v.shape} does not match axes ({phi.size}, {x.size})")
        if not np.all(np.isfinite(v)):
            raise ValueError("sinogram values must be finite")
        norms = self.column_norms()
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > 5e-2:
            raise ValueError(f"sinogram columns must be normalized; worst deviation {worst:.3e}")

    def column_norms(self) -> np.ndarray:
        """Trapezoid integral of each phi-row over X."""
        return self.values @ _uniform_trapezoid(self.x_axis.size, _uniform_spacing(self.x_axis, "x_axis"))

    @classmethod
    def from_evaluator(cls, evaluator: Callable, phi_axis, x_axis) -> "OpticalSinogram":
        """Sample optical slices of a (Y, mu, nu) evaluator on the grid.

        The evaluator is called on the blocks of :func:`~iontomo.states._row_blocks`,
        whole angle rows of about 4096 points, so its scratch stays bounded
        however large the grid: ``Y`` is the X axis and ``mu``, ``nu`` a column
        of the block's angles, which the evaluator must broadcast against it.
        """
        phi_axis = np.asarray(phi_axis, dtype=float)
        x_axis = np.asarray(x_axis, dtype=float)
        values = np.empty((phi_axis.size, x_axis.size))
        for b in _row_blocks(phi_axis.size, x_axis.size):
            values[b] = optical_slice(evaluator, phi_axis[b, None], x_axis)
        return cls(phi_axis=phi_axis, x_axis=x_axis, values=values)

    def save(self, path: str, fmt: str = "csv") -> None:
        """Write as CSV rows ``phi,x,w`` or as the JSON+binary container."""
        _container.save_grid(path, fmt, "sinogram", self.phi_axis, self.x_axis, self.values)

    @staticmethod
    def load(path: str) -> "OpticalSinogram":
        phi_axis, x_axis, values = _container.load_grid(path, "sinogram")
        return OpticalSinogram(phi_axis=phi_axis, x_axis=x_axis, values=values)


#: Fine samples per X sample in the table that filtered backprojection reads.
#: On criterion 9b, 2 gave 2.1e-3, 4 gave 5.3e-4 and 8 gave 1.3e-4.  On a
#: 360 x 513 sinogram onto 201^2, 8 took 1.4x as long as 4, and 4 as long as the
#: linear reading of the X samples that it replaced.
_FBP_UPSAMPLE = 4
#: Clip of each term of a backprojected position, in fine samples: two terms
#: sum to at most 2^62, which an intp holds.
_FBP_REACH = 2.0 ** 61


def radon_reconstruct(sinogram: OpticalSinogram, q_axis, p_axis) -> WignerGrid:
    """Wigner function from an optical sinogram by filtered backprojection.

    Each angular projection is convolved with the band-limited Ram-Lak
    kernel, h[0] = 1 / (4 dx^2), h[j] = -1 / (pi j dx)^2 for odd j and 0 for
    even j != 0 (Kak & Slaney, *Principles of Computerized Tomographic
    Imaging*, eq. 3.61).  Its spectrum follows |omega| up to the Nyquist
    frequency but keeps a small positive DC term, the sum of the kernel over
    the padded row; a sampled ramp |omega| is 0 there and loses about 1.8% of
    the normalization.  With the 2 pi Wigner convention the overall scale is
    exactly the angle step: W = dphi * sum_phi filtered_phi(q cos phi + p sin phi).

    The whole filtered row is backprojected, not only its n samples on the X
    axis: the row sits at offset (N - n) // 2 of N zeros, N the smallest even
    2^a 3^b 5^c >= 2 n - 1, and the circular convolution holds filtered tail
    on each side, which points past the X range, such as a square grid's
    corners, read.  It is the linear convolution on the window and
    N / 2 - (n - 1) samples past each end of it (28 at n = 513, N = 1080);
    further out it carries the kernel's wrapped-around tail, and (N - n) // 2
    samples past each end the row reads 0.  The inverse FFT of each row runs
    to ``_FBP_UPSAMPLE`` (4) N points: the spectrum zero-padded, with its
    Nyquist bin halved, is the band-limited interpolant at 4x the X
    sampling (Kak & Slaney, ch. 3).  Points are read linearly between these
    fine samples and a zero sample past each end, and as exactly 0 further
    out.  On criterion 9b (an even cat, alpha 2, 180 x 257 over [-8, 8] onto
    121^2) the rel-L2 error is 5.3e-4, where linear reading of the X samples
    with the tails as 0 gave 8.5e-3.
    The fine table and its slopes take 8 x 4 N bytes each, and the inverse
    FFT's zero-padded spectrum as much again: 128 MiB each for a 16-angle
    sinogram at the CLI's 256 MiB array cap (n = 2^21, where N = 2^22 is
    itself the smallest such length).  Each angle's q and p terms are clipped
    to +-2^61 fine samples, so their sum casts to an index without overflow;
    that far out a double resolves no fine sample, and the grid's
    normalization shows the miss.

    Raises
    ------
    InsufficientAnglesError
        With fewer than 16 angles.
    """
    if sinogram.phi_axis.size < 16:
        raise InsufficientAnglesError(
            f"filtered backprojection needs >= 16 angles, got {sinogram.phi_axis.size}"
        )

    x = sinogram.x_axis
    n = x.size
    dx = _uniform_spacing(x, "x_axis")
    nfft = _fft_length(2 * n - 1)
    # laid out circularly, the kernel's product with a zero-padded row is their linear convolution
    j = np.minimum(np.arange(nfft), nfft - np.arange(nfft))
    h = np.where(j % 2 == 1, -1.0 / (math.pi * np.maximum(j, 1) * dx) ** 2, 0.0)
    h[0] = 1.0 / (4.0 * dx * dx)
    # irfft to U nfft points divides by U nfft; the Nyquist bin is halved so its
    # two halves at +-nfft / 2 give the real, symmetric band-limited interpolant
    filt = (2.0 * math.pi * dx * _FBP_UPSAMPLE) * np.fft.rfft(h).real
    filt[-1] *= 0.5

    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    out = np.zeros((q_axis.size, p_axis.size))
    # per-angle scratch, allocated once and filled in place
    u, gathered = np.empty_like(out), np.empty_like(out)
    k = np.empty(out.shape, dtype=np.intp)
    s0 = (nfft - n) // 2
    padded, spectrum = np.zeros(nfft), np.empty(filt.size, dtype=complex)
    fine = _FBP_UPSAMPLE * nfft
    # level[2 + i] is the filtered row at buffer position i / U, between a zero
    # sample on each side; the zero entry and zero slope at each end then make
    # every point further out read 0, whichever way the index clips
    level, slope = np.zeros(fine + 3), np.zeros(fine + 3)
    base = _FBP_UPSAMPLE * s0 + 2  # table index of x[0]
    scale = _FBP_UPSAMPLE / dx
    for phi, row in zip(sinogram.phi_axis, sinogram.values):
        padded[s0:s0 + n] = row
        np.fft.rfft(padded, out=spectrum)
        spectrum *= filt
        np.fft.irfft(spectrum, n=fine, out=level[2:-1])
        np.subtract(level[2:], level[1:-1], out=slope[1:-1])
        # u is t = q cos(phi) + p sin(phi) in fine samples from x[0]: a row fill and
        # a contiguous add, where one broadcast add walks its column operand slowly
        np.copyto(u, np.clip((q_axis * math.cos(phi) - x[0]) * scale, -_FBP_REACH, _FBP_REACH)[:, np.newaxis])
        u += np.clip(p_axis * (math.sin(phi) * scale), -_FBP_REACH, _FBP_REACH)
        np.floor(u, out=gathered)
        u -= gathered
        np.copyto(k, gathered, casting="unsafe")
        k += base
        u *= slope.take(k, mode="clip", out=gathered)
        u += level.take(k, mode="clip", out=gathered)
        out += u

    out *= math.pi / sinogram.phi_axis.size
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=out)


def sinogram_evaluator(sinogram: OpticalSinogram) -> Callable:
    """Full-plane tomogram evaluator interpolated from an optical sinogram.

    Homogeneity extends the unit-circle data to every frame:
    w(Y, mu, nu) = r^{-1} w_opt(Y / r, phi) with r = sqrt(mu^2 + nu^2) and
    (mu, nu) = r (cos phi, sin phi); angles outside [0, pi) fold back via
    w(X, phi + pi) = w(-X, phi).  Interpolation is bicubic on the (phi, X)
    grid with angle rows wrapped under that fold, 0 outside the X range.

    Raises
    ------
    ValueError
        When the sinogram has fewer than 2 angles or its X axis is not
        symmetric about 0.
    """
    grid = _wrapped_grid(sinogram)

    def evaluator(Y, mu, nu):
        angle, k = _fold(np.asarray(mu, dtype=float), np.asarray(nu, dtype=float))
        if np.any(k == 0.0):
            raise DegenerateFrameError("tomogram frame (mu, nu) = (0, 0) has no density")
        r = np.abs(k)
        return grid.interpolate(angle, np.sign(k) * np.asarray(Y, dtype=float) / r) / r

    return evaluator


def _fold(mu, nu):
    """Angle phi in [0, pi] and signed radius k of the frame (mu, nu) = k (cos phi, sin phi).

    k = -sqrt(mu^2 + nu^2) where the frame folds back from below the axis,
    since w(X, phi + pi) = w(-X, phi).
    """
    r = np.hypot(mu, nu)
    angle = np.arctan2(nu, mu)
    flip = angle < 0.0
    return np.where(flip, angle + math.pi, angle), np.where(flip, -r, r)


def _wrapped_grid(sinogram: OpticalSinogram) -> WignerGrid:
    """The sinogram on a (phi, X) grid with two wrap rows on each side of [0, pi).

    The wrap rows use row(phi + pi) = row(phi) with X reversed, so a 4-point
    Catmull-Rom stencil in phi stays on the grid for every angle in [0, pi].
    """
    phi = sinogram.phi_axis
    nphi = phi.size
    if nphi < 2:
        raise ValueError(f"sinogram has {nphi} angle(s); interpolation in phi needs at least 2")
    dphi = math.pi / nphi
    x = sinogram.x_axis
    if abs(x[0] + x[-1]) > 1e-9 * (x[-1] - x[0]):
        raise ValueError(f"sinogram X axis [{x[0]:.6g}, {x[-1]:.6g}] is not symmetric about 0, "
                         "as the fold w(X, phi + pi) = w(-X, phi) needs")

    v = sinogram.values
    ext = np.concatenate((v[-2:, ::-1], v, v[:2, ::-1]))
    ext_phi = np.concatenate((phi[0] - dphi * np.array([2.0, 1.0]), phi, phi[-1] + dphi * np.array([1.0, 2.0])))
    return WignerGrid(q_axis=ext_phi, p_axis=x, values=ext)

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

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _container
from ._checks import checked_rows, row_integrals
from .errors import DegenerateFrameError
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
    slices determine it.  The coefficients come from
    :func:`~iontomo._fourier._node_spectra`, within about 1e-12 of max |F|
    of the trapezoid sum at each node, and 2.8e-15 of max |W| on the
    benchmark's 180x321 sinogram at seed 0.

    Only the half plane of the first ``(n_nodes + 1) // 2`` mu rows is
    evaluated and contracted.  The rest follows from
    F(-mu, -nu) = conj F(mu, nu), which holds because homogeneity at
    lambda = -1 gives w(Y, -mu, -nu) = w(-Y, mu, nu), the fold every sinogram
    is read with: on nodes made exactly antisymmetric, the mirrored rows add
    the conjugate of the half plane's term, so W = Re(A_h F_h B) / 2 pi with
    the half plane's mu weights doubled (the middle row of an odd
    ``n_nodes`` kept once).  The product is taken in blocks of p columns, so
    no complex q x n_nodes or n_nodes x n_p product sits beside F_h.

    The sinogram is read in one pass, one row block at a time, and neither
    it nor a table of its rows' spectra is ever held whole: the memory is
    F_h, its node order, a window of the row spectra of about 4096 X
    samples and the stencil scratch of a few hundred nodes, then A_h and W
    beside F_h, and it does not grow with the number of angles.  The
    tracemalloc peak is 0.80 MiB on the benchmark's 180x321 sinogram and
    0.88 MiB on a 1024x513 one, where a table of every row's spectrum took
    1.55 and 6.54 MiB.

    The grid is returned whatever its normalization, as from
    :func:`radon_reconstruct`; ``grid.integral()`` far from 1 means k_max or
    the output window is too small, and the caller gates it.

    ``sinogram`` is an :class:`OpticalSinogram` or its row blocks, such as
    :func:`~iontomo._container.grid_rows` yields them from a file; blocks
    are checked as they arrive, as :class:`OpticalSinogram` checks its
    values, and the first fault is raised once the last block is read.

    Raises
    ------
    ValueError
        When the sinogram is invalid, or has fewer than 2 angles or an X axis
        not symmetric about 0.
    """
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    nodes = np.linspace(-k_max, k_max, n_nodes)
    # exactly antisymmetric (moves linspace by at most 1 ulp), so row and
    # column n - 1 - i hold the mirrored frame (-mu, -nu)
    nodes = 0.5 * (nodes - nodes[::-1])
    half = (n_nodes + 1) // 2
    from ._fourier import _node_spectra

    F = _node_spectra(sinogram, nodes[:half, np.newaxis], nodes)

    # separable phase factors turn the double (mu, nu) sum into two matmuls.  The
    # mirrored row n - 1 - i adds the conjugate of row i's term, so the real part
    # counts row i twice, and the middle row of an odd n_nodes once
    w_nodes = _uniform_trapezoid(n_nodes, _uniform_spacing(nodes, "nodes"))
    w_rows = 2.0 * w_nodes[:half]
    w_rows[n_nodes // 2:] *= 0.5
    A = np.multiply.outer(q_axis, nodes[:half]) * -1j
    np.exp(A, out=A)
    A *= w_rows
    values = np.empty((q_axis.size, p_axis.size))
    for b in _row_blocks(p_axis.size, n_nodes):
        B = np.multiply.outer(nodes, p_axis[b]) * -1j
        np.exp(B, out=B)
        B *= w_nodes[:, np.newaxis]
        values[:, b] = np.real(A @ (F @ B)) / (2.0 * math.pi)
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=values)


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


@dataclass(frozen=True)
class OpticalSinogram:
    """Rotated-quadrature marginals w(X, phi) on a uniform (phi, X) grid.

    ``values[i, j] = w(x_axis[j], phi_axis[i])``.  The n angles tile [0, pi):
    they increase in steps of pi / n from a start in [0, pi / n), the step
    that filtered backprojection and the angle fold take.  Every column is a
    probability density in X; construction checks each one integrates to 1
    within 5e-2 (looser checks belong to callers).

    This is the in-memory form.  The CLI moves a sinogram only as row
    blocks: sampled by :func:`_sample_rows`, checked by :func:`~iontomo._checks.checked_rows`,
    written and read by :func:`~iontomo._container.save_grid` and
    :func:`~iontomo._container.grid_rows`, and taken by
    :func:`radon_reconstruct` and :func:`invert_to_wigner` as they arrive;
    the methods here collect the same blocks into the arrays.
    """

    phi_axis: np.ndarray
    x_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("phi_axis", "x_axis", "values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for _ in checked_rows(_blocks(self)):
            pass

    def column_norms(self) -> np.ndarray:
        """Trapezoid integral of each phi-row over X, with the bits of :func:`~iontomo._checks.row_integrals`."""
        return row_integrals(self.values, _uniform_trapezoid(self.x_axis.size, _uniform_spacing(self.x_axis, "x_axis")))

    @classmethod
    def from_evaluator(cls, evaluator: Callable, phi_axis, x_axis) -> "OpticalSinogram":
        """Sample optical slices of a (Y, mu, nu) evaluator on the grid, the blocks of :func:`_sample_rows`."""
        return cls(*_container._collect(_sample_rows(evaluator, np.asarray(phi_axis, dtype=float),
                                                     np.asarray(x_axis, dtype=float))))

    def save(self, path: str, fmt: str = "csv") -> None:
        """Write as CSV rows ``phi,x,w`` or as the JSON+binary container."""
        _container.save_grid(path, fmt, "sinogram", self.phi_axis, self.x_axis, [self.values])

    @staticmethod
    def load(path: str) -> "OpticalSinogram":
        return OpticalSinogram(*_container.load_grid(path, "sinogram"))


def _sample_rows(evaluator: Callable, phi_axis: np.ndarray, x_axis: np.ndarray):
    """Optical slices of a (Y, mu, nu) evaluator on the grid, as row blocks ``(phi, x_axis, values, total)``.

    The evaluator is called on the blocks of :func:`~iontomo.states._row_blocks`,
    whole angle rows of about 4096 points, so its scratch stays bounded
    however large the grid: ``Y`` is the X axis and ``mu``, ``nu`` a column
    of the block's angles ``phi``, which the evaluator must broadcast against
    it.  ``total`` is the number of angles; an empty grid gives one empty block.
    """
    for b in _row_blocks(max(1, phi_axis.size), x_axis.size):
        yield phi_axis[b], x_axis, optical_slice(evaluator, phi_axis[b, None], x_axis), phi_axis.size


def _blocks(sinogram):
    """The row blocks of ``sinogram``: an :class:`OpticalSinogram` as one block, any other as it is."""
    if isinstance(sinogram, OpticalSinogram):
        return [(sinogram.phi_axis, sinogram.x_axis, sinogram.values, sinogram.phi_axis.size)]
    return sinogram


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

    ``sinogram`` is an :class:`OpticalSinogram` or its row blocks, such as
    :func:`~iontomo._container.grid_rows` yields them from a file.  Each
    angle row is backprojected as it arrives and dropped, so the memory is
    the output, its scratch and the tables above, whatever the number of
    angles; the blocks are checked as :class:`OpticalSinogram` checks its
    values, and the first fault is raised once the last block is read.

    Raises
    ------
    InsufficientAnglesError
        With fewer than 16 angles.
    ValueError
        When the sinogram is invalid.
    """
    blocks = checked_rows(_blocks(sinogram), fbp=True)
    first = next(blocks)
    x = first[1]
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
    n_phi = 0
    for phis, _, values, _ in itertools.chain([first], blocks):
        n_phi += len(phis)
        for phi, row in zip(phis, values):
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

    out *= math.pi / n_phi
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
    Catmull-Rom stencil in phi stays on the grid for every angle in [0, pi];
    ValueError where :func:`~iontomo._checks.checked_rows` finds that the fold cannot read the sinogram.
    """
    for _ in checked_rows(_blocks(sinogram), fold=True):
        pass
    phi, v = sinogram.phi_axis, sinogram.values
    dphi = math.pi / phi.size
    ext = np.concatenate((v[-2:, ::-1], v, v[:2, ::-1]))
    ext_phi = np.concatenate((phi[0] - dphi * np.array([2.0, 1.0]), phi, phi[-1] + dphi * np.array([1.0, 2.0])))
    return WignerGrid(q_axis=ext_phi, p_axis=sinogram.x_axis, values=ext)

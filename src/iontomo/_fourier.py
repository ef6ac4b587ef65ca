"""The spectral core of the Fourier inversion: a sinogram's coefficients F(mu, nu), read in one pass.

:func:`~iontomo.tomography.invert_to_wigner` imports this module on its
first call, so the CLI steps that do not invert by Fourier transform never
compile it, and :mod:`iontomo.tomography` stays within its parser-token step
(``tests/test_startup.py``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._checks import checked_rows
from .states import _EVAL_BLOCK_POINTS, _row_blocks, _stencil, _uniform_spacing, _uniform_trapezoid
from .tomography import _blocks, _fft_length, _fold

#: FFT length of a sinogram row, as a multiple of its sample count (rounded up
#: by :func:`_fft_length`): the k grid then samples each row spectrum at least
#: 8x finer than its bandwidth, the half-length of the X range.
_K_OVERSAMPLE = 8
#: Points of the Lagrange stencil that reads a row spectrum between k nodes.
#: At 8x oversampling 16 points keep the error near 1e-12 of max |F| even for
#: rows with their mass on the X ends; 10 points leave about 1e-9 there.
_K_STENCIL = 16
#: Rows per rfft call, at most: bounds the zero-padded FFT buffers to this
#: many rows, and to the rows of one block of about 4096 X samples.
_FFT_BLOCK_ROWS = 8
#: Frames per stencil evaluation in :func:`_node_spectra`; bounds its scratch,
#: about 0.8 KB a frame, below what the contraction of F holds after it.  512
#: frames ran 2 ms faster on the benchmark's 180x321 inversion (21 ms on a
#: shared 2-vCPU host), but a
#: 256 x 513 sinogram, whose blocks complete 512 frames each, then peaked
#: 0.14 MB above the same grid on 1024 angles.
_FRAME_BLOCK = 256


def _node_spectra(sinogram, mu, nu) -> np.ndarray:
    """Coefficients F(mu, nu) = integral w(Y, mu, nu) exp(i Y) dY, broadcast over ``mu`` and ``nu``.

    By homogeneity the coefficient on the ray (mu, nu) = r (cos phi, sin phi)
    is the 1-D transform of one marginal, F = integral w_opt(X, phi)
    exp(i k X) dX with k = r, or k = -r where phi folds back into [0, pi);
    F(0, 0) is 1.  The marginal at phi combines four angle rows of the
    wrapped sinogram with the Catmull-Rom weights of
    :func:`~iontomo.tomography.sinogram_evaluator`: wrapped row r is
    sinogram row r - 2, rows 0, 1 and n + 2, n + 3 are the last two and
    first two rows with X reversed (row(phi + pi) = row(phi) reversed, on
    the X axis symmetric about 0 that the fold requires), and row n + 4 is
    zero.  The transform is linear in
    the marginal, so the weights combine the rows' spectra, each the
    trapezoid sum sum_j w_j exp(i k x_j) on the sinogram's own X samples:
    nothing is interpolated in X.  A row's sum is taken once for all k, by a
    zero-padded rfft of length n = ``_fft_length(_K_OVERSAMPLE n_x)`` (at
    least 8x oversampled in k, the smallest bandwidth being half the X
    range), of which only the columns of 0 <= k <= hypot(max |mu|, max |nu|),
    at most one period, and a stencil guard on each side are kept; a frame
    reads them at |k| by a ``_K_STENCIL``-point Lagrange stencil and
    conjugates where k < 0 (the rows are real).

    One pass over the rows serves every frame.  The angle count n is
    pi / (phi_1 - phi_0), from the first step, and the frames are sorted
    once by the base row of their angle stencil.  Each block is cut into
    blocks of about 4096 X samples, whose rows' spectra go into a window of
    those rows and the three before them, and every frame whose four rows
    are then present is evaluated, ``_FRAME_BLOCK`` frames per call.  The
    first three rows are kept for the frames near phi = 0, evaluated at the
    end beside the last two rows' wrap rows.  The sinogram, an
    :class:`~iontomo.tomography.OpticalSinogram` or its row blocks, is
    checked as :func:`~iontomo._checks.checked_rows` checks it; a first step that
    disagrees with the row count fails there, once the last block is read,
    before any frame near phi = 0 is evaluated.
    """
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    k_reach = float(np.hypot(np.max(np.abs(mu), initial=0.0), np.max(np.abs(nu), initial=0.0)))
    mu, nu = np.broadcast_arrays(mu, nu)
    F = np.ones(mu.shape, dtype=complex)
    out = F.reshape(-1)
    blocks = checked_rows(_blocks(sinogram), fold=True)
    first = next(blocks)
    x = first[1]
    dx = _uniform_spacing(x, "x_axis")
    trapezoid = _uniform_trapezoid(x.size, dx)
    n_fft = _fft_length(_K_OVERSAMPLE * x.size)
    dk = 2.0 * math.pi / (n_fft * dx)
    half = _K_STENCIL // 2
    cols = np.arange(min(int(k_reach / dk), n_fft) + 2 * half + 2) - half
    # the X sum at k = c dk is conj(rfft[c mod n]) up to n / 2 and rfft[n - c mod n] past it
    wrapped = cols % n_fft
    upper = wrapped > n_fft // 2
    column = np.where(upper, n_fft - wrapped, wrapped)
    phase = np.exp(1j * (cols * dk) * x[0])
    n_cols, odd_x = cols.size, (x.size - 1) % 2
    offsets = np.arange(_K_STENCIL) - (half - 1)
    denominators = np.array([np.prod([float(d - e) for e in offsets if e != d]) for d in offsets])
    taps = np.arange(_K_STENCIL)[:, np.newaxis]
    block_rows = max(1, _EVAL_BLOCK_POINTS // x.size)  # the rows of a block from _row_blocks
    per_call = min(_FFT_BLOCK_ROWS, block_rows)

    def fill(table, at, values):
        for start in range(0, len(values), per_call):
            spec = np.fft.rfft(values[start:start + per_call] * trapezoid, n=n_fft)[:, column]
            np.conjugate(spec, out=spec, where=~upper)
            np.multiply(spec, phase, out=table[at + start:at + start + spec.shape[0]])

    def bucket(phi_0, phi_1):
        """The wrapped angle axis ``(start, step, rows)`` that n = pi / (phi_1 - phi_0) angles give, the
        frames' order by the base row of their angle stencil on it, and those rows, sorted; (0, 0) sorts first."""
        gap = float(phi_1 - phi_0)
        count = math.pi / gap if gap > 0.0 else 0.0
        if not 2.0 <= count < 2.0 ** 53:  # checked_rows raises once the last block is read
            return None, np.empty(0, dtype=int), np.empty(0, dtype=int)
        n = round(count)
        axis = (phi_0 - math.pi / n * 2.0, math.pi / n, n + 4)
        bases = np.empty(out.size, dtype=np.min_scalar_type(-(n + 4)))
        for s in range(0, out.size, _FRAME_BLOCK):
            angle, k = _fold(mu.flat[s:s + _FRAME_BLOCK], nu.flat[s:s + _FRAME_BLOCK])
            bases[s:s + _FRAME_BLOCK] = np.where(k == 0.0, -1, _stencil(angle, *axis)[0])
        order = np.argsort(bases, kind="stable").astype(np.min_scalar_type(out.size))
        bases.sort()
        return axis, order, bases

    def evaluate(table, top, lo, hi):
        """F at the frames ``order[lo:hi]``, whose rows are in ``table`` from wrapped row ``top`` on."""
        for start in range(lo, hi, _FRAME_BLOCK):
            at = order[start:min(start + _FRAME_BLOCK, hi)]
            out[at] = frames(table.reshape(-1), top, *_fold(mu.flat[at], nu.flat[at]))

    def frames(flat, top, angle, k):
        """F at the frames of angles ``angle`` and signed radii ``k``, from the wrapped rows in ``flat``."""
        i, w, _ = _stencil(angle, *axis)
        s = np.abs(k) / dk
        # on an X axis symmetric about 0 the X sum repeats every n_fft
        # columns up to the sign (-1)^(n_x - 1), so the table holds at most one period
        periods = np.floor(s / n_fft)
        s -= periods * n_fft
        j = s.astype(int)
        lagrange = _lagrange_weights(s - j, offsets, denominators)
        gathered = np.empty(lagrange.shape, dtype=complex)
        # the stencil of |k| = (j + t) dk covers columns j + 1 .. j + _K_STENCIL of rows i - 1 .. i + 2
        cells = ((i - 1 - top) * n_cols + j + 1)[np.newaxis, :] + taps
        row_sum = 0.0
        for a in range(4):
            flat[a * n_cols:].take(cells, out=gathered, mode="clip")
            gathered.real *= lagrange  # in parts, which casts nothing
            gathered.imag *= lagrange
            row_sum = row_sum + w[a] * gathered.sum(axis=0)
        row_sum = np.where(periods % 2 * odd_x == 1.0, -row_sum, row_sum)
        return np.where(k < 0.0, np.conj(row_sum), row_sum)

    # wrapped rows top .. top + rows - 1 of the three before a block and the block's; the end adds three
    window = np.empty((3 + max(3, block_rows), n_cols), dtype=complex)
    rows, top, done, order, bases = 0, 2, 0, None, np.empty(0, dtype=int)
    angles, first_rows, last_rows = np.empty(0), np.empty((0, x.size)), np.empty((0, x.size))

    def advance(values, zeros=0):
        """Moves the window past the spectra of ``values`` and ``zeros`` zero rows; evaluates the frames it completes."""
        nonlocal rows, top, done
        keep = min(rows, 3)
        top += rows - keep
        for r in range(keep):  # row by row, so no overlapping copy is buffered
            window[r] = window[rows - keep + r]
        rows = keep + len(values) + zeros
        fill(window, keep, values)
        window[rows - zeros:rows] = 0.0
        # a frame of base row i reads wrapped rows i - 1 .. i + 2
        stop = int(np.searchsorted(bases, top + rows - 2))
        if stop > done:
            evaluate(window, top, done, stop)
            done = stop

    for phi, _, values, _ in itertools.chain([first], blocks):
        for b in _row_blocks(len(phi), x.size):
            if order is None:
                angles = np.concatenate((angles, phi[b]))[:2]
                if len(angles) == 2:
                    axis, order, bases = bucket(*angles)
                    done = int(np.searchsorted(bases, 3))
            if len(first_rows) < 3:
                first_rows = np.concatenate((first_rows, values[b][:3 - len(first_rows)]))
            last_rows = np.concatenate((last_rows, values[b][-2:]))[-2:]
            advance(values[b])
    advance(first_rows[:2, ::-1], zeros=1)
    # the frames near phi = 0 read wrapped rows -1 (zero) .. 4, the first three after the wrap rows
    low = window[:6]
    low[0] = 0.0
    fill(low, 1, np.concatenate((last_rows[:, ::-1], first_rows, first_rows[:2, ::-1]))[:5])
    evaluate(low, -1, int(np.searchsorted(bases, 0)), int(np.searchsorted(bases, 3)))
    return F


def _lagrange_weights(t: np.ndarray, offsets: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """Lagrange weights of the integer ``offsets`` at ``t``, one row per offset.

    Products of all factors but one come from prefix and suffix products, so a
    t exactly on a node gives weight 1 there and 0 elsewhere.
    """
    diffs = t - offsets[:, np.newaxis]
    weights = np.ones_like(diffs)
    np.cumprod(diffs[:-1], axis=0, out=weights[1:])
    # diffs[r] becomes the product of diffs r .. end, the factors after row r - 1
    np.cumprod(diffs[::-1], axis=0, out=diffs[::-1])
    weights[:-1] *= diffs[1:]
    weights /= denominators[:, np.newaxis]
    return weights

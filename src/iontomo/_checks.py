"""The checks of an optical sinogram, taken on its row blocks as they arrive.

A sinogram moves through the CLI as row blocks ``(phi, x, values, total)``:
the block's angles, the X axis, their ``(len(phi), len(x))`` values and the
number of angles, a bound on it, or None where nothing counted it (a CSV
file as the reconstructions read it).  :func:`checked_rows` passes the blocks
on while they are valid and raises the first fault once the last block is
read, so :class:`~iontomo.tomography.OpticalSinogram`, the CLI's sampling and
both reconstructions hold one set of checks, raised in one order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InsufficientAnglesError
from .states import _uniform_spacing, _uniform_trapezoid


def row_integrals(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``values @ weights`` summed in one fixed order, the same bits for a row in any block or memory layout.

    BLAS picks its kernel and summation order by the shape and thread count
    (under OpenBLAS, 77 of 360 rows of 513 differ between one call and calls
    of 7 rows), and einsum by the strides, so the rows are made contiguous.
    """
    return np.einsum("ij,j->i", np.ascontiguousarray(values), weights)


def checked_rows(blocks, *, fbp: bool = False, fold: bool = False):
    """The row blocks that ``blocks`` yields while they are valid, then the sinogram's first fault.

    ``blocks`` yields at least one block, and every block is read.  The
    blocks are passed on as they arrive until one is invalid on its own: an
    X axis that is not uniform (or, with ``fold``, not symmetric about 0), a
    value that is not finite, or a row whose trapezoid integral is off 1 by
    more than 5e-2.  After the last block, the first fault is raised in the
    order of these checks: the angles (at least one, inside [0, pi), in
    steps of pi / n), the X axis, the shape, finite values, the worst
    integral; then with ``fbp`` at least 16 angles (InsufficientAnglesError),
    and with ``fold``, which the angle wrap of the Fourier inversion and of
    :func:`~iontomo.tomography.sinogram_evaluator` needs, at least 2 angles
    and the X axis symmetric about 0.  So a consumer's work after its loop
    runs only on a valid sinogram.  The integrals are :func:`row_integrals`,
    so a row's deviation has the same bits in any block.
    """
    phis, fault, finite, worst = [], None, True, 0.0
    for block in blocks:
        phi, x, values = block[:3]
        if not phis:
            try:
                trapezoid = _uniform_trapezoid(x.size, _uniform_spacing(x, "x_axis"))
                symmetric = abs(x[0] + x[-1]) <= 1e-9 * (x[-1] - x[0])
            except ValueError as exc:
                fault = exc
        phis.append(phi)
        if fault is None and values.shape != (phi.size, x.size):
            fault = ValueError(f"values shape {values.shape} does not match axes ({phi.size}, {x.size})")
        if fault is None and finite:
            finite = bool(np.all(np.isfinite(values)))
            if finite:
                worst = max(worst, float(np.max(np.abs(row_integrals(values, trapezoid) - 1.0), initial=0.0)))
        if fault is None and finite and worst <= 5e-2 and (symmetric or not fold):
            yield block

    phi = phis[0] if len(phis) == 1 else np.concatenate(phis)
    if phi.ndim != 1 or phi.size < 1:
        raise ValueError("phi_axis must be a 1-D grid")
    if phi[0] < 0.0 or phi[-1] >= math.pi:
        raise ValueError("phi_axis must lie inside [0, pi)")
    # the angle step of filtered backprojection and of the angle fold
    if phi.size > 1 and not math.isclose(_uniform_spacing(phi, "phi_axis"), math.pi / phi.size, rel_tol=1e-9):
        raise ValueError(f"phi_axis must tile [0, pi): its {phi.size} angles need the step pi / {phi.size}")
    if fault is not None:
        raise fault
    if not finite:
        raise ValueError("sinogram values must be finite")
    if worst > 5e-2:
        raise ValueError(f"sinogram columns must be normalized; worst deviation {worst:.3e}")
    if fbp and phi.size < 16:
        raise InsufficientAnglesError(f"filtered backprojection needs >= 16 angles, got {phi.size}")
    if fold and phi.size < 2:
        raise ValueError(f"sinogram has {phi.size} angle(s); interpolation in phi needs at least 2")
    if fold and not symmetric:
        raise ValueError(f"sinogram X axis [{x[0]:.6g}, {x[-1]:.6g}] is not symmetric about 0, "
                         "as the fold w(X, phi + pi) = w(-X, phi) needs")

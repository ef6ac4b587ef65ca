"""Independent oracles the tests compare the package against.

:func:`project_wigner` integrates a Wigner function along one quadrature
line, so it checks every analytic tomogram without their moment formulas.
No CLI step runs it, so it lives here and not in ``src/``.
"""

import math
import warnings
from typing import Callable, Union

import numpy as np

from iontomo import DegenerateFrameError, WignerGrid
from iontomo.states import _uniform_trapezoid
from iontomo.tomography import _support


class SupportTruncationWarning(UserWarning):
    """Evaluation grid leaves non-negligible mass at its boundary."""


WignerSource = Union[WignerGrid, Callable]


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

"""Command-line entry point: dataset generation, reconstruction, verification.

Subcommands: ``epsilon``, ``tomogram``, ``reconstruct``, ``verify``.  Each
reads a single JSON config (``--config``); the flags ``--out`` and
``--format`` override the config keys of the same name, and ``--plot`` draws
an SVG next to the output.  Unknown config keys are rejected before any
compute.  Exit codes: 0 success, 1 numeric failure of a computed result
(solver tolerance, residual or reconstruction thresholds), 2
usage/config/input-validation error.

All computation is vectorized serial numpy, and BLAS runs on one thread
unless the user sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``, so outputs are byte-identical from run to run and on any
core count.

A process (the ``iontomo`` script, ``python -m iontomo.cli``) enters through
:func:`run`, which ends it without an exit-time collection over its heap;
:func:`main` is the in-process entry and leaves the caller's ``gc`` state alone.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import gc
import json
import math
import os
import sys

if "numpy" not in sys.modules:
    # One CLI step gains nothing from BLAS threads: OpenBLAS starts one worker
    # per core at import, which spins ~0.1 s of CPU idle, and a threaded matmul
    # (the Fourier inversion's A @ F @ B) makes the output bytes depend on the
    # core count.  A value set by the user wins; a host that already loaded
    # numpy is left as it is, since the setting could only leak to its children.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread setting)

from . import _svg  # noqa: E402
from ._container import _atomic_write, _save_csv_blocks, save_csv_rows  # noqa: E402
from .errors import (  # noqa: E402
    ConfigError,
    DegenerateFrameError,
    InsufficientAnglesError,
    NormalizationDivergenceError,
    SolverError,
)
from .oscillator import (  # noqa: E402
    OscillatorParams, _blocks, _epsilon_points, _step_count, _wronskian, epsilon_at,
    solve_epsilon,  # noqa: F401  (unused here; kept in this namespace for perfbench/traced_cli.py)
)
from .states import (CatSpec, GaussianState, WignerGrid, _row_blocks, _uniform_spacing,  # noqa: E402
                     evolve_wigner, wigner_cat, wigner_gaussian)
from .tomography import (  # noqa: E402
    OpticalSinogram,
    evolve_tomogram,
    invert_to_wigner,
    radon_reconstruct,
    sinogram_evaluator,  # noqa: F401  (unused here; kept in this namespace for perfbench/traced_cli.py)
    tomogram_cat,
    tomogram_gaussian,
)
from .verify import (  # noqa: E402
    ProbeGrid,
    frozen_frame_evolution,
    moment_odes_check,
    pde_residual,
    replacement_evolution,
)

_COMMON_KEYS = {"out", "format"}

#: Bytes one array of a request may take (256 MiB).  Before any compute the
#: CLI sizes a sinogram at 8 B per point (n_phi * n_x), a Wigner grid at 8 B
#: per point (n_q * n_p) and the Fourier table at 16 B per node (n_nodes^2);
#: a request over the cap is a config error (exit 2) and writes nothing.
_MAX_ARRAY_BYTES = 1 << 28


def _fail(code: int, message: str) -> int:
    print(f"iontomo: {message}", file=sys.stderr)
    return code


def _check_keys(cfg: dict, allowed: set, context: str) -> None:
    unknown = sorted(set(cfg) - allowed - _COMMON_KEYS)
    if unknown:
        raise ConfigError(f"unknown {context} config keys: {', '.join(unknown)}")


def _is_number(v) -> bool:
    """A JSON number that is a finite float: no bool, NaN, +-Infinity or int past the float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _number(cfg: dict, key: str, *, required: bool = False, default=None,
            minimum=None, strict_min=None, context: str = "config"):
    if key not in cfg:
        if required:
            raise ConfigError(f"{context}: missing required key {key!r}")
        return default
    v = cfg[key]
    if not _is_number(v):
        raise ConfigError(f"{context}: {key} must be a finite number, got {v!r}")
    v = float(v)
    if minimum is not None and v < minimum:
        raise ConfigError(f"{context}: {key} must be >= {minimum}, got {v}")
    if strict_min is not None and v <= strict_min:
        raise ConfigError(f"{context}: {key} must be > {strict_min}, got {v}")
    return v


def _integer(cfg: dict, key: str, *, default=None, minimum=None, context: str = "config"):
    if key not in cfg:
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{context}: {key} must be an integer, got {v!r}")
    if v > sys.maxsize:  # not a size numpy or the stdlib can represent
        raise ConfigError(f"{context}: {key} must be at most {sys.maxsize}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{context}: {key} must be >= {minimum}, got {v}")
    return v


def _check_size(context: str, product: str, nbytes: int) -> None:
    if nbytes > _MAX_ARRAY_BYTES:
        raise ConfigError(f"{context}: {product} needs {nbytes} bytes, over the cap of {_MAX_ARRAY_BYTES}")


def _uniform_axis(lo: float, hi: float, n: int, keys: str, context: str) -> np.ndarray:
    """``np.linspace(lo, hi, n)``; a ConfigError names ``keys`` unless its step is uniform, positive and finite."""
    try:
        with np.errstate(all="ignore"):
            axis = np.linspace(lo, hi, n)
            _uniform_spacing(axis, keys)
    except ValueError:
        raise ConfigError(f"{context}: {keys} give no uniformly increasing axis") from None
    return axis


def _complex_amplitude(value, context: str) -> complex:
    if _is_number(value):
        return complex(float(value), 0.0)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(c) for c in value):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{context}: alpha must be a finite number or [re, im], got {value!r}")


def _oscillator_params(cfg: dict, context: str, *, required: bool = True) -> OscillatorParams | None:
    """The trap of ``cfg``; None, unless ``required``, when a key is absent (a present key is still checked)."""
    kappa = _number(cfg, "kappa", required=required, minimum=0.0, context=context)
    omega = _number(cfg, "omega_drive", required=required, strict_min=0.0, context=context)
    return None if kappa is None or omega is None else OscillatorParams(kappa=kappa, omega_drive=omega)


def _section(cfg: dict, key: str, allowed: set, context: str) -> dict:
    """The nested object ``cfg[key]`` ({} when absent), with unknown keys rejected."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{context}: {key!r} must be an object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context}.{key} keys: {', '.join(unknown)}")
    return section


def _state(cfg: dict, context: str, params: OscillatorParams | None, t: float):
    """Returns (tomogram evaluator (Y, mu, nu), Wigner evaluator (q, p)) evolved to t.

    ``cfg`` holds the state keys ``kind``, ``alpha`` and ``parity``; ``params``
    is only read when ``t > 0``.
    """
    kind = cfg.get("kind")
    if kind == "gaussian":
        if "parity" in cfg:
            raise ConfigError(f"{context}: parity applies to cat states only")
        make = functools.partial(GaussianState, alpha=_complex_amplitude(cfg.get("alpha", 0.0), context))
        tomogram, wigner = tomogram_gaussian, wigner_gaussian
    elif kind == "cat":
        parity = cfg.get("parity", "even")
        if parity not in ("even", "odd"):
            raise ConfigError(f"{context}: parity must be 'even' or 'odd', got {parity!r}")
        make = functools.partial(CatSpec, alpha=_complex_amplitude(cfg.get("alpha", 1.0), context), parity=parity)
        tomogram, wigner = tomogram_cat, wigner_cat
    elif kind == "number":
        raise ConfigError(f"{context}: number states have no analytic tomogram; use gaussian or cat")
    else:
        raise ConfigError(f"{context}: state.kind must be 'gaussian' or 'cat', got {kind!r}")
    try:  # an alpha whose |alpha|^2 overflows, or an odd cat whose normalization diverges
        state = make()
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    tomogram, wigner = functools.partial(tomogram, state), functools.partial(wigner, state)
    if t == 0.0:
        return tomogram, wigner
    eps, deps = epsilon_at(params, t)
    return functools.partial(evolve_tomogram, tomogram, eps, deps), functools.partial(evolve_wigner, wigner, eps, deps)


def _resolve_out(cfg: dict, args, *suffixes: str) -> str:
    """``--out`` or the config's ``out``, checked with the files written beside it: ``suffixes``, ``.svg`` on --plot."""
    out = args.out or cfg.get("out")
    if not out:
        raise ConfigError("no output path: pass --out or set 'out' in the config")
    if not isinstance(out, str):
        raise ConfigError(f"'out' must be a string, got {out!r}")
    # checked before any compute: the write at the end would fail after it
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ConfigError(f"output path {out!r} is a directory or lies in no existing directory")
    for side in (_side_path(out, suffix) for suffix in suffixes + ((".svg",) if args.plot else ())):
        if side == out or os.path.isdir(side):
            raise ConfigError(f"{side!r}, written beside output {out!r}, is a directory or the output itself")
    return out


def _resolve_format(cfg: dict, args, *, allowed=("csv", "bin")) -> str:
    fmt = args.format or cfg.get("format", "csv")
    if fmt not in allowed:
        raise ConfigError(f"format must be one of {allowed}, got {fmt!r}")
    return fmt


def _side_path(out: str, suffix: str) -> str:
    return os.path.splitext(out)[0] + suffix


#: Samples per series that ``epsilon --plot`` draws at most, evenly strided.
_PLOT_SAMPLES = 4096


def _trajectory_columns(params: OscillatorParams, t_end: float, n_rows: int, tol: float, plot):
    """The CSV columns of each block of the rows at ``np.linspace(0, t_end, n_rows)``, each row :func:`epsilon_at`.

    Unless ``plot`` is None, (t, eps) of evenly strided rows, at most
    ``_PLOT_SAMPLES`` of them, are appended to it.
    """
    h = t_end / (n_rows - 1)
    stride = -(-n_rows // _PLOT_SAMPLES)
    for b in _blocks(n_rows):
        t = np.arange(b.start, b.stop) * h
        if b.stop == n_rows:
            t[-1] = t_end
        eps, deps = _epsilon_points(params, t, tol)
        if plot is not None:
            keep = slice(-b.start % stride, None, stride)
            plot.append((t[keep].copy(), eps[keep].copy()))
        yield t, eps.real, eps.imag, deps.real, deps.imag, _wronskian(eps, deps)


def cmd_epsilon(cfg: dict, args) -> int:
    _check_keys(cfg, {"kappa", "omega_drive", "t_end", "n_steps", "tol"}, "epsilon")
    params = _oscillator_params(cfg, "epsilon")
    t_end = _number(cfg, "t_end", required=True, strict_min=0.0, context="epsilon")
    n_steps = _integer(cfg, "n_steps", minimum=2, context="epsilon")
    tol = _number(cfg, "tol", default=1e-9, strict_min=0.0, context="epsilon")
    out = _resolve_out(cfg, args)
    _resolve_format(cfg, args, allowed=("csv",))

    # n_steps + 1 rows, streamed into a temp file that a SolverError in any block removes;
    # the last row first, so a drive whose growth defeats the gate fails before any is written
    n_steps = _step_count(t_end, n_steps)
    _epsilon_points(params, np.array([t_end]), tol)
    plot = [] if args.plot else None
    _save_csv_blocks(out, ("t", "re_eps", "im_eps", "re_deps", "im_deps", "wronskian"),
                     _trajectory_columns(params, t_end, n_steps + 1, tol, plot))

    if args.plot:
        times, eps = (np.concatenate(c) for c in zip(*plot))
        _svg.svg_polyline(_side_path(out, ".svg"), times, [("Re eps", eps.real), ("Im eps", eps.imag)],
                          title=f"mode function (kappa={params.kappa}, Omega={params.omega_drive})",
                          xlabel="t", ylabel="eps(t)")
    return 0


def cmd_tomogram(cfg: dict, args) -> int:
    mode = cfg.get("mode", "sinogram")
    if mode not in ("sinogram", "samples"):
        raise ConfigError(f"tomogram: mode must be 'sinogram' or 'samples', got {mode!r}")
    # each mode reads its own section; the other mode's is an unknown key
    _check_keys(cfg, {"kappa", "omega_drive", "time", "state", "mode",
                      "sinogram" if mode == "sinogram" else "queries"}, "tomogram")
    params = _oscillator_params(cfg, "tomogram")
    t = _number(cfg, "time", default=0.0, minimum=0.0, context="tomogram")
    if "state" not in cfg:
        raise ConfigError("tomogram: missing required key 'state'")
    state_cfg = _section(cfg, "state", {"kind", "alpha", "parity"}, "tomogram")
    out = _resolve_out(cfg, args)

    if mode == "sinogram":
        fmt = _resolve_format(cfg, args)
        sino_cfg = _section(cfg, "sinogram", {"n_phi", "x_min", "x_max", "n_x"}, "tomogram")
        n_phi = _integer(sino_cfg, "n_phi", default=180, minimum=1, context="sinogram")
        x_min = _number(sino_cfg, "x_min", default=-8.0, context="sinogram")
        x_max = _number(sino_cfg, "x_max", default=8.0, context="sinogram")
        n_x = _integer(sino_cfg, "n_x", default=257, minimum=2, context="sinogram")
        _check_size("sinogram", f"n_phi * n_x = {n_phi} * {n_x}", 8 * n_phi * n_x)
        x_axis = _uniform_axis(x_min, x_max, n_x, "x_min, x_max, n_x", "sinogram")
        evaluator, _ = _state(state_cfg, "tomogram", params, t)
        phi_axis = np.linspace(0.0, (n_phi - 1) * math.pi / n_phi, n_phi)
        try:
            with np.errstate(all="ignore"):  # the sinogram's own checks name values that overflow
                sino = OpticalSinogram.from_evaluator(evaluator, phi_axis, x_axis)
        except ValueError as exc:
            return _fail(1, f"sinogram failed validation: {exc}")
        sino.save(out, fmt=fmt)
        if args.plot:
            _svg.svg_heatmap(_side_path(out, ".svg"), sino.values, sino.phi_axis, sino.x_axis,
                             title="optical sinogram w(X, phi)", xlabel="phi", ylabel="X",
                             diverging=False)
        return 0

    _resolve_format(cfg, args, allowed=("csv",))
    queries = cfg.get("queries")
    if (not isinstance(queries, list) or not queries
            or not all(isinstance(r, list) and len(r) == 4 and all(_is_number(v) for v in r)
                       for r in queries)):
        raise ConfigError("tomogram: mode 'samples' needs 'queries' as a list of [X, mu, nu, delta] rows")
    rows = np.asarray(queries, dtype=float)
    if np.any((rows[:, 1] == 0.0) & (rows[:, 2] == 0.0)):
        raise ConfigError("tomogram: query frame (mu, nu) = (0, 0) is degenerate")
    evaluator, _ = _state(state_cfg, "tomogram", params, t)
    x, mu, nu, delta = rows.T
    w = np.empty(x.size)
    with np.errstate(all="ignore"):  # the check below names a row that overflows
        for b in _row_blocks(x.size, 1):
            w[b] = evaluator(x[b] - delta[b], mu[b], nu[b])
    if not np.all(np.isfinite(w)):
        i = int(np.argmin(np.isfinite(w)))
        return _fail(1, f"samples failed validation: query row {i} {rows[i].tolist()} gives w = {w[i]}")
    save_csv_rows(out, ("X", "mu", "nu", "delta", "w"), (x, mu, nu, delta, w))
    if args.plot:
        order = np.argsort(x)
        _svg.svg_polyline(_side_path(out, ".svg"), x[order], [("w", w[order])],
                          title="tomogram samples", xlabel="X", ylabel="w")
    return 0


def cmd_reconstruct(cfg: dict, args) -> int:
    _check_keys(cfg, {"input", "method", "grid", "reference", "fourier", "norm_tol", "l2_tol"}, "reconstruct")
    path = cfg.get("input")
    if not isinstance(path, str) or not path:
        raise ConfigError("reconstruct: missing required key 'input'")
    method = cfg.get("method", "fbp")
    if method not in ("fbp", "fourier"):
        raise ConfigError(f"reconstruct: method must be 'fbp' or 'fourier', got {method!r}")
    grid_cfg = _section(cfg, "grid", {"q_min", "q_max", "n_q", "p_min", "p_max", "n_p"}, "reconstruct")
    q_min = _number(grid_cfg, "q_min", default=-6.0, context="grid")
    q_max = _number(grid_cfg, "q_max", default=6.0, context="grid")
    n_q = _integer(grid_cfg, "n_q", default=121, minimum=2, context="grid")
    p_min = _number(grid_cfg, "p_min", default=-6.0, context="grid")
    p_max = _number(grid_cfg, "p_max", default=6.0, context="grid")
    n_p = _integer(grid_cfg, "n_p", default=121, minimum=2, context="grid")
    _check_size("grid", f"n_q * n_p = {n_q} * {n_p}", 8 * n_q * n_p)
    q_axis = _uniform_axis(q_min, q_max, n_q, "q_min, q_max, n_q", "grid")
    p_axis = _uniform_axis(p_min, p_max, n_p, "p_min, p_max, n_p", "grid")
    fourier_cfg = _section(cfg, "fourier", {"k_max", "n_nodes", "n_y"}, "reconstruct")
    k_max = _number(fourier_cfg, "k_max", default=12.0, strict_min=0.0, context="fourier")
    n_nodes = _integer(fourier_cfg, "n_nodes", default=193, minimum=3, context="fourier")
    # n_y sized a sampling step that a sinogram input does not take; it is
    # still checked, since existing configs set it
    _integer(fourier_cfg, "n_y", minimum=3, context="fourier")
    _check_size("fourier", f"n_nodes^2 = {n_nodes}^2", 16 * n_nodes * n_nodes)
    norm_tol = _number(cfg, "norm_tol", default=0.05, strict_min=0.0, context="reconstruct")
    l2_tol = _number(cfg, "l2_tol", default=0.05, strict_min=0.0, context="reconstruct")
    reference = None
    if "reference" in cfg:
        ref_cfg = _section(cfg, "reference", {"kind", "alpha", "parity", "time", "kappa", "omega_drive"},
                           "reconstruct")
        t_ref = _number(ref_cfg, "time", default=0.0, minimum=0.0, context="reference")
        ref_params = _oscillator_params(ref_cfg, "reference", required=t_ref > 0.0)
        _, reference = _state(ref_cfg, "reference", ref_params, t_ref)
    out = _resolve_out(cfg, args, ".report.json")
    fmt = _resolve_format(cfg, args)

    try:
        sino = OpticalSinogram.load(path)
    except OSError as exc:  # missing, a directory, unreadable
        return _fail(2, f"cannot read input file: {exc}")
    except ValueError as exc:
        return _fail(2, f"input file invalid: {exc}")

    try:
        if method == "fbp":
            grid = radon_reconstruct(sino, q_axis, p_axis)
        else:
            grid = invert_to_wigner(sino, q_axis, p_axis, k_max=k_max, n_nodes=n_nodes)
    except InsufficientAnglesError as exc:
        return _fail(2, str(exc))
    except ValueError as exc:  # the Fourier path's angle wrap cannot read this sinogram
        return _fail(2, f"input file invalid: {exc}")

    del sino  # its memory goes back before the grid's text is formatted
    grid.save(out, fmt=fmt)
    report = {
        "method": method,
        "input": path,
        "normalization": grid.integral(),
        "norm_tol": norm_tol,
        "rel_l2_error": None,
    }
    if reference is not None:
        target = WignerGrid.from_evaluator(reference, q_axis, p_axis)
        num = float(np.linalg.norm(grid.values - target.values))
        den = float(np.linalg.norm(target.values))
        report["rel_l2_error"] = num / den
        report["l2_tol"] = l2_tol
    _atomic_write(_side_path(out, ".report.json"), (json.dumps(report, sort_keys=True, indent=2) + "\n").encode())

    if args.plot:
        _svg.svg_heatmap(_side_path(out, ".svg"), grid.values, grid.q_axis, grid.p_axis,
                         title=f"reconstructed Wigner function ({method})",
                         xlabel="q", ylabel="p", diverging=True)

    if abs(report["normalization"] - 1.0) > norm_tol:
        return _fail(1, f"normalization {report['normalization']:.4f} outside tolerance {norm_tol}")
    if report["rel_l2_error"] is not None and report["rel_l2_error"] > l2_tol:
        return _fail(1, f"relative L2 error {report['rel_l2_error']:.4f} exceeds {l2_tol}")
    return 0


def _probe_from_config(cfg: dict) -> ProbeGrid:
    """The ``probe`` section of a verify config, whose keys are the fields of :class:`ProbeGrid`."""
    defaults = {f.name: f.default for f in dataclasses.fields(ProbeGrid)}
    section = _section(cfg, "probe", set(defaults), "verify")
    kwargs = {}
    for key, default in defaults.items():
        if key not in section:
            continue
        v = section[key]
        if not isinstance(default, tuple):  # a stencil step
            kwargs[key] = _number(section, key, strict_min=0.0, context="verify.probe")
        elif not isinstance(v, list) or not v or not all(_is_number(c) for c in v):
            raise ConfigError(f"verify.probe: {key} must be a non-empty list of finite numbers")
        else:
            kwargs[key] = tuple(float(c) for c in v)
    probe = ProbeGrid(**kwargs)
    if any(abs(m) <= max(probe.h_mu, probe.h_nu) for m in probe.mu_values):
        raise ConfigError("verify.probe: mu_values must stay clear of 0 by more than the stencil step")
    # the time stencil reaches t - h_t, and the mode function starts at t = 0
    if min(probe.t_values) - probe.h_t < 0.0:
        raise ConfigError(f"verify.probe: t_values must be >= h_t = {probe.h_t}, got {min(probe.t_values)}")
    return probe


def cmd_verify(cfg: dict, args) -> int:
    _check_keys(cfg, {"kappa", "omega_drive", "suite", "alpha", "cat", "probe",
                      "moment_h", "t_end"}, "verify")
    params = _oscillator_params(cfg, "verify")
    suite = cfg.get("suite", "default")
    if suite not in ("default", "negative-control"):
        raise ConfigError(f"verify: suite must be 'default' or 'negative-control', got {suite!r}")
    alpha = _complex_amplitude(cfg.get("alpha", 1.0), "verify")
    base_g, _ = _state({"kind": "gaussian", "alpha": cfg.get("alpha", 1.0)}, "verify", params, 0.0)
    cat_cfg = _section(cfg, "cat", {"alpha", "parity"}, "verify")
    cat_eval, _ = _state({"kind": "cat", **cat_cfg}, "verify", params, 0.0)
    probe = _probe_from_config(cfg)
    moment_h = _number(cfg, "moment_h", default=1e-4, strict_min=0.0, context="verify")
    t_end = _number(cfg, "t_end", default=10.0, strict_min=0.0, context="verify")
    if args.format is not None or "format" in cfg:
        raise ConfigError("verify: writes a JSON report; --format and 'format' do not apply")
    if args.plot:
        raise ConfigError("verify: --plot does not apply; verify draws no plot")
    out = _resolve_out(cfg, args)

    thresholds = {
        "pde_max": 1e-4,
        "order_range": [1.7, 2.3],
        "moment_max": 1e-6,
        "negative_min": 1e-1,
        "negative_ratio": 1e3,
    }

    # numpy's warnings are off: the checks below gate every value that overflows
    with np.errstate(all="ignore"):
        try:
            rep_g = pde_residual(replacement_evolution(base_g, params), params, probe)
            rep_c = pde_residual(replacement_evolution(cat_eval, params), params, probe)
            if suite == "negative-control":
                rep_bad = pde_residual(frozen_frame_evolution(base_g), params, probe)
        except ValueError as exc:  # a non-finite residual: the evolution under test overflowed
            return _fail(1, str(exc))
        rep_m = moment_odes_check(params, t_end, alpha, h=moment_h)

    def order_ok(rep):
        low, high = thresholds["order_range"]
        return rep.convergence_order is not None and low <= rep.convergence_order <= high

    checks = {
        # the extrapolated residual, in which the stencils' own h^2 error cancels
        "pde_gaussian_max": rep_g.max_abs_extrapolated < thresholds["pde_max"],
        "pde_gaussian_order": order_ok(rep_g),
        "pde_cat_max": rep_c.max_abs_extrapolated < thresholds["pde_max"],
        "pde_cat_order": order_ok(rep_c),
        "moments_max": rep_m.max_abs_residual < thresholds["moment_max"],
    }
    report = {
        "suite": suite,
        "kappa": params.kappa,
        "omega_drive": params.omega_drive,
        "thresholds": thresholds,
        "pde_gaussian": rep_g.as_dict(),
        "pde_cat": rep_c.as_dict(),
        "moments": rep_m.as_dict(),
    }

    if suite == "negative-control":
        # the honest residual the pde checks gate: the raw one keeps the stencils' h^2 error
        detected = (rep_bad.max_abs_residual >= thresholds["negative_min"]
                    and rep_bad.max_abs_residual >= thresholds["negative_ratio"] * rep_g.max_abs_extrapolated)
        checks["negative_control_detected"] = detected
        report["pde_frozen"] = rep_bad.as_dict()

    passed = all(checks.values())
    report["checks"] = checks
    report["passed"] = passed
    _atomic_write(out, (json.dumps(report, sort_keys=True, indent=2) + "\n").encode())
    if not passed:
        failed = ", ".join(k for k, ok in checks.items() if not ok)
        return _fail(1, f"verification thresholds failed: {failed}")
    return 0


_DISPATCH = {
    "epsilon": cmd_epsilon,
    "tomogram": cmd_tomogram,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iontomo",
        description="Trapped-ion phase-space simulation and symplectic tomography toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("epsilon", "solve the mode function and write the trajectory CSV"),
        ("tomogram", "generate tomogram samples or an optical sinogram"),
        ("reconstruct", "reconstruct a Wigner grid from a sinogram (FBP or Fourier)"),
        ("verify", "run evolution-equation and moment-ODE residual checks"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output path (overrides config 'out')")
        p.add_argument("--plot", action="store_true", help="emit an SVG plot next to the output")
        p.add_argument("--format", choices=("csv", "bin"), help="output format (overrides config)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        return _fail(2, f"cannot read config file: {exc}")
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or an int past Python's digit limit
        return _fail(2, f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        return _fail(2, "config must be a JSON object")

    try:
        return _DISPATCH[args.command](cfg, args)
    except ConfigError as exc:
        return _fail(2, str(exc))
    except (SolverError, DegenerateFrameError, NormalizationDivergenceError) as exc:
        return _fail(1, str(exc))


def run() -> int:
    """The process entry (``iontomo``, ``python -m iontomo.cli``): ``main()``, then ``gc.freeze()``.

    Freezing moves every tracked object into the permanent generation, so the
    collection the interpreter runs at exit does not walk the objects numpy
    and the package built at import.  Module teardown, atexit handlers and
    stream flushes still run.  On Linux, glibc's malloc first keeps up to 64 MB
    of freed heap (``mallopt``'s ``M_TRIM_THRESHOLD``, -1), which also stops its
    trim and mmap thresholds moving with what the process has freed: with them
    moving, whether a block's numpy temporaries are faulted in afresh depends on
    that history, and an ``epsilon`` step of 10^5 rows took 8.7k to 19.5k minor
    page faults by drive, against 5.2k for every drive with them fixed.
    In-process callers call ``main()``, which leaves their collector and
    allocator state alone.
    """
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    if hasattr(libc, "mallopt"):
        libc.mallopt(-1, 64 << 20)
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())

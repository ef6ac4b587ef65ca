"""Runs one ``iontomo`` CLI step in-process, with a span around each layer call.

Usage::

    python traced_cli.py SPAWN_TIME TRACE_OUT <iontomo arguments...>

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so ``import_done - SPAWN_TIME`` is interpreter start plus
``import iontomo.cli``.  The step itself is ``iontomo.cli.main`` on the same
arguments, so it makes exactly the calls the subcommand makes.  Before it
runs, the public functions of each module are replaced, in the namespaces the
CLI looks them up in, by wrappers that record a span (name, start, end,
parent) and the work counts at that boundary.  Callables handed into a layer
(tomogram, sinogram and Wigner evaluators, the evolution under test) are
wrapped too, so their time is charged to their own span and a layer's self
time is its span minus its children.  Nothing inside the package is edited.

The spans are written to TRACE_OUT as JSON when the step ends; the exit code
is the CLI's.
"""

import sys
import time

_SPAWN = float(sys.argv[1])
import iontomo.cli as cli  # noqa: E402  (timed: part of every step's cost)

_IMPORT_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import numpy as np  # noqa: E402

from iontomo import _container, states, tomography, verify  # noqa: E402


class Recorder:
    """In-memory span list; the stack gives each span its parent."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs]
        self._stack = []

    def call(self, name, fn, args, kwargs, attrs=None):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            record[4] = attrs(args, out)
        return out


REC = Recorder()


def traced(name, fn, attrs=None, wrap_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = REC.call(name, fn, args, kwargs, attrs)
        return wrap_result(out) if wrap_result is not None else out
    return wrapper


def _points(args, out):
    return {"points": int(np.size(out))}


def _file_bytes(args, out):
    return {"bytes": os.path.getsize(args[0])}


def _point_drift(args, out):
    eps, deps = out
    return {"drift": float(abs((np.conj(eps) * deps).imag - 1.0))}


def _trajectory(args, out):
    return {"steps": int(out.times.size - 1),
            "drift": float(np.max(np.abs(out.wronskian() - 1.0)))}


def _evaluator_factory(span_name):
    return lambda fn: traced(span_name, fn, _points)


def _from_evaluator(owner, span_name, evaluator_name):
    original = owner.from_evaluator.__func__

    def from_evaluator(cls, evaluator, *args, **kwargs):
        wrapped = traced(evaluator_name, evaluator, _points)
        return REC.call(span_name, original, (cls, wrapped) + args, kwargs)
    owner.from_evaluator = classmethod(from_evaluator)


def install():
    epsilon_at = traced("oscillator.epsilon_at", cli.epsilon_at, _point_drift)
    cli.epsilon_at = epsilon_at
    verify.epsilon_at = epsilon_at  # behind the lru_cache the verify stencils use
    cli.solve_epsilon = traced("oscillator.solve_epsilon", cli.solve_epsilon, _trajectory)

    evolution = _evaluator_factory("verify.evolution")
    cli.replacement_evolution = traced("verify.replacement_evolution", cli.replacement_evolution,
                                       wrap_result=evolution)
    cli.frozen_frame_evolution = traced("verify.frozen_frame_evolution", cli.frozen_frame_evolution,
                                        wrap_result=evolution)
    cli.pde_residual = traced("verify.pde_residual", cli.pde_residual)
    cli.moment_odes_check = traced("verify.moment_odes_check", cli.moment_odes_check)

    cli.sinogram_evaluator = traced("tomography.sinogram_evaluator_build", cli.sinogram_evaluator,
                                    wrap_result=_evaluator_factory("tomography.sinogram_evaluator"))
    cli.invert_to_wigner = traced("tomography.invert_to_wigner", cli.invert_to_wigner)
    cli.radon_reconstruct = traced("tomography.radon_reconstruct", cli.radon_reconstruct)
    _from_evaluator(tomography.OpticalSinogram, "tomography.OpticalSinogram.from_evaluator",
                    "tomography.tomogram_evaluator")
    _from_evaluator(states.WignerGrid, "states.WignerGrid.from_evaluator", "states.wigner_evaluator")

    _container.save_csv_triples = traced(
        "container.csv_write", _container.save_csv_triples,
        lambda a, out: {"rows": int(np.size(a[4])), "bytes": os.path.getsize(a[0])})
    _container.load_csv_triples = traced(
        "container.csv_read", _container.load_csv_triples,
        lambda a, out: {"rows": int(np.size(out[2])), "bytes": os.path.getsize(a[0])})
    _container.save_container = traced("container.bin_write", _container.save_container, _file_bytes)
    _container.load_container = traced("container.bin_read", _container.load_container, _file_bytes)
    cli._atomic_write = traced("container.atomic_write", cli._atomic_write,
                               lambda a, out: {"bytes": len(a[1])})

    for name, fn in list(cli._DISPATCH.items()):
        cli._DISPATCH[name] = traced(f"cli.{name}", fn)


def main(argv):
    trace_out, cli_args = argv[0], argv[1:]
    install()
    code = cli.main(cli_args)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"spawn": _SPAWN, "import_done": _IMPORT_DONE, "spans": REC.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[2:]))

"""iontomo benchmark: the CLI pipelines timed end to end, or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each workload is a closed loop: one client runs the workload's ``iontomo``
CLI steps in sequence, one fresh process per step, as a user runs them, so
every step starts with cold in-process caches.  The seed draws the physics
parameters of the generated configs (see ``workloads.py``), never the amount
of work.  Every pass's outputs are read back and checked; a step fails when
its exit code is not 0 or its check rejects the output.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced passes with traced ones (each step run by
``traced_cli.py``) and reports the per-layer metrics, plus the tracing
overhead.  The last stdout line is the result object; the line before it is
the full record (seed, configs, samples, accuracy, machine facts).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Untimed set-ups per run (configs + one warm-up pass each); setup_s is their median.
SETUPS = 3
#: Timed passes per run at least, however long they take; timings are medians over them.
MIN_PASSES = 5
#: Every child is killed and the run ends before this many seconds.
DEADLINE_S = 170.0

#: Per-layer names that are another span's numbers under the name the layer uses.
ALIASES = {
    "verify.pde_residual.evolution_calls": "verify.evolution.calls",
    "verify.pde_residual.evolution_s": "verify.evolution.s",
    "tomography.invert_to_wigner.evaluator_points": "tomography.sinogram_evaluator.points",
    "tomography.invert_to_wigner.evaluator_s": "tomography.sinogram_evaluator.s",
    "tomography.OpticalSinogram.from_evaluator.points": "tomography.tomogram_evaluator.points",
    "states.WignerGrid.from_evaluator.points": "states.wigner_evaluator.points",
    "verify.pde_max_residual": "pde_max_residual",
    "verify.moment_max_residual": "moment_max_residual",
    "verify.negative_control_ratio": "negative_control_ratio",
    "tomography.recon_rel_l2": "recon_rel_l2",
    "tomography.recon_norm_err": "recon_norm_err",
}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Runner:
    """Starts the CLI steps, reaps each one with its own rusage, counts failures."""

    def __init__(self, workload, warmup, deadline: float):
        self.workload = workload
        self.warmup = warmup
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failures = []

    def _spawn(self, cmd, cwd: Path, name: str):
        """Returns (exit code, cpu s, peak RSS MB) of one child."""
        with open(cwd / f"{name}.stderr", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def run_pass(self, workdir: Path, traced: bool, workload=None) -> dict:
        """One pass of every step; checks the outputs after the timed part."""
        workload = workload or self.workload
        for step in workload.steps:
            for out in step.outputs:
                (workdir / out).unlink(missing_ok=True)
        codes, cpu, rss, traces = [], 0.0, 0.0, []
        t0 = time.perf_counter()
        for step in workload.steps:
            args = [step.command, "--config", f"{step.command}.config.json"]
            if traced:
                trace_path = workdir / f"trace-{step.command}.json"
                trace_path.unlink(missing_ok=True)
                spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
                cmd = [sys.executable, str(HERE / "traced_cli.py"), repr(spawn), str(trace_path)] + args
            else:
                cmd = [sys.executable, "-m", "iontomo.cli"] + args
            code, step_cpu, step_rss = self._spawn(cmd, workdir, step.command)
            codes.append(code)
            cpu += step_cpu
            rss = max(rss, step_rss)
            if traced:
                traces.append(trace_path)
        wall = time.perf_counter() - t0

        accuracy = {}
        for step, code in zip(workload.steps, codes):
            self.attempted += 1
            problems = []
            if code != 0:
                stderr = (workdir / f"{step.command}.stderr").read_text(errors="replace").strip()
                problems.append(f"exit code {code}, expected 0 ({stderr[-300:]})")
            problems += step.check(workdir, accuracy)
            if problems:
                self.failures.append(f"{step.command}: {'; '.join(problems)}")
        layers = layer_metrics([json.loads(p.read_text()) for p in traces if p.exists()]) if traced else {}
        return {"wall": wall, "cpu": cpu, "rss": rss, "accuracy": accuracy, "layers": layers}

    def setup(self, workdir: Path) -> float:
        """Writes the configs into a fresh directory and runs one untimed warm-up pass.

        The warm-up pass runs the same steps on the smoke-sized configs: every
        import and code path is exercised, and a full-size pass would only
        repeat a timed one, since every step starts in a fresh process anyway.
        """
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        warm_dir = workdir / "warmup"
        warm_dir.mkdir(parents=True)
        for wl, d in ((self.workload, workdir), (self.warmup, warm_dir)):
            for step in wl.steps:
                (d / f"{step.command}.config.json").write_text(json.dumps(step.config, indent=2))
        self.run_pass(warm_dir, traced=False, workload=self.warmup)
        return time.perf_counter() - t0

    def time_left(self, last_pass_s: float) -> bool:
        return time.monotonic() + last_pass_s < self.deadline


def layer_metrics(step_traces: list) -> dict:
    """Per-pass span totals: ``<span>.calls``, ``.s``, ``.self_s`` and summed counts."""
    m = defaultdict(float)
    for trace in step_traces:
        m["cli.import_s"] += trace["import_done"] - trace["spawn"]
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, attrs) in enumerate(spans):
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += end - start
            m[f"{name}.self_s"] += end - start - covered[i]
            for key, value in attrs.items():
                if key == "drift":
                    m["oscillator.wronskian_drift"] = max(m["oscillator.wronskian_drift"], value)
                else:
                    m[f"{name}.{key}"] += value
    return m


def machine_facts() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def median_of(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink grids and repetitions, keep every code path (for the benchmark's own test)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "iontomo" / "cli.py").is_file():
        print(f"perfbench: no iontomo sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    warmup = workloads.build(args.workload, args.seed, smoke=True)
    runner = Runner(wl, warmup, time.monotonic() + DEADLINE_S)
    setups, min_passes = (1, 1) if args.smoke else (SETUPS, MIN_PASSES)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        setup_times = [runner.setup(workdir) for _ in range(setups if not args.trace else 1)]
        untraced, traced = [], []
        t0 = time.perf_counter()
        while True:
            if args.trace:
                # alternate which side of the pair runs first
                order = (False, True) if len(traced) % 2 == 0 else (True, False)
                for is_traced in order:
                    (traced if is_traced else untraced).append(runner.run_pass(workdir, traced=is_traced))
                last = untraced[-1]["wall"] + traced[-1]["wall"]
            else:
                untraced.append(runner.run_pass(workdir, traced=False))
                last = untraced[-1]["wall"]
            n = len(traced) if args.trace else len(untraced)
            enough = n >= min_passes and time.perf_counter() - t0 >= seconds
            if enough or not runner.time_left(last):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    measured = traced or untraced
    accuracy = {}
    for key in wl.accuracy_keys:
        values = [p["accuracy"][key] for p in measured if key in p["accuracy"]]
        if values:
            accuracy[key] = statistics.median(values)
    if wl.headline not in accuracy:
        print(f"perfbench: no pass produced {wl.headline}: {runner.failures[:3]}", file=sys.stderr)
        return 1

    if args.trace:
        layer_keys = {k for p in traced for k in p["layers"]}
        values = {k: statistics.median(p["layers"].get(k, 0.0) for p in traced) for k in layer_keys}
        values.update(accuracy)
        values["trace.pipeline_s"] = median_of(traced, "wall")
        values["trace.untraced_pipeline_s"] = median_of(untraced, "wall")
        values["trace.overhead_s"] = statistics.median(t["wall"] - u["wall"] for t, u in zip(traced, untraced))
        wanted = spec["per_layer"]
    else:
        values = {
            "pipeline_s": median_of(untraced, "wall"),
            "cpu_s": median_of(untraced, "cpu"),
            "peak_rss_mb": median_of(untraced, "rss"),
            "setup_s": statistics.median(setup_times),
            "accuracy_digits": -math.log10(accuracy[wl.headline]),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(ALIASES.get(m["name"], m["name"]), 0.0)), "unit": m["unit"]}
               for m in wanted}

    error_rate = len(runner.failures) / runner.attempted
    record = {
        "workload": wl.name, "seed": wl.seed, "trace": args.trace, "smoke": args.smoke,
        "params": wl.params, "configs": {s.command: s.config for s in wl.steps},
        "setups": len(setup_times), "setup_s_samples": setup_times,
        "passes": len(measured),
        "samples": {"pipeline_s": [p["wall"] for p in untraced], "cpu_s": [p["cpu"] for p in untraced],
                    "peak_rss_mb": [p["rss"] for p in untraced],
                    "traced_pipeline_s": [p["wall"] for p in traced]},
        "accuracy": accuracy, "error_rate": error_rate, "failures": runner.failures[:10],
        "bench_process_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

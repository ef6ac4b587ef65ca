"""Process start-up and exit: the lazy package namespace, the CLI's one-thread BLAS and its entry point.

Each check that depends on what a process loads at import, on how many
threads it starts or on how it ends runs a fresh interpreter with
``PYTHONPATH`` set to ``src``; the test process itself has numpy loaded long
before, and never calls ``cli.run`` or ``runpy``.  A process enters through
``cli.run``, which freezes the collector's objects after ``main()``; in-process
``main()`` leaves the caller's collector state alone.
"""

import gc
import importlib
import json
import os
import platform
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import iontomo
from iontomo import cli, errors, oscillator, states, tomography, verify

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
_LIBC = platform.libc_ver()
needs_glibc = pytest.mark.skipif(_LIBC[0] != "glibc" or tuple(map(int, _LIBC[1].split(".")[:2])) < (2, 33),
                                 reason="needs glibc 2.33+ (mallinfo2)")

#: The power of two of parser tokens each module stays at or under (4096 if
#: not named).  A CLI process compiles the package again wherever no bytecode
#: is cached (PYTHONDONTWRITEBYTECODE=1), and CPython 3.11's parser doubles its
#: token array, a Token per slot, at each power of two: one module past its
#: step raised every CLI step's peak RSS by about 0.26 MB.  Crossing a step is
#: a deliberate edit of this table.  ``_csvtext.py`` is held a step lower,
#: because every CSV writer compiles it while the table it writes is in memory.
TOKEN_STEPS = {"cli.py": 8192, "_csvtext.py": 2048}


def _env(**blas):
    """This environment without the three BLAS variables, plus ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update(blas)
    return env


def _python(code, **blas):
    return subprocess.run([sys.executable, "-c", code], env=_env(**blas), capture_output=True,
                          text=True, check=True, timeout=120).stdout.strip()


def _cli(args, cwd=None, **blas):
    subprocess.run([sys.executable, "-m", "iontomo.cli", *args], env=_env(**blas), capture_output=True,
                   check=True, timeout=120, cwd=cwd)


def test_import_loads_no_numpy():
    assert _python("import sys, iontomo; print('numpy' in sys.modules)") == "False"


def test_private_name_lookup_imports_no_other_submodule():
    # the miss sends ``from iontomo import _svg`` to the import system, which loads _svg alone
    code = ("import sys, iontomo; print(hasattr(iontomo, '_svg'), 'numpy' in sys.modules); "
            "from iontomo import _svg; print(sorted(m for m in sys.modules if m.startswith('iontomo')))")
    assert _python(code).splitlines() == ["False False", "['iontomo', 'iontomo._container', 'iontomo._svg']"]


@needs_proc
def test_cli_import_runs_blas_on_one_thread():
    for statement in ("import iontomo.cli", "from iontomo import cli"):
        assert _python(f"import os; {statement}; print(len(os.listdir('/proc/self/task')))") == "1"


@needs_proc
@pytest.mark.skipif(CORES < 2, reason="needs two usable cores")
def test_explicit_thread_count_wins():
    code = "import os, iontomo.cli; print(len(os.listdir('/proc/self/task')), os.environ['OMP_NUM_THREADS'])"
    assert _python(code, OPENBLAS_NUM_THREADS="2") == "2 1"


def test_csv_text_kernel_loads_only_to_write_csv(tmp_path):
    # verify and the bin steps never compile the kernel module
    (tmp_path / "verify.json").write_text(json.dumps({"kappa": 0.4, "omega_drive": 2.0, "t_end": 1.0}))
    tomo = {"kappa": 0.4, "omega_drive": 2.0, "state": {"kind": "gaussian"}, "sinogram": {"n_phi": 16, "n_x": 33}}
    (tmp_path / "tomo.json").write_text(json.dumps(tomo))
    steps = [["verify", "--config", "verify.json", "--out", "v.json"],
             ["tomogram", "--config", "tomo.json", "--out", "s.bin", "--format", "bin"],
             ["tomogram", "--config", "tomo.json", "--out", "s.csv"]]
    code = (f"import os, sys; os.chdir({str(tmp_path)!r}); import iontomo.cli as cli; "
            "loaded = lambda: print('iontomo._csvtext' in sys.modules); loaded(); "
            + "".join(f"assert cli.main({args!r}) == 0; loaded(); " for args in steps))
    assert _python(code).splitlines() == ["False", "False", "False", "True"]


def test_modules_stay_under_their_compile_step():
    for path in sorted((SRC / "iontomo").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            tokens = sum(1 for tok in tokenize.generate_tokens(fh.readline)
                         if tok.type not in (tokenize.COMMENT, tokenize.NL))
        assert tokens <= TOKEN_STEPS.get(path.name, 4096), (path.name, tokens)


def test_every_exported_name_resolves_to_its_submodule():
    public_errors = {name for name, v in vars(errors).items()
                     if isinstance(v, type) and v.__module__ == errors.__name__}
    assert set(errors.__all__) == public_errors
    submodules = (errors, oscillator, states, tomography, verify)
    assert len(iontomo.__all__) == len(set(iontomo.__all__)) == 31
    for removed in ("TomogramQuery", "GaussianTomogram", "cat_evaluator", "ReconstructionQualityError",
                    "project_wigner", "SupportTruncationWarning", "eval_wavefunction",
                    "schroedinger_relation_check", "gaussian_from_epsilon", "SymplecticMap", "symplectic_map"):
        assert not hasattr(iontomo, removed)
    # test-only oracles live in tests/oracles.py; the callable route of invert_to_wigner is gone
    # a Gaussian state is its mode-function point: the constructor of the second form is gone
    # the point is the flow: the map object built from it and the variance helper are gone
    for removed in ("eval_wavefunction", "schroedinger_relation_check", "_hermite_orthonormal", "MAX_NUMBER_INDEX",
                    "_support", "_sampled_sinogram", "_SUPPORT_SCAN_POINTS", "gaussian_from_epsilon", "_eps_moments",
                    "SymplecticMap", "symplectic_map", "_quadrature_variance"):
        assert not any(hasattr(m, removed) for m in submodules)
    assert iontomo.__all__ == [name for m in submodules for name in m.__all__]
    for name in iontomo.__all__:
        obj = getattr(iontomo, name)
        assert obj.__module__.startswith("iontomo.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert set(iontomo.__all__) <= set(dir(iontomo))
    assert iontomo.tomography is tomography
    with pytest.raises(AttributeError, match="no_such_name"):
        iontomo.no_such_name


def test_cli_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A threaded A @ F @ B in the Fourier inversion sums in another order."""
    tomo = tmp_path / "tomogram.json"
    tomo.write_text(json.dumps({"kappa": 0.4, "omega_drive": 2.0, "time": 0.7, "format": "bin",
                                "state": {"kind": "cat", "alpha": [1.2, 0.5], "parity": "even"},
                                "sinogram": {"n_phi": 90, "n_x": 161}}))
    outputs = []
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        run = tmp_path / f"run{len(outputs)}"
        run.mkdir()
        (run / "reconstruct.json").write_text(
            json.dumps({"input": str(run / "sino.bin"), "method": "fourier", "format": "bin"}))
        _cli(["tomogram", "--config", str(tomo), "--out", str(run / "sino.bin")], **blas)
        _cli(["reconstruct", "--config", str(run / "reconstruct.json"), "--out", str(run / "wigner.bin")],
             **blas)
        outputs.append([(run / name).read_bytes() for name in ("sino.bin", "wigner.bin")])
    assert outputs[0] == outputs[1]


def test_a_cli_process_freezes_the_collector_at_exit(tmp_path):
    # the module run as ``python -m iontomo.cli`` runs; the exit-time collection then has nothing to walk
    (tmp_path / "eps.json").write_text(json.dumps({"kappa": 0.4, "omega_drive": 2.0, "t_end": 1.0}))
    argv = ["iontomo", "epsilon", "--config", str(tmp_path / "eps.json"), "--out", str(tmp_path / "eps.csv")]
    code = (f"import gc, runpy, sys; sys.argv = {argv!r}\n"
            "try:\n    runpy.run_module('iontomo.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0)")
    assert _python(code) == "0 True True"
    assert (tmp_path / "eps.csv").stat().st_size > 0


@needs_glibc
@pytest.mark.parametrize("keep", [False, True])
def test_a_cli_process_keeps_its_freed_heap(keep):
    # 16 MB freed at the top of the heap stays there after the process entry has run (here on a
    # usage error), and goes back to the kernel after a bare import: a control the check must fail
    entry = "runpy.run_module('iontomo.cli', run_name='__main__')" if keep else "import iontomo.cli"
    code = ("import ctypes, runpy, sys\n"
            "sys.argv = ['iontomo', 'no-such-command']\n"
            f"try:\n    {entry}\nexcept SystemExit:\n    pass\n"
            "libc = ctypes.CDLL(None)\n"
            "class Info(ctypes.Structure):\n"
            "    _fields_ = [(n, ctypes.c_size_t) for n in ('arena', 'ordblks', 'smblks', 'hblks', 'hblkhd',\n"
            "                                               'usmblks', 'fsmblks', 'uordblks', 'fordblks', 'keepcost')]\n"
            "libc.mallinfo2.restype = Info\n"
            "libc.malloc.restype, libc.malloc.argtypes = ctypes.c_void_p, [ctypes.c_size_t]\n"
            "libc.free.argtypes = [ctypes.c_void_p]\n"
            "blocks = [libc.malloc(64 << 10) for _ in range(256)]\n"
            "for b in reversed(blocks):\n    libc.free(b)\n"
            "print(libc.mallinfo2().keepcost >> 20)")
    kept_mb = int(_python(code))
    assert kept_mb >= 8 if keep else kept_mb < 1


def test_the_console_script_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        module, _, attr = tomllib.load(fh)["project"]["scripts"]["iontomo"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.run


def test_in_process_main_leaves_the_collector_state_alone(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("tomo.json").write_text(json.dumps({"kappa": 0.4, "omega_drive": 2.0, "format": "bin",
                                             "state": {"kind": "gaussian"}, "sinogram": {"n_phi": 16, "n_x": 33}}))
    # the normalization gate cannot be met: the grid is written, then exit 1
    Path("recon.json").write_text(json.dumps({"input": "sino.bin", "norm_tol": 1e-300,
                                              "grid": {"n_q": 11, "n_p": 11}}))
    runs = [(["tomogram", "--config", "tomo.json", "--out", "sino.bin"], 0),
            (["reconstruct", "--config", "recon.json", "--out", "w.csv"], 1),
            (["verify", "--config", "missing.json", "--out", "v.json"], 2)]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for args, status in runs:
                frozen = gc.get_freeze_count()
                assert cli.main(args) == status
                assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_process_writes_the_bytes_of_in_process_main(tmp_path, monkeypatch):
    configs = {
        "eps.json": {"kappa": 0.4, "omega_drive": 2.0, "t_end": 1.0},
        "tomo.json": {"kappa": 0.4, "omega_drive": 2.0, "time": 0.7, "sinogram": {"n_phi": 16, "n_x": 33},
                      "state": {"kind": "cat", "alpha": [1.2, 0.5], "parity": "even"}},
        "recon.json": {"input": "sino.bin", "method": "fbp", "grid": {"n_q": 21, "n_p": 21}, "norm_tol": 0.5,
                       "reference": {"kind": "cat", "alpha": [1.2, 0.5], "parity": "even", "time": 0.7,
                                     "kappa": 0.4, "omega_drive": 2.0}, "l2_tol": 1.0},
        "verify.json": {"kappa": 0.4, "omega_drive": 2.0, "t_end": 1.0, "suite": "negative-control"},
    }
    steps = [["epsilon", "--config", "eps.json", "--out", "eps.csv"],
             ["tomogram", "--config", "tomo.json", "--out", "sino.csv", "--plot"],
             ["tomogram", "--config", "tomo.json", "--out", "sino.bin", "--format", "bin"],
             ["reconstruct", "--config", "recon.json", "--out", "wigner.csv"],
             ["verify", "--config", "verify.json", "--out", "verify.json.out"]]
    outputs = []
    for side in ("process", "main"):
        run = tmp_path / side
        run.mkdir()
        for name, payload in configs.items():
            (run / name).write_text(json.dumps(payload))
        for args in steps:
            if side == "process":
                _cli(args, cwd=run)
            else:
                monkeypatch.chdir(run)
                assert cli.main(args) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(run.iterdir())})
    assert sorted(outputs[0]) == sorted(outputs[1]) == sorted(
        list(configs) + ["eps.csv", "sino.csv", "sino.svg", "sino.bin", "wigner.csv", "wigner.report.json",
                         "verify.json.out"])
    assert outputs[0] == outputs[1]

"""Process start-up: the lazy package namespace and the CLI's one-thread BLAS.

Each check that depends on what a process loads at import, or on how many
threads it starts, runs a fresh interpreter with ``PYTHONPATH`` set to
``src``; the test process itself has numpy loaded long before.
"""

import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import iontomo
from iontomo import errors, oscillator, states, tomography, verify

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")

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


def _cli(args, **blas):
    subprocess.run([sys.executable, "-m", "iontomo.cli", *args], env=_env(**blas), capture_output=True,
                   check=True, timeout=120)


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

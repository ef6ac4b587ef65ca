"""End-to-end checks of the four subcommands through ``iontomo.cli.main``."""

import ast
import contextlib
import copy
import functools
import io
import json
import math
import os
import pathlib
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontomo import (
    GaussianState,
    OpticalSinogram,
    OscillatorParams,
    SolverError,
    WignerGrid,
    solve_epsilon,
    tomogram_gaussian,
)
from iontomo import _container, _svg, cli, oscillator, states, tomography, verify
from iontomo.cli import main
from iontomo.oscillator import _BLOCK
from test_oscillator import DEPS_AT_10, EPS_AT_10


def cfg_file(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


# -------------------------------------------------------------------- epsilon


def test_epsilon_static_trap(tmp_path):
    t_end = 6.0
    cfg = cfg_file(tmp_path, {"kappa": 0.0, "omega_drive": 1.0, "t_end": t_end})
    out = tmp_path / "eps.csv"
    assert main(["epsilon", "--config", cfg, "--out", str(out)]) == 0

    data = read_csv(out)
    assert data.dtype.names == ("t", "re_eps", "im_eps", "re_deps", "im_deps", "wronskian")
    assert np.max(np.abs(data["wronskian"] - 1.0)) <= 1e-8
    assert data["re_eps"][-1] == pytest.approx(math.cos(t_end), abs=1e-8)
    assert data["im_eps"][-1] == pytest.approx(math.sin(t_end), abs=1e-8)


def test_epsilon_driven_matches_frozen_reference(tmp_path):
    cfg = cfg_file(
        tmp_path,
        {"kappa": 0.4, "omega_drive": 2.0, "t_end": 10.0, "out": str(tmp_path / "eps.csv")},
    )
    assert main(["epsilon", "--config", cfg]) == 0
    data = read_csv(tmp_path / "eps.csv")
    assert complex(data["re_eps"][-1], data["im_eps"][-1]) == pytest.approx(EPS_AT_10, abs=1e-9)
    assert complex(data["re_deps"][-1], data["im_deps"][-1]) == pytest.approx(DEPS_AT_10, abs=1e-9)


@pytest.mark.parametrize(
    "payload",
    [
        {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1e-7, "n_steps": 60001, "tol": 1e-30},
        {"kappa": 1.0, "omega_drive": 1.2247, "t_end": 100.0},
        {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1e308},  # 2000 * t_end is inf
    ],
    ids=["step-floor", "resonance", "step-count-overflow"],
)
def test_epsilon_unreachable_tolerance_fails_numerically(tmp_path, payload):
    cfg = cfg_file(tmp_path, payload)
    out = tmp_path / "eps.csv"
    assert main(["epsilon", "--config", cfg, "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_epsilon_gate_miss_reports_the_whole_pass(tmp_path, capsys):
    # the write stops at the first block over the gate, the integration does not
    payload = {"kappa": 1.0, "omega_drive": 1.2247, "t_end": 100.0}
    with pytest.raises(SolverError) as want:
        solve_epsilon(OscillatorParams(1.0, 1.2247), 100.0)
    capsys.readouterr()
    assert main(["epsilon", "--config", cfg_file(tmp_path, payload), "--out", str(tmp_path / "eps.csv")]) == 1
    assert capsys.readouterr().err == f"iontomo: {want.value}\n"


def test_epsilon_step_count_cap_exits_1(tmp_path):
    cfg = cfg_file(tmp_path, {"kappa": 1e4, "omega_drive": 2.0, "t_end": 100.0})
    out = tmp_path / "eps.csv"
    assert main(["epsilon", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def save_trajectory(path, traj):
    """The epsilon CSV of a whole trajectory: the oracle of the CLI's streamed write."""
    _container.save_csv_rows(str(path), ("t", "re_eps", "im_eps", "re_deps", "im_deps", "wronskian"),
                             (traj.times, traj.eps.real, traj.eps.imag, traj.deps.real, traj.deps.imag,
                              traj.wronskian()))


@pytest.mark.parametrize("block", [3, _BLOCK])
@pytest.mark.parametrize("n", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_epsilon_stream_matches_the_whole_trajectory(tmp_path, monkeypatch, block, n):
    monkeypatch.setattr(oscillator, "_BLOCK", block)
    payload = {"kappa": 0.4, "omega_drive": 2.0, "t_end": n / 1000.0, "n_steps": n}
    out = tmp_path / "eps.csv"
    assert main(["epsilon", "--config", cfg_file(tmp_path, payload), "--out", str(out)]) == 0
    save_trajectory(tmp_path / "want.csv", solve_epsilon(OscillatorParams(0.4, 2.0), n / 1000.0, n))
    assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_epsilon_stream_keeps_only_the_pass_that_meets_the_gate(tmp_path, monkeypatch):
    # from 8 steps the policy doubles eight times; each miss leaves no file behind
    monkeypatch.setattr(oscillator, "_BLOCK", 300)
    payload = {"kappa": 3.0, "omega_drive": 5.0, "t_end": 10.0, "n_steps": 8}
    out = tmp_path / "eps.csv"
    assert main(["epsilon", "--config", cfg_file(tmp_path, payload), "--out", str(out)]) == 0
    assert sorted(tmp_path.iterdir()) == [tmp_path / "cfg.json", out]
    save_trajectory(tmp_path / "want.csv", solve_epsilon(OscillatorParams(3.0, 5.0), 10.0, 8))
    assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_epsilon_nan_in_a_middle_block_fails_the_gate(tmp_path, monkeypatch):
    # exact samples but one NaN, in the third of four blocks
    def rk4(params, t_end, n_steps):
        for s in range(0, n_steps + 1, 4):
            t = np.arange(s, min(s + 4, n_steps + 1)) * (t_end / n_steps)
            eps, deps = np.exp(1j * t), 1j * np.exp(1j * t)
            if s == 8:
                deps[1] = np.nan
            yield t, eps, deps

    monkeypatch.setattr(oscillator, "_rk4", rk4)
    cfg = cfg_file(tmp_path, {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0, "n_steps": 15})
    assert main(["epsilon", "--config", cfg, "--out", str(tmp_path / "eps.csv")]) == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_epsilon_scratch_is_bounded(tmp_path):
    # the whole trajectory and its Wronskian column took 48 bytes per step, 12.6 MB here
    n = 2 ** 18
    cfg = cfg_file(tmp_path, {"kappa": 0.4, "omega_drive": 2.0, "t_end": n / 2000, "n_steps": n})
    tracemalloc.start()
    try:
        assert main(["epsilon", "--config", cfg, "--out", str(tmp_path / "eps.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 21


def test_epsilon_plot(tmp_path):
    # up to _PLOT_SAMPLES samples the plot draws every one, as from the whole trajectory
    cfg = cfg_file(tmp_path, {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0})
    out = tmp_path / "eps.csv"
    assert main(["epsilon", "--config", cfg, "--out", str(out), "--plot"]) == 0
    svg = tmp_path / "eps.svg"
    assert ET.parse(svg).getroot().tag.endswith("svg")
    traj = solve_epsilon(OscillatorParams(0.0, 1.0), 1.0)
    want = tmp_path / "want.svg"
    _svg.svg_polyline(str(want), traj.times, [("Re eps", traj.eps.real), ("Im eps", traj.eps.imag)],
                      title="mode function (kappa=0.0, Omega=1.0)", xlabel="t", ylabel="eps(t)")
    assert svg.read_bytes() == want.read_bytes()


def test_epsilon_refuses_a_plot_path_it_cannot_write(tmp_path, capsys):
    # --out e.svg --plot exited 0 with the plot written over the trajectory;
    # an e.svg directory failed after the solve: both now exit 2 and write nothing
    cfg = cfg_file(tmp_path, {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0})
    (tmp_path / "d.svg").mkdir()
    for out in ("e.svg", "d.csv"):
        assert main(["epsilon", "--config", cfg, "--out", str(tmp_path / out), "--plot"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("iontomo: ") and err.count("\n") == 1 and "is a directory or the output itself" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.svg"]


def test_epsilon_plot_of_a_long_run_is_strided(tmp_path, monkeypatch):
    monkeypatch.setattr(oscillator, "_BLOCK", 1000)
    n = 3 * cli._PLOT_SAMPLES
    cfg = cfg_file(tmp_path, {"kappa": 0.4, "omega_drive": 2.0, "t_end": n / 2000, "n_steps": n})
    assert main(["epsilon", "--config", cfg, "--out", str(tmp_path / "eps.csv"), "--plot"]) == 0
    traj = solve_epsilon(OscillatorParams(0.4, 2.0), n / 2000, n)
    want = tmp_path / "want.svg"
    _svg.svg_polyline(str(want), traj.times[::4], [("Re eps", traj.eps.real[::4]), ("Im eps", traj.eps.imag[::4])],
                      title="mode function (kappa=0.4, Omega=2.0)", xlabel="t", ylabel="eps(t)")
    assert (tmp_path / "eps.svg").read_bytes() == want.read_bytes()


# --------------------------------------------------------------- config errors


def test_malformed_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "eps.csv"
    assert main(["epsilon", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0, "bogus": 3},  # unknown key
        {"kappa": 0.0, "t_end": 1.0},  # missing omega_drive
        {"kappa": -0.5, "omega_drive": 1.0, "t_end": 1.0},  # invalid kappa
        {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0, "seed": 1.5},  # no subcommand has a seed key
        {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0, "seed": 3},
        [1, 2, 3],  # not an object
        {"kappa": 0.0, "omega_drive": 1.0, "t_end": math.inf},
        {"kappa": 0.0, "omega_drive": 1.0, "t_end": 10 ** 400},  # past the float range
        {"kappa": math.nan, "omega_drive": 1.0, "t_end": 1.0},
    ],
)
def test_epsilon_config_errors(tmp_path, payload):
    cfg = cfg_file(tmp_path, payload)
    assert main(["epsilon", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("flags", [["--serial"], ["--seed", "3"]], ids=["serial", "seed"])
def test_removed_flags_are_usage_errors(tmp_path, flags):
    # both were accepted and changed nothing
    cfg = cfg_file(tmp_path, {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0})
    assert main(["epsilon", "--config", cfg, "--out", str(tmp_path / "o.csv"), *flags]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_epsilon_rejects_binary_format(tmp_path):
    cfg = cfg_file(tmp_path, {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0})
    out = tmp_path / "eps.bin"
    assert main(["epsilon", "--config", cfg, "--out", str(out), "--format", "bin"]) == 2


def test_missing_config_file(tmp_path, capsys):
    assert main(["epsilon", "--config", str(tmp_path / "absent.json")]) == 2
    # a directory, bytes that are not UTF-8, or an int past Python's 4300 digits ended in a traceback (exit 1)
    (tmp_path / "cfg.d").mkdir()
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0, "out": "\xe9.csv"}')
    digits = tmp_path / "digits.json"
    digits.write_text('{"kappa": ' + "1" * 5000 + "}")
    capsys.readouterr()
    for cfg in (tmp_path / "cfg.d", latin, digits):
        assert main(["epsilon", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("iontomo: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.d", "digits.json", "latin.json"]


def test_missing_output_path(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0})
    assert main(["epsilon", "--config", cfg]) == 2
    # an --out in a missing directory failed after the compute with a traceback (exit 1); so did a directory
    capsys.readouterr()
    for out in (tmp_path / "missing" / "o.csv", tmp_path):
        assert main(["epsilon", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("iontomo: output path ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_usage_error_without_subcommand():
    assert main([]) == 2


# ------------------------------------------------------------------- tomogram


def tomogram_cfg(state, *, time=0.0, sinogram=None, **extra):
    payload = {"kappa": 0.0, "omega_drive": 1.0, "state": state}
    if time:
        payload["time"] = time
    if sinogram is not None:
        payload["sinogram"] = sinogram
    payload.update(extra)
    return payload


def test_vacuum_sinogram_angle_independent(tmp_path):
    cfg = cfg_file(
        tmp_path,
        tomogram_cfg({"kind": "gaussian"}, sinogram={"n_phi": 24, "x_min": -6, "x_max": 6, "n_x": 65}),
    )
    out = tmp_path / "sino.csv"
    assert main(["tomogram", "--config", cfg, "--out", str(out)]) == 0
    sino = OpticalSinogram.load(str(out))
    assert sino.values.shape == (24, 65)
    np.testing.assert_allclose(sino.column_norms(), 1.0, atol=1e-6)
    assert np.max(np.abs(sino.values - sino.values[0])) <= 1e-12


def test_evolved_vacuum_sinogram_unchanged(tmp_path):
    # static trap: the evolved vacuum stays rotation invariant
    cfg = cfg_file(
        tmp_path,
        tomogram_cfg({"kind": "gaussian"}, time=1.0,
                     sinogram={"n_phi": 24, "x_min": -6, "x_max": 6, "n_x": 65}),
    )
    out = tmp_path / "sino.csv"
    assert main(["tomogram", "--config", cfg, "--out", str(out)]) == 0
    sino = OpticalSinogram.load(str(out))
    vac = np.exp(-sino.x_axis ** 2) / math.sqrt(math.pi)
    assert np.max(np.abs(sino.values - vac)) <= 1e-10


def _count_maxima(x, w, floor):
    return sum(
        1 for i in range(1, w.size - 1)
        if w[i] > floor and w[i] >= w[i - 1] and w[i] > w[i + 1]
    )


def test_cat_sinogram_shows_fringes(tmp_path):
    cfg = cfg_file(
        tmp_path,
        tomogram_cfg({"kind": "cat", "alpha": 2.0, "parity": "even"},
                     sinogram={"n_phi": 36, "x_min": -6, "x_max": 6, "n_x": 401}),
    )
    out = tmp_path / "cat.csv"
    assert main(["tomogram", "--config", cfg, "--out", str(out)]) == 0
    sino = OpticalSinogram.load(str(out))
    # two coherent humps along the displacement axis, five fringe peaks at pi/2
    assert _count_maxima(sino.x_axis, sino.values[0], 1e-3) == 2
    assert _count_maxima(sino.x_axis, sino.values[18], 1e-3) == 5


@pytest.mark.parametrize("mode", ["sinogram", "samples"])
def test_tomogram_refuses_a_plot_path_it_cannot_write(tmp_path, capsys, mode):
    # --out s.svg --plot exited 0 with the plot written over the data, without a warning
    extra = {"mode": "samples", "queries": [[0.0, 1.0, 0.0, 0.0]]} if mode == "samples" else {}
    cfg = cfg_file(tmp_path, tomogram_cfg({"kind": "gaussian"}, **extra))
    (tmp_path / "d.svg").mkdir()
    for out in ("s.svg", "d.csv"):
        assert main(["tomogram", "--config", cfg, "--out", str(tmp_path / out), "--plot"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("iontomo: ") and err.count("\n") == 1 and "is a directory or the output itself" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.svg"]


def test_tomogram_samples_mode(tmp_path):
    queries = [[0.3, 1.0, 0.0, 0.0], [-0.7, 0.6, -0.8, 0.4], [1.1, 0.0, 1.0, -0.2]]
    cfg = cfg_file(
        tmp_path,
        tomogram_cfg({"kind": "gaussian", "alpha": [0.5, 0.5]}, mode="samples", queries=queries),
    )
    out = tmp_path / "samples.csv"
    assert main(["tomogram", "--config", cfg, "--out", str(out)]) == 0

    data = read_csv(out)
    assert data.dtype.names == ("X", "mu", "nu", "delta", "w")
    state = GaussianState(1.0, 1.0j, 0.5 + 0.5j)
    for row in np.atleast_1d(data):
        want = tomogram_gaussian(state, row["X"] - row["delta"], row["mu"], row["nu"])
        assert row["w"] == pytest.approx(float(want), abs=1e-12)


@pytest.mark.parametrize(
    "payload",
    [
        tomogram_cfg({"kind": "gaussian"}, mode="samples", queries=[[0.0, 0.0, 0.0, 0.0]]),
        tomogram_cfg({"kind": "number"}),
        tomogram_cfg({"kind": "gaussian"}, mode="pdf"),
        tomogram_cfg({"kind": "gaussian", "parity": "even"}),  # key not valid for gaussian
        tomogram_cfg({"kind": "cat", "alpha": 0.0, "parity": "odd"}),  # diverges
        tomogram_cfg({"kind": "gaussian", "alpha": math.nan}),
        tomogram_cfg({"kind": "gaussian"}, mode="samples", queries=[[0.0, math.nan, 0.0, 0.0]]),
    ],
)
def test_tomogram_config_errors(tmp_path, payload):
    cfg = cfg_file(tmp_path, payload)
    assert main(["tomogram", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_large_cat_samples_are_finite(tmp_path, parity):
    # cosh|alpha|^2 overflows a float from |alpha| = 26.7 on; the marginal does not
    peak = 27.0 * math.sqrt(2.0)
    queries = [[peak, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    cfg = cfg_file(tmp_path, tomogram_cfg({"kind": "cat", "alpha": 27.0, "parity": parity},
                                          mode="samples", queries=queries))
    out = tmp_path / "samples.csv"
    assert main(["tomogram", "--config", cfg, "--out", str(out)]) == 0
    w = read_csv(out)["w"]
    assert np.all(np.isfinite(w))
    assert w[0] == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-12)
    assert w[1] == 0.0


@pytest.mark.parametrize("query", [
    [1e308, 1.0, 1.0, -1e308],  # X - delta overflows
    [0.5, 1e200, 1e200, 0.0],  # mu^2 + nu^2 overflows
    [0.5, 1e-200, 0.0, 0.0],  # mu^2 + nu^2 underflows to 0
], ids=["shift-overflow", "frame-overflow", "frame-underflow"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tomogram_samples_reject_a_non_finite_density(tmp_path, capsys, query):
    queries = [[0.5, 1.0, 0.0, 0.0], query]
    cfg = cfg_file(tmp_path, tomogram_cfg({"kind": "cat", "alpha": [1.0, 0.5], "parity": "odd"},
                                          mode="samples", queries=queries, kappa=0.4, omega_drive=2.0, time=1.0))
    out = tmp_path / "samples.csv"
    assert main(["tomogram", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("iontomo: ") and err.count("\n") == 1 and "query row 1 " in err
    assert not out.exists()


@pytest.mark.parametrize("state, time", [
    ({"kind": "cat", "alpha": [1.5, 0.5], "parity": "odd"}, 0.0),
    ({"kind": "cat", "alpha": [1.5, 0.5], "parity": "odd"}, 3.7),
    ({"kind": "cat", "alpha": 2.0, "parity": "even"}, 2.0),
    ({"kind": "gaussian", "alpha": [1.0, -0.5]}, 0.0),
    ({"kind": "gaussian", "alpha": [1.0, -0.5]}, 2.0),
], ids=["odd-cat-t0", "odd-cat-t3.7", "even-cat-t2", "gaussian-t0", "gaussian-t2"])
def test_samples_at_the_sinogram_points_are_its_values(tmp_path, state, time):
    # both modes call the evaluator on row blocks; per-row scalar calls
    # differed at rounding level on 31 of these 492 points (odd cat, t = 0)
    base = tomogram_cfg(state, time=time, kappa=0.4, omega_drive=2.0)
    sino_cfg = cfg_file(tmp_path, {**base, "sinogram": {"n_phi": 12, "x_min": -6, "x_max": 6, "n_x": 41}},
                        name="sino.json")
    # the CSV holds the axes the sinogram was evaluated on (the container rebuilds them by linspace)
    assert main(["tomogram", "--config", sino_cfg, "--out", str(tmp_path / "sino.csv")]) == 0
    sino = OpticalSinogram.load(str(tmp_path / "sino.csv"))
    mu, nu = np.cos(sino.phi_axis), np.sin(sino.phi_axis)
    queries = [[x, m, n, 0.0] for m, n in zip(mu.tolist(), nu.tolist()) for x in sino.x_axis.tolist()]
    samples_cfg = cfg_file(tmp_path, {**base, "mode": "samples", "queries": queries}, name="samples.json")
    assert main(["tomogram", "--config", samples_cfg, "--out", str(tmp_path / "samples.csv")]) == 0
    assert read_csv(tmp_path / "samples.csv")["w"].tobytes() == sino.values.tobytes()


@pytest.mark.parametrize("block_points", [3, states._EVAL_BLOCK_POINTS])
def test_samples_blocks_are_bit_identical(tmp_path, monkeypatch, block_points):
    # one query per block at 3 points, all 400 in one block at the default;
    # the evaluator on all of them at once is the reference
    rng = np.random.default_rng(11)
    rows = np.column_stack([rng.uniform(-5.0, 5.0, 400), rng.uniform(-2.0, 2.0, (400, 2)),
                            rng.uniform(-1.0, 1.0, 400)])
    spec = states.CatSpec(1.5 + 0.5j, "odd")
    eps, deps = oscillator.epsilon_at(OscillatorParams(0.4, 2.0), 3.0)
    whole = tomography.evolve_tomogram(functools.partial(tomography.tomogram_cat, spec), eps, deps,
                                       rows[:, 0] - rows[:, 3], rows[:, 1], rows[:, 2])
    monkeypatch.setattr(states, "_EVAL_BLOCK_POINTS", block_points)
    cfg = cfg_file(tmp_path, tomogram_cfg({"kind": "cat", "alpha": [1.5, 0.5], "parity": "odd"}, time=3.0,
                                          kappa=0.4, omega_drive=2.0, mode="samples", queries=rows.tolist()))
    out = tmp_path / "samples.csv"
    assert main(["tomogram", "--config", cfg, "--out", str(out)]) == 0
    assert read_csv(out)["w"].tobytes() == whole.tobytes()


def test_serial_reruns_are_byte_identical(tmp_path):
    cfg = cfg_file(
        tmp_path,
        tomogram_cfg({"kind": "cat", "alpha": 1.0, "parity": "odd"},
                     sinogram={"n_phi": 24, "x_min": -6, "x_max": 6, "n_x": 65}),
    )
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    for out in (a, b, c):
        assert main(["tomogram", "--config", cfg, "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def evaluated_axes(monkeypatch):
    """The list, filled as the CLI runs, of the (phi, x) axes of each sinogram it evaluates."""
    seen = []
    sample = OpticalSinogram.from_evaluator

    def record(evaluator, phi_axis, x_axis):
        seen.append((phi_axis.tobytes(), x_axis.tobytes()))
        return sample(evaluator, phi_axis, x_axis)

    monkeypatch.setattr(OpticalSinogram, "from_evaluator", record)
    return seen


def test_sinogram_binary_round_trip(tmp_path, monkeypatch):
    evaluated = evaluated_axes(monkeypatch)
    cfg = cfg_file(tmp_path, tomogram_cfg({"kind": "gaussian"}))
    out = tmp_path / "sino.bin"
    assert main(["tomogram", "--config", cfg, "--out", str(out), "--format", "bin"]) == 0
    sino = OpticalSinogram.load(str(out))
    assert evaluated == [(sino.phi_axis.tobytes(), sino.x_axis.tobytes())]
    again = tmp_path / "again.bin"
    sino.save(str(again), fmt="bin")
    assert again.read_bytes() == out.read_bytes()

    # the binary container is a valid reconstruction input
    rcfg = cfg_file(tmp_path, {"input": str(out)}, name="rec.json")
    assert main(["reconstruct", "--config", rcfg, "--out", str(tmp_path / "w.csv")]) == 0
    grid = WignerGrid.load(str(tmp_path / "w.csv"))
    i0 = np.searchsorted(grid.q_axis, 0.0)
    assert grid.values[i0, i0] == pytest.approx(2.0, rel=5e-2)


def test_csv_and_bin_copies_reconstruct_to_the_same_bytes(tmp_path, monkeypatch):
    # the bin copy's angles were rebuilt by np.linspace 1 ulp off the CSV's
    # np.arange(n) * pi / n (44 of 180), and FBP gave other bytes from each copy
    evaluated = evaluated_axes(monkeypatch)
    cfg = cfg_file(tmp_path, tomogram_cfg({"kind": "cat", "alpha": [2.0, 0.3], "parity": "even"}, time=1.3,
                                          kappa=0.4, omega_drive=2.0))
    grid = {"q_min": -6, "q_max": 6, "n_q": 61, "p_min": -6, "p_max": 6, "n_p": 61}
    outputs = {}
    for fmt in ("csv", "bin"):
        sino = tmp_path / f"sino.{fmt}"
        assert main(["tomogram", "--config", cfg, "--out", str(sino), "--format", fmt]) == 0
        loaded = OpticalSinogram.load(str(sino))
        assert evaluated[-1] == (loaded.phi_axis.tobytes(), loaded.x_axis.tobytes())
        for method in ("fbp", "fourier"):
            rcfg = cfg_file(tmp_path, {"input": str(sino), "method": method, "grid": grid}, name="rec.json")
            out = tmp_path / f"{method}.{fmt}.w.bin"
            assert main(["reconstruct", "--config", rcfg, "--out", str(out), "--format", "bin"]) == 0
            outputs[method, fmt] = out.read_bytes()
    assert evaluated[0] == evaluated[1]
    assert outputs["fbp", "csv"] == outputs["fbp", "bin"]
    assert outputs["fourier", "csv"] == outputs["fourier", "bin"]


# ----------------------------------------------------------------- reconstruct


@pytest.fixture(scope="module")
def cat_sinogram_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sino")
    cfg = cfg_file(tmp, tomogram_cfg({"kind": "cat", "alpha": 2.0, "parity": "even"}))
    out = tmp / "cat.csv"
    assert main(["tomogram", "--config", cfg, "--out", str(out)]) == 0
    return str(out)


def test_reconstruct_fbp_cat(tmp_path, cat_sinogram_file):
    cfg = cfg_file(
        tmp_path,
        {
            "input": cat_sinogram_file,
            "method": "fbp",
            "reference": {"kind": "cat", "alpha": 2.0, "parity": "even"},
        },
    )
    out = tmp_path / "wigner.csv"
    assert main(["reconstruct", "--config", cfg, "--out", str(out), "--plot"]) == 0

    report = json.loads((tmp_path / "wigner.report.json").read_text())
    assert report["method"] == "fbp"
    assert report["input"] == cat_sinogram_file
    assert abs(report["normalization"] - 1.0) <= report["norm_tol"]
    assert report["rel_l2_error"] < report["l2_tol"] == 0.05

    svg = tmp_path / "wigner.svg"
    assert svg.exists()
    assert ET.parse(svg).getroot().tag.endswith("svg")


def test_reconstruct_quality_gate_failure_still_writes_outputs(tmp_path, cat_sinogram_file):
    cfg = cfg_file(
        tmp_path,
        {
            "input": cat_sinogram_file,
            "method": "fbp",
            "reference": {"kind": "cat", "alpha": 2.0, "parity": "even"},
            "l2_tol": 1e-4,
        },
    )
    out = tmp_path / "wigner.csv"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 1
    assert out.exists()
    report = json.loads((tmp_path / "wigner.report.json").read_text())
    assert report["rel_l2_error"] > 1e-4


def test_reconstruct_fourier_normalization_miss_still_writes_outputs(tmp_path, capsys):
    # the grid over [-2, 2] cuts off most of the cat's mass; like fbp, the
    # Fourier path writes the grid and the report before its gate exits 1
    scfg = cfg_file(tmp_path, tomogram_cfg({"kind": "cat", "alpha": 2.0, "parity": "even"},
                                           sinogram={"n_phi": 90, "n_x": 161}), name="sino.json")
    sino = tmp_path / "cat.bin"
    assert main(["tomogram", "--config", scfg, "--out", str(sino), "--format", "bin"]) == 0
    cfg = cfg_file(tmp_path, {"input": str(sino), "method": "fourier",
                              "grid": {"q_min": -2, "q_max": 2, "n_q": 41, "p_min": -2, "p_max": 2, "n_p": 41}})
    out = tmp_path / "w.bin"
    assert main(["reconstruct", "--config", cfg, "--out", str(out), "--format", "bin"]) == 1
    assert "normalization 0.1" in capsys.readouterr().err
    grid = WignerGrid.load(str(out))
    report = json.loads((tmp_path / "w.report.json").read_text())
    # measured 0.118
    assert report["normalization"] == grid.integral() < 0.2
    assert report["norm_tol"] == 0.05


def test_reconstruct_fbp_far_grid_casts_no_index_overflow(tmp_path, capsys):
    # over +-1e18 each point's fine-sample position passes 2^63; its integer cast
    # once warned "invalid value encountered in cast" before the gate's line
    scfg = cfg_file(tmp_path, tomogram_cfg({"kind": "gaussian"}, sinogram={"n_phi": 32, "n_x": 129}), name="sino.json")
    sino = tmp_path / "vac.bin"
    assert main(["tomogram", "--config", scfg, "--out", str(sino), "--format", "bin"]) == 0
    capsys.readouterr()
    far = {"q_min": -1e18, "q_max": 1e18, "n_q": 41, "p_min": -1e18, "p_max": 1e18, "n_p": 41}
    axis = np.linspace(-1e18, 1e18, 41)
    cfg = cfg_file(tmp_path, {"input": str(sino), "method": "fbp", "grid": far})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(tomography.radon_reconstruct(OpticalSinogram.load(str(sino)), axis, axis).values))
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "w.bin"), "--format", "bin"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("iontomo: normalization ")


def test_reconstruct_fourier_vacuum(tmp_path):
    scfg = cfg_file(tmp_path, tomogram_cfg({"kind": "gaussian"}), name="sino.json")
    sino_path = tmp_path / "vac.csv"
    assert main(["tomogram", "--config", scfg, "--out", str(sino_path)]) == 0

    rcfg = cfg_file(
        tmp_path,
        {
            "input": str(sino_path),
            "method": "fourier",
            "grid": {"q_min": -6, "q_max": 6, "n_q": 81, "p_min": -6, "p_max": 6, "n_p": 81},
            "fourier": {"k_max": 8.0, "n_nodes": 97, "n_y": 257},
        },
        name="rec.json",
    )
    out = tmp_path / "w.csv"
    assert main(["reconstruct", "--config", rcfg, "--out", str(out)]) == 0
    grid = WignerGrid.load(str(out))
    assert grid.values[40, 40] == pytest.approx(2.0, abs=2e-2)
    report = json.loads((tmp_path / "w.report.json").read_text())
    assert report["normalization"] == pytest.approx(1.0, abs=1e-2)
    assert report["rel_l2_error"] is None


def test_reconstruct_fourier_cat_transforms_each_ray(tmp_path, cat_sinogram_file):
    # the sinogram is transformed ray by ray on its own X samples, so n_y is
    # validated but changes nothing
    outputs = []
    for n_y in (513, 65):
        cfg = cfg_file(
            tmp_path,
            {
                "input": cat_sinogram_file,
                "method": "fourier",
                "reference": {"kind": "cat", "alpha": 2.0, "parity": "even"},
                "fourier": {"n_y": n_y},
            },
            name=f"rec{n_y}.json",
        )
        out = tmp_path / f"w{n_y}.bin"
        assert main(["reconstruct", "--config", cfg, "--out", str(out), "--format", "bin"]) == 0
        report = json.loads((tmp_path / f"w{n_y}.report.json").read_text())
        # measured 6.4e-6 (the interpolating evaluator gave 2.1e-4)
        assert report["rel_l2_error"] < 2e-5
        outputs.append((out.read_bytes(), report))
    assert outputs[0] == outputs[1]


def test_reconstruct_missing_and_invalid_input(tmp_path):
    cfg = cfg_file(tmp_path, {"input": str(tmp_path / "nope.csv")})
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "w.csv")]) == 2

    garbage = tmp_path / "garbage.csv"
    garbage.write_text("this,is,not\na,sinogram,file\n")
    cfg2 = cfg_file(tmp_path, {"input": str(garbage)}, name="g.json")
    assert main(["reconstruct", "--config", cfg2, "--out", str(tmp_path / "w.csv")]) == 2

    # a directory ended in a traceback (exit 1)
    cfg3 = cfg_file(tmp_path, {"input": str(tmp_path)}, name="d.json")
    assert main(["reconstruct", "--config", cfg3, "--out", str(tmp_path / "w.csv")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d.json", "g.json", "garbage.csv"]


def test_reconstruct_refuses_side_files_it_cannot_write(tmp_path, capsys, cat_sinogram_file):
    # a w.report.json directory left w.csv written and ended in an
    # IsADirectoryError traceback (exit 1); --out w.svg --plot had the plot
    # overwrite the grid: both now exit 2 before any compute and write nothing
    cfg = cfg_file(tmp_path, {"input": cat_sinogram_file})
    (tmp_path / "w.report.json").mkdir()
    for out, flags in (("w.csv", []), ("w.bin", ["--plot"]), ("v.svg", ["--plot"])):
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("iontomo: ") and err.count("\n") == 1 and "is a directory or the output itself" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "w.report.json"]


def _drop(key):
    return lambda header: header.pop(key)


@pytest.mark.parametrize("corrupt", [
    pytest.param(_drop("shape"), id="no-shape"),
    pytest.param(_drop("axes"), id="no-axes"),
    pytest.param(_drop("kind"), id="no-kind"),
    pytest.param(lambda h: h["axes"]["x"].update(n="65"), id="n-string"),
    pytest.param(lambda h: h.update(shape="ab"), id="shape-string"),
    pytest.param(lambda h: h.update(dtype=">f8"), id="big-endian"),
    pytest.param(lambda h: h.update(shape=[24, 65, 1]), id="shape-axis-count"),
    pytest.param(lambda h: h["axes"]["x"].update(n=64), id="axis-n-shape"),
])
def test_reconstruct_rejects_a_malformed_container_header(tmp_path, capsys, corrupt):
    # a header with a valid format marker and version but a missing, mistyped or
    # inconsistent field ended in a traceback (exit 1); it is invalid input
    phi = np.linspace(0.0, math.pi, 24, endpoint=False)
    x = np.linspace(-6.0, 6.0, 65)
    values = tomography.optical_slice(functools.partial(tomography.tomogram_cat, states.CatSpec(1.0, "even")),
                                      phi[:, np.newaxis], x)
    sino = tmp_path / "sino.bin"
    _container.save_container(str(sino), "sinogram", ["phi", "x"], [phi, x], values)
    line, payload = sino.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    corrupt(header)
    sino.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    cfg = cfg_file(tmp_path, {"input": str(sino)})
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "w.bin")]) == 2
    assert capsys.readouterr().err.startswith("iontomo: input file invalid: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_reconstruct_rejects_a_sinogram_csv_off_its_grid(tmp_path, capsys):
    # the third of 24 angles lists X in reverse; the displaced state's values
    # would land on the wrong X, so the file is invalid input: exit 2, nothing written
    scfg = cfg_file(
        tmp_path,
        tomogram_cfg({"kind": "gaussian", "alpha": [1.0, 0.0]}, sinogram={"n_phi": 24, "x_min": -6, "x_max": 6, "n_x": 65}),
        name="sino.json",
    )
    sino = tmp_path / "sino.csv"
    assert main(["tomogram", "--config", scfg, "--out", str(sino)]) == 0
    lines = sino.read_text().splitlines(keepends=True)
    lines[131:196] = lines[131:196][::-1]
    sino.write_text("".join(lines))
    cfg = cfg_file(tmp_path, {"input": str(sino)})
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "w.csv")]) == 2
    err = capsys.readouterr().err
    assert "input file invalid" in err and "row 131 after the header" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sino.csv", "sino.json"]


def test_reconstruct_fbp_rejects_angles_that_do_not_tile_the_half_turn(tmp_path, capsys):
    # 32 cat marginals over [0, pi / 2): FBP read them with the step pi / 32 and
    # exited 0 with normalization 0.985 (rel-L2 0.89); the file is invalid input
    phi = np.linspace(0.0, math.pi / 2, 32, endpoint=False)
    x = np.linspace(-8.0, 8.0, 257)
    sino = tmp_path / "quarter.csv"
    cat = functools.partial(tomography.tomogram_cat, states.CatSpec(2.0, "even"))
    marginals = tomography.optical_slice(cat, phi[:, np.newaxis], x)
    _container.save_csv_triples(str(sino), ("phi", "x", "w"), phi, x, marginals)
    cfg = cfg_file(tmp_path, {"input": str(sino), "method": "fbp"})
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "w.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("iontomo: input file invalid: ") and "phi_axis must tile [0, pi)" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_reconstruct_rejects_few_angles_and_bad_apodization(tmp_path, capsys):
    scfg = cfg_file(
        tmp_path,
        tomogram_cfg({"kind": "gaussian"}, sinogram={"n_phi": 12, "x_min": -6, "x_max": 6, "n_x": 65}),
        name="sino.json",
    )
    sparse = tmp_path / "sparse.csv"
    assert main(["tomogram", "--config", scfg, "--out", str(sparse)]) == 0
    cfg = cfg_file(tmp_path, {"input": str(sparse)})
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "w.csv")]) == 2

    dense = tmp_path / "dense.csv"
    scfg2 = cfg_file(
        tmp_path,
        tomogram_cfg({"kind": "gaussian"}, sinogram={"n_phi": 24, "x_min": -6, "x_max": 6, "n_x": 65}),
        name="sino2.json",
    )
    assert main(["tomogram", "--config", scfg2, "--out", str(dense)]) == 0
    # no config key selects the FBP filter
    cfg2 = cfg_file(tmp_path, {"input": str(dense), "apodization": "hann"}, name="apod.json")
    capsys.readouterr()
    assert main(["reconstruct", "--config", cfg2, "--out", str(tmp_path / "w.csv")]) == 2
    assert "unknown reconstruct config keys: apodization" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sinogram, message",
    [({"n_phi": 1, "n_x": 65}, "1 angle"),
     ({"n_phi": 24, "x_min": -6, "x_max": 7, "n_x": 66}, "not symmetric about 0")],
    ids=["one-angle", "off-centre-x"],
)
def test_reconstruct_fourier_rejects_a_sinogram_it_cannot_fold(tmp_path, capsys, sinogram, message):
    # valid sinograms that the Fourier path's angle wrap cannot read
    scfg = cfg_file(tmp_path, tomogram_cfg({"kind": "gaussian"}, sinogram=sinogram), name="sino.json")
    sino = tmp_path / "sino.csv"
    assert main(["tomogram", "--config", scfg, "--out", str(sino)]) == 0
    cfg = cfg_file(tmp_path, {"input": str(sino), "method": "fourier"}, name="rec.json")
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "w.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("iontomo: input file invalid: ") and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


# --------------------------------------------------------------------- verify


def verify_cfg(**extra):
    payload = {"kappa": 0.4, "omega_drive": 2.0}
    payload.update(extra)
    return payload


def test_verify_default_suite(tmp_path):
    cfg = cfg_file(tmp_path, verify_cfg())
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert set(report["checks"]) == {
        "pde_gaussian_max", "pde_gaussian_order", "pde_cat_max", "pde_cat_order", "moments_max",
    }
    assert all(report["checks"].values())
    assert report["pde_gaussian"]["max_abs_residual"] < report["thresholds"]["pde_max"]
    assert report["moments"]["max_abs_residual"] < report["thresholds"]["moment_max"]


def test_verify_negative_control_detected(tmp_path):
    # the frozen control is held against the honest Gaussian's extrapolated
    # residual; against its raw one, which keeps the stencils' h^2 error
    # (1.0e-3 to 7.3e-3), these drives read ratios of 114 to 637 and exited 1
    for extra in ({}, {"kappa": 2.0, "omega_drive": 3.0},
                  *({"kappa": 1.0, "omega_drive": 1.2247, "alpha": a} for a in (0, 2, [0, 1], [0.3, 0.7]))):
        cfg = cfg_file(tmp_path, verify_cfg(suite="negative-control", **extra))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0, extra
        report = json.loads(out.read_text())
        assert report["checks"]["negative_control_detected"] is True
        assert report["pde_frozen"]["max_abs_residual"] >= report["thresholds"]["negative_min"]
        assert report["passed"] is True


@pytest.mark.parametrize("extra", [
    {"kappa": 0.6},
    {"kappa": 1.2},
    {"kappa": 0.8, "cat": {"alpha": [math.cos(0.8), math.sin(0.8)]}},
], ids=["kappa-0.6", "kappa-1.2", "kappa-0.8-phase-0.8"])
def test_verify_gates_the_extrapolated_residual(tmp_path, extra):
    # the raw max of the cat residual is the central differences' own h^2
    # error, over the gate at order 2.00 (1.7e-4 at kappa 0.6, 5.2e-4 at
    # 1.2); extrapolated it is at most 1.7e-9 on all three
    cfg = cfg_file(tmp_path, verify_cfg(**extra))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pde_cat"]["max_abs_residual"] > report["thresholds"]["pde_max"]
    assert report["pde_cat"]["max_abs_extrapolated"] < 1e-7


def test_verify_gate_fails_a_near_miss_evolution(tmp_path, monkeypatch):
    # frames transported along a drive with kappa 1% low: the extrapolated
    # residual keeps the defect, 1.6e-3 (gaussian) and 2.9e-3 (cat)
    near = cli.OscillatorParams(kappa=0.4 * 0.99, omega_drive=2.0)
    monkeypatch.setattr(cli, "replacement_evolution",
                        lambda initial, params: verify.replacement_evolution(initial, near))
    cfg = cfg_file(tmp_path, verify_cfg())
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert not report["checks"]["pde_gaussian_max"] and not report["checks"]["pde_cat_max"]
    assert report["pde_cat"]["max_abs_extrapolated"] > 1e-3


def test_verify_custom_probe(tmp_path):
    probe = {
        "x_values": [0.0, 1.0],
        "mu_values": [0.5, 1.0],
        "nu_values": [0.0, 0.5],
        "t_values": [0.5, 1.0],
        "delta_values": [0.0],
        "h_t": 0.002,
    }
    cfg = cfg_file(tmp_path, verify_cfg(probe=probe))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pde_gaussian"]["grid_spec"]["t_values"] == [0.5, 1.0]
    assert report["pde_gaussian"]["h_t"] == 0.002


@pytest.mark.parametrize(
    "extra",
    [
        {"probe": {"mu_values": [0.0005, 1.0]}},  # too close to the degenerate frame
        {"suite": "bogus"},
        {"cat": {"alpha": 1.0, "parity": "even", "phase": 0.3}},  # unknown cat key
        {"probe": {"h_t": math.nan}},
        # the time stencil would reach t - h_t < 0, where the mode function has no value
        {"probe": {"t_values": [0.5], "h_t": 1.0}},
        {"probe": {"t_values": [-1.0]}},
    ],
)
def test_verify_config_errors(tmp_path, extra):
    cfg = cfg_file(tmp_path, verify_cfg(**extra))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("flags, extra", [
    (["--plot"], {}),
    (["--format", "csv"], {}),
    (["--format", "bin"], {}),
    ([], {"format": "csv"}),
], ids=["plot", "format-csv", "format-bin", "config-format"])
def test_verify_rejects_plot_and_format(tmp_path, capsys, flags, extra):
    # the report is always JSON and verify draws nothing: both were ignored with exit 0
    cfg = cfg_file(tmp_path, verify_cfg(t_end=1.0, **extra))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "r.json"), *flags]) == 2
    assert "verify:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_verify_non_finite_residual_exits_1(tmp_path, monkeypatch, capsys):
    # an odd cat near the CatSpec floor has N^2 ~ 1.6e308; its marginal, scaled
    # by N^2 before the small bracket, overflowed and failed here with exit 1.
    # It is finite now (measured: 1.5e-6, order 2.00)
    cfg = cfg_file(tmp_path, verify_cfg(cat={"alpha": 4e-155, "parity": "odd"}, t_end=1.0))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pde_cat"]["max_abs_residual"] < 1e-5
    out.unlink()
    # an evolution that overflows still exits 1 and writes nothing
    monkeypatch.setattr(cli, "replacement_evolution",
                        lambda initial, params: lambda X, mu, nu, delta, t: np.inf * np.ones(np.shape(mu)))
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert "non-finite residual" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_verify_passes_a_vanishing_odd_cat(tmp_path):
    # the four-term marginal cancelled to noise at alpha = 1e-100 and failed
    # pde_cat_max and pde_cat_order (exit 1); measured now: 1.5e-6, order 2.00
    cfg = cfg_file(tmp_path, verify_cfg(cat={"alpha": 1e-100, "parity": "odd"}, t_end=1.0))
    out = tmp_path / "r.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pde_cat"]["max_abs_residual"] < 1e-5


# ------------------------------------------------------------ nested sections


@pytest.mark.parametrize(
    "command, payload",
    [
        ("tomogram", tomogram_cfg({"kind": "cat", "phase": 0.3})),
        ("tomogram", tomogram_cfg({"kind": "gaussian"}, sinogram={"n_phi": 24, "bins": 9})),
        ("reconstruct", {"grid": {"n_q": 41, "n_r": 41}}),
        ("reconstruct", {"grid": [41, 41]}),  # not an object
        ("reconstruct", {"method": "fourier", "fourier": {"k_max": 8.0, "n_k": 9}}),
        ("reconstruct", {"reference": {"kind": "cat", "phase": 0.3}}),
        ("reconstruct", {"reference": {"kind": "bogus"}}),
        ("reconstruct", {"reference": {"kind": "gaussian", "parity": "even"}}),  # cat-only key
        ("reconstruct", {"reference": {"kind": "cat", "alpha": 0.0, "parity": "odd"}}),  # diverges
        ("verify", verify_cfg(cat={"alpha": 1.0, "phase": 0.3})),
        ("verify", verify_cfg(probe={"x_values": [0.0], "x_step": 0.1})),
        ("reconstruct", {"method": "fourier", "grid": {"q_min": 6.0, "q_max": -6.0}}),  # reversed
        ("tomogram", tomogram_cfg({"kind": "cat", "alpha": 1e-200, "parity": "odd"})),  # |alpha|^2 = 0
        ("verify", verify_cfg(cat={"alpha": 1e-200, "parity": "odd"})),
        ("verify", verify_cfg(cat={"alpha": 1e-155, "parity": "odd"})),  # N^2 overflows
        # x_max - x_min and q_max - q_min overflow a float
        ("tomogram", tomogram_cfg({"kind": "gaussian"}, sinogram={"x_min": -1e308, "x_max": 1e308})),
        ("reconstruct", {"method": "fourier", "grid": {"q_min": -1e308, "q_max": 1e308}}),
        # each mode's section is an unknown key in the other mode
        ("tomogram", tomogram_cfg({"kind": "gaussian"}, sinogram=5, mode="samples", queries=[[0.5, 1.0, 0.0, 0.0]])),
        ("tomogram", tomogram_cfg({"kind": "gaussian"}, mode="sinogram", queries="junk")),
        ("reconstruct", {"method": "fourier", "fourier": {"y_halfwidth_sigmas": 12.0}}),
        # a trap named at time 0 is checked, though the reference does not evolve
        ("reconstruct", {"reference": {"kind": "gaussian", "kappa": "junk"}}),
        ("reconstruct", {"reference": {"kind": "gaussian", "omega_drive": None}}),
    ],
)
def test_nested_config_errors_write_nothing(tmp_path, cat_sinogram_file, command, payload):
    if command == "reconstruct":
        payload = {"input": cat_sinogram_file, **payload}
    cfg = cfg_file(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, payload, keys", [
    ("tomogram", tomogram_cfg({"kind": "gaussian"}, sinogram={"x_min": -1e308, "x_max": 1e308}),
     "sinogram: x_min, x_max, n_x"),
    ("reconstruct", {"method": "fbp", "grid": {"p_min": -1e308, "p_max": 1e308}}, "grid: p_min, p_max, n_p"),
], ids=["sinogram-x", "grid-p"])
def test_overflowing_axis_span_is_named_before_any_compute(tmp_path, vacuum_sinogram_file, monkeypatch, capsys,
                                                         command, payload, keys):
    # the span overflowed to NaN steps: tomogram computed the sinogram and
    # failed its validation (exit 1); reconstruct ran the whole FBP and then
    # blamed its input file (exit 2), both with numpy RuntimeWarnings
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the axis check")

    monkeypatch.setattr(cli, "_state", no_compute)
    monkeypatch.setattr(cli.OpticalSinogram, "load", no_compute)
    if command == "reconstruct":
        payload = {"input": vacuum_sinogram_file, **payload}
    cfg = cfg_file(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"iontomo: {keys} give no uniformly increasing axis\n"


# ----------------------------------------------------------- non-finite numbers


@pytest.mark.parametrize("command, payload, context", [
    ("tomogram", tomogram_cfg({"kind": "cat", "alpha": 1e200}, time=0.5), "tomogram"),
    ("tomogram", tomogram_cfg({"kind": "gaussian", "alpha": [1e200, 0.0]}, mode="samples",
                              queries=[[0.5, 1.0, 0.0, 0.0]]), "tomogram"),
    ("verify", verify_cfg(cat={"alpha": 1e200}), "verify"),
    ("verify", verify_cfg(alpha=[0.0, 1e200]), "verify"),
    ("reconstruct", {"reference": {"kind": "cat", "alpha": [1e154, 1e154], "parity": "odd"}}, "reference"),
], ids=["tomogram-cat", "tomogram-gaussian-samples", "verify-cat", "verify-gaussian", "reconstruct-reference"])
def test_an_amplitude_whose_square_overflows_exits_2_before_any_compute(tmp_path, cat_sinogram_file, monkeypatch,
                                                                      capsys, command, payload, context):
    # |alpha|^2 overflowed in CatSpec.norm_squared: an OverflowError traceback (exit 1) once compute had begun
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the amplitude check")

    for name in ("epsilon_at", "pde_residual", "moment_odes_check"):
        monkeypatch.setattr(cli, name, no_compute)
    monkeypatch.setattr(cli.OpticalSinogram, "load", no_compute)
    monkeypatch.setattr(cli.OpticalSinogram, "from_evaluator", no_compute)
    if command == "reconstruct":
        payload = {"input": cat_sinogram_file, **payload}
    cfg = cfg_file(tmp_path, payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"iontomo: {context}: alpha must have a finite |alpha|^2, got ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command, payload, message", [
    ("tomogram", tomogram_cfg({"kind": "cat", "alpha": 1e154}, time=0.5, sinogram={"n_phi": 16, "n_x": 33}),
     "sinogram failed validation: "),
    ("tomogram", tomogram_cfg({"kind": "gaussian", "alpha": [0.0, 1e154]}, sinogram={"n_phi": 16, "n_x": 33}),
     "sinogram failed validation: "),
    ("verify", verify_cfg(cat={"alpha": 1e154}), "verification thresholds failed: "),
    ("verify", verify_cfg(alpha=1e154), "verification thresholds failed: "),
    ("verify", verify_cfg(alpha=1e154, suite="negative-control"), "verification thresholds failed: "),
], ids=["tomogram-cat", "tomogram-gaussian", "verify-cat", "verify-gaussian", "verify-negative-control"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_displacement_outside_every_window_fails_with_one_line(tmp_path, capsys, command, payload, message):
    # |alpha|^2 is finite, but the marginals overflow: numpy printed up to 10
    # RuntimeWarning lines ahead of the gate's own line
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg_file(tmp_path, payload), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"iontomo: {message}") and err.count("\n") == 1
    # a sinogram that fails its checks is not written; a failed verify still writes its report
    assert out.exists() == (command == "verify")


def _leaves(value, path=()):
    """Paths to every number in a config, list entries included."""
    if isinstance(value, dict):
        return [leaf for key, v in value.items() for leaf in _leaves(v, path + (key,))]
    if isinstance(value, list):
        return [path] + [leaf for i, v in enumerate(value) for leaf in _leaves(v, path + (i,))]
    return [path] if isinstance(value, float) else []


#: Every number key, alpha, probe list and query row of each subcommand, set
#: so that each one is read: the reference's drive only when its time is > 0.
#: The integer keys (n_steps, n_phi, n_x, n_q, ...) are left out.
NUMBER_CONFIGS = {
    "epsilon": {"kappa": 0.4, "omega_drive": 2.0, "t_end": 1.0, "tol": 1e-9},
    "tomogram": {"kappa": 0.4, "omega_drive": 2.0, "time": 0.5,
                 "state": {"kind": "gaussian", "alpha": [0.5, 0.5]},
                 "sinogram": {"x_min": -6.0, "x_max": 6.0}},
    "samples": {"kappa": 0.4, "omega_drive": 2.0, "time": 0.5,
                "state": {"kind": "cat", "alpha": 1.0, "parity": "odd"}, "mode": "samples",
                "queries": [[0.3, 1.0, 0.0, 0.0], [-0.7, 0.6, -0.8, 0.4]]},
    "reconstruct": {"method": "fourier", "norm_tol": 0.05, "l2_tol": 0.05,
                    "grid": {"q_min": -6.0, "q_max": 6.0, "p_min": -6.0, "p_max": 6.0},
                    "fourier": {"k_max": 12.0},
                    "reference": {"kind": "gaussian", "alpha": 0.5, "time": 0.5,
                                  "kappa": 0.4, "omega_drive": 2.0}},
    "verify": {"kappa": 0.4, "omega_drive": 2.0, "alpha": 1.0, "moment_h": 1e-4, "t_end": 1.0,
               "cat": {"alpha": [1.0, 0.0]},
               "probe": {"x_values": [0.0, 1.0], "mu_values": [0.5], "nu_values": [0.0],
                         "t_values": [0.5], "delta_values": [0.0],
                         "h_t": 1e-3, "h_mu": 1e-3, "h_nu": 1e-3}},
}
BAD_NUMBERS = [math.nan, math.inf, -math.inf, 10 ** 400]
BAD_NUMBER_CASES = [(name, path, bad) for name, cfg in NUMBER_CONFIGS.items()
                    for path in _leaves(cfg) for bad in BAD_NUMBERS]


@pytest.fixture(scope="module")
def vacuum_sinogram_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("vacuum") / "sino.csv"
    cfg = cfg_file(path.parent, tomogram_cfg({"kind": "gaussian"},
                                             sinogram={"n_phi": 8, "x_min": -6, "x_max": 6, "n_x": 33}))
    assert main(["tomogram", "--config", cfg, "--out", str(path)]) == 0
    return str(path)


@settings(max_examples=2 * len(BAD_NUMBER_CASES), deadline=None)
@given(case=st.sampled_from(BAD_NUMBER_CASES))
def test_non_finite_numbers_are_config_errors(vacuum_sinogram_file, case):
    # json reads NaN, Infinity and integers of any length; none is a number
    # the CLI can compute with, so each must stop before any output
    name, path, bad = case
    payload = copy.deepcopy(NUMBER_CONFIGS[name])
    if name == "reconstruct":
        payload["input"] = vacuum_sinogram_file
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bad
    command = "tomogram" if name == "samples" else name
    with tempfile.TemporaryDirectory() as tmp:
        cfg = cfg_file(pathlib.Path(tmp), payload)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", cfg, "--out", os.path.join(tmp, "out.csv")])
        assert os.listdir(tmp) == ["cfg.json"]
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("iontomo: ")
    assert next(k for k in reversed(path) if isinstance(k, str)) in lines[0]


# ------------------------------------------------------------ benchmark hooks

TRACED_CLI = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"

#: The names perfbench/traced_cli.py replaces with traced wrappers, by module.
PATCHED = {
    "cli": {"epsilon_at", "solve_epsilon", "replacement_evolution", "frozen_frame_evolution",
            "pde_residual", "moment_odes_check", "sinogram_evaluator", "invert_to_wigner",
            "radon_reconstruct", "_atomic_write", "_DISPATCH"},
    "verify": {"epsilon_at"},
    "_container": {"save_csv_triples", "load_csv_triples", "save_container", "load_container"},
}


def test_names_the_benchmark_patches_exist():
    modules = {"cli": cli, "verify": verify, "_container": _container,
               "tomography": tomography, "states": states}
    tree = ast.parse(TRACED_CLI.read_text(encoding="utf-8"))
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {(m, name) for m, names in PATCHED.items() for name in names} <= used
    missing = sorted(f"{m}.{name}" for m, name in used if not hasattr(modules[m], name))
    assert missing == []
    for owner in (tomography.OpticalSinogram, states.WignerGrid):
        assert callable(owner.from_evaluator.__func__)


# ------------------------------------------------------------- integer sizes

#: Every integer key, as (command, config, path to the key).
INTEGER_KEYS = [
    ("epsilon", {"kappa": 0.0, "omega_drive": 1.0, "t_end": 1.0}, ("n_steps",)),
    ("tomogram", tomogram_cfg({"kind": "gaussian"}), ("sinogram", "n_phi")),
    ("tomogram", tomogram_cfg({"kind": "gaussian"}), ("sinogram", "n_x")),
    ("reconstruct", {"method": "fbp"}, ("grid", "n_q")),
    ("reconstruct", {"method": "fbp"}, ("grid", "n_p")),
    ("reconstruct", {"method": "fourier"}, ("fourier", "n_nodes")),
    ("reconstruct", {"method": "fourier"}, ("fourier", "n_y")),
]


#: The smallest value of each size key whose array exceeds the CLI's cap when
#: the other factor keeps its default (n_x 257, n_phi 180, n_q and n_p 121).
OVER_CAP = {
    ("sinogram", "n_phi"): cli._MAX_ARRAY_BYTES // (8 * 257) + 1,
    ("sinogram", "n_x"): cli._MAX_ARRAY_BYTES // (8 * 180) + 1,
    ("grid", "n_q"): cli._MAX_ARRAY_BYTES // (8 * 121) + 1,
    ("grid", "n_p"): cli._MAX_ARRAY_BYTES // (8 * 121) + 1,
    ("fourier", "n_nodes"): math.isqrt(cli._MAX_ARRAY_BYTES // 16) + 1,
}


@pytest.mark.parametrize("command, base, path, big", [
    pytest.param(command, base, path, big, id=f"{'.'.join(path)}-{name}")
    for command, base, path in INTEGER_KEYS
    for name, big in (("10**400", 10 ** 400), ("2**63", 2 ** 63), ("over-cap", OVER_CAP.get(path)))
    if big is not None
])
def test_unrepresentable_integers_are_config_errors(tmp_path, vacuum_sinogram_file,
                                                    command, base, path, big):
    # sizes past sys.maxsize, and sizes just over the array cap, which is
    # checked before anything of that size is allocated
    payload = copy.deepcopy(base)
    if command == "reconstruct":
        payload["input"] = vacuum_sinogram_file
    parent = payload
    for key in path[:-1]:
        parent = parent.setdefault(key, {})
    parent[path[-1]] = big
    cfg = cfg_file(tmp_path, payload)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")])
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("iontomo: ") and path[-1] in lines[0]
    assert len(lines[0]) < 200
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

"""Tomograms, projection, evolution, and both reconstruction routes.

Analytic marginals are checked against :func:`oracles.project_wigner`, which
integrates the closed-form Wigner functions along quadrature lines and
shares no moment algebra with them.
"""

import bisect
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iontomo import (
    CatSpec,
    DegenerateFrameError,
    GaussianState,
    InsufficientAnglesError,
    OpticalSinogram,
    OscillatorParams,
    WignerGrid,
    epsilon_at,
    evolve_tomogram,
    invert_to_wigner,
    optical_slice,
    radon_reconstruct,
    sinogram_evaluator,
    tomogram_cat,
    tomogram_gaussian,
    wigner_cat,
    wigner_gaussian,
)
from iontomo import _container, _fourier, cli, states, tomography
from iontomo.tomography import _frame_arrays
from iontomo.verify import replacement_evolution
from oracles import SupportTruncationWarning, project_wigner, table_invert_to_wigner

VACUUM = GaussianState()


def _cat_pieces(spec: CatSpec, Y, mu, nu):
    """The four-term cat marginal (w1, w2, w3, w4, r2) in which the odd cat cancels as alpha -> 0.

    The marginal is N^2 (pi r2)^{-1/2} Re[w1 + w2 +/- (w3 + w4)]; w4 = conj(w3) analytically.
    """
    mu, nu = _frame_arrays(mu, nu)
    r2 = mu ** 2 + nu ** 2
    alpha = complex(spec.alpha)
    a2 = abs(alpha) ** 2
    s = alpha * (mu - 1j * nu) / math.sqrt(2.0)
    s_re = 2.0 * s.real
    s_im = s - np.conj(s)
    w1 = np.exp(-((Y - s_re) ** 2) / r2)
    w2 = np.exp(-((Y + s_re) ** 2) / r2)
    w3 = np.exp(-2.0 * a2 - ((Y - s_im) ** 2) / r2)
    w4 = np.exp(-2.0 * a2 - ((Y + s_im) ** 2) / r2)
    return w1, w2, w3, w4, r2


CAT_SPECS = [
    CatSpec(1.0 + 0.0j, "even"),
    CatSpec(1.0 + 0.0j, "odd"),
    CatSpec(2.0 + 0.0j, "even"),
    CatSpec(2.0 + 0.0j, "odd"),
    CatSpec(2.0j, "even"),
    CatSpec(2.0j, "odd"),
]


def random_frames(rng, n, r_lo=0.5, r_hi=2.0):
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    r = rng.uniform(r_lo, r_hi, n)
    return r * np.cos(theta), r * np.sin(theta)


# ------------------------------------------------------------------ marginals


def test_vacuum_position_marginal():
    w = tomogram_gaussian(VACUUM, 0.0, 1.0, 0.0)
    assert float(w) == pytest.approx(math.pi ** -0.5, abs=1e-15)


@pytest.mark.parametrize("phi", [0.0, 0.4, math.pi / 2, 2.1])
def test_vacuum_marginal_rotation_invariant(phi):
    X = np.linspace(-4.0, 4.0, 41)
    w = tomogram_gaussian(VACUUM, X, math.cos(phi), math.sin(phi))
    np.testing.assert_allclose(w, np.exp(-X ** 2) / math.sqrt(math.pi), atol=1e-12)


def test_gaussian_tomogram_callable_matches_function():
    # the CLI's evaluator of a Gaussian state is the function itself
    state = GaussianState(1.0, 1.0j, 0.7 - 0.2j)
    evaluator, _ = cli._state({"kind": "gaussian", "alpha": [0.7, -0.2]}, "test", None, 0.0)
    X = np.linspace(-3, 3, 7)
    np.testing.assert_array_equal(evaluator(X, 0.8, -0.6), tomogram_gaussian(state, X, 0.8, -0.6))


def test_degenerate_frame_rejected():
    q = (0.0, 0.0, 0.0)
    with pytest.raises(DegenerateFrameError):
        tomogram_gaussian(VACUUM, *q)
    with pytest.raises(DegenerateFrameError):
        tomogram_cat(CAT_SPECS[0], *q)
    with pytest.raises(DegenerateFrameError):
        project_wigner(lambda qq, pp: wigner_gaussian(VACUUM, qq, pp), *q)
    with pytest.raises(DegenerateFrameError):
        evolve_tomogram(partial(tomogram_gaussian, VACUUM), 1.0, 1.0j, *q)


def test_cat_interference_terms_conjugate():
    for spec in CAT_SPECS:
        _, _, w3, w4, _ = _cat_pieces(spec, np.linspace(-4, 4, 33) - 0.3, 0.7, -1.1)
        assert np.max(np.abs(np.imag(w3 + w4))) <= 1e-12


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5 + 0.5j, 2.0, -1.2 + 0.7j])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_cat_marginal_matches_the_four_term_sum(alpha, parity):
    spec = CatSpec(alpha, parity)
    rng = np.random.default_rng(8)
    mu, nu = random_frames(rng, 12)
    Y = np.linspace(-6.0, 6.0, 97)[:, np.newaxis] - 0.3
    w1, w2, w3, w4, r2 = _cat_pieces(spec, Y, mu, nu)
    sign = 1.0 if parity == "even" else -1.0
    want = spec.norm_squared / np.sqrt(math.pi * r2) * np.real(w1 + w2 + sign * (w3 + w4))
    got = tomogram_cat(spec, Y, mu, nu)
    # measured: at most 1.6e-15 of the maximum
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


@pytest.mark.parametrize("alpha", [1e-8, 1e-8j, 1e-100, 3e-154 * (1 + 1j)])
def test_small_odd_cat_marginal_is_the_one_phonon_marginal(alpha):
    # the four-term sum cancels here: it was off by 0.61 of the peak at 1e-8 and
    # by 4e183 at 1e-100; measured now: at most 4.1e-16
    rng = np.random.default_rng(9)
    mu, nu = random_frames(rng, 12)
    Y = np.linspace(-6.0, 6.0, 97)[:, np.newaxis]
    r2 = mu ** 2 + nu ** 2
    one = 2.0 * Y ** 2 * np.exp(-(Y ** 2) / r2) / (r2 * np.sqrt(math.pi * r2))
    got = tomogram_cat(CatSpec(alpha, "odd"), Y, mu, nu)
    assert np.max(np.abs(got - one)) <= 1e-14 * np.max(one)


@pytest.mark.parametrize("spec", CAT_SPECS, ids=lambda s: f"{s.parity}-{s.alpha}")
def test_cat_marginal_matches_wigner_projection(spec):
    rng = np.random.default_rng(42)
    mu, nu = random_frames(rng, 20)
    X = rng.uniform(-4.0, 4.0, 20)
    delta = rng.uniform(-1.0, 1.0, 20)
    wig = lambda qq, pp: wigner_cat(spec, qq, pp)
    for k in range(20):
        q = (X[k] - delta[k], mu[k], nu[k])
        assert tomogram_cat(spec, *q) == pytest.approx(project_wigner(wig, *q), abs=1e-5)


def test_gaussian_marginal_matches_wigner_projection():
    state = GaussianState(1.0, 1.0j, 1.0 + 0.0j)
    rng = np.random.default_rng(5)
    mu, nu = random_frames(rng, 20)
    X = rng.uniform(-4.0, 4.0, 20)
    wig = lambda qq, pp: wigner_gaussian(state, qq, pp)
    for k in range(20):
        q = (X[k], mu[k], nu[k])
        assert tomogram_gaussian(state, *q) == pytest.approx(project_wigner(wig, *q), abs=1e-9)


# --------------------------------------------------- homogeneity and shifts


EVALUATORS = {
    "vacuum": partial(tomogram_gaussian, VACUUM),
    "coherent": partial(tomogram_gaussian, GaussianState(1.0, 1.0j, 1.0 + 0.0j)),
    "cat-even": partial(tomogram_cat, CatSpec(1.5 + 0.0j, "even")),
    "cat-odd": partial(tomogram_cat, CatSpec(1.0j, "odd")),
}


@pytest.mark.parametrize("lam", [-2.0, 0.5, 3.0])
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_homogeneity(name, lam):
    ev = EVALUATORS[name]
    Y = np.linspace(-2.5, 2.5, 11)
    for mu, nu in ((1.0, 0.0), (0.6, -0.8), (-1.2, 0.9)):
        lhs = ev(lam * Y, lam * mu, lam * nu)
        rhs = ev(Y, mu, nu) / abs(lam)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(0.25, 4.0).flatmap(lambda a: st.sampled_from([a, -a])),
    theta=st.floats(0.0, 2.0 * math.pi),
    r=st.floats(0.5, 2.0),
    Y=st.floats(-5.0, 5.0),
)
def test_homogeneity_property(lam, theta, r, Y):
    ev = EVALUATORS["coherent"]
    mu = r * math.cos(theta)
    nu = r * math.sin(theta)
    lhs = float(ev(lam * Y, lam * mu, lam * nu))
    rhs = float(ev(Y, mu, nu)) / abs(lam)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_shift_covariance_exact():
    # delta enters only through Y = X - delta, also after transport
    X = np.linspace(-3.0, 3.0, 13)
    params = OscillatorParams(0.4, 2.0)
    initials = (partial(tomogram_gaussian, VACUUM), partial(tomogram_cat, CatSpec(2.0 + 0.0j, "even")),
                partial(tomogram_gaussian, GaussianState(1.0, 1.0j, 1.0 + 0.5j)))
    for delta in (-1.7, 0.9):
        for initial in initials:
            evolution = replacement_evolution(initial, params)
            for t in (0.0, 1.3):
                np.testing.assert_array_equal(evolution(X, 0.8, 0.7, delta, t),
                                              evolution(X - delta, 0.8, 0.7, 0.0, t))


def test_resonant_gaussian_marginal_keeps_its_squeezed_direction():
    # on the frame proportional to (Im deps, -Im eps) sigma_X ~ 1e-7 is the
    # difference of sigma terms ~5e6; the evolved vacuum gives the exact value
    eps, deps = epsilon_at(OscillatorParams(1.0, 1.2247), 80.0)
    r = math.hypot(deps.imag, eps.imag)
    q = (np.array([0.0, 3e-4]), deps.imag / r, -eps.imag / r)
    want = evolve_tomogram(partial(tomogram_gaussian, VACUUM), eps, deps, *q)
    assert want[0] == pytest.approx(1168.488, abs=1e-3)
    np.testing.assert_allclose(tomogram_gaussian(GaussianState(eps, deps), *q), want, rtol=1e-9)


# -------------------------------------------------------------- normalization


def test_gaussian_marginal_normalized_on_random_frames(point04_t2):
    eps, deps = point04_t2
    state = GaussianState(eps, deps, 1.0 + 0.0j)
    rng = np.random.default_rng(9)
    mu, nu = random_frames(rng, 20)
    delta = rng.uniform(-2.0, 2.0, 20)
    for k in range(20):
        sig = (mu[k] ** 2 * state.sigma_qq + nu[k] ** 2 * state.sigma_pp
               + 2.0 * mu[k] * nu[k] * state.sigma_pq)
        center = mu[k] * state.mean_q + nu[k] * state.mean_p + delta[k]
        X = np.linspace(center - 12.0 * math.sqrt(sig), center + 12.0 * math.sqrt(sig), 4001)
        w = tomogram_gaussian(state, X - delta[k], mu[k], nu[k])
        assert np.trapezoid(w, X) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("spec", CAT_SPECS, ids=lambda s: f"{s.parity}-{s.alpha}")
def test_cat_marginal_normalized_on_random_frames(spec):
    rng = np.random.default_rng(17)
    mu, nu = random_frames(rng, 20)
    delta = rng.uniform(-2.0, 2.0, 20)
    reach = 2.0 * math.sqrt(2.0) * abs(spec.alpha) + 9.0
    for k in range(20):
        r = math.hypot(mu[k], nu[k])
        X = np.linspace(delta[k] - r * reach, delta[k] + r * reach, 8001)
        w = tomogram_cat(spec, X - delta[k], mu[k], nu[k])
        assert np.min(w) >= -1e-12
        assert np.trapezoid(w, X) == pytest.approx(1.0, abs=1e-5)


# ------------------------------------------------------------------ evolution


def test_evolve_identity_at_t0():
    ev = partial(tomogram_cat, CatSpec(1.0 + 0.0j, "even"))
    X = np.linspace(-3, 3, 11)
    np.testing.assert_array_equal(evolve_tomogram(ev, 1.0, 1.0j, X - 0.2, 0.9, -0.4), ev(X - 0.2, 0.9, -0.4))


def test_evolved_vacuum_is_stationary_in_static_trap():
    eps, deps = epsilon_at(OscillatorParams(0.0, 1.0), 1.3)
    ev = partial(tomogram_gaussian, VACUUM)
    X = np.linspace(-4, 4, 17)
    for mu, nu in ((1.0, 0.0), (0.3, 1.1)):
        np.testing.assert_allclose(evolve_tomogram(ev, eps, deps, X, mu, nu), ev(X, mu, nu), atol=1e-12)


def test_evolved_tomogram_matches_time_t_state(point04_t2):
    eps, deps = point04_t2
    alpha = 1.0 + 0.0j
    initial = partial(tomogram_gaussian, GaussianState(1.0, 1.0j, alpha))
    direct = GaussianState(eps, deps, alpha)
    X = np.linspace(-5.0, 5.0, 21)
    for mu, nu, delta in ((1.0, 0.0, 0.0), (0.4, -1.1, 0.7), (-0.9, 0.3, -1.0)):
        np.testing.assert_allclose(
            evolve_tomogram(initial, eps, deps, X - delta, mu, nu), tomogram_gaussian(direct, X - delta, mu, nu),
            atol=1e-8,
        )


def _local_maxima(x_axis, w, floor):
    hits = []
    for i in range(1, w.size - 1):
        if w[i] > floor and w[i] >= w[i - 1] and w[i] > w[i + 1]:
            hits.append(x_axis[i])
    return hits


def test_optical_slice_vacuum_and_fringes():
    X = np.linspace(-6.0, 6.0, 401)
    w = optical_slice(partial(tomogram_gaussian, VACUUM), 1.1, X)
    np.testing.assert_allclose(w, np.exp(-X ** 2) / math.sqrt(math.pi), atol=1e-12)

    # even cat: two coherent humps along the displacement axis, interference
    # fringes on the orthogonal quadrature
    ev = partial(tomogram_cat, CatSpec(2.0 + 0.0j, "even"))
    assert len(_local_maxima(X, optical_slice(ev, 0.0, X), 1e-3)) == 2
    assert len(_local_maxima(X, optical_slice(ev, math.pi / 2, X), 1e-3)) == 5


# ----------------------------------------------------------------- projection


def test_project_wigner_from_grid():
    axis = np.linspace(-8.0, 8.0, 321)
    grid = WignerGrid.from_evaluator(lambda q, p: wigner_gaussian(VACUUM, q, p), axis, axis)
    on_axis = project_wigner(grid, 0.0, 1.0, 0.0)
    assert on_axis == pytest.approx(math.pi ** -0.5, abs=1e-6)
    for X, mu, nu in ((0.7, 0.8, -0.6), (-1.2, 0.5, 1.3), (0.0, 1.1, 1.1)):
        assert project_wigner(grid, X, mu, nu) == pytest.approx(
            float(tomogram_gaussian(VACUUM, X, mu, nu)), abs=1e-6
        )


def test_project_wigner_warns_on_truncated_grid():
    axis = np.linspace(-2.0, 2.0, 41)
    grid = WignerGrid.from_evaluator(lambda q, p: wigner_gaussian(VACUUM, q, p), axis, axis)
    with pytest.warns(SupportTruncationWarning):
        project_wigner(grid, 0.0, 1.0, 0.0)


def test_project_wigner_line_missing_grid_is_zero():
    axis = np.linspace(-2.0, 2.0, 41)
    grid = WignerGrid.from_evaluator(lambda q, p: wigner_gaussian(VACUUM, q, p), axis, axis)
    assert project_wigner(grid, 5.0, 1.0, 0.0) == 0.0
    assert project_wigner(grid, 10.0, 1.0, 1.0) == 0.0


# --------------------------------------------------------------- inversion


def grid_moments(grid):
    wq = np.full(grid.q_axis.size, grid.dq)
    wq[[0, -1]] *= 0.5
    wp = np.full(grid.p_axis.size, grid.dp)
    wp[[0, -1]] *= 0.5
    Q, P = np.meshgrid(grid.q_axis, grid.p_axis, indexing="ij")

    def mean(f):
        return float(wq @ (f * grid.values) @ wp) / (2.0 * math.pi)

    norm = mean(np.ones_like(Q))
    mq = mean(Q) / norm
    mp = mean(P) / norm
    return {
        "norm": norm,
        "mean_q": mq,
        "mean_p": mp,
        "sigma_qq": mean((Q - mq) ** 2) / norm,
        "sigma_pp": mean((P - mp) ** 2) / norm,
        "sigma_pq": mean((Q - mq) * (P - mp)) / norm,
    }


FAST_INVERT = {"k_max": 8.0, "n_nodes": 97}
# <q> = 1.1, <p> = -0.7, sigma_qq = 1.1, sigma_pq = 0.35 and the pure sigma_pp = (1/4 + 0.35^2) / 1.1
SKEW_GAUSSIAN = GaussianState(math.sqrt(2.2), complex(0.7, 1.0) / math.sqrt(2.2), 0.5244044240850758 - 1.101249290578659j)


def sampled_sinogram(evaluator, n_phi=180, n_x=257, half=8.0):
    """The sinogram of ``evaluator`` on n_phi angles tiling [0, pi) and n_x samples of X in [-half, half]."""
    phi = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    return OpticalSinogram.from_evaluator(evaluator, phi, np.linspace(-half, half, n_x))


def test_invert_vacuum():
    axis = np.linspace(-6.0, 6.0, 81)
    grid = invert_to_wigner(vacuum_sinogram(), axis, axis, **FAST_INVERT)
    i0 = np.searchsorted(axis, 0.0)
    assert grid.values[i0, i0] == pytest.approx(2.0, abs=2e-2)
    m = grid_moments(grid)
    assert m["norm"] == pytest.approx(1.0, abs=1e-2)
    assert abs(m["mean_q"]) <= 1e-3 and abs(m["mean_p"]) <= 1e-3
    assert m["sigma_qq"] == pytest.approx(0.5, abs=1e-2)
    assert m["sigma_pp"] == pytest.approx(0.5, abs=1e-2)
    assert abs(m["sigma_pq"]) <= 1e-2


def test_invert_coherent_recovers_moments():
    state = GaussianState(1.0, 1.0j, 1.0 + 0.0j)
    axis = np.linspace(-6.0, 6.0, 81)
    grid = invert_to_wigner(sampled_sinogram(partial(tomogram_gaussian, state), half=10.0), axis, axis,
                            **FAST_INVERT)
    m = grid_moments(grid)
    assert m["mean_q"] == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert abs(m["mean_p"]) <= 1e-3
    for key in ("sigma_qq", "sigma_pp"):
        assert m[key] == pytest.approx(0.5, abs=1e-2)


def test_invert_cat_against_analytic_wigner():
    spec = CatSpec(2.0 + 0.0j, "even")
    axis = np.linspace(-6.0, 6.0, 121)
    grid = invert_to_wigner(sampled_sinogram(partial(tomogram_cat, spec)), axis, axis)
    Q, P = np.meshgrid(axis, axis, indexing="ij")
    exact = wigner_cat(spec, Q, P)
    rel_l2 = np.linalg.norm(grid.values - exact) / np.linalg.norm(exact)
    # measured 6.43e-6 on 180 angles and 257 X samples over [-8, 8]
    assert rel_l2 <= 1e-5


def invert_full_plane_reference(sinogram, q_axis, p_axis, *, k_max, n_nodes):
    """Grid values of the Fourier inversion with ``_node_spectra`` evaluated on every (mu, nu) node."""
    nodes = np.linspace(-k_max, k_max, n_nodes)
    F = _fourier._node_spectra(sinogram, nodes[:, np.newaxis], nodes)
    w_nodes = np.full(n_nodes, nodes[1] - nodes[0])
    w_nodes[[0, -1]] *= 0.5
    A = np.exp(-1j * np.outer(q_axis, nodes)) * w_nodes
    B = np.exp(-1j * np.outer(nodes, p_axis)) * w_nodes[:, np.newaxis]
    return np.real(A @ F @ B) / (2.0 * math.pi)


def _asymmetric_cat_sinogram():
    return sampled_sinogram(partial(tomogram_cat, CatSpec(1.2 + 0.7j, "odd")), 120, 161)


@pytest.mark.parametrize("k_max, n_nodes", [(8.0, 97), (6.0, 48), (5.0, 31)], ids=["odd-97", "even-48", "odd-31"])
@pytest.mark.parametrize("source", ["gaussian", "cat-sinogram"])
def test_half_plane_inversion_matches_full_plane(monkeypatch, source, k_max, n_nodes):
    # none of these linspace node sets is exactly antisymmetric
    nodes = np.linspace(-k_max, k_max, n_nodes)
    assert not np.array_equal(nodes, -nodes[::-1])
    if source == "gaussian":
        # displaced, squeezed and correlated: no symmetry in q, p or the frame
        source = sampled_sinogram(partial(tomogram_gaussian, SKEW_GAUSSIAN), 120, 161)
    else:
        source = _asymmetric_cat_sinogram()
    sinograms, rows = [], set()
    node_spectra = _fourier._node_spectra

    def recorded(sinogram, mu, nu):
        sinograms.append(sinogram)
        rows.update(np.broadcast_arrays(mu, nu)[0][:, 0].tolist())
        return node_spectra(sinogram, mu, nu)

    monkeypatch.setattr(_fourier, "_node_spectra", recorded)
    axis = np.linspace(-5.0, 5.0, 41)
    grid = invert_to_wigner(source, axis, axis, k_max=k_max, n_nodes=n_nodes)
    monkeypatch.undo()
    want = invert_full_plane_reference(sinograms[0], axis, axis, k_max=k_max, n_nodes=n_nodes)
    assert len(rows) <= (n_nodes + 1) // 2
    assert np.max(np.abs(grid.values - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["gaussian", "cat"])
def test_sinogram_inversion_beats_its_evaluator(name):
    # same sinogram both ways: the per-ray transform on the native X samples
    # must be at least as close to the analytic Wigner function as the
    # interpolating evaluator, resampled on 214 angles and 257 X samples
    if name == "gaussian":
        evaluator, exact_w = partial(tomogram_gaussian, SKEW_GAUSSIAN), partial(wigner_gaussian, SKEW_GAUSSIAN)
    else:
        spec = CatSpec(1.2 + 0.7j, "odd")
        evaluator, exact_w = partial(tomogram_cat, spec), partial(wigner_cat, spec)
    sino = sampled_sinogram(evaluator, 120, 161)
    resampled = sampled_sinogram(sinogram_evaluator(sino), 214, 257)
    axis = np.linspace(-5.0, 5.0, 41)
    exact = exact_w(*np.meshgrid(axis, axis, indexing="ij"))

    def rel_l2(grid):
        return np.linalg.norm(grid.values - exact) / np.linalg.norm(exact)

    # measured: 5.6e-6 (gaussian) and 2.4e-6 (cat) direct, 8.3e-5 and 4.5e-4 via the evaluator
    kw = {"k_max": 12.0, "n_nodes": 97}
    direct = rel_l2(invert_to_wigner(sino, axis, axis, **kw))
    via_evaluator = rel_l2(invert_to_wigner(resampled, axis, axis, **kw))
    assert direct <= via_evaluator
    assert direct < 5e-5


def test_sinogram_inversion_requires_full_angle_coverage():
    # the sinogram itself refuses angles over [0, pi / 2), so no inversion gets one
    phi = np.linspace(0.0, math.pi / 2, 10, endpoint=False)
    with pytest.raises(ValueError, match=r"^phi_axis must tile \[0, pi\)"):
        OpticalSinogram.from_evaluator(partial(tomogram_gaussian, VACUUM), phi, np.linspace(-6.0, 6.0, 65))


def test_one_angle_sinogram_rejected_by_both_entry_points():
    # a valid sinogram, but the 4-point angle stencil needs two rows to wrap
    sino = OpticalSinogram.from_evaluator(partial(tomogram_gaussian, VACUUM), [0.0], np.linspace(-6.0, 6.0, 65))
    axis = np.linspace(-4.0, 4.0, 33)
    with pytest.raises(ValueError, match="1 angle"):
        sinogram_evaluator(sino)
    with pytest.raises(ValueError, match="1 angle"):
        invert_to_wigner(sino, axis, axis, **FAST_INVERT)


def test_off_centre_x_axis_rejected_by_both_entry_points():
    # reversing X is the fold X -> -X only on an axis symmetric about 0; on
    # [-8, 9] the wrap rows were misplaced (rel-L2 6.9e-2 instead of 6.4e-6)
    sino = OpticalSinogram.from_evaluator(partial(tomogram_cat, CatSpec(2.0 + 0.0j, "even")),
                                          np.linspace(0.0, math.pi, 180, endpoint=False),
                                          np.linspace(-8.0, 9.0, 273))
    axis = np.linspace(-4.0, 4.0, 33)
    message = r"X axis \[-8, 9\] is not symmetric about 0.*w\(X, phi \+ pi\) = w\(-X, phi\)"
    with pytest.raises(ValueError, match=message):
        sinogram_evaluator(sino)
    with pytest.raises(ValueError, match=message):
        invert_to_wigner(sino, axis, axis, **FAST_INVERT)
    # filtered backprojection has no angle fold and still takes it
    exact = wigner_cat(CatSpec(2.0 + 0.0j, "even"), *np.meshgrid(axis, axis, indexing="ij"))
    fbp = radon_reconstruct(sino, axis, axis)
    assert np.linalg.norm(fbp.values - exact) / np.linalg.norm(exact) < 0.05


@pytest.mark.parametrize("n_nodes", [97, 48])
def test_sinogram_inversion_computes_half_plane(monkeypatch, n_nodes):
    # each node of the half plane forms its angle stencil exactly twice: once
    # when the nodes are sorted by their base row, and once when it is
    # evaluated, at most _FRAME_BLOCK nodes per call; (0, 0) is never evaluated
    frames = []

    def recorded(angle, *args):
        frames.append(angle.size)
        return stencil(angle, *args)

    stencil = _fourier._stencil
    monkeypatch.setattr(_fourier, "_stencil", recorded)
    sino = _asymmetric_cat_sinogram()
    axis = np.linspace(-5.0, 5.0, 41)
    invert_to_wigner(sino, axis, axis, k_max=6.0, n_nodes=n_nodes)
    half_plane = (n_nodes + 1) // 2 * n_nodes
    sorting = -(-half_plane // _fourier._FRAME_BLOCK)
    assert sum(frames[:sorting]) == half_plane
    assert sum(frames[sorting:]) == half_plane - n_nodes % 2
    assert max(frames) <= _fourier._FRAME_BLOCK


def ray_spectrum_reference(sinogram):
    """Per-node transform: each node's Catmull-Rom marginal summed against exp(i k X) on the X samples."""
    grid = tomography._wrapped_grid(sinogram)
    n_rows = grid.values.shape[0]
    rows = np.zeros((n_rows + 2, grid.p_axis.size))
    rows[1:-1] = grid.values * tomography._uniform_trapezoid(grid.p_axis.size, grid.dp)

    def spectrum(m, nu):
        angle, k = tomography._fold(m, nu)
        i, w, _ = tomography._stencil(angle, grid.q_axis[0], grid.dq, n_rows)
        marginal = sum(w[a][:, np.newaxis] * rows[i + a] for a in range(4))
        phase = k[:, np.newaxis] * grid.p_axis
        return (np.einsum("nj,nj->n", marginal, np.cos(phase))
                + 1j * np.einsum("nj,nj->n", marginal, np.sin(phase)))

    return spectrum


@settings(max_examples=60, deadline=None)
@example(x_half=1.5, n_x=16, n_phi=2, k_max=40.0, seed=0)  # k past one period of the X sum
@given(x_half=st.floats(1.5, 9.0), n_x=st.integers(16, 300),
       n_phi=st.sampled_from([2, 3]), k_max=st.floats(1.0, 40.0), seed=st.integers(0, 2 ** 32 - 1))
def test_ray_spectrum_matches_per_node_transform(x_half, n_x, n_phi, k_max, seed):
    # arbitrary nonnegative rows, so the X edges carry as much mass as the
    # middle: the hardest case for interpolating the row spectra in k
    rng = np.random.default_rng([seed, 1])  # the frames, apart from the rows
    sino = _random_sinogram(n_phi, n_x, x_half, seed)
    k_reach = math.hypot(k_max, k_max)
    # the k grid is 8x finer than a row's bandwidth
    n_fft = tomography._fft_length(_fourier._K_OVERSAMPLE * n_x)
    dk = 2.0 * math.pi / (n_fft * tomography._uniform_spacing(sino.x_axis, "x"))
    assert dk * x_half <= math.pi / 8.0

    on_node = dk * np.arange(1, int(k_reach / dk) + 1, max(1, int(k_reach / dk) // 8))
    mu = np.concatenate((rng.uniform(-k_max, k_max, 64), [k_max, k_max, -k_max], on_node, 0.0 * on_node))
    # frames with nu < 0 fold back to k = -r; the on-node pair gives k = +j dk and k = -j dk
    nu = np.concatenate((rng.uniform(-k_max, k_max, 64), [k_max, -k_max, -k_max], 0.0 * on_node, -on_node))
    want = ray_spectrum_reference(sino)(mu, nu)
    got = _fourier._node_spectra(sino, mu, nu)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_fft_length_is_the_smallest_even_5_smooth():
    def smooth(n):
        for f in (2, 3, 5):
            while n % f == 0:
                n //= f
        return n == 1

    lengths = [n for n in range(2, 2 * 10 ** 4 + 1, 2) if smooth(n)]
    for m in range(1, 10 ** 4 + 1):
        assert tomography._fft_length(m) == lengths[bisect.bisect_left(lengths, m)]
    # the benchmark's row lengths: 8 x 321 for the Fourier rows, 2 x 513 - 1 for FBP
    assert (tomography._fft_length(2568), tomography._fft_length(1025)) == (2592, 1080)


def test_invert_scratch_is_bounded():
    # the half plane of F (97 x 193 complex), then the phase factors A (121 x 97
    # complex) and W (121 x 121) beside it, and scratch: a window of 15 row
    # spectra, the node order and one block of frames.  0.80 MiB here; the table
    # of every row's spectrum (186 x 368 complex) with F beside it peaked at
    # 1.55 MiB, a power-of-two k grid (186 x 571) and the full F at 3.08 MB,
    # and the wrapped sinogram kept through the F loop at 2.10 MB
    spec = CatSpec(1.2 + 0.7j, "odd")
    sino = sampled_sinogram(partial(tomogram_cat, spec), 180, 321)
    axis = np.linspace(-6.0, 6.0, 121)
    invert_to_wigner(sino, axis, axis, n_nodes=193)  # numpy loads its FFT module on first use
    tracemalloc.start()
    try:
        invert_to_wigner(sino, axis, axis, n_nodes=193)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 97 * 193 + 16 * 121 * 97 + 8 * 121 * 121 + 2 ** 19


def _random_sinogram(n_phi, n_x, half, seed=0):
    """Nonnegative rows of uniform noise, each normalized: as much mass on the X ends as in the middle."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-half, half, n_x)
    values = rng.uniform(0.0, 1.0, (n_phi, n_x))
    values /= (values @ tomography._uniform_trapezoid(n_x, tomography._uniform_spacing(x, "x")))[:, np.newaxis]
    # a linspace angle axis, which the container stores as (first, last, n)
    phi = np.linspace(0.0, (n_phi - 1) * math.pi / n_phi, n_phi)
    return OpticalSinogram(phi_axis=phi, x_axis=x, values=values)


def _with_blank_and_comment_lines(path):
    lines = path.read_text().splitlines(keepends=True)
    for i in (len(lines) - 1, 500, 100, 40, 1):  # the last within a run, the first after the header
        lines[i:i] = ["\n", "# a comment\n", "\n"]
    path.write_text("".join(lines))


@pytest.mark.parametrize("n_phi, n_x, half, k_max, n_nodes, source", [
    (37, 161, 8.0, 12.0, 97, "memory"),
    (37, 160, 8.0, 12.0, 97, "memory"),
    (2, 41, 6.0, 12.0, 48, "memory"),
    (3, 40, 6.0, 12.0, 31, "memory"),
    (12, 4097, 8.0, 12.0, 31, "bin"),
    (6, 1025, 8.0, 12.0, 31, "csv"),
    (16, 33, 6.0, 12.0, 48, "csv-comments"),
    (3, 16, 1.5, 40.0, 31, "memory"),
], ids=["odd-n-x", "even-n-x", "two-angles", "three-angles", "container-row-per-block",
        "csv-row-past-a-parse-block", "csv-blank-and-comment-lines", "k-past-one-period"])
def test_streamed_inversion_matches_the_row_table(tmp_path, n_phi, n_x, half, k_max, n_nodes, source):
    # one pass over the rows, in blocks of one row (a container past 4096 X samples,
    # a CSV row longer than a 1024-line parse block) or of all of them (in memory),
    # against the table of every row's spectrum; the period sign (-1)^(n_x - 1)
    # acts past one FFT period of k (X step 0.2 at k_max 40), and with 2 or 3
    # angles every node reads a wrap row
    sino = _random_sinogram(n_phi, n_x, half)
    rows = sino
    if source != "memory":
        path = tmp_path / f"sino.{source[:3]}"
        sino.save(str(path), fmt=source[:3])
        if source == "csv-comments":
            _with_blank_and_comment_lines(path)
        rows = _container.grid_rows(str(path), "sinogram")
    axis = np.linspace(-5.0, 5.0, 41)
    got = invert_to_wigner(rows, axis, axis, k_max=k_max, n_nodes=n_nodes).values
    want = table_invert_to_wigner(sino, axis, axis, k_max=k_max, n_nodes=n_nodes)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("step_count, message", [
    (30, r"phi_axis must tile \[0, pi\): its 24 angles need the step pi / 24"),
    (20, r"phi_axis must lie inside \[0, pi\)"),
], ids=["step-of-more-angles", "step-of-fewer-angles"])
def test_streamed_inversion_reports_angles_off_their_step(step_count, message):
    # the angle count is taken from the first step, before the rows that
    # contradict it are read; the check of the angles still decides
    sino = vacuum_sinogram(n_phi=24, n_x=65, half=6.0)
    phi = np.arange(24) * (math.pi / step_count)
    blocks = [(phi[i:i + 5], sino.x_axis, sino.values[i:i + 5], None) for i in range(0, 24, 5)]
    axis = np.linspace(-4.0, 4.0, 33)
    with pytest.raises(ValueError, match=message):
        invert_to_wigner(iter(blocks), axis, axis, **FAST_INVERT)


def test_invert_truncated_cutoff_misses_normalization():
    # the grid is returned, as from filtered backprojection; its integral shows the miss
    axis = np.linspace(-4.0, 4.0, 33)
    grid = invert_to_wigner(vacuum_sinogram(), axis, axis, k_max=0.3, n_nodes=9)
    assert abs(grid.integral() - 1.0) > 1e-2


# ------------------------------------------------------------------ sinograms


def vacuum_sinogram(n_phi=180, n_x=257, half=8.0):
    return sampled_sinogram(partial(tomogram_gaussian, VACUUM), n_phi, n_x, half)


def test_sinogram_validation():
    x = np.linspace(-6.0, 6.0, 65)
    w = np.tile(np.exp(-x ** 2) / math.sqrt(math.pi), (8, 1))
    good_phi = np.linspace(0.0, math.pi, 8, endpoint=False)
    OpticalSinogram(phi_axis=good_phi, x_axis=x, values=w)  # sanity

    with pytest.raises(ValueError, match=r"\[0, pi\)"):
        OpticalSinogram(phi_axis=np.linspace(0.0, math.pi, 8), x_axis=x, values=w)
    with pytest.raises(ValueError, match="uniform"):
        bad = good_phi.copy()
        bad[3] += 0.01
        OpticalSinogram(phi_axis=bad, x_axis=x, values=w)
    with pytest.raises(ValueError, match="normalized"):
        OpticalSinogram(phi_axis=good_phi, x_axis=x, values=1.2 * w)
    with pytest.raises(ValueError, match="shape"):
        OpticalSinogram(phi_axis=good_phi, x_axis=x, values=w[:, :-1])
    with pytest.raises(ValueError, match="finite"):
        spoiled = w.copy()
        spoiled[0, 0] = np.inf
        OpticalSinogram(phi_axis=good_phi, x_axis=x, values=spoiled)


def test_sinogram_rejects_non_uniform_x():
    # 50 points in [-8, 0) and 101 in [0, 8]: increasing, but two step sizes
    x = np.concatenate((np.linspace(-8.0, 0.0, 50, endpoint=False), np.linspace(0.0, 8.0, 101)))
    w = np.tile(np.exp(-x ** 2) / math.sqrt(math.pi), (32, 1))
    with pytest.raises(ValueError, match="x_axis must be uniform"):
        OpticalSinogram(phi_axis=np.linspace(0.0, math.pi, 32, endpoint=False), x_axis=x, values=w)


@pytest.mark.parametrize("phi, message", [
    # 32 angles over [0, pi / 2): filtered backprojection took pi / 32 for
    # their step and gave rel-L2 0.87 on a 41^2 grid of this cat (0.031 from
    # 32 angles over [0, pi)), with normalization 0.993 that passed its gate
    (np.linspace(0.0, math.pi / 2, 32, endpoint=False), r"tile \[0, pi\).*step pi / 32"),
    (np.linspace(0.0, math.pi, 32, endpoint=False)[::-1], "uniformly increasing"),
], ids=["quarter-turn", "decreasing"])
def test_fbp_input_angles_must_tile_the_half_turn_in_order(phi, message):
    evaluator = partial(tomogram_cat, CatSpec(2.0 + 0.0j, "even"))
    with pytest.raises(ValueError, match=message):
        OpticalSinogram.from_evaluator(evaluator, phi, np.linspace(-8.0, 8.0, 257))


def test_vacuum_sinogram_columns():
    sino = vacuum_sinogram(n_phi=24, n_x=129)
    np.testing.assert_allclose(sino.column_norms(), 1.0, atol=1e-6)
    spread = np.max(np.abs(sino.values - sino.values[0]))
    assert spread <= 1e-13


@pytest.mark.parametrize("block_points", [3, states._EVAL_BLOCK_POINTS])
def test_sinogram_from_evaluator_blocks_are_bit_identical(monkeypatch, block_points):
    # blocks of whole angle rows: one row per block at 3 points, 7 rows of 513
    # at the default with a short last block; the evolved odd cat is the
    # evaluator the CLI samples
    monkeypatch.setattr(states, "_EVAL_BLOCK_POINTS", block_points)
    spec = CatSpec(1.5 + 0.5j, "odd")
    evaluator = partial(evolve_tomogram, partial(tomogram_cat, spec), *epsilon_at(OscillatorParams(0.4, 2.0), 3.0))
    phi_axis, x_axis = np.arange(360) * (math.pi / 360), np.linspace(-8.0, 8.0, 513)
    sino = OpticalSinogram.from_evaluator(evaluator, phi_axis, x_axis)
    whole = optical_slice(evaluator, phi_axis[:, np.newaxis], x_axis)
    assert sino.values.tobytes() == whole.tobytes()


def test_column_norms_have_the_same_bits_in_any_layout():
    # BLAS's sum of a row depends on the call: under OpenBLAS 77 of these 360
    # rows differed between one matmul and matmuls of 7 rows, so a check on
    # the row blocks of a stream could read other bits than one on the array
    rng = np.random.default_rng(29)
    phi, x = np.arange(360) * (math.pi / 360), np.linspace(-8.0, 8.0, 513)
    values = rng.uniform(0.5, 1.5, (phi.size, x.size))
    values /= values.sum(axis=1, keepdims=True) * (x[1] - x[0])
    whole = OpticalSinogram(phi_axis=phi, x_axis=x, values=values).column_norms()
    rows = [OpticalSinogram(phi_axis=phi[i:i + 1], x_axis=x, values=values[i:i + 1]).column_norms()
            for i in range(phi.size)]
    assert np.concatenate(rows).tobytes() == whole.tobytes()
    # a column-major copy, and rows strided as the CSV reader's parse blocks hold them
    strided = np.empty(values.shape + (3,))
    strided[..., 2] = values
    for layout in (np.asfortranarray(values), strided[..., 2]):
        assert OpticalSinogram(phi_axis=phi, x_axis=x, values=layout).column_norms().tobytes() == whole.tobytes()


def test_sinogram_from_evaluator_scratch_is_bounded():
    # blocks of 7 angle rows; the evaluator on the whole grid at once peaked
    # at about 7.5 MB here
    spec = CatSpec(1.5 + 0.5j, "odd")
    phi_axis, x_axis = np.arange(360) * (math.pi / 360), np.linspace(-8.0, 8.0, 513)
    tracemalloc.start()
    try:
        sino = OpticalSinogram.from_evaluator(partial(tomogram_cat, spec), phi_axis, x_axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sino.values.nbytes + 2 ** 20


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_sinogram_round_trip(tmp_path, fmt):
    sino = OpticalSinogram.from_evaluator(
        partial(tomogram_cat, CatSpec(1.0 + 0.0j, "even")),
        np.linspace(0.0, math.pi, 24, endpoint=False),
        np.linspace(-6.0, 6.0, 65),
    )
    path = tmp_path / f"sino.{fmt}"
    sino.save(str(path), fmt=fmt)
    back = OpticalSinogram.load(str(path))
    assert np.array_equal(back.phi_axis, sino.phi_axis)
    assert np.array_equal(back.x_axis, sino.x_axis)
    assert np.array_equal(back.values, sino.values)
    again = tmp_path / f"again.{fmt}"
    back.save(str(again), fmt=fmt)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_each_grid_load_rejects_the_other_kind(tmp_path, fmt):
    sino = vacuum_sinogram(n_phi=24, n_x=65, half=6.0)
    grid = WignerGrid.from_evaluator(lambda q, p: wigner_gaussian(VACUUM, q, p), sino.x_axis, sino.x_axis)
    message = {"csv": "expected header", "bin": "container holds"}[fmt]
    for saved, other in ((sino, WignerGrid), (grid, OpticalSinogram)):
        path = str(tmp_path / f"{type(saved).__name__}.{fmt}")
        saved.save(path, fmt=fmt)
        with pytest.raises(ValueError, match=message):
            other.load(path)


def test_sinogram_csv_with_a_reversed_angle_is_rejected(tmp_path):
    # the third angle of a displaced state lists X in reverse; its values
    # would land on the wrong X
    sino = OpticalSinogram.from_evaluator(partial(tomogram_gaussian, GaussianState(1.0, 1.0j, 1.0)),
                                          np.arange(4) * math.pi / 4, np.linspace(-8.0, 8.0, 65))
    path = tmp_path / "sino.csv"
    sino.save(str(path), fmt="csv")
    lines = path.read_text().splitlines(keepends=True)
    lines[131:196] = lines[131:196][::-1]
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="row 131 after the header"):
        OpticalSinogram.load(str(path))


# ------------------------------------------------------- filtered backprojection


def test_radon_needs_enough_angles():
    phi = np.linspace(0.0, math.pi, 12, endpoint=False)
    x = np.linspace(-6.0, 6.0, 65)
    sino = OpticalSinogram.from_evaluator(partial(tomogram_gaussian, VACUUM), phi, x)
    with pytest.raises(InsufficientAnglesError):
        radon_reconstruct(sino, x, x)


def test_radon_vacuum_peak():
    axis = np.linspace(-6.0, 6.0, 121)
    grid = radon_reconstruct(vacuum_sinogram(), axis, axis)
    i0 = np.searchsorted(axis, 0.0)
    assert grid.values[i0, i0] == pytest.approx(2.0, rel=5e-2)


@pytest.mark.parametrize("window", ["hann", "none"])
def test_radon_cat_accuracy(window):
    # the shipped filter is the bare band-limited ramp: the FFT-free oracle with
    # no window matches its accuracy, and a Hann window on the same kernel is worse
    spec = CatSpec(2.0 + 0.0j, "even")
    sino = OpticalSinogram.from_evaluator(
        partial(tomogram_cat, spec),
        np.linspace(0.0, math.pi, 180, endpoint=False),
        np.linspace(-8.0, 8.0, 257),
    )
    axis = np.linspace(-6.0, 6.0, 121)
    grid = radon_reconstruct(sino, axis, axis)
    Q, P = np.meshgrid(axis, axis, indexing="ij")
    exact = wigner_cat(spec, Q, P)
    rel_l2 = np.linalg.norm(grid.values - exact) / np.linalg.norm(exact)
    assert rel_l2 < 0.015
    oracle = radon_reference(sino, axis, axis, window=window)
    rel_oracle = np.linalg.norm(oracle - exact) / np.linalg.norm(exact)
    if window == "none":
        assert rel_oracle == pytest.approx(rel_l2, rel=1e-9)
    else:
        assert rel_oracle > 2.0 * rel_l2


@pytest.mark.parametrize("n_x", [65, 129, 257])
@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_radon_keeps_the_normalization(alpha, n_x):
    # a ramp filter that is 0 at DC read 0.9818 on every case here
    sino = OpticalSinogram.from_evaluator(partial(tomogram_cat, CatSpec(alpha + 0.0j, "even")),
                                          np.arange(180) * (math.pi / 180), np.linspace(-10.0, 10.0, n_x))
    axis = np.linspace(-7.0, 7.0, 141)
    assert abs(radon_reconstruct(sino, axis, axis).integral() - 1.0) <= 2e-3


def test_radon_consistent_under_rotation():
    # reconstruction error should not degrade when the state is evolved in the
    # static trap (a pure phase-space rotation)
    spec = CatSpec(2.0 + 0.0j, "even")
    t = math.pi / 8.0
    eps, deps = epsilon_at(OscillatorParams(0.0, 1.0), t)
    phi = np.linspace(0.0, math.pi, 180, endpoint=False)
    x = np.linspace(-8.0, 8.0, 257)
    axis = np.linspace(-6.0, 6.0, 121)
    Q, P = np.meshgrid(axis, axis, indexing="ij")

    ev = partial(tomogram_cat, spec)
    base = radon_reconstruct(OpticalSinogram.from_evaluator(ev, phi, x), axis, axis)
    err_base = np.linalg.norm(base.values - wigner_cat(spec, Q, P))

    rotated = np.empty((phi.size, x.size))
    for i, angle in enumerate(phi):
        rotated[i] = evolve_tomogram(ev, eps, deps, x, np.cos(angle), np.sin(angle))
    rec = radon_reconstruct(OpticalSinogram(phi_axis=phi, x_axis=x, values=rotated), axis, axis)
    c, s = math.cos(t), math.sin(t)
    exact_rot = wigner_cat(spec, c * Q - s * P, c * P + s * Q)
    err_rot = np.linalg.norm(rec.values - exact_rot)

    assert err_rot <= 2.0 * err_base


def radon_reference(sinogram, q_axis, p_axis, window="none"):
    """Filtered backprojection with no FFT.

    Each row sits at offset s0 = (N - n) // 2 of N zeros, N the smallest even
    2^a 3^b 5^c >= 2 n - 1, and is convolved circularly with the band-limited
    Ram-Lak kernel.  The N filtered samples are interpolated to U N fine ones
    (U = ``_FBP_UPSAMPLE``) by the even-N Dirichlet kernel
    sin(pi y) / (N tan(pi y / N)), the periodic band-limited interpolant with
    the Nyquist term split in half, and each angle is one ``np.interp`` on the
    fine samples with a zero sample past each end, 0 further out.

    ``window="hann"`` multiplies the filter by 0.5 (1 + cos(omega dx)), which in
    X is a convolution of the kernel with the taps 1/4, 1/2, 1/4."""
    x = sinogram.x_axis
    n = x.size
    dx = (x[-1] - x[0]) / (n - 1)
    N = tomography._fft_length(2 * n - 1)
    s0 = (N - n) // 2
    U = tomography._FBP_UPSAMPLE
    d = np.minimum(np.arange(N), N - np.arange(N))
    kernel = np.zeros(N)
    odd = d % 2 == 1
    kernel[odd] = -1.0 / (math.pi * d[odd] * dx) ** 2
    kernel[0] = 1.0 / (4.0 * dx * dx)
    if window == "hann":
        kernel = 0.5 * kernel + 0.25 * (np.roll(kernel, 1) + np.roll(kernel, -1))
    # filtered[:, i] = sum_m row[m] kernel[(i - s0 - m) mod N]
    circulant = kernel[(np.arange(N)[:, np.newaxis] - s0 - np.arange(n)) % N]
    filtered = 2.0 * math.pi * dx * sinogram.values @ circulant.T
    # fine sample U a + b is sum_i filtered[i] D(a - i + b / U).  D is even with
    # period N, so it is taken at the circular distance r / U <= N / 2, and the
    # sine at r mod 2 U: unreduced arguments put 1e-13 of rounding into D
    r = np.arange(U * N)
    r = np.minimum(r, U * N - r)
    on_node = r % U == 0
    dirichlet = np.where(r == 0, 1.0, 0.0)
    r = r[~on_node]
    dirichlet[~on_node] = np.sin(math.pi * (r % (2 * U)) / U) / (N * np.tan(math.pi * r / (U * N)))
    fine = np.empty((filtered.shape[0], U * N))
    a = np.arange(N)
    for b in range(U):
        fine[:, b::U] = filtered @ dirichlet[(U * (a[:, np.newaxis] - a) + b) % (U * N)].T
    positions = x[0] + (np.arange(-1, U * N + 1) / U - s0) * dx
    Q, P = np.meshgrid(q_axis, p_axis, indexing="ij")
    out = np.zeros_like(Q)
    for phi, row in zip(sinogram.phi_axis, fine):
        out += np.interp(Q * math.cos(phi) + P * math.sin(phi), positions, np.pad(row, 1), left=0.0, right=0.0)
    return out * (math.pi / sinogram.phi_axis.size)


@pytest.mark.parametrize("x_axis, q_axis, p_axis", [
    # the output grid is the X axis: at phi = 0 its ends fall on x[0] and x[-1]
    (np.linspace(-6.0, 6.0, 97), np.linspace(-6.0, 6.0, 97), np.linspace(-6.0, 6.0, 97)),
    # the corners reach past both X ends at most angles
    (np.linspace(-8.0, 8.0, 257), np.linspace(-6.0, 6.0, 61), np.linspace(-6.0, 6.0, 61)),
    # an X axis off centre and a window that misses it
    (np.linspace(-5.0, 7.0, 131), np.linspace(-9.0, 3.0, 40), np.linspace(-2.0, 11.0, 53)),
], ids=["grid-is-x", "corners-outside", "off-centre"])
def test_radon_matches_interp_loop(x_axis, q_axis, p_axis):
    # the FFTs and the index arithmetic round differently from the circulant and
    # Dirichlet sums and np.interp, and nothing else: about 6e-15 on each case
    spec = CatSpec(1.5 + 0.5j, "odd")
    sino = OpticalSinogram.from_evaluator(partial(tomogram_cat, spec),
                                          np.linspace(0.0, math.pi, 64, endpoint=False), x_axis)
    got = radon_reconstruct(sino, q_axis, p_axis).values
    want = radon_reference(sino, q_axis, p_axis)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_radon_upsampled_row_accuracy():
    # criterion 9b's case, and the odd cat of the dataset workload's size: the
    # 4x table read 5.3e-4 and 1.25e-4, linear FBP on the coarse X samples with
    # its tails read as 0 read 8.5e-3 and 2.0e-3
    for spec, n_phi, n_x, half, n_grid, grid_half, bound in [
        (CatSpec(2.0 + 0.0j, "even"), 180, 257, 8.0, 121, 6.0, 1e-3),
        (CatSpec(1.5 + 0.0j, "odd"), 360, 513, 10.0, 201, 7.0, 5e-4),
    ]:
        sino = OpticalSinogram.from_evaluator(partial(tomogram_cat, spec), np.arange(n_phi) * (math.pi / n_phi),
                                              np.linspace(-half, half, n_x))
        axis = np.linspace(-grid_half, grid_half, n_grid)
        Q, P = np.meshgrid(axis, axis, indexing="ij")
        exact = wigner_cat(spec, Q, P)
        rel_l2 = np.linalg.norm(radon_reconstruct(sino, axis, axis).values - exact) / np.linalg.norm(exact)
        assert rel_l2 < bound


@pytest.mark.parametrize("centre", [105.0, -105.0], ids=["table-above", "table-below"])
def test_radon_reads_zero_past_the_table(centre):
    # rows on X in [100, 110] (or its mirror) put the filtered table on about
    # [85, 125]; a grid within radius 1.5 of the origin lies past its end at every
    # angle and reads exactly 0, as np.interp(..., left=0, right=0) would
    x = np.linspace(centre - 5.0, centre + 5.0, 65)
    phi = np.arange(16) * (math.pi / 16)
    rows = np.exp(-0.5 * (x - centre) ** 2) / math.sqrt(2.0 * math.pi)
    sino = OpticalSinogram(phi_axis=phi, x_axis=x, values=np.tile(rows, (phi.size, 1)))
    axis = np.linspace(-1.0, 1.0, 21)
    assert not np.any(radon_reconstruct(sino, axis, axis).values)
    # the filtered tails reach a grid on the near side of the window
    near = np.linspace(centre - 6.0, centre - 5.5, 3) if centre > 0 else np.linspace(centre + 5.5, centre + 6.0, 3)
    assert np.all(radon_reconstruct(sino, near, near).values != 0.0)


def test_radon_scratch_is_bounded():
    # the output and three grids of per-angle scratch (u, indices, one gather),
    # allocated once, and the fine table with its slopes and the FFT buffers
    # (about 0.27 MB at 4x upsampling; 1.57 MB in all); a fresh set of grids per
    # angle and a scaled copy of the output peaked at 1.79 MB here
    spec = CatSpec(1.5 + 0.5j, "odd")
    sino = OpticalSinogram.from_evaluator(partial(tomogram_cat, spec),
                                          np.arange(360) * (math.pi / 360), np.linspace(-8.0, 8.0, 513))
    axis = np.linspace(-6.0, 6.0, 201)
    radon_reconstruct(sino, axis, axis)  # numpy loads its FFT module on first use
    tracemalloc.start()
    try:
        grid = radon_reconstruct(sino, axis, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * grid.values.nbytes + 2 * grid.values.size + 2 ** 18


# ------------------------------------------------------------------ evaluator


def test_sinogram_evaluator_matches_nodes():
    spec = CatSpec(1.0 + 0.0j, "even")
    sino = OpticalSinogram.from_evaluator(
        partial(tomogram_cat, spec),
        np.linspace(0.0, math.pi, 36, endpoint=False),
        np.linspace(-8.0, 8.0, 161),
    )
    ev = sinogram_evaluator(sino)
    for k in (0, 7, 18, 35):
        phi = float(sino.phi_axis[k])
        got = ev(sino.x_axis, math.cos(phi), math.sin(phi))
        assert np.max(np.abs(got - sino.values[k])) <= 1e-12


def test_sinogram_evaluator_extends_by_homogeneity_and_fold():
    sino = vacuum_sinogram(n_phi=36, n_x=161, half=8.0)
    ev = sinogram_evaluator(sino)
    Y = np.linspace(-3.0, 3.0, 13)
    for mu, nu in ((1.0, 0.0), (0.4, 0.9), (-0.8, 0.5)):
        np.testing.assert_allclose(
            ev(2.0 * Y, 2.0 * mu, 2.0 * nu), ev(Y, mu, nu) / 2.0, atol=1e-12
        )
        np.testing.assert_allclose(ev(Y, -mu, -nu), ev(-Y, mu, nu), atol=1e-12)


def test_sinogram_evaluator_requires_full_angle_coverage():
    # rejected where the sinogram is built, before the evaluator's angle fold
    phi = np.linspace(0.0, math.pi / 2, 10, endpoint=False)
    x = np.linspace(-6.0, 6.0, 65)
    with pytest.raises(ValueError, match="tile"):
        OpticalSinogram.from_evaluator(partial(tomogram_gaussian, VACUUM), phi, x)


def test_sinogram_evaluator_round_trips_through_projection():
    # grid -> projection -> sinogram -> evaluator stays close to the analytic
    # marginal away from the sampled angles
    sino = vacuum_sinogram(n_phi=90, n_x=241, half=6.0)
    ev = sinogram_evaluator(sino)
    rng = np.random.default_rng(23)
    mu, nu = random_frames(rng, 30)
    Y = rng.uniform(-2.0, 2.0, 30)
    exact = tomogram_gaussian(VACUUM, Y / np.hypot(mu, nu), mu / np.hypot(mu, nu), nu / np.hypot(mu, nu))
    got = ev(Y, mu, nu) * np.hypot(mu, nu)
    np.testing.assert_allclose(got, exact, atol=1e-5)

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from synth_helpers import lorentzian_trace

from cryomux import fitkit, resonator
from cryomux.errors import (
    InputError,
    NonphysicalValueError,
    SingularFitError,
    UnderdeterminedError,
    WindowError,
)
from cryomux.fitkit import (
    ComplexTrace,
    FitResult,
    PowerSweepPoint,
    StarkContext,
    estimate_initial,
    fit_power_sweep,
    fit_spectrum,
    lm_minimize,
    photon_axis,
    spectrum_model_jacobian,
    stark_forward,
    stark_invert,
    tls_model_from_fit,
)
from cryomux.lossbudget import qi_inverse
from cryomux.resonator import TWO_PI, LorentzianParams
from cryomux.rfnet import FrequencyGrid

RNG = np.random.default_rng(20260822)
FREE = (-math.inf, math.inf)


def fd_jac(residuals):
    """The forward-difference oracle as a Jacobian callable for lm_minimize."""
    return lambda x: fitkit._fd_jacobian(residuals, x, residuals(x))


# ---------------------------------------------------------------- minimizer

def test_linear_residual_reaches_root():
    def residuals(x):
        return np.array([x[0] - 3.0])

    result = lm_minimize(residuals, [0.0], bounds=[FREE], names=("x0",), jac=fd_jac(residuals))
    assert result.converged
    assert abs(result.params["x0"] - 3.0) < 1e-8
    assert result.iterations <= 10


def test_rosenbrock_standard_start():
    def residuals(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    result = lm_minimize(
        residuals, [-1.2, 1.0], bounds=[FREE] * 2, names=("x0", "x1"), jac=fd_jac(residuals)
    )
    assert result.converged
    assert_allclose(
        [result.params["x0"], result.params["x1"]], [1.0, 1.0], atol=1e-8
    )


def test_linear_regression_covariance_oracle():
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 1.0, 50)
    sigma = 0.1
    y = 0.7 + 2.5 * t + sigma * rng.standard_normal(t.size)

    def residuals(x):
        return (x[0] + x[1] * t - y) / sigma

    result = lm_minimize(
        residuals, [0.0, 0.0], bounds=[FREE] * 2, names=("intercept", "slope"),
        jac=fd_jac(residuals),
    )
    assert result.converged

    design = np.column_stack([np.ones_like(t), t]) / sigma
    beta = np.linalg.lstsq(design, y / sigma, rcond=None)[0]
    assert_allclose(
        [result.params["intercept"], result.params["slope"]], beta, atol=1e-8
    )
    dof = t.size - 2
    expected = np.linalg.inv(design.T @ design) * (result.residual_norm ** 2 / dof)
    assert_allclose(result.covariance, expected, rtol=1e-6)
    eigenvalues = np.linalg.eigvalsh(result.covariance)
    assert np.all(eigenvalues >= -1e-18)

    exact = lm_minimize(
        residuals, [0.0, 0.0], bounds=[FREE] * 2, names=("x0", "x1"), jac=lambda x: design
    )
    assert exact.converged
    assert_allclose([exact.params["x0"], exact.params["x1"]], beta, atol=1e-8)
    assert_allclose(exact.covariance, expected, rtol=1e-9)


def test_rosenbrock_analytic_jacobian_matches_fd_path():
    def residuals(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def jac(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    free = dict(bounds=[FREE] * 2, names=("x0", "x1"))
    fd = lm_minimize(residuals, [-1.2, 1.0], **free, jac=fd_jac(residuals))
    exact = lm_minimize(residuals, [-1.2, 1.0], **free, jac=jac)
    assert fd.converged and exact.converged
    assert_allclose(
        [exact.params["x0"], exact.params["x1"]],
        [fd.params["x0"], fd.params["x1"]],
        atol=1e-8,
    )
    assert_allclose([exact.params["x0"], exact.params["x1"]], [1.0, 1.0], atol=1e-8)
    with pytest.raises(InputError, match="shape"):
        lm_minimize(residuals, [-1.2, 1.0], **free, jac=lambda x: jac(x).T[:1])


def test_nonfinite_during_search_is_diverged_not_raised():
    def residuals(x):
        if abs(x[0]) > 1e-9:
            return np.array([np.nan])
        return np.array([-3.0])

    result = lm_minimize(residuals, [0.0], bounds=[FREE], names=("x0",), jac=fd_jac(residuals))
    assert not result.converged
    assert "non-finite" in result.message


def test_no_improving_step_raises_after_damping_cap():
    def residuals(x):
        return np.array([1.0]) if x[0] == 0.0 else np.array([2.0])

    with pytest.raises(SingularFitError):
        lm_minimize(residuals, [0.0], bounds=[FREE], names=("x0",), jac=fd_jac(residuals))


def test_init_validation():
    def nan(x):
        return np.array([np.nan])

    def identity(x):
        return np.array([x[0]])

    with pytest.raises(InputError):
        lm_minimize(nan, [0.0], bounds=[FREE], names=("x0",), jac=fd_jac(nan))
    with pytest.raises(InputError):
        lm_minimize(identity, [5.0], bounds=[(0.0, 1.0)], names=("x0",), jac=fd_jac(identity))


def test_bounds_pin_the_solution():
    def residuals(x):
        return np.array([x[0] - 3.0])

    result = lm_minimize(
        residuals, [0.0], bounds=[(-math.inf, 2.0)], names=("x0",), jac=fd_jac(residuals)
    )
    assert result.converged
    assert_allclose(result.params["x0"], 2.0, atol=1e-12)


def test_covariance_drops_a_rank_deficient_direction_as_pinv_does():
    # two identical columns: the equilibrated normal matrix is singular, and
    # pinv's cutoff (singular values <= 1e-15 of the largest) drops that
    # direction instead of inverting a rounding-level eigenvalue
    t = np.linspace(0.0, 1.0, 40)
    y = 0.5 + 1.5 * t + 0.01 * np.sin(7.0 * t)
    design = np.column_stack([np.ones_like(t), t, t])
    result = lm_minimize(
        lambda x: design @ x - y, [0.0, 0.0, 0.0], bounds=[FREE] * 3, names=("x0", "x1", "x2"),
        jac=lambda x: design,
    )
    assert result.converged
    normal = design.T @ design
    d = np.sqrt(np.diag(normal))
    reduced = result.residual_norm ** 2 / (t.size - 3)
    expected = reduced * np.linalg.pinv(normal / np.outer(d, d)) / np.outer(d, d)
    assert_allclose(result.covariance, expected, rtol=1e-12)
    # x1 + x2 is the slope of the full-rank fit; x1 - x2 is not determined
    full = design[:, :2]
    slope_var = reduced * np.linalg.inv(full.T @ full)[1, 1]
    cov = result.covariance
    assert_allclose(cov[1, 1] + 2.0 * cov[1, 2] + cov[2, 2], slope_var, rtol=1e-12)
    assert abs(cov[1, 1] - 2.0 * cov[1, 2] + cov[2, 2]) <= 1e-12 * slope_var


def test_iteration_limit_reports_unconverged(monkeypatch):
    def residuals(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    monkeypatch.setattr(fitkit, "LM_MAX_ITER", 2)
    result = lm_minimize(
        residuals, [-1.2, 1.0], bounds=[FREE] * 2, names=("x0", "x1"), jac=fd_jac(residuals)
    )
    assert not result.converged
    assert result.iterations == 2
    assert "limit" in result.message


# ---------------------------------------------------------------- jacobian

def test_fd_jacobian_matches_analytic():
    for _ in range(5):
        f_r = RNG.uniform(1.0, 10.0)
        q_loaded = RNG.uniform(10.0, 50.0)
        x = np.array(
            [
                f_r,
                q_loaded,
                RNG.normal(),
                RNG.normal(),
                RNG.normal(),
                RNG.normal(),
            ]
        )
        width = f_r / q_loaded
        f = np.linspace(f_r - 10 * width, f_r + 10 * width, 101)
        y = fitkit._spectrum_model(x, f) + 0.01 * (
            RNG.standard_normal(f.size) + 1j * RNG.standard_normal(f.size)
        )

        def residuals(v):
            diff = fitkit._spectrum_model(v, f) - y
            return diff.view(float)

        r0 = residuals(x)
        fd = fitkit._fd_jacobian(residuals, x, r0)
        analytic = spectrum_model_jacobian(x, f)
        for col in range(6):
            scale = np.max(np.abs(analytic[:, col]))
            assert np.max(np.abs(fd[:, col] - analytic[:, col])) <= 1e-5 * scale


def spy_lm(monkeypatch, drop_jac=False):
    """Record (residuals, jac, init, optimum) of each lm_minimize call.

    With drop_jac the minimizer gets the forward-difference oracle in
    place of the caller's Jacobian.
    """
    calls = []
    original = fitkit.lm_minimize

    def spy(residuals, init, *, jac, **kwargs):
        result = original(residuals, init, jac=fd_jac(residuals) if drop_jac else jac, **kwargs)
        optimum = np.array(list(result.params.values()))
        calls.append((residuals, jac, np.array(init, dtype=float), optimum))
        return result

    monkeypatch.setattr(fitkit, "lm_minimize", spy)
    return calls


def test_power_fit_jacobian_matches_fd(monkeypatch):
    calls = spy_lm(monkeypatch)
    rng = np.random.default_rng(5)
    fit_power_sweep(make_power_points(**TLS_TRUTH, noise=0.02, rng=rng))
    fit_power_sweep(
        make_power_points(pd=2e-6, n_c=30.0, beta=0.35, q0=2e7, noise=0.01, rng=rng),
        q_c_mag=5e7,
    )
    for residuals, jac, init, optimum in calls:
        for x in (init, optimum, 0.5 * (init + optimum)):
            analytic = jac(x)
            fd = fitkit._fd_jacobian(residuals, x, residuals(x))
            for col in range(x.size):
                scale = np.max(np.abs(analytic[:, col]))
                assert np.max(np.abs(fd[:, col] - analytic[:, col])) <= 1e-5 * scale


# the forward difference's truncation error grows with Q; at Q_L = 15 it is
# about 3e-6 of a column's scale, well inside the 1e-5 comparison
LOW_Q_LINE = LorentzianParams(1.0, 0.30 + 0.10j, 5.0e9, 15.0, 50.0, 0.4)


def low_q_traces():
    """Weighted, unweighted and conjugated noisy traces of LOW_Q_LINE."""
    noisy = lorentzian_trace(LOW_Q_LINE, snr_db=30.0, rng=np.random.default_rng(61))
    return {
        "weighted": noisy,
        "unweighted": ComplexTrace(noisy.grid, noisy.s21),
        "conjugated": ComplexTrace(noisy.grid, np.conj(noisy.s21), noisy.sigma),
    }


@pytest.mark.parametrize("kind", ["weighted", "unweighted", "conjugated"])
def test_spectrum_fit_jacobian_matches_fd(monkeypatch, kind):
    calls = spy_lm(monkeypatch)
    result = fit_spectrum(low_q_traces()[kind])
    assert result.converged
    assert ("conjugated" in result.message) == (kind == "conjugated")
    (residuals, jac, init, optimum), = calls
    for x in (init, optimum, 0.5 * (init + optimum)):
        analytic = jac(x)
        fd = fitkit._fd_jacobian(residuals, x, residuals(x))
        for col in range(x.size):
            scale = np.max(np.abs(analytic[:, col]))
            assert np.max(np.abs(fd[:, col] - analytic[:, col])) <= 1e-5 * scale


@pytest.mark.parametrize("kind", ["weighted", "unweighted", "conjugated"])
def test_spectrum_jacobian_never_uses_a_stale_denominator(monkeypatch, kind):
    """jac(x) and residuals(x) do not depend on what was evaluated before."""
    captured = []

    def capture(residuals, init, jac=None, names=None, **kwargs):
        captured.append((residuals, jac, np.array(init, dtype=float)))
        return FitResult(dict(zip(names, init)), None, 0.0, False, 0)

    trace = low_q_traces()[kind]
    monkeypatch.setattr(fitkit, "lm_minimize", capture)
    for _ in range(3):
        fit_spectrum(trace)
    (residuals, jac, x_a), (fresh_res_a, _, _), (fresh_res_b, _, _) = captured
    x_b = x_a * (1.0 + 1e-3)
    weights = None if trace.sigma is None else 1.0 / trace.sigma

    def direct(x):
        return spectrum_model_jacobian(x, trace.grid.points, weights).tobytes()

    res_a = fresh_res_a(x_a).tobytes()
    res_b = fresh_res_b(x_b).tobytes()
    assert jac(x_a).tobytes() == direct(x_a)  # nothing evaluated yet
    assert residuals(x_b).tobytes() == res_b
    assert jac(x_a).tobytes() == direct(x_a)  # residual last at another x
    assert residuals(x_a).tobytes() == res_a
    assert jac(x_a).tobytes() == direct(x_a)  # residual last at this x
    assert jac(x_b).tobytes() == direct(x_b)
    assert residuals(x_a).tobytes() == res_a  # Jacobian last at another x
    fitkit._fd_jacobian(residuals, x_a, residuals(x_a))
    assert jac(x_a).tobytes() == direct(x_a)  # forward-difference probes last
    assert jac(x_a.copy()).tobytes() == direct(x_a)
    assert direct(x_a) != direct(x_b)


def test_spectrum_fit_jacobian_reuses_the_residuals_denominator(monkeypatch):
    inv_calls = []
    residual_calls = []
    original_inv = fitkit._spectrum_inv
    original_lm = fitkit.lm_minimize

    def counted_inv(x, f):
        inv_calls.append(1)
        return original_inv(x, f)

    def counted_lm(residuals, *args, **kwargs):
        def counted_residuals(x):
            residual_calls.append(1)
            return residuals(x)

        return original_lm(counted_residuals, *args, **kwargs)

    monkeypatch.setattr(fitkit, "_spectrum_inv", counted_inv)
    monkeypatch.setattr(fitkit, "lm_minimize", counted_lm)
    for trace in low_q_traces().values():
        result = fit_spectrum(trace)
        assert result.converged and result.iterations >= 2
    # every Jacobian is taken at an accepted point, where the residual has
    # just computed 1/denom
    assert len(inv_calls) == len(residual_calls)


C03_ARCHETYPES = (
    LorentzianParams(1.0, 0.30 + 0.10j, 5.569e9, 1.2e4, 2.3e5, 0.15),
    LorentzianParams(1.0, 0.20 + 0.05j, 6.100e9, 2.0e5, 8.0e5, -0.10),
    LorentzianParams(1.0, 0.10 + 0.02j, 4.200e9, 1.5e6, 3.0e6, 0.08),
    LorentzianParams(1.0, 0.05 + 0.02j, 4.779e9, 7.0e6, 5.0e7, 0.05),
)


@pytest.mark.parametrize(
    "archetype", C03_ARCHETYPES, ids=lambda a: f"q_loaded_{a.q_loaded:g}"
)
def test_analytic_and_fd_spectrum_fits_agree(monkeypatch, archetype):
    traces = [
        lorentzian_trace(archetype, snr_db=30.0, rng=np.random.default_rng(400 + k))
        for k in range(5)
    ]
    analytic = [fit_spectrum(trace) for trace in traces]
    spy_lm(monkeypatch, drop_jac=True)
    fd = [fit_spectrum(trace) for trace in traces]
    for a, b in zip(analytic, fd):
        assert a.converged and b.converged
        assert abs(a.params["q_loaded"] - b.params["q_loaded"]) <= 0.01 * b.params["q_loaded"]


def test_high_q_fit_converges_in_few_iterations():
    archetype = C03_ARCHETYPES[-1]
    for k in range(10):
        trace = lorentzian_trace(archetype, snr_db=30.0, rng=np.random.default_rng(500 + k))
        result = fit_spectrum(trace)
        assert result.converged
        assert result.iterations < 10


@pytest.mark.parametrize(
    "archetype", C03_ARCHETYPES, ids=lambda a: f"q_loaded_{a.q_loaded:g}"
)
def test_spectrum_covariance_is_reduced_chi2_times_pinv_of_the_normal_matrix(archetype):
    trace = lorentzian_trace(archetype, snr_db=30.0, rng=np.random.default_rng(600))
    result = fit_spectrum(trace)
    assert result.converged
    x = np.array([result.params[name] for name in fitkit.SPECTRUM_PARAM_NAMES])
    jmat = spectrum_model_jacobian(x, trace.grid.points, 1.0 / trace.sigma)
    normal = jmat.T @ jmat
    d = np.sqrt(np.diag(normal))
    reduced = result.residual_norm ** 2 / (jmat.shape[0] - x.size)
    expected = reduced * np.linalg.pinv(normal / np.outer(d, d)) / np.outer(d, d)
    assert_allclose(np.diag(result.covariance), np.diag(expected), rtol=1e-12)
    # off the diagonal relative to sqrt(C_ii C_jj): elementwise, a correlation
    # near 0 differs more than that between pinv's own two triangles
    scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
    assert_allclose(result.covariance / scale, expected / scale, rtol=0.0, atol=1e-12)


def test_spectrum_fit_ending_on_a_bound_is_not_converged(monkeypatch):
    # a minimizer that stops with q_loaded clipped to its upper bound
    original = fitkit.lm_minimize

    def pinned(residuals, init, bounds=None, **kwargs):
        result = original(residuals, init, bounds=bounds, **kwargs)
        params = dict(result.params, q_loaded=bounds[1][1])
        return FitResult(params, result.covariance, result.residual_norm, True, 7, "converged")

    trace = lorentzian_trace(C03_ARCHETYPES[0], snr_db=30.0, rng=np.random.default_rng(61))
    free = fit_spectrum(trace)
    assert free.converged and free.message == "converged"
    monkeypatch.setattr(fitkit, "lm_minimize", pinned)
    result = fit_spectrum(trace)
    assert not result.converged
    assert result.message == "stopped with q_loaded on its bound 1e+12"
    assert result.params["q_loaded"] == 1e12
    with pytest.raises(InputError, match="converged"):
        photon_axis(1e-18, result, result.params["f_r"])


# ---------------------------------------------------------------- initializer

def canonical_params(**overrides):
    base = dict(
        a_scale=1.0,
        b_offset=0.3 + 0.1j,
        f_r=6.1e9,
        q_loaded=2e5,
        q_c_mag=8e5,
        phi=0.2,
    )
    base.update(overrides)
    return LorentzianParams(**base)


def test_complex_trace_rejects_nonfinite_values():
    grid = FrequencyGrid(np.linspace(4.0e9, 4.1e9, 5))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        s21 = np.full(5, 0.5 + 0.1j)
        s21[2] = bad
        with pytest.raises(InputError, match="finite"):
            ComplexTrace(grid, s21)
    with pytest.raises(InputError, match="finite"):
        ComplexTrace(grid, np.ones(5), sigma=np.inf)
    with pytest.raises(InputError, match="positive"):
        ComplexTrace(grid, np.ones(5), sigma=0.0)


def test_estimate_initial_on_clean_trace():
    params = canonical_params()
    trace = lorentzian_trace(params)
    seed = estimate_initial(trace)
    width = params.f_r / params.q_loaded
    assert abs(seed.f_r - params.f_r) < 0.1 * width
    assert abs(seed.q_loaded - params.q_loaded) < 0.3 * params.q_loaded


def test_estimate_rejects_edge_resonance():
    params = canonical_params()
    width = params.f_r / params.q_loaded
    f = np.linspace(params.f_r, params.f_r + 10 * width, 401)
    trace = ComplexTrace(FrequencyGrid(f), resonator.s21_lorentzian(params, f))
    with pytest.raises(WindowError):
        estimate_initial(trace)


def test_estimate_rejects_flat_trace():
    rng = np.random.default_rng(3)
    f = np.linspace(4.0e9, 4.1e9, 401)
    flat = 0.4 + 0.0j + 1e-3 * (
        rng.standard_normal(f.size) + 1j * rng.standard_normal(f.size)
    )
    with pytest.raises(WindowError):
        estimate_initial(ComplexTrace(FrequencyGrid(f), flat))


def test_estimate_rejects_too_narrow_window():
    params = canonical_params()
    trace = lorentzian_trace(params, span_linewidths=0.5)
    with pytest.raises(WindowError):
        estimate_initial(trace)


def walked_half_magnitude_crossing(f, mag, peak_idx, direction, level):
    """The point-by-point walk that _half_magnitude_crossing replaced, as its oracle."""
    i = peak_idx
    while 0 <= i + direction < mag.size:
        nxt = i + direction
        if mag[nxt] <= level:
            span = mag[i] - mag[nxt]
            frac = 0.0 if span == 0.0 else (mag[i] - level) / span
            return float(f[i] + frac * (f[nxt] - f[i]))
        i = nxt
    return None


@pytest.mark.parametrize("n_points", [201, 801, 3201])
@pytest.mark.parametrize("archetype", C03_ARCHETYPES, ids=lambda a: f"q_loaded_{a.q_loaded:g}")
def test_half_magnitude_crossing_equals_the_walk(archetype, n_points):
    for k in range(4):
        trace = lorentzian_trace(
            archetype, n_points, snr_db=30.0, rng=np.random.default_rng(700 + k)
        )
        f = trace.grid.points
        mag = np.abs(trace.s21 - np.mean(trace.s21[:10]))
        peak_idx = int(np.argmax(mag))
        for level in (0.5 * mag[peak_idx], 0.9 * mag[peak_idx], 0.01 * mag[peak_idx]):
            for direction in (-1, 1):
                new = fitkit._half_magnitude_crossing(f, mag, peak_idx, direction, level)
                assert new == walked_half_magnitude_crossing(f, mag, peak_idx, direction, level)


def test_half_magnitude_crossing_edge_cases():
    f = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    mag = np.array([0.2, 1.0, 1.0, 3.0, 1.0])
    for peak_idx, direction, level in [
        (1, 1, 1.0),  # the crossing sample equals its neighbour: a span of 0
        (3, -1, 1.0),
        (3, 1, 1.0),
        (3, -1, 0.1),  # never falls to level: None
        (3, 1, 0.5),
        (0, -1, 0.5),  # nothing beyond the peak
        (4, 1, 0.5),
        (1, -1, 0.5),
    ]:
        new = fitkit._half_magnitude_crossing(f, mag, peak_idx, direction, level)
        assert new == walked_half_magnitude_crossing(f, mag, peak_idx, direction, level)
    assert fitkit._half_magnitude_crossing(f, mag, 1, 1, 1.0) == 2.0
    assert fitkit._half_magnitude_crossing(f, mag, 3, -1, 1.0) == 3.0
    assert fitkit._half_magnitude_crossing(f, mag, 3, -1, 0.1) is None


# ---------------------------------------------------------------- spectrum fit

def test_fit_noiseless_trace_exact():
    params = canonical_params(
        f_r=4.78e9, q_loaded=7e6, q_c_mag=5e7, phi=0.4, b_offset=0.1 - 0.05j
    )
    result = fit_spectrum(lorentzian_trace(params))
    assert result.converged
    assert_allclose(result.params["f_r"], params.f_r, rtol=1e-9)
    assert_allclose(result.params["q_loaded"], params.q_loaded, rtol=1e-6)
    assert_allclose(result.params["q_c_mag"], params.q_c_mag, rtol=1e-6)
    assert_allclose(result.params["phi"], params.phi, atol=1e-6)
    offset = complex(result.params["offset_re"], result.params["offset_im"])
    assert_allclose(offset, params.b_offset, atol=1e-6)


def test_fit_noisy_roundtrip_sample():
    params = canonical_params(f_r=4.78e9, q_loaded=7e6, q_c_mag=5e7, phi=0.0)
    width = params.f_r / params.q_loaded
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        trace = lorentzian_trace(params, snr_db=30.0, rng=rng)
        result = fit_spectrum(trace)
        ok = (
            result.converged
            and abs(result.params["q_loaded"] - params.q_loaded)
            <= 0.05 * params.q_loaded
            and abs(result.params["f_r"] - params.f_r) <= 0.1 * width
        )
        hits += ok
    assert hits >= 9


def test_fit_physics_trace_cross_model():
    system = resonator.CavityLerSystem(
        omega_c=TWO_PI * 7.0e9,
        omega_r=TWO_PI * 4.8e9,
        g=TWO_PI * 1.1e7,
        kappa_i=TWO_PI * 2.0e6,
        kappa_o=TWO_PI * 2.0e6,
        gamma_c=0.0,
        gamma_r=TWO_PI * 600.0,
    )
    rates = resonator.purcell(system)
    q_true = rates.omega_r_dressed / (rates.kappa_pur + system.gamma_r)
    width = rates.omega_r_dressed / q_true
    omega = rates.omega_r_dressed + np.linspace(-10, 10, 801) * width
    trace = ComplexTrace(
        FrequencyGrid(omega / TWO_PI), resonator.s21_physics(system, omega)
    )
    result = fit_spectrum(trace)
    assert result.converged
    assert "conjugated" in result.message
    assert_allclose(result.params["q_loaded"], q_true, rtol=1e-3)
    assert_allclose(result.params["f_r"], rates.omega_r_dressed / TWO_PI, rtol=1e-9)


def test_fit_deterministic():
    params = canonical_params()
    rng = np.random.default_rng(77)
    trace = lorentzian_trace(params, snr_db=30.0, rng=rng)
    first = fit_spectrum(trace)
    second = fit_spectrum(trace)
    assert first.params == second.params
    assert first.iterations == second.iterations


# ---------------------------------------------------------------- power fit

TLS_TRUTH = dict(pd=8.34e-5, n_c=1.0, beta=0.5, q0=1e6)


def make_power_points(pd, n_c, beta, q0, noise=0.0, rng=None, n_points=25):
    n = np.logspace(-1.0, 6.0, n_points)
    loss = pd / (1.0 + n / n_c) ** beta + 1.0 / q0
    q = 1.0 / loss
    if noise:
        q = q * (1.0 + noise * rng.standard_normal(n.size))
    sigma = np.maximum(noise, 1e-3) * q
    return [
        PowerSweepPoint(nk, qk, sk) for nk, qk, sk in zip(n, q, sigma)
    ]


def test_power_fit_noiseless_recovery():
    result = fit_power_sweep(make_power_points(**TLS_TRUTH))
    assert result.converged
    assert_allclose(result.params["p_tan_delta"], 8.34e-5, rtol=1e-3)
    assert_allclose(result.params["n_c"], 1.0, rtol=1e-2)
    assert_allclose(result.params["beta"], 0.5, rtol=1e-3)
    assert_allclose(result.params["q0"], 1e6, rtol=1e-2)
    assert_allclose(result.params["q_single_photon_limit"], 1.1848e4, rtol=1e-3)


def test_power_fit_noisy_sample():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        points = make_power_points(**TLS_TRUTH, noise=0.02, rng=rng)
        result = fit_power_sweep(points)
        ok = result.converged and all(
            abs(result.params[key] - truth) <= 0.15 * truth
            for key, truth in (
                ("p_tan_delta", 8.34e-5),
                ("n_c", 1.0),
                ("beta", 0.5),
                ("q0", 1e6),
            )
        )
        hits += ok
    assert hits >= 9


def test_power_fit_scale_consistency():
    base = fit_power_sweep(make_power_points(**TLS_TRUTH))
    scaled_points = [
        PowerSweepPoint(37.5 * p.n_photons, p.q_loaded, p.q_uncertainty)
        for p in make_power_points(**TLS_TRUTH)
    ]
    scaled = fit_power_sweep(scaled_points)
    assert_allclose(scaled.params["n_c"], 37.5 * base.params["n_c"], rtol=1e-2)
    assert_allclose(scaled.params["beta"], base.params["beta"], rtol=1e-2)
    assert_allclose(
        scaled.params["p_tan_delta"], base.params["p_tan_delta"], rtol=1e-2
    )
    assert_allclose(scaled.params["q0"], base.params["q0"], rtol=5e-2)


def test_power_fit_flat_data():
    n = np.logspace(-1.0, 6.0, 12)
    points = [PowerSweepPoint(nk, 5e5, 5e2) for nk in n]
    result = fit_power_sweep(points)
    model = tls_model_from_fit(result)
    assert_allclose(1.0 / qi_inverse(model, 0.0), 5e5, rtol=0.02)
    assert_allclose(1.0 / qi_inverse(model, 1e6), 5e5, rtol=0.02)


def test_power_fit_underdetermined():
    points = [PowerSweepPoint(1.0, 1e5, 1e3) for _ in range(3)]
    with pytest.raises(UnderdeterminedError):
        fit_power_sweep(points)


@pytest.mark.parametrize("field", ["n_photons", "q_loaded", "q_uncertainty"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_power_sweep_point_rejects_non_finite_fields(field, value):
    # an infinite field would be written to a points CSV that read_power_points refuses
    fields = {"n_photons": 1.0, "q_loaded": 1e5, "q_uncertainty": 1e3, field: value}
    with pytest.raises(InputError, match=f"{field} must be finite"):
        PowerSweepPoint(**fields)


def test_power_fit_with_coupling_conversion():
    q_c = 5e7
    pure = make_power_points(**TLS_TRUTH)
    loaded = [
        PowerSweepPoint(
            p.n_photons,
            1.0 / (1.0 / p.q_loaded + 1.0 / q_c),
            p.q_uncertainty * (1.0 / (1.0 / p.q_loaded + 1.0 / q_c)) ** 2
            / p.q_loaded ** 2,
        )
        for p in pure
    ]
    result = fit_power_sweep(loaded, q_c_mag=q_c)
    assert_allclose(result.params["p_tan_delta"], 8.34e-5, rtol=1e-2)
    assert_allclose(result.params["beta"], 0.5, rtol=1e-2)

    with pytest.raises(NonphysicalValueError):
        fit_power_sweep(
            [PowerSweepPoint(1.0, 6e7, 1e3) for _ in range(6)], q_c_mag=q_c
        )


# ---------------------------------------------------------------- stark

CTX = StarkContext(chi=-2.0e6, nu_r=5.569e9, nu_q=6.58e9)


def closed_form_shift(ctx, temperature):
    x = math.exp(
        -6.62607015e-34 * ctx.nu_r / (1.380649e-23 * temperature)
    )
    return 2.0 * ctx.chi * x / (1.0 - x)


def test_stark_forward_hand_oracle():
    shift = stark_forward(CTX, 0.713)
    assert_allclose(shift, -8.7955e6, rtol=2e-4)
    assert_allclose(shift, -8.80e6, rtol=1e-3)


def test_stark_sum_matches_closed_form():
    for temperature in np.linspace(0.05, 5.0, 30):
        auto = stark_forward(CTX, temperature)
        exact = closed_form_shift(CTX, temperature)
        assert_allclose(auto, exact, rtol=1e-12)
    assert_allclose(
        stark_forward(CTX, 1.0, truncation=20000),
        closed_form_shift(CTX, 1.0),
        rtol=1e-12,
    )


def test_stark_closed_form_at_high_temperature():
    # where h*nu/(k*T) = r is small, 1/expm1(r) = 1/r - 1/2 + r/12 - r**3/720
    for temperature in (1e4, 1e5):
        r = 6.62607015e-34 * CTX.nu_r / (1.380649e-23 * temperature)
        series = 2.0 * CTX.chi * (1.0 / r - 0.5 + r / 12.0)
        assert_allclose(stark_forward(CTX, temperature), series, rtol=1e-12)
    # the level sum converges once x**levels is negligible: 2e6 levels at 1e4 K
    assert_allclose(
        stark_forward(CTX, 1e4),
        stark_forward(CTX, 1e4, truncation=2_000_000),
        rtol=1e-12,
    )


def test_stark_zero_cases():
    assert stark_forward(CTX, 0.0) == 0.0
    assert stark_invert(CTX, 0.0) == (0.0, 0.0)


def test_stark_invert_hand_oracle():
    n_mean, t_res = stark_invert(CTX, -7.7e6)
    assert n_mean == pytest.approx(1.925, abs=1e-12)
    assert_allclose(t_res, 0.6388, rtol=1e-3)
    _, t_qubit = stark_invert(CTX, -7.7e6, convention="qubit")
    assert_allclose(t_qubit, 0.7548, rtol=1e-3)
    # the resonator-convention value differs from the qubit-convention one
    # by the frequency ratio exactly
    assert_allclose(t_qubit / t_res, 6.58e9 / 5.569e9, rtol=1e-12)


def test_stark_round_trip():
    for temperature in np.linspace(0.05, 5.0, 12):
        shift = stark_forward(CTX, temperature)
        n_mean, recovered = stark_invert(CTX, shift)
        assert_allclose(recovered, temperature, rtol=1e-9)
        assert n_mean >= 0.0


def test_stark_validation():
    with pytest.raises(NonphysicalValueError):
        stark_invert(CTX, +7.7e6)
    with pytest.raises(InputError):
        stark_invert(StarkContext(chi=-2e6, nu_r=5.569e9), -1e6, convention="qubit")
    with pytest.raises(InputError):
        stark_invert(CTX, -1e6, convention="lattice")
    with pytest.raises(InputError):
        stark_invert(CTX, math.nan)
    for temperature in (math.inf, math.nan, -1.0):
        with pytest.raises(InputError):
            stark_forward(CTX, temperature)
    with pytest.raises(InputError):
        StarkContext(chi=0.0, nu_r=5.569e9)


# ---------------------------------------------------------------- photons

def test_photon_axis_hand_oracle():
    line = FitResult(
        params=dict(a_scale=1.0, f_r=4.78e9, q_loaded=7e6, q_c_mag=7e6 / 0.14, phi=0.0),
        covariance=None,
        residual_norm=0.0,
        converged=True,
        iterations=1,
    )
    n = photon_axis(5.01e-20, line, 4.78e9)
    assert_allclose(n, 1.0323, rtol=1e-3)
    assert photon_axis(0.0, line, 4.78e9) == 0.0
    assert_allclose(photon_axis(5.01e-19, line, 4.78e9), 10.0 * n, rtol=1e-12)
    with pytest.raises(InputError, match="beyond double range"):
        photon_axis(1e300, line, 4.78e9)


def test_photon_axis_requires_convergence():
    unconverged = FitResult(
        params={}, covariance=None, residual_norm=1.0, converged=False, iterations=5
    )
    with pytest.raises(InputError):
        photon_axis(1e-20, unconverged, 4.78e9)
    power_fit = FitResult(
        params={"beta": 0.5}, covariance=None, residual_norm=1.0, converged=True, iterations=5
    )
    with pytest.raises(InputError, match="does not carry spectrum parameters"):
        photon_axis(1e-20, power_fit, 4.78e9)

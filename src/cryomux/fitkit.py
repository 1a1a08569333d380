"""Least-squares engine and the estimation procedures built on it.

Three measurement reductions share one damped least-squares core: complex
transmission spectra to resonance parameters, loaded-Q power sweeps to a
saturable-loss model, and ac Stark shifts to a photon number and an
effective temperature.

The minimizer is deliberately small: damped normal equations with
Marquardt scaling, a caller-supplied analytic Jacobian or else a
forward-difference one, and box bounds by step clipping. The spectrum and
power-sweep fits pass the closed-form Jacobians of their models; the
forward difference serves generic callers and is the tests' oracle for the
closed forms. Every fit in this package is low-dimensional and well
scaled, so a compact implementation with fixed, documented convergence
rules is easier to validate against hand oracles than a general-purpose
wrapper.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .constants import BOLTZMANN, PLANCK
from .errors import (
    InputError,
    NonphysicalValueError,
    SingularFitError,
    UnderdeterminedError,
    WindowError,
)
from .lossbudget import LossComponent, TlsModel
from .resonator import (
    TWO_PI,
    LorentzianParams,
    mean_photons_measurable,
    q_relations,
)
from .rfnet import FrequencyGrid

# forward-difference step, relative to each parameter's magnitude
FD_RELATIVE_STEP = 1e-7

LAMBDA_INIT = 1e-3
LAMBDA_GROW = 10.0
LAMBDA_MAX = 1e12

# initializer heuristics
EDGE_FRACTION = 0.05
QC_SEED_FACTOR = 10.0
RESONANCE_PROMINENCE_MIN = 4.0

# full width at half the background-subtracted peak magnitude corresponds
# to sqrt(3) resonance linewidths
HALF_MAGNITUDE_WIDTHS = math.sqrt(3.0)

Q_MIN = 10.0
POWER_FIT_BOUNDS = (
    (math.log(1e-15), 0.0),        # log of p * tan_delta
    (math.log(1e-3), math.log(1e9)),  # log of n_c
    (0.1, 1.0),                    # beta
    (math.log(Q_MIN), math.log(1e15)),  # log of q0
)


@dataclass(frozen=True)
class ComplexTrace:
    """A complex transmission trace with optional per-point noise levels."""

    grid: FrequencyGrid
    s21: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self) -> None:
        s21 = np.asarray(self.s21, dtype=complex)
        if s21.shape != (len(self.grid),):
            raise InputError(
                f"s21 has shape {s21.shape}, expected ({len(self.grid)},)"
            )
        if not np.all(np.isfinite(s21)):
            raise InputError("s21 values must all be finite")
        s21.flags.writeable = False
        object.__setattr__(self, "s21", s21)
        if self.sigma is not None:
            sigma = np.broadcast_to(
                np.asarray(self.sigma, dtype=float), s21.shape
            ).copy()
            if not np.all((sigma > 0.0) & (sigma < np.inf)):
                raise InputError("noise sigmas must all be positive and finite")
            sigma.flags.writeable = False
            object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class PowerSweepPoint:
    """One loaded-Q measurement at a known mean photon number."""

    n_photons: float
    q_loaded: float
    q_uncertainty: float

    def __post_init__(self) -> None:
        if not self.n_photons >= 0.0:
            raise InputError(f"n_photons must be non-negative, got {self.n_photons!r}")
        if not self.q_loaded > 0.0:
            raise InputError(f"q_loaded must be positive, got {self.q_loaded!r}")
        if not self.q_uncertainty > 0.0:
            raise InputError(
                f"q_uncertainty must be positive, got {self.q_uncertainty!r}"
            )


@dataclass(frozen=True)
class LmTolerances:
    """Convergence thresholds for the damped least-squares loop."""

    step: float = 1e-10
    cost: float = 1e-12
    max_iter: int = 200


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a least-squares fit.

    params maps parameter names to fitted values; covariance is expressed
    in the same order as the fitted vector and is scaled by the reduced
    chi-square at the optimum.
    """

    params: Mapping[str, float | complex]
    covariance: np.ndarray | None
    residual_norm: float
    converged: bool
    iterations: int
    message: str = ""


@dataclass(frozen=True)
class StarkContext:
    """Dispersive-readout constants for Stark-shift thermometry.

    chi is the signed dispersive shift per photon (Hz), nu_r the readout
    resonator frequency. nu_q enables the alternate qubit-frequency
    temperature convention; kappa is carried for reporting only.
    """

    chi: float
    nu_r: float
    nu_q: float | None = None
    kappa: float | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.chi) and self.chi != 0.0):
            raise InputError(f"chi must be finite and nonzero, got {self.chi!r}")
        if not self.nu_r > 0.0:
            raise InputError(f"nu_r must be positive, got {self.nu_r!r}")
        if self.nu_q is not None and not self.nu_q > 0.0:
            raise InputError(f"nu_q must be positive when given, got {self.nu_q!r}")
        if self.kappa is not None and not self.kappa > 0.0:
            raise InputError(f"kappa must be positive when given, got {self.kappa!r}")


# ---------------------------------------------------------------------------
# minimizer core


def _expand_bounds(bounds, size: int) -> tuple[np.ndarray, np.ndarray]:
    lower = np.full(size, -np.inf)
    upper = np.full(size, np.inf)
    if bounds is None:
        return lower, upper
    if len(bounds) != size:
        raise InputError(
            f"got {len(bounds)} bounds for {size} parameters"
        )
    for j, entry in enumerate(bounds):
        if entry is None:
            continue
        lo, hi = entry
        if lo is not None:
            lower[j] = lo
        if hi is not None:
            upper[j] = hi
        if lower[j] > upper[j]:
            raise InputError(f"bound {j} is empty: ({lower[j]!r}, {upper[j]!r})")
    return lower, upper


def _fd_jacobian(
    residuals: Callable[[np.ndarray], np.ndarray], x: np.ndarray, r0: np.ndarray
) -> np.ndarray:
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        step = FD_RELATIVE_STEP * max(abs(x[j]), 1.0)
        probe = x.copy()
        probe[j] += step
        r_probe = np.asarray(residuals(probe), dtype=float).ravel()
        jac[:, j] = (r_probe - r0) / step
    return jac


def lm_minimize(
    residuals: Callable[[np.ndarray], np.ndarray],
    init: Sequence[float],
    bounds=None,
    tol: LmTolerances | None = None,
    names: Sequence[str] | None = None,
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
) -> FitResult:
    """Damped least squares with Marquardt scaling and box bounds.

    residuals maps a parameter vector to a 1-D residual vector. jac, when
    given, maps the same vector to the residuals' (m, n) Jacobian and is
    used both in the loop and for the covariance at the optimum; without
    it both use forward differences. The loop
    accepts a trial step when the cost does not increase, dividing the
    damping by ten on acceptance and multiplying by ten on rejection.
    Convergence is declared when the relative step falls below tol.step or
    the relative cost decrease falls below tol.cost. Singular normal
    equations only raise once the damping passes its cap; non-finite
    residuals encountered during the search end the fit with
    converged=False rather than raising.
    """
    settings = tol if tol is not None else LmTolerances()
    x = np.array(init, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InputError("init must be a non-empty 1-D parameter vector")
    lower, upper = _expand_bounds(bounds, x.size)
    if np.any(x < lower) or np.any(x > upper):
        raise InputError("initial point lies outside the bounds")
    labels = tuple(names) if names is not None else tuple(
        f"x{j}" for j in range(x.size)
    )
    if len(labels) != x.size:
        raise InputError(f"got {len(labels)} names for {x.size} parameters")

    r = np.asarray(residuals(x), dtype=float).ravel()
    if not np.isfinite(r).all():
        raise InputError("residuals are not finite at the initial point")
    cost = 0.5 * float(r @ r)
    lam = LAMBDA_INIT
    iterations = 0
    converged = False
    diverged = False
    message = "iteration limit reached"

    def jacobian(x: np.ndarray, r: np.ndarray) -> np.ndarray:
        if jac is None:
            return _fd_jacobian(residuals, x, r)
        jmat = np.asarray(jac(x), dtype=float)
        if jmat.shape != (r.size, x.size):
            raise InputError(
                f"jac returned shape {jmat.shape}, expected {(r.size, x.size)}"
            )
        return jmat

    while iterations < settings.max_iter and not converged and not diverged:
        iterations += 1
        jmat = jacobian(x, r)
        if not np.isfinite(jmat).all():
            message = "non-finite residuals while forming the Jacobian"
            diverged = True
            break
        normal = jmat.T @ jmat
        neg_gradient = -(jmat.T @ r)
        scale = normal.diagonal().copy()
        scale[scale <= 0.0] = 1.0

        while True:
            damped = normal.copy()
            damped.reshape(-1)[:: x.size + 1] += lam * scale
            try:
                step = np.linalg.solve(damped, neg_gradient)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.isfinite(step).all():
                lam *= LAMBDA_GROW
                if lam > LAMBDA_MAX:
                    raise SingularFitError(
                        "normal equations remained singular up to the "
                        f"damping cap {LAMBDA_MAX:g}"
                    )
                continue
            trial = np.clip(x + step, lower, upper)
            r_trial = np.asarray(residuals(trial), dtype=float).ravel()
            if not np.isfinite(r_trial).all():
                lam *= LAMBDA_GROW
                if lam > LAMBDA_MAX:
                    message = "diverged into non-finite residuals"
                    diverged = True
                    break
                continue
            trial_cost = 0.5 * float(r_trial @ r_trial)
            if trial_cost <= cost:
                moved = trial - x
                rel_step = math.sqrt(moved @ moved) / max(
                    math.sqrt(trial @ trial), 1e-300
                )
                rel_drop = (cost - trial_cost) / max(cost, 1e-300)
                x, r, cost = trial, r_trial, trial_cost
                lam = max(lam / LAMBDA_GROW, 1e-12)
                if rel_step < settings.step or rel_drop < settings.cost:
                    converged = True
                    message = "converged"
                break
            lam *= LAMBDA_GROW
            if lam > LAMBDA_MAX:
                raise SingularFitError(
                    "no cost-decreasing step found below the damping cap"
                )

    covariance = None
    dof = r.size - x.size
    if not diverged and dof > 0:
        jmat = jacobian(x, r)
        if np.isfinite(jmat).all():
            reduced = (2.0 * cost) / dof
            normal = jmat.T @ jmat
            # equilibrate before inverting so that the rank cutoff acts on
            # the correlation structure, not on raw parameter scales
            d = np.sqrt(normal.diagonal())
            d = np.where(d > 0.0, d, 1.0)
            inverse = np.linalg.pinv(normal / np.outer(d, d)) / np.outer(d, d)
            covariance = inverse * reduced
            covariance = 0.5 * (covariance + covariance.T)

    return FitResult(
        params=dict(zip(labels, x.tolist())),
        covariance=covariance,
        residual_norm=float(math.sqrt(2.0 * cost)),
        converged=converged,
        iterations=iterations,
        message=message,
    )


# ---------------------------------------------------------------------------
# spectrum fitting


def _spectrum_inv(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The model's resonant factor 1/(1 + 2j*q_loaded*(f/f_r - 1)) at x."""
    u = f / x[0]
    u -= 1.0
    denom = u * (2j * x[1])
    denom += 1.0
    return np.divide(1.0, denom, out=denom)


def _spectrum_model(
    x: np.ndarray, f: np.ndarray, inv: np.ndarray | None = None
) -> np.ndarray:
    """peak*inv + offset; inv is _spectrum_inv(x, f), computed when not given."""
    if inv is None:
        inv = _spectrum_inv(x, f)
    model = inv * complex(x[2], x[3])
    model += complex(x[4], x[5])
    return model


def spectrum_model_jacobian(
    x: np.ndarray,
    f: np.ndarray,
    weights: np.ndarray | None = None,
    inv: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic Jacobian of the spectrum model, rows interleaved re/im.

    Rows 2k and 2k+1 are the real and imaginary parts of the derivatives
    at f[k], the layout of ``diff.view(float)`` for a complex difference
    ``diff``; columns follow SPECTRUM_PARAM_NAMES. weights, when given,
    scale both rows of each point. inv is _spectrum_inv(x, f), computed
    here when not given. The result is the (2n, 6) view of one (6, n)
    complex array, so its transpose is C-contiguous and J.T @ J and
    J.T @ r each run as one matrix product. fit_spectrum uses it, with
    the trace weights, for every LM step and for the covariance.
    """
    f_r, q_loaded, peak_re, peak_im, _, _ = x
    if inv is None:
        inv = _spectrum_inv(x, f)
    peak = complex(peak_re, peak_im)
    cols = np.empty((6, inv.size), dtype=complex)
    d_fr, d_q, winv, wjinv, w_re, w_im = cols
    if weights is None:
        winv[:] = inv
        w_re[:] = 1.0
        w_im[:] = 1j
    else:
        np.multiply(inv, weights, out=winv)
        w_re[:] = weights
        np.multiply(weights, 1j, out=w_im)
    np.multiply(winv, 1j, out=wjinv)
    # with g = 2j*peak*inv**2 and u = f/f_r - 1 the model's derivatives
    # are -g*u in q_loaded and g*(1 + u)*q_loaded/f_r in f_r; since
    # 2j*q_loaded*u*inv = 1 - inv, the first is peak*inv*(inv - 1)/q_loaded
    # and the second (g - d_q)*q_loaded/f_r, so neither needs u (each
    # column below also carries the point's weight)
    np.subtract(inv, 1.0, out=d_q)
    d_q *= winv
    d_q *= peak / q_loaded
    np.multiply(inv, winv, out=d_fr)
    d_fr *= 2j * peak
    d_fr -= d_q
    d_fr *= q_loaded / f_r
    return cols.view(float).T


def _half_magnitude_crossing(
    f: np.ndarray, mag: np.ndarray, peak_idx: int, direction: int, level: float
) -> float | None:
    """Linear-interpolated f where mag first falls to level from the peak; None if never."""
    side = mag[peak_idx + 1 :] if direction > 0 else mag[:peak_idx][::-1]
    hits = np.flatnonzero(side <= level)
    if hits.size == 0:
        return None
    nxt = peak_idx + direction * (1 + int(hits[0]))
    i = nxt - direction
    span = mag[i] - mag[nxt]
    frac = 0.0 if span == 0.0 else (mag[i] - level) / span
    return float(f[i] + frac * (f[nxt] - f[i]))


def estimate_initial(trace: ComplexTrace) -> LorentzianParams:
    """Heuristic starting point for a spectrum fit.

    The background comes from the outer five percent of points on each
    edge, the resonance from the point farthest from that background, and
    the loaded Q from the full width at half the background-subtracted
    peak magnitude. The coupling Q is seeded wide at ten times the loaded
    Q with the scale chosen to reproduce the observed peak.
    """
    f = trace.grid.points
    y = trace.s21
    npts = f.size
    edge = max(1, int(round(EDGE_FRACTION * npts)))
    background = complex(np.mean(np.concatenate([y[:edge], y[-edge:]])))
    z = y - background
    mag = np.abs(z)
    peak_idx = int(np.argmax(mag))
    if peak_idx in (0, npts - 1):
        raise WindowError(
            "resonance sits at the edge of the frequency window; widen the sweep"
        )
    peak_mag = float(mag[peak_idx])
    edge_mag = float(np.mean(np.concatenate([mag[:edge], mag[-edge:]])))
    if peak_mag < RESONANCE_PROMINENCE_MIN * max(edge_mag, 1e-300):
        raise WindowError(
            "no resonance stands out against the baseline in this window"
        )
    level = 0.5 * peak_mag
    left = _half_magnitude_crossing(f, mag, peak_idx, -1, level)
    right = _half_magnitude_crossing(f, mag, peak_idx, +1, level)
    if left is None or right is None:
        raise WindowError(
            "half-magnitude width is not contained in the frequency window"
        )
    f_r = float(f[peak_idx])
    q_loaded = HALF_MAGNITUDE_WIDTHS * f_r / (right - left)
    phi = float(np.angle(z[peak_idx]))
    return LorentzianParams(
        a_scale=QC_SEED_FACTOR * peak_mag,
        b_offset=background,
        f_r=f_r,
        q_loaded=q_loaded,
        q_c_mag=QC_SEED_FACTOR * q_loaded,
        phi=phi,
    )


SPECTRUM_PARAM_NAMES = (
    "f_r",
    "q_loaded",
    "peak_re",
    "peak_im",
    "offset_re",
    "offset_im",
)


def fit_spectrum(trace: ComplexTrace) -> FitResult:
    """Fit the complex-coupling Lorentzian to a transmission trace.

    Residuals are the real and imaginary parts of the model minus the
    data, interleaved per point (re, im, re, im, ...), weighted by the
    trace sigmas when present. The model's scale, phase, and coupling Q
    enter only as one complex product, so the reported parameters use the
    unit-scale gauge: a_scale is 1, phi carries the peak's phase, and
    q_c_mag is q_loaded over the peak magnitude.

    Traces wound in the opposite rotation sense (data taken with the
    conjugate sign convention) are detected from the phase slope through
    resonance and conjugated before fitting; the message says when this
    happened, and the reported offset then refers to the conjugated trace.
    """
    seed = estimate_initial(trace)
    f = trace.grid.points
    y = np.array(trace.s21, dtype=complex)
    weights = None if trace.sigma is None else 1.0 / trace.sigma

    peak0 = complex(
        seed.a_scale * (seed.q_loaded / seed.q_c_mag) * cmath.exp(1j * seed.phi)
    )
    offset0 = complex(seed.b_offset)
    z = y - offset0
    mag = np.abs(z)
    core = mag >= 0.5 * mag.max()
    conjugated = False
    if np.count_nonzero(core) >= 3:
        # the sign of the least-squares slope of phase against frequency
        phase = np.unwrap(np.angle(z[core]))
        f_core = f[core]
        f_core = f_core - f_core.mean()
        conjugated = float(f_core @ (phase - phase.mean())) > 0.0
    if conjugated:
        y = np.conj(y)
        peak0 = peak0.conjugate()
        offset0 = offset0.conjugate()

    # the residual and the Jacobian at the same x share 1/denom; the key is
    # x's bytes, so a value seen before hits and any other value misses
    last = [b"", None]

    def inv_at(x: np.ndarray) -> np.ndarray:
        key = x.tobytes()
        if key != last[0]:
            last[0], last[1] = key, _spectrum_inv(x, f)
        return last[1]

    def residuals(x: np.ndarray) -> np.ndarray:
        diff = _spectrum_model(x, f, inv_at(x))
        diff -= y
        if weights is not None:
            diff *= weights
        return diff.view(float)

    def jacobian(x: np.ndarray) -> np.ndarray:
        return spectrum_model_jacobian(x, f, weights, inv_at(x))

    result = lm_minimize(
        residuals,
        [
            seed.f_r,
            seed.q_loaded,
            peak0.real,
            peak0.imag,
            offset0.real,
            offset0.imag,
        ],
        bounds=[
            (0.5 * f[0], 1.5 * f[-1]),
            (Q_MIN, 1e12),
            None,
            None,
            None,
            None,
        ],
        names=SPECTRUM_PARAM_NAMES,
        jac=jacobian,
    )

    peak = complex(result.params["peak_re"], result.params["peak_im"])
    peak_mag = abs(peak)
    params = dict(
        result.params,
        a_scale=1.0,
        phi=cmath.phase(peak) if peak_mag > 0.0 else 0.0,
        q_c_mag=result.params["q_loaded"] / peak_mag if peak_mag > 0.0 else math.inf,
    )
    message = result.message
    if conjugated:
        message += "; trace conjugated to the canonical winding before fitting"
    return replace(result, params=params, message=message)


def lorentzian_from_fit(result: FitResult) -> LorentzianParams:
    """Line-shape parameters from a spectrum fit result."""
    p = result.params
    try:
        return LorentzianParams(
            a_scale=p["a_scale"],
            b_offset=complex(p["offset_re"], p["offset_im"]),
            f_r=p["f_r"],
            q_loaded=p["q_loaded"],
            q_c_mag=p["q_c_mag"],
            phi=p["phi"],
        )
    except KeyError as exc:
        raise InputError(
            f"fit result does not carry spectrum parameters (missing {exc})"
        ) from exc


# ---------------------------------------------------------------------------
# power-sweep fitting

POWER_PARAM_NAMES = ("log_p_tan_delta", "log_n_c", "beta", "log_q0")


def _knee_photon_number(
    n: np.ndarray, loss: np.ndarray, loss_floor: float, loss_ceil: float
) -> float:
    """Estimate where the excess loss has fallen to half its low-power value.

    The running minimum turns the noisy loss samples into a decreasing
    envelope, which makes the half crossing well defined. Falls back to
    the geometric mean of the photon axis when the sweep never saturates.
    """
    order = np.argsort(n)
    envelope = np.minimum.accumulate(loss[order] - loss_floor)
    half = 0.5 * (loss_ceil - loss_floor)
    below = np.flatnonzero(envelope <= half)
    log_n = np.log(np.clip(n[order], 1e-3, 1e9))
    if half <= 0.0 or below.size == 0 or below[0] == 0:
        return float(np.exp(np.mean(log_n)))
    hi = below[0]
    lo = hi - 1
    span = envelope[lo] - envelope[hi]
    frac = (envelope[lo] - half) / span if span > 0.0 else 0.5
    return float(np.exp(log_n[lo] + frac * (log_n[hi] - log_n[lo])))


def fit_power_sweep(
    points: Sequence[PowerSweepPoint], q_c_mag: float | None = None
) -> FitResult:
    """Fit the saturable-loss model to loaded Q versus photon number.

    Fitting happens in log loss so that the decades spanned by a power
    sweep weigh in evenly; residuals are weighted by the per-point Q
    uncertainties. When q_c_mag is given the loaded Q values are first
    converted to internal Q by removing the coupling loss.
    """
    pts = tuple(points)
    if len(pts) < 4:
        raise UnderdeterminedError(
            f"four model parameters need at least four points, got {len(pts)}"
        )
    n = np.array([p.n_photons for p in pts], dtype=float)
    q = np.array([p.q_loaded for p in pts], dtype=float)
    sig = np.array([p.q_uncertainty for p in pts], dtype=float)
    if q_c_mag is not None:
        q_internal = np.array([q_relations(qk, q_c_mag) for qk in q])
        sig = sig * (q_internal / q) ** 2
        q = q_internal

    loss = 1.0 / q
    target = np.log(loss)
    weight = q / sig

    loss_floor = float(np.min(loss))
    loss_ceil = float(np.max(loss))
    pd0 = max(loss_ceil - loss_floor, 0.01 * loss_ceil)
    nc0 = _knee_photon_number(n, loss, loss_floor, loss_ceil)
    q00 = min(max(1.0 / loss_floor, Q_MIN * 1.01), 1e14)

    def residuals(x: np.ndarray) -> np.ndarray:
        pd = math.exp(x[0])
        nc = math.exp(x[1])
        beta = x[2]
        q0 = math.exp(x[3])
        model_loss = pd / (1.0 + n / nc) ** beta + 1.0 / q0
        return (np.log(model_loss) - target) * weight

    def jacobian(x: np.ndarray) -> np.ndarray:
        # the residual is weight*log(L) with L = tls + 1/q0, tls = pd/s**beta
        # and s = 1 + n/nc, so each column is weight*(dL/dx_j)/L
        nc = math.exp(x[1])
        beta = x[2]
        inv_q0 = math.exp(-x[3])
        s = 1.0 + n / nc
        tls = math.exp(x[0]) / s ** beta
        w = weight / (tls + inv_q0)
        return np.column_stack(
            [
                w * tls,
                w * tls * beta * (n / nc) / s,
                -w * tls * np.log(s),
                -w * inv_q0,
            ]
        )

    result = lm_minimize(
        residuals,
        [math.log(pd0), math.log(nc0), 0.5, math.log(q00)],
        bounds=list(POWER_FIT_BOUNDS),
        names=POWER_PARAM_NAMES,
        jac=jacobian,
    )

    pd = math.exp(result.params["log_p_tan_delta"])
    q0 = math.exp(result.params["log_q0"])
    params = dict(
        result.params,
        p_tan_delta=pd,
        n_c=math.exp(result.params["log_n_c"]),
        q0=q0,
        q_single_photon_limit=1.0 / (pd + 1.0 / q0),
    )
    message = result.message + "; covariance in log coordinates except beta"
    return replace(result, params=params, message=message)


def tls_model_from_fit(result: FitResult) -> TlsModel:
    """Single-component saturable-loss model from a power-sweep fit."""
    p = result.params
    try:
        component = LossComponent(
            name="effective_tls",
            participation=1.0,
            tan_delta=p["p_tan_delta"],
            n_c=p["n_c"],
            beta=p["beta"],
        )
        return TlsModel((component,), q0=p["q0"])
    except KeyError as exc:
        raise InputError(
            f"fit result does not carry power-sweep parameters (missing {exc})"
        ) from exc


# ---------------------------------------------------------------------------
# Stark thermometry


def stark_forward(
    ctx: StarkContext, temperature: float, truncation: int | str = "auto"
):
    """Thermal ac Stark shift of the qubit in Hz.

    The shift is 2*chi times the mean resonator occupation. Auto mode uses
    the Bose-Einstein closed form 1/expm1(h*nu_r/(k*T)); an integer
    truncation instead sums the Boltzmann-weighted levels 0..truncation,
    which the tests use as the oracle for the closed form.
    """
    if not 0.0 <= temperature < math.inf:
        raise InputError(
            f"temperature must be finite and non-negative, got {temperature!r}"
        )
    if temperature == 0.0:
        return 0.0
    ratio = PLANCK * ctx.nu_r / (BOLTZMANN * temperature)
    if truncation == "auto":
        # x/(1 - x) with x = exp(-ratio): equal to 1/expm1(ratio), but x
        # underflows to 0 where expm1 would overflow
        n_mean = math.exp(-ratio) / -math.expm1(-ratio)
    else:
        x = math.exp(-ratio)
        levels = np.arange(int(truncation) + 1)
        weights = x ** levels
        n_mean = float((levels * weights).sum() / weights.sum())
    return 2.0 * ctx.chi * n_mean


def stark_invert(
    ctx: StarkContext, delta_ac: float, convention: str = "resonator"
) -> tuple[float, float]:
    """Photon number and effective temperature from a measured Stark shift.

    Inverts the closed form: the mean occupation is delta_ac/(2*chi), and
    the temperature follows from the Boltzmann factor at the chosen
    frequency. The resonator-frequency convention is the default; pass
    convention="qubit" to use nu_q instead (the context must carry it).
    """
    if convention == "resonator":
        nu = ctx.nu_r
    elif convention == "qubit":
        if ctx.nu_q is None:
            raise InputError(
                "qubit-frequency convention requested but the context has no nu_q"
            )
        nu = ctx.nu_q
    else:
        raise InputError(f"unknown temperature convention {convention!r}")
    if not math.isfinite(delta_ac):
        raise InputError(f"delta_ac must be finite, got {delta_ac!r}")
    n_mean = delta_ac / (2.0 * ctx.chi)
    if n_mean < 0.0:
        raise NonphysicalValueError(
            f"shift {delta_ac:g} Hz and chi {ctx.chi:g} Hz have opposite "
            "signs; the implied occupation is negative"
        )
    if n_mean == 0.0:
        return 0.0, 0.0
    x = n_mean / (1.0 + n_mean)
    temperature = PLANCK * nu / (BOLTZMANN * math.log(1.0 / x))
    return n_mean, temperature


# ---------------------------------------------------------------------------
# photon calibration


def photon_axis(
    p_in_at_sample: float,
    fit: FitResult | LorentzianParams,
    drive_freq: float,
) -> float:
    """Mean photon number implied by a fitted spectrum at a known power.

    p_in_at_sample is the power arriving at the sample input in watts;
    drive_freq is the drive frequency in Hz, normally the fitted f_r. The
    background-subtracted peak magnitude and loaded Q feed the measurable
    photon-number relation.
    """
    if isinstance(fit, FitResult):
        if not fit.converged:
            raise InputError("photon calibration requires a converged fit")
        line = lorentzian_from_fit(fit)
    else:
        line = fit
    if not p_in_at_sample >= 0.0:
        raise InputError(f"p_in_at_sample must be non-negative, got {p_in_at_sample!r}")
    if not drive_freq > 0.0:
        raise InputError(f"drive_freq must be positive, got {drive_freq!r}")
    peak = abs(line.a_scale) * line.q_loaded / line.q_c_mag
    return mean_photons_measurable(
        peak, line.q_loaded, p_in_at_sample, TWO_PI * drive_freq
    )

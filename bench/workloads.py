"""The four benchmark workloads: seeded inputs, one op, and correctness checks.

Each workload takes the seed in ``__init__`` (part of the measured set-up)
and runs op ``k`` with ``run(k, traced)``, which returns ``(ok, seconds)``:
whether the op succeeded and how long the call into cryomux took; building
op ``k``'s inputs and checking its outputs are excluded. ``fit_batch``
builds its traces in ``__init__`` and cycles through them; ``power_series``
and ``sweep_scan`` derive op ``k``'s inputs from ``(seed, k)``, so no input
repeats within a run and a cache across calls never hits. An op fails when it raises, a fit
does not converge, a process exits non-zero, or a report does not parse as
strict JSON. Accuracy is recorded only from the untraced ops in
``range(count_ops)``, which every run completes, so it is fixed for a seed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from cryomux import chain as ch
from cryomux import fitkit
from cryomux.fitkit import ComplexTrace, PowerSweepPoint
from cryomux.lossbudget import LossComponent, TlsModel, qi_inverse
from cryomux.resonator import TWO_PI, LorentzianParams, purcell, s21_lorentzian
from cryomux.rfnet import FrequencyGrid

# c03's four archetypes (tests/test_acceptance.py), loaded Q 1.2e4 to 7e6
ARCHETYPES = (
    LorentzianParams(1.0, 0.30 + 0.10j, 5.569e9, 1.2e4, 2.3e5, 0.15),
    LorentzianParams(1.0, 0.20 + 0.05j, 6.100e9, 2.0e5, 8.0e5, -0.10),
    LorentzianParams(1.0, 0.10 + 0.02j, 4.200e9, 1.5e6, 3.0e6, 0.08),
    LorentzianParams(1.0, 0.05 + 0.02j, 4.779e9, 7.0e6, 5.0e7, 0.05),
)
SNRS_DB = (20.0, 30.0, 40.0)
POINT_COUNTS = (201, 801, 3201)
FIT_SPAN_LINEWIDTHS = 10.0
FIT_REPEATS = 5

# c03's acceptance bands and rate, applied to the 30 dB subset
Q_BAND = 0.05
F_BAND_LINEWIDTHS = 0.1
HIT_RATE_MIN = 0.95
# test_run_power_series_tls_round_trip's band on the recovered TLS model
TLS_BAND = 0.15

N_POWERS = 24
PHOTONS_LOW, PHOTONS_HIGH = 0.1, 1e6
SERIES_POINTS = 801
SERIES_SPAN_WIDTHS = 8.0
SERIES_AVERAGES = 60000
#: series whose counts and accuracy every run records
SERIES_COUNTED = 8

SCAN_POINT_COUNTS = (201, 401, 801, 1601, 3201)
BAND_LOW_HZ, BAND_HIGH_HZ = 4.0e9, 8.0e9

STARK_CHI, STARK_NU_R, STARK_NU_Q = -2.0e6, 5.569e9, 6.58e9
# exact SI values (2019 redefinition), for the Stark closed-form check
PLANCK, BOLTZMANN = 6.62607015e-34, 1.380649e-23


def _rng(seed: int, stream: int, *op: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *op])


def _rel(value: float, truth: float) -> float:
    return abs(value - truth) / abs(truth)


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity tokens RFC 8259 forbids."""

    def reject(token: str):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def bundled_chain() -> ch.ChainSpec:
    return ch.load_chain_spec(ch.example_chain_path())


class FitBatch:
    """One op is one ``fit_spectrum`` call on a pre-built noisy Lorentzian."""

    name = "fit_batch"

    def __init__(self, seed: int, workdir: str) -> None:
        rng = _rng(seed, 1)
        cases = []
        for _ in range(FIT_REPEATS):
            for arch_index, arch in enumerate(ARCHETYPES):
                for snr in SNRS_DB:
                    for npts in POINT_COUNTS:
                        for conjugate in (False, True):
                            cases.append(self._case(rng, arch_index, arch, snr, npts, conjugate))
        order = rng.permutation(len(cases))
        self.cases = [cases[i] for i in order]
        self.count_ops = len(self.cases)
        self.records: list[tuple] = []

    @staticmethod
    def _case(rng, arch_index, arch, snr, npts, conjugate):
        width = arch.f_r / arch.q_loaded
        f = np.linspace(
            arch.f_r - FIT_SPAN_LINEWIDTHS * width,
            arch.f_r + FIT_SPAN_LINEWIDTHS * width,
            npts,
        )
        peak = abs(arch.a_scale) * arch.q_loaded / arch.q_c_mag
        sigma = peak / 10.0 ** (snr / 20.0)
        noise = (sigma / math.sqrt(2.0)) * (
            rng.standard_normal(npts) + 1j * rng.standard_normal(npts)
        )
        s21 = s21_lorentzian(arch, f) + noise
        if conjugate:
            s21 = np.conj(s21)
        trace = ComplexTrace(FrequencyGrid(f), s21, sigma=np.full(npts, sigma))
        return trace, arch_index, snr

    def run(self, k: int, traced: bool = False) -> tuple[bool, float]:
        trace, arch_index, snr = self.cases[k % len(self.cases)]
        start = time.perf_counter()
        result = fitkit.fit_spectrum(trace)
        elapsed = time.perf_counter() - start
        if not traced and k < self.count_ops and result.converged:
            arch = ARCHETYPES[arch_index]
            q_err = _rel(result.params["q_loaded"], arch.q_loaded)
            f_err = abs(result.params["f_r"] - arch.f_r) * arch.q_loaded / arch.f_r
            self.records.append((arch_index, snr, q_err, f_err))
        return bool(result.converged), elapsed

    def accuracy(self) -> dict:
        if not self.records:
            return {}
        return {"q_rel_err_p50": statistics.median(r[2] for r in self.records)}

    def checks(self) -> list[dict]:
        out = []
        for arch_index, arch in enumerate(ARCHETYPES):
            subset = [r for r in self.records if r[0] == arch_index and r[1] == 30.0]
            expected = FIT_REPEATS * len(POINT_COUNTS) * 2
            hits = sum(r[2] <= Q_BAND and r[3] <= F_BAND_LINEWIDTHS for r in subset)
            out.append(
                _check(
                    f"c03 bands at 30 dB, Q_L {arch.q_loaded:g}",
                    hits >= HIT_RATE_MIN * expected,
                    f"{hits}/{expected} fits within 5% Q and 0.1 linewidth f_r",
                )
            )
        return out


class PowerSeries:
    """One op is the paper's power sweep of a TLS-loaded sample.

    ``run_power_series`` on the bundled chain, with a seeded saturable TLS
    model on the sample, at powers whose photon numbers span 0.1 to 1e6,
    then ``power_points_from_series`` and ``fit_power_sweep``. Each op draws
    its own TLS model and noise seed, so its grid differs from every other
    op's as well.
    """

    name = "power_series"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.base = bundled_chain()
        self.count_ops = SERIES_COUNTED
        self.q_errors: list[float] = []
        self.tls_errors: list[float] = []
        self.short_series = 0

    @staticmethod
    def _case(rng, base: ch.ChainSpec):
        truth = {
            "p_tan_delta": 10.0 ** rng.uniform(math.log10(1.5e-7), math.log10(3e-7)),
            "n_c": 10.0 ** rng.uniform(0.5, 2.0),
            "beta": rng.uniform(0.4, 0.6),
            "q0": 10.0 ** rng.uniform(7.0, 7.3),
        }
        tls = TlsModel(
            (LossComponent("tls", 1.0, truth["p_tan_delta"], truth["n_c"], truth["beta"]),),
            q0=truth["q0"],
        )
        index = base.sample_index
        sample = ch.SampleStage(system=base.stages[index].system, tls=tls)
        stages = base.stages[:index] + (sample,) + base.stages[index + 1 :]
        chain = ch.ChainSpec(stages, rng_seed=int(rng.integers(2**31)))
        rates = purcell(sample.system)
        nu = rates.omega_r_dressed / TWO_PI
        width = rates.kappa_pur / TWO_PI + nu * qi_inverse(tls, 0.0)
        grid = FrequencyGrid.linspace(
            nu - SERIES_SPAN_WIDTHS * width, nu + SERIES_SPAN_WIDTHS * width, SERIES_POINTS
        )
        watts_per_mw = ch.power_at_sample(chain, 0.0, nu)

        def photons(p_dbm: float) -> float:
            return ch.solve_photon_number(sample, watts_per_mw * 10.0 ** (p_dbm / 10.0))[0]

        def dbm_for(target: float) -> float:
            lo, hi = -250.0, 0.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if photons(mid) < target else (lo, mid)
            return 0.5 * (lo + hi)

        powers = np.linspace(dbm_for(PHOTONS_LOW), dbm_for(PHOTONS_HIGH), N_POWERS)
        q_truth = []
        for p_dbm in powers:
            _, gamma = ch.solve_photon_number(
                sample, watts_per_mw * 10.0 ** (p_dbm / 10.0)
            )
            q_truth.append(rates.omega_r_dressed / (rates.kappa_pur + gamma))
        q_c = rates.omega_r_dressed / (2.0 * math.sqrt(rates.kappa_pur_i * rates.kappa_pur_o))
        sweep = ch.SweepSpec(grid, instrument_power_dbm=float(powers[0]), averages=SERIES_AVERAGES)
        return chain, sweep, [float(p) for p in powers], q_truth, q_c, truth

    def run(self, k: int, traced: bool = False) -> tuple[bool, float]:
        chain, sweep, powers, q_truth, q_c, truth = self._case(_rng(self.seed, 2, k), self.base)
        start = time.perf_counter()
        series = ch.run_power_series(chain, sweep, powers)
        points = ch.power_points_from_series(series)
        result = fitkit.fit_power_sweep(points, q_c_mag=q_c)
        elapsed = time.perf_counter() - start
        every_power = all(fit.converged for _, fit in series) and len(points) == len(powers)
        if not traced and k < self.count_ops:
            self.short_series += not every_power
            self.q_errors.extend(
                _rel(fit.params["q_loaded"], q) for (_, fit), q in zip(series, q_truth) if fit.converged
            )
            if result.converged:
                self.tls_errors.append(max(_rel(result.params[key], value) for key, value in truth.items()))
        return every_power and bool(result.converged), elapsed

    def accuracy(self) -> dict:
        out = {}
        if self.q_errors:
            out["q_rel_err_p50"] = statistics.median(self.q_errors)
        if self.tls_errors:
            out["tls_rel_err"] = max(self.tls_errors)
        return out

    def checks(self) -> list[dict]:
        acc = self.accuracy()
        worst = acc.get("tls_rel_err", math.inf)
        return [
            _check(
                "every power of every series converged",
                self.short_series == 0,
                f"{self.short_series} series with a missing point",
            ),
            _check(
                "TLS model recovered within 15%",
                len(self.tls_errors) == self.count_ops and worst <= TLS_BAND,
                f"largest relative error {worst:.3g} over {len(self.tls_errors)} fits",
            ),
            _check(
                "per-power Q_L median error within 5%",
                acc.get("q_rel_err_p50", math.inf) <= Q_BAND,
                f"{len(self.q_errors)} per-power fits",
            ),
        ]


class SweepScan:
    """One op synthesizes a sweep on a fresh configuration and round-trips its CSV.

    Each op draws its own window, supply, ports, plane and noise seed, and
    the point count cycles through 201 to 3201, so nothing computed for one
    op is reusable by another.
    """

    name = "sweep_scan"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.base = bundled_chain()
        rates = purcell(self.base.sample.system)
        self.nu = rates.omega_r_dressed / TWO_PI
        self.width = (rates.kappa_pur + self.base.sample.system.gamma_r) / TWO_PI
        self.count_ops = 8 * len(SCAN_POINT_COUNTS)
        self.path = os.path.join(workdir, "scan_trace.csv")
        self.mismatches = 0

    def _case(self, rng, base: ch.ChainSpec, k: int):
        npts = SCAN_POINT_COUNTS[k % len(SCAN_POINT_COUNTS)]
        span = min(self.width * 10.0 ** rng.uniform(1.0, 6.0), 0.4 * (BAND_HIGH_HZ - BAND_LOW_HZ))
        center = self.nu + rng.uniform(-0.5, 0.5) * span
        center = min(max(center, BAND_LOW_HZ + span), BAND_HIGH_HZ - span)
        v_dd = 0.0 if rng.random() < 0.2 else rng.uniform(0.45, 0.9)
        stages = tuple(
            replace(
                stage,
                input_port=int(rng.integers(4)),
                selected_port=int(rng.integers(4)),
                v_dd=v_dd,
            )
            if isinstance(stage, ch.MuxStage)
            else stage
            for stage in base.stages
        )
        chain = ch.ChainSpec(stages, rng_seed=int(rng.integers(2**31)))
        sweep = ch.SweepSpec(
            FrequencyGrid.linspace(center - span, center + span, npts),
            instrument_power_dbm=rng.uniform(-130.0, -90.0),
            averages=int(10.0 ** rng.uniform(0.0, 5.0)),
        )
        plane = "raw" if rng.random() < 0.5 else "calibrated"
        return chain, sweep, plane

    def run(self, k: int, traced: bool = False) -> tuple[bool, float]:
        chain, sweep, plane = self._case(_rng(self.seed, 3, k), self.base, k)
        start = time.perf_counter()
        trace = ch.synthesize_sweep(chain, sweep, plane=plane)
        ch.write_trace(self.path, trace)
        back = ch.read_trace(self.path)
        elapsed = time.perf_counter() - start
        exact = (
            back.grid.points.tobytes() == trace.grid.points.tobytes()
            and back.s21.tobytes() == trace.s21.tobytes()
        )
        self.mismatches += not exact
        return exact, elapsed

    def accuracy(self) -> dict:
        return {}

    def checks(self) -> list[dict]:
        return [
            _check(
                "CSV round trip is bit-exact",
                self.mismatches == 0,
                f"{self.mismatches} traces changed by write_trace/read_trace",
            )
        ]


class CliSession:
    """One op is one fresh ``python -m cryomux.cli`` process.

    A session runs simulate, fit-spectrum, fit-power, loss-budget, stark
    (forward at a low and a high temperature, then inverse) and
    mux-program. Every session of a run gets the same seeded inputs, so
    their output files must match byte for byte.
    """

    name = "cli_session"
    STEPS = (
        "simulate",
        "fit-spectrum",
        "fit-power",
        "loss-budget",
        "stark.forward_low",
        "stark.forward_high",
        "stark.inverse",
        "mux-program",
    )

    def __init__(self, seed: int, workdir: str) -> None:
        rng = _rng(seed, 4)
        self.workdir = os.path.join(workdir, "cli")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.tracer_script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracedcli.py")
        # two whole sessions: the byte-identity check needs a pair
        self.count_ops = 2 * len(self.STEPS)
        self.spans_path = os.path.join(self.workdir, "spans.json")

        base = bundled_chain()
        chain_raw = _read_json(ch.example_chain_path())
        chain_raw["rng_seed"] = int(rng.integers(2**31))
        sweep_raw = _read_json(ch.example_sweep_path())
        sweep = ch.load_sweep_spec(ch.example_sweep_path())
        f_center = float(np.median(sweep.grid.points))
        loss_db = -ch.dbm_from_watts(ch.power_at_sample(base, 0.0, f_center))
        self.sample_dbm = rng.uniform(-166.0, -160.0)
        sweep_raw["instrument_power_dbm"] = self.sample_dbm + loss_db
        rates = purcell(base.sample.system)
        self.q_truth = rates.omega_r_dressed / (rates.kappa_pur + base.sample.system.gamma_r)

        # c05's saturation model with 2% multiplicative noise
        self.tls_truth = {"p_tan_delta": 8.34e-5, "n_c": 1.0, "beta": 0.5, "q0": 1.0e6}
        t = self.tls_truth
        n = np.logspace(-1.0, 6.0, 25)
        q = 1.0 / (t["p_tan_delta"] / (1.0 + n / t["n_c"]) ** t["beta"] + 1.0 / t["q0"])
        q = q * (1.0 + 0.02 * rng.standard_normal(n.size))
        points = [PowerSweepPoint(nk, qk, 0.02 * qk) for nk, qk in zip(n, q)]

        self.inputs = os.path.join(self.workdir, "inputs")
        os.makedirs(self.inputs)
        for name, payload in (("chain.json", chain_raw), ("sweep.json", sweep_raw)):
            with open(os.path.join(self.inputs, name), "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        ch.write_power_points(os.path.join(self.inputs, "points.csv"), points)

        self.t_low = rng.uniform(0.05, 0.2)
        self.t_high = rng.uniform(900.0, 1000.0)
        self.delta_ac = 2.0 * STARK_CHI * rng.uniform(0.5, 3.0)
        self.mux_mode = "serial" if rng.random() < 0.5 else "parallel"
        self.mux_port = int(rng.integers(4))
        self.mux_vdd = rng.uniform(0.6, 0.9)

        self.sessions: dict[str, dict[str, bytes]] = {}
        self.step_ms: dict[str, list[float]] = {s: [] for s in self.STEPS}
        self.reports: dict[str, object] = {}
        self.bad_reports = 0
        self.mismatched: list[str] = []

    def _argv(self, step: str, out: str) -> list[str]:
        src = self.inputs
        stark = ["stark", "--chi", repr(STARK_CHI), "--nu-r", repr(STARK_NU_R), "--nu-q", repr(STARK_NU_Q)]
        return {
            "simulate": ["simulate", f"{src}/chain.json", f"{src}/sweep.json", "-o", f"{out}/trace.csv"],
            "fit-spectrum": [
                "fit-spectrum", f"{out}/trace.csv",
                "--power-dbm-at-sample", repr(self.sample_dbm), "-o", f"{out}/spectrum.json",
            ],
            "fit-power": ["fit-power", f"{src}/points.csv", "-o", f"{out}/power.json"],
            "loss-budget": ["loss-budget", "-o", f"{out}/budget.json"],
            "stark.forward_low": stark + ["--temp", repr(self.t_low), "-o", f"{out}/stark_low.json"],
            "stark.forward_high": stark + ["--temp", repr(self.t_high), "-o", f"{out}/stark_high.json"],
            "stark.inverse": stark + ["--delta-ac", repr(self.delta_ac), "-o", f"{out}/stark_inverse.json"],
            "mux-program": [
                "mux-program", "--mode", self.mux_mode, "--port", str(self.mux_port),
                "--vdd", repr(self.mux_vdd), "-o", f"{out}/sparams.csv",
            ],
        }[step]

    def run(self, k: int, traced: bool = False) -> tuple[bool, float]:
        session, step = divmod(k, len(self.STEPS))
        name = self.STEPS[step]
        out = os.path.join(self.workdir, f"{'traced' if traced else 'session'}{session}")
        os.makedirs(out, exist_ok=True)
        argv = self._argv(name, out)
        if traced:
            command = [sys.executable, self.tracer_script, self.spans_path] + argv
        else:
            command = [sys.executable, "-m", "cryomux.cli"] + argv
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        if name == "mux-program":
            with open(os.path.join(out, "mux_report.json"), "wb") as handle:
                handle.write(proc.stdout)
        report_ok = proc.returncode == 0 and self._reports_parse(out, name)
        if traced:
            if step == len(self.STEPS) - 1:
                shutil.rmtree(out, ignore_errors=True)
        else:
            self.bad_reports += not report_ok
            self.step_ms[name].append(1e3 * elapsed)
            if step == len(self.STEPS) - 1:
                self._compare_session(out, session)
        return report_ok, elapsed

    @staticmethod
    def _report_file(name: str) -> str | None:
        return {
            "fit-spectrum": "spectrum.json",
            "fit-power": "power.json",
            "loss-budget": "budget.json",
            "stark.forward_low": "stark_low.json",
            "stark.forward_high": "stark_high.json",
            "stark.inverse": "stark_inverse.json",
            "mux-program": "mux_report.json",
        }.get(name)

    def _reports_parse(self, out: str, name: str) -> bool:
        report = self._report_file(name)
        if report is None:
            return os.path.exists(os.path.join(out, "trace.csv"))
        try:
            with open(os.path.join(out, report), encoding="utf-8") as handle:
                parsed = strict_json(handle.read())
        except (OSError, ValueError):
            return False
        self.reports.setdefault(name, parsed)
        return True

    def _compare_session(self, out: str, session: int) -> None:
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as handle:
                files[name] = handle.read()
        if not self.sessions:
            self.sessions["first"] = files
            return
        first = self.sessions["first"]
        if files != first:
            differing = sorted(n for n in set(files) | set(first) if files.get(n) != first.get(n))
            self.mismatched.append(f"session {session}: {', '.join(differing)}")
        shutil.rmtree(out, ignore_errors=True)

    def accuracy(self) -> dict:
        out = {}
        spectrum = self.reports.get("fit-spectrum")
        if isinstance(spectrum, dict) and "params" in spectrum:
            out["q_rel_err_p50"] = _rel(spectrum["params"]["q_loaded"], self.q_truth)
        power = self.reports.get("fit-power")
        if isinstance(power, dict) and "model" in power:
            comp = power["model"]["components"][0]
            fitted = {
                "p_tan_delta": comp["participation"] * comp["tan_delta"],
                "n_c": comp["n_c"],
                "beta": comp["beta"],
                "q0": power["model"]["q0"],
            }
            out["tls_rel_err"] = max(_rel(fitted[k], v) for k, v in self.tls_truth.items())
        return out

    def checks(self) -> list[dict]:
        acc = self.accuracy()
        sessions = len(self.step_ms["mux-program"])
        low = self.reports.get("stark.forward_low", {})
        x = math.exp(-PLANCK * STARK_NU_R / (BOLTZMANN * self.t_low))
        closed = 2.0 * STARK_CHI * x / (1.0 - x)
        stark_ok = isinstance(low, dict) and math.isclose(
            low.get("delta_ac_hz", math.nan), closed, rel_tol=1e-9, abs_tol=1e-300
        )
        return [
            _check(
                "every exit-0 report parses as strict JSON",
                self.bad_reports == 0,
                f"{self.bad_reports} failed or unparsable reports",
            ),
            _check(
                "sessions with the same seed write byte-identical files",
                sessions >= 2 and not self.mismatched,
                f"{sessions} sessions compared; " + ("; ".join(self.mismatched) or "no differences"),
            ),
            _check(
                "fit-spectrum recovers Q_L within 5%",
                acc.get("q_rel_err_p50", math.inf) <= Q_BAND,
                f"relative error {acc.get('q_rel_err_p50', math.nan):.3g}",
            ),
            _check(
                "fit-power recovers the TLS model within 15%",
                acc.get("tls_rel_err", math.inf) <= TLS_BAND,
                f"largest relative error {acc.get('tls_rel_err', math.nan):.3g}",
            ),
            _check(
                "stark forward matches the closed form 2*chi*x/(1-x) at low T",
                stark_ok,
                f"{low.get('delta_ac_hz') if isinstance(low, dict) else None} vs {closed:.17g}",
            ),
        ]


WORKLOADS = {w.name: w for w in (FitBatch, PowerSeries, SweepScan, CliSession)}

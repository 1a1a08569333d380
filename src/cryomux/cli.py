"""Command line front end.

Subcommands cover sweep synthesis, spectrum and power-sweep fitting, the
loss budget report, photon-number thermometry and multiplexer programming.
Exit codes: 0 on success, 2 on malformed input, 3 when a fit does not
converge (a partial report is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, replace
from typing import Any

import numpy as np

from . import chain as chainmod
from .errors import InputError, SingularFitError
from .fitkit import (
    SPECTRUM_PARAM_NAMES,
    StarkContext,
    fit_power_sweep,
    fit_spectrum,
    photon_axis,
    stark_forward,
    stark_invert,
    tls_model_from_fit,
)
from .jsonfile import FORMAT_VERSION, read_versioned
from .lossbudget import budget_total, component_table, component_table_path
from .muxsim import (
    T_CLK_DEFAULT,
    V_DD_NOMINAL,
    ControlState,
    MuxConfig,
    PowerTable,
    dissipated_power,
    latch,
    mux_s_params,
    parallel_write,
    programming_time,
    serial_clock,
)
from .rfnet import FrequencyGrid


def _json_text(payload: Any) -> str:
    # strict JSON: a NaN or infinity in a report is a bug, not an output
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _check_finite_flags(args: argparse.Namespace) -> None:
    """Reject a non-finite value given to any float option."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} must be finite, got {value!r}")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _fit_failed(exc: SingularFitError, output: str | None) -> int:
    """Report a fit whose normal equations stayed singular; exit code 3."""
    report = {"format_version": FORMAT_VERSION, "converged": False, "error": str(exc)}
    _emit(_json_text(report), output)
    return 3


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = chainmod.load_chain_spec(chainmod.resolve_config_path(args.chain))
    sweep = chainmod.load_sweep_spec(chainmod.resolve_config_path(args.sweep))
    if args.seed is not None:
        spec = replace(spec, rng_seed=args.seed)
    plane = "raw" if args.raw else "calibrated"
    trace = chainmod.synthesize_sweep(spec, sweep, plane=plane)
    _emit(chainmod.trace_csv_text(trace), args.output)
    return 0


def _spectrum_report(result, power_dbm: float | None) -> tuple[dict, int]:
    report: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "message": result.message,
        "residual_norm": float(result.residual_norm),
        "params": {k: float(v) for k, v in result.params.items()},
    }
    if result.covariance is not None:
        diag = np.sqrt(np.clip(np.diag(result.covariance), 0.0, None))
        report["uncertainties"] = {
            name: float(s) for name, s in zip(SPECTRUM_PARAM_NAMES, diag)
        }
    if result.converged and power_dbm is not None:
        p_w = chainmod.watts_from_dbm(power_dbm)
        report["power_dbm_at_sample"] = float(power_dbm)
        report["n_photons"] = float(
            photon_axis(p_w, result, result.params["f_r"])
        )
    return report, 0 if result.converged else 3


def _cmd_fit_spectrum(args: argparse.Namespace) -> int:
    trace = chainmod.read_trace(args.trace)
    try:
        result = fit_spectrum(trace)
    except SingularFitError as exc:
        return _fit_failed(exc, args.output)
    report, code = _spectrum_report(result, args.power_dbm_at_sample)
    _emit(_json_text(report), args.output)
    return code


def _cmd_fit_power(args: argparse.Namespace) -> int:
    points = chainmod.read_power_points(args.points)
    try:
        result = fit_power_sweep(points, q_c_mag=args.q_c_mag)
    except SingularFitError as exc:
        return _fit_failed(exc, args.output)
    model = tls_model_from_fit(result)
    report = {
        "format_version": FORMAT_VERSION,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "message": result.message,
        "model": {
            "q0": float(model.q0),
            "components": [asdict(c) for c in model.components],
        },
        "q_single_photon_limit": float(result.params["q_single_photon_limit"]),
    }
    _emit(_json_text(report), args.output)
    return 0 if result.converged else 3


def _cmd_loss_budget(args: argparse.Namespace) -> int:
    if args.table is None:
        path = component_table_path()
    else:
        path = chainmod.resolve_config_path(args.table)
    raw = read_versioned(path)
    table = component_table(raw, path)
    notes = {
        name: entry.get("note")
        for name, entry in raw["samples"].items()
        if isinstance(entry, dict)
    }
    names = sorted(table)
    if args.sample is not None:
        if args.sample not in table:
            raise InputError(
                f"unknown sample {args.sample!r}; available: {', '.join(names)}"
            )
        names = [args.sample]
    samples = {}
    for name in names:
        result = budget_total(table[name])
        entry: dict[str, Any] = {
            "per_component": {
                comp: float(loss) for comp, loss in result.per_component
            },
            "total_loss": float(result.total_loss),
            "q_factor": float(result.q_factor),
        }
        if notes.get(name):
            entry["note"] = notes[name]
        samples[name] = entry
    report = {"format_version": FORMAT_VERSION, "samples": samples}
    _emit(_json_text(report), args.output)
    return 0


def _cmd_stark(args: argparse.Namespace) -> int:
    ctx = StarkContext(chi=args.chi, nu_r=args.nu_r, nu_q=args.nu_q)
    report: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "chi_hz": float(args.chi),
        "nu_r_hz": float(args.nu_r),
    }
    if args.nu_q is not None:
        report["nu_q_hz"] = float(args.nu_q)
    if args.delta_ac is not None:
        n_mean, t_res = stark_invert(ctx, args.delta_ac)
        report["delta_ac_hz"] = float(args.delta_ac)
        report["n_mean"] = float(n_mean)
        report["temperature_resonator_k"] = float(t_res)
        if args.nu_q is not None:
            _, t_qubit = stark_invert(ctx, args.delta_ac, convention="qubit")
            report["temperature_qubit_k"] = float(t_qubit)
    else:
        report["temperature_k"] = float(args.temp)
        report["delta_ac_hz"] = float(stark_forward(ctx, args.temp))
    _emit(_json_text(report), args.output)
    return 0


def _cmd_mux_program(args: argparse.Namespace) -> int:
    config = MuxConfig()
    if not 0 <= args.port < config.n_ports:
        raise InputError(
            f"port {args.port} is outside the valid range 0..{config.n_ports - 1}"
        )
    if args.mode == "parallel":
        state = ControlState.initial(config.n_ports, "parallel")
        state = parallel_write(
            state, d0=args.port & 1, d1=(args.port >> 1) & 1, le_pulse=True
        )
    else:
        state = ControlState.initial(config.n_ports, "serial")
        for i in range(config.n_ports):
            state = serial_clock(state, 1 if i == args.port else 0)
        state = latch(state)
    report = {
        "format_version": FORMAT_VERSION,
        "mode": args.mode,
        "selected_port": state.latched_selection,
        "programming_time_s": programming_time(
            config.n_ports, args.tclk, args.mode
        ),
        "dissipated_power_w": dissipated_power(PowerTable(), args.vdd),
        "v_dd": float(args.vdd),
    }
    if args.output is not None:
        grid = FrequencyGrid.linspace(args.f_start_hz, args.f_stop_hz, args.points)
        branches = mux_s_params(config, state, args.vdd, grid)
        s21 = np.stack([branch.s21 for branch in branches], axis=1).view(float)
        names = [f"port{p}_s21_{part}" for p in range(config.n_ports) for part in ("re", "im")]
        rows = [",".join(["freq_hz"] + names)]
        rows += [
            ",".join(chainmod.FLOAT_FORMAT % v for v in (f, *row))
            for f, row in zip(grid.points, s21)
        ]
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(rows) + "\n")
    sys.stdout.write(_json_text(report))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Parser that accepts scientific notation in negative option values."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.\d+$|^-\d+(\.\d*)?[eE][-+]?\d+$"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cryomux",
        description="Simulate and analyse multiplexed resonator measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a sweep through a chain")
    p.add_argument("chain", help="chain spec JSON")
    p.add_argument("sweep", help="sweep spec JSON")
    p.add_argument("-o", "--output", default=None, help="trace CSV (default stdout)")
    p.add_argument("--seed", type=int, default=None, help="override the chain seed")
    p.add_argument(
        "--raw",
        action="store_true",
        help="emit the uncalibrated full-chain trace instead of the "
        "through-normalized one",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-spectrum", help="fit a resonance trace")
    p.add_argument("trace", help="trace CSV")
    p.add_argument("-o", "--output", default=None, help="report JSON (default stdout)")
    p.add_argument(
        "--power-dbm-at-sample",
        type=float,
        default=None,
        help="drive power at the sample plane; adds a photon number to the report",
    )
    p.set_defaults(func=_cmd_fit_spectrum)

    p = sub.add_parser("fit-power", help="fit saturable loss to a power sweep")
    p.add_argument("points", help="points CSV (n_photons,q_loaded,q_uncertainty)")
    p.add_argument("-o", "--output", default=None, help="report JSON (default stdout)")
    p.add_argument(
        "--q-c-mag",
        type=float,
        default=None,
        help="coupling Q magnitude used to convert loaded to internal Q",
    )
    p.set_defaults(func=_cmd_fit_power)

    p = sub.add_parser("loss-budget", help="per-sample dielectric loss report")
    p.add_argument(
        "table", nargs="?", default=None, help="component table JSON (default bundled)"
    )
    p.add_argument("--sample", default=None, help="restrict to one sample")
    p.add_argument("-o", "--output", default=None, help="report JSON (default stdout)")
    p.set_defaults(func=_cmd_loss_budget)

    p = sub.add_parser("stark", help="photon-number thermometry")
    p.add_argument("--chi", type=float, required=True, help="dispersive shift, Hz")
    p.add_argument("--nu-r", type=float, required=True, help="readout frequency, Hz")
    p.add_argument("--nu-q", type=float, default=None, help="qubit frequency, Hz")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta-ac", type=float, help="measured shift, Hz")
    group.add_argument("--temp", type=float, help="bath temperature, K")
    p.add_argument("-o", "--output", default=None, help="report JSON (default stdout)")
    p.set_defaults(func=_cmd_stark)

    p = sub.add_parser("mux-program", help="program the switch and export S-parameters")
    p.add_argument("--mode", choices=("parallel", "serial"), default="parallel")
    p.add_argument("--port", type=int, required=True, help="branch to select")
    p.add_argument("--vdd", type=float, default=V_DD_NOMINAL, help="supply voltage, V")
    p.add_argument("--tclk", type=float, default=T_CLK_DEFAULT, help="clock period, s")
    p.add_argument("--f-start-hz", type=float, default=4e9)
    p.add_argument("--f-stop-hz", type=float, default=8e9)
    p.add_argument("--points", type=int, default=401)
    p.add_argument(
        "-o", "--output", default=None, help="S-parameter CSV for all branches"
    )
    p.set_defaults(func=_cmd_mux_program)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite_flags(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

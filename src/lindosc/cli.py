"""Command-line front end.

Subcommands
    coeffs      print the bath diffusion coefficients for a configuration
    validate    run the physicality checks and print the report
    trajectory  emit the moment trajectory as CSV (closed/lyapunov/rk4/all)
    metrics     emit classicality metrics along the trajectory as CSV
    window      report classicality windows (JSON)
    deco        time-scale / regime report (text or JSON)
    figdata     regenerate the data grids behind the reference figures
    sweep       1- or 2-axis parameter sweeps to long-form CSV
    fpe         grid-solver runs with snapshot dumps and a JSON manifest
    selftest    run the acceptance suite, one verdict line per criterion

Exit codes: 0 success, 1 validation failure (bad input or failed physical
constraint), 2 numeric failure, 3 I/O failure.  All output is deterministic:
identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .classicality import (
    find_windows,
    metrics_from_state,
    one_sigma_contour,
    write_metrics_csv,
)
from .config_io import PARAMETERS, ConfigError, build_model, load_config_file
from .csvout import format_float, write_csv
from .decoherence import decoherence_rate, rate_ratio, regime_report, time_scales
from .fpe import FpeRunSpec, grid_linf_diff, grid_mass_budget, run_fpe
from .model import (
    InitialStateSpec,
    NumericError,
    OscillatorConfig,
    initial_state,
    thermal_coefficients,
    validate,
)
from .propagate import (
    TRAJECTORY_HEADER,
    asymptotic_covariance,
    integrate_moments_rk4,
    mean_closed_form,
    route_deviation,
    time_grid,
    trajectory_closed,
    trajectory_lyapunov,
)
from .states import (
    DEFAULT_COVERAGE,
    GridGeometry,
    PhaseSpaceGrid,
    density_grid,
    geometry_for_states,
    render_grid,
)
from .sweep import AXES, RECORDS, SweepSpec, parse_sweep_axis, run_sweep, write_sweep_csv

PROG = "lindosc"

__all__ = ["main", "json_safe", "PROG"]


# --------------------------------------------------------------------------- #
# plumbing
# --------------------------------------------------------------------------- #


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as validation failures (exit 1), not the
    argparse default of exit 2 (2 is reserved for numeric failures here)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def json_safe(obj):
    """Recursively replace non-finite floats with the strings ``"inf"``,
    ``"-inf"``, ``"nan"`` so JSON stays portable."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    return obj


@contextlib.contextmanager
def _open_out(target: str | None) -> Iterator[IO[str]]:
    if target is None or target == "-":
        yield sys.stdout
    else:
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


def _emit_json(payload, target: str | None) -> None:
    text = json.dumps(json_safe(payload), indent=2, sort_keys=True) + "\n"
    with _open_out(target) as handle:
        handle.write(text)


def _emit_report(payload: dict, target: str | None, as_json: bool) -> None:
    """Sorted JSON, or one ``key = value`` line per entry in payload order."""
    if as_json:
        _emit_json(payload, target)
        return
    with _open_out(target) as handle:
        for key, value in payload.items():
            text = value if isinstance(value, str) else format_float(value)
            handle.write(f"{key} = {text}\n")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model parameters")
    group.add_argument("--config", metavar="FILE", help="key=value config file")
    for row in PARAMETERS:
        group.add_argument(row.flag, dest=row.dest, type=float, help=row.help)
    group.add_argument(
        "--closed",
        action="store_true",
        help="closed system (forces lambda = mu = 0)",
    )


def _model_from_args(args) -> tuple[OscillatorConfig, InitialStateSpec]:
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {row.key: getattr(args, row.dest) for row in PARAMETERS}
    if args.closed:
        for key in ("lambda", "mu"):
            if overrides[key] not in (None, 0.0):
                raise ConfigError("--closed conflicts with nonzero --lambda/--mu")
            overrides[key] = 0.0
    return build_model(file_values, overrides)


def _config_fields(cfg: OscillatorConfig) -> dict[str, float]:
    """The configuration's fields as the JSON reports name them."""
    return {"m": cfg.m, "omega": cfg.omega, "lambda": cfg.lam, "mu": cfg.mu,
            "hbar": cfg.hbar, "coth_C": cfg.coth_epsilon}


# --------------------------------------------------------------------------- #
# simple reports
# --------------------------------------------------------------------------- #


def _cmd_coeffs(args) -> int:
    cfg, _ = _model_from_args(args)
    d = thermal_coefficients(cfg)
    _emit_report(vars(d), args.out, args.json)
    return 0


def _cmd_validate(args) -> int:
    cfg, _ = _model_from_args(args)
    report = validate(cfg)
    with _open_out(args.out) as handle:
        handle.write(str(report) + "\n")
    return 0 if report.ok else 1


def _cmd_deco(args) -> int:
    cfg, spec = _model_from_args(args)
    scales = time_scales(spec, cfg, high_temperature=args.high_t)
    regime = regime_report(cfg)
    payload: dict[str, object] = {
        **_config_fields(cfg),
        "delta": spec.spread,
        "r": spec.correlation,
        "rate": decoherence_rate(spec, cfg),
        "t_deco": scales.t_deco,
        "t_d": scales.t_d,
        "t_rel": scales.t_rel,
        "variant": scales.variant,
        "sigma_be": regime.sigma_be,
        "sigma_heisenberg": regime.sigma_heisenberg,
        "sigma_mb": regime.sigma_mb,
        "regime": regime.regime,
    }
    if args.separation is not None:
        payload["separation"] = args.separation
        payload["rate_ratio"] = rate_ratio(cfg, args.separation)
    _emit_report(payload, args.out, args.json)
    return 0


# --------------------------------------------------------------------------- #
# trajectory / metrics / window
# --------------------------------------------------------------------------- #


def _cmd_trajectory(args) -> int:
    cfg, spec = _model_from_args(args)
    if args.route == "all":  # the exact route with the cross-route deviation
        rows = route_deviation(spec, cfg, args.t_end, args.dt)
        with _open_out(args.out) as handle:
            write_csv(handle, TRAJECTORY_HEADER + ",max_route_dev", rows)
        return 0
    # the bath rule and the initial state are blamed before the time grid
    d = thermal_coefficients(cfg)
    state0 = initial_state(spec, cfg)
    times = time_grid(args.t_end, args.dt)
    if args.route == "closed":
        with _open_out(args.out) as handle:
            write_csv(handle, TRAJECTORY_HEADER, trajectory_closed(spec, cfg, times))
        return 0
    if args.route == "lyapunov":
        traj = trajectory_lyapunov(state0, cfg, d, times)
    else:
        traj = integrate_moments_rk4(state0, cfg, d, args.t_end, args.dt)
    with _open_out(args.out) as handle:
        traj.to_csv(handle)
    return 0


def _cmd_metrics(args) -> int:
    cfg, spec = _model_from_args(args)
    d = thermal_coefficients(cfg)
    state0 = initial_state(spec, cfg)
    times = time_grid(args.t_end, args.dt)
    metrics = metrics_from_state(trajectory_lyapunov(state0, cfg, d, times), cfg.hbar)
    with _open_out(args.out) as handle:
        write_metrics_csv([metrics], handle)
    return 0


def _cmd_window(args) -> int:
    cfg, spec = _model_from_args(args)
    windows = find_windows(
        spec,
        cfg,
        args.t_end,
        args.dt,
        args.qd_threshold,
        args.cc_threshold,
    )
    payload = {
        "qd_threshold": args.qd_threshold,
        "cc_threshold": args.cc_threshold,
        "t_end": args.t_end,
        "dt": args.dt,
        "windows": [[a, b] for a, b in windows],
        "count": len(windows),
        "empty": not windows,
    }
    _emit_json(payload, args.out)
    return 0


# --------------------------------------------------------------------------- #
# figure data
# --------------------------------------------------------------------------- #

_FIGURES = ("1", "2a", "2b", "3a", "3b", "3c", "4a", "4b")


def _write_fig1(out_dir: Path, n_time: int) -> list[Path]:
    cfg = OscillatorConfig.reference(3.0)
    spec = InitialStateSpec(spread=1.0, correlation=0.0, center_q=6.0, center_p=4.0)
    times = 14.0 * np.arange(n_time) / (n_time - 1)
    q, p = mean_closed_form(initial_state(spec, cfg), cfg, times)
    path = out_dir / "fig1_trajectory.csv"
    write_csv(path, "t,mean_q,mean_p", np.column_stack([times, q, p]))
    files = [path]
    for spread in (1.0, 4.0):
        contour_spec = InitialStateSpec(
            spread=spread, correlation=0.0, center_q=6.0, center_p=4.0
        )
        points = one_sigma_contour(initial_state(contour_spec, cfg))
        path = out_dir / f"fig1_contour_delta{int(spread)}.csv"
        write_csv(path, "q,p", points)
        files.append(path)
    return files


def _write_fig2(out_dir: Path, which: str, n_time: int) -> list[Path]:
    axes = {
        "C": 1.0 + 5.0 * np.arange(51) / 50,
        "t": 20.0 * np.arange(n_time) / (n_time - 1),
    }
    record = "delta_qd" if which == "2a" else "delta_cc"
    path = out_dir / f"fig{which}.csv"
    cfg, spec = OscillatorConfig.reference(), InitialStateSpec(spread=4.0)
    write_sweep_csv(path, axes, (record,), cfg, spec)
    return [path]


def _grid_figure(which: str, n: int) -> PhaseSpaceGrid:
    """|rho(q, q')| on a +/-6 sigma square (3a-3c) or W over the state's own
    box (4a, 4b), of the squeezed initial state (3a, 4a) or the long-time one."""
    cfg = OscillatorConfig.reference(20.0 if which == "3c" else 3.0)
    if which in ("3a", "4a"):
        state = initial_state(InitialStateSpec(spread=4.0, correlation=0.0), cfg)
    else:
        state = asymptotic_covariance(cfg)
    if which.startswith("4"):
        return render_grid(state, geometry_for_states([state], n))
    bound = DEFAULT_COVERAGE * math.sqrt(state.s_qq)
    geom = GridGeometry(-bound, bound, -bound, bound, n, n)
    return PhaseSpaceGrid(geom, np.abs(density_grid(state, geom, cfg.hbar)))


def _cmd_figdata(args) -> int:
    if args.t_samples < 2:
        raise ValueError("t-samples must be >= 2")
    if args.n < 3:
        raise ValueError("n must be >= 3")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    figures = _FIGURES if args.figure == "all" else (args.figure,)
    written: list[Path] = []
    for figure in figures:
        if figure == "1":
            written += _write_fig1(out_dir, args.t_samples)
        elif figure in ("2a", "2b"):
            written += _write_fig2(out_dir, figure, args.t_samples)
        else:  # phase-space grids 3a-3c, 4a, 4b
            path = out_dir / f"fig{figure}.csv"
            _grid_figure(figure, args.n).to_csv(path)
            written.append(path)
    for path in written:
        print(path)
    return 0


# --------------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------------- #


def _cmd_sweep(args) -> int:
    cfg, spec = _model_from_args(args)
    axes = tuple(parse_sweep_axis(text) for text in args.axis)
    records = tuple(
        record.strip() for chunk in args.record for record in chunk.split(",")
    )
    sweep = SweepSpec(axes=axes, records=records, t=args.t)
    with _open_out(args.out) as handle:
        run_sweep(sweep, cfg, spec, handle)
    return 0


# --------------------------------------------------------------------------- #
# grid solver
# --------------------------------------------------------------------------- #


def _cmd_fpe(args) -> int:
    cfg, spec = _model_from_args(args)
    d = thermal_coefficients(cfg)
    state0 = asymptotic_covariance(cfg) if args.stationary else initial_state(spec, cfg)
    # the box covers the state, and under a bath the long-time state too
    cover = [state0] if cfg.closed_system else [state0, asymptotic_covariance(cfg)]
    if not args.coverage > 0.0:  # also rejects nan
        raise ValueError(f"--coverage must be positive, got {args.coverage:g}")
    geom = geometry_for_states(cover, args.grid_n, coverage=args.coverage)
    grid_mass_budget(state0, geom)
    w0 = render_grid(state0, geom)
    snapshots = []
    for entry in args.snapshots.split(",") if args.snapshots else ():
        try:
            snapshots.append(float(entry))
        except ValueError:
            raise ValueError(f"--snapshots entry {entry!r} is not a number") from None
    run = FpeRunSpec(t_end=args.t_end, dt=args.dt, snapshot_times=snapshots)
    result = run_fpe(w0, cfg, d, run)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    w0.to_csv(out_dir / "initial.csv")
    result.final.to_csv(out_dir / "final.csv")
    snapshot_files = {}
    for t, grid in result.snapshots:
        name = f"snapshot_{format_float(t)}.csv"
        grid.to_csv(out_dir / name)
        snapshot_files[format_float(t)] = name
    drift = grid_linf_diff(result.final, w0)
    manifest = {
        "config": {**_config_fields(cfg), "closed": cfg.closed_system},
        "coefficients": vars(d),
        "initial": {"stationary": True} if args.stationary else {
            "stationary": False,
            "delta": spec.spread,
            "r": spec.correlation,
            "q0": spec.center_q,
            "p0": spec.center_p,
        },
        "run": result.summary(),
        "linf_drift_vs_initial": drift,
        "files": {
            "initial": "initial.csv",
            "final": "final.csv",
            "snapshots": snapshot_files,
        },
    }
    manifest_path = out_dir / "manifest.json"
    _emit_json(manifest, str(manifest_path))
    print(f"linf_drift_vs_initial = {format_float(drift)}")
    print(manifest_path)
    return 0


# --------------------------------------------------------------------------- #
# selftest
# --------------------------------------------------------------------------- #


def _cmd_selftest(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance()
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
        if not result.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------- #
# parser assembly
# --------------------------------------------------------------------------- #


def _coeffs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default="-")


def _validate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-")


def _trajectory_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument(
        "--route",
        choices=("closed", "lyapunov", "rk4", "all"),
        default="lyapunov",
    )
    p.add_argument("--out", default="-")


def _metrics_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-end", dest="t_end", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--out", default="-")


def _window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-end", dest="t_end", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument(
        "--qd-threshold", dest="qd_threshold", type=float, default=0.99
    )
    p.add_argument(
        "--cc-threshold", dest="cc_threshold", type=float, default=10.0
    )
    p.add_argument("--out", default="-")


def _deco_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--high-T", dest="high_t", action="store_true")
    p.add_argument("--separation", type=float)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default="-")


def _figdata_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("figure", choices=_FIGURES + ("all",))
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--n", type=int, default=201, help="grid points per axis")
    p.add_argument(
        "--t-samples", dest="t_samples", type=int, default=561,
        help="time samples for the trajectory/surface figures",
    )


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME:MIN:MAX:COUNT[:log]",
        help=f"swept parameter, one or two axes; names: {', '.join(AXES)}",
    )
    p.add_argument(
        "--record",
        action="append",
        required=True,
        metavar="NAME[,NAME...]",
        help=f"quantities to record: {', '.join(RECORDS)}",
    )
    p.add_argument("--t", type=float, default=0.0, help="evaluation time")
    p.add_argument("--out", default="-")


def _fpe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-n", dest="grid_n", type=int, default=256)
    p.add_argument("--coverage", type=float, default=DEFAULT_COVERAGE)
    p.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    p.add_argument("--dt", type=float, help="time step, at most the automatic one")
    p.add_argument("--snapshots", help="comma-separated snapshot times")
    p.add_argument("--stationary", action="store_true")
    p.add_argument("--out-dir", dest="out_dir", required=True)


def _no_flags(p: argparse.ArgumentParser) -> None:
    pass


# Each subcommand: its handler, its help line, whether it takes the model
# flags, and the function that adds its own flags.
_COMMANDS = {
    "coeffs": (_cmd_coeffs, "print bath diffusion coefficients", True, _coeffs_flags),
    "validate": (_cmd_validate, "run physicality checks", True, _validate_flags),
    "trajectory": (
        _cmd_trajectory, "emit moment trajectory CSV", True, _trajectory_flags
    ),
    "metrics": (_cmd_metrics, "emit classicality metrics CSV", True, _metrics_flags),
    "window": (
        _cmd_window, "report classicality windows (JSON)", True, _window_flags
    ),
    "deco": (_cmd_deco, "time-scale and regime report", True, _deco_flags),
    "figdata": (
        _cmd_figdata, "regenerate figure data files", False, _figdata_flags
    ),
    "sweep": (_cmd_sweep, "parameter sweep to long-form CSV", True, _sweep_flags),
    "fpe": (_cmd_fpe, "grid-solver run with manifest", True, _fpe_flags),
    "selftest": (_cmd_selftest, "run the acceptance suite", False, _no_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``lindosc <command>``, with that subcommand's flags
    alone; where ``command`` names no subcommand, the ``lindosc`` listing
    parser, every subcommand with its help line and no flags, for
    ``--help`` and for argument errors.

    Adding flags is most of a parser's cost, so a call builds the flags of
    its own subcommand only.
    """
    if command in _COMMANDS:
        _, _, model, add_flags = _COMMANDS[command]
        parser = _Parser(prog=f"{PROG} {command}")
        if model:
            _add_model_flags(parser)
        add_flags(parser)
        return parser
    parser = _Parser(prog=PROG, description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    try:
        if command not in _COMMANDS:
            build_parser().parse_args(argv)  # prints the help, or fails
            raise ConfigError("the subcommand must be the first argument")
        args = build_parser(command).parse_args(argv[1:])
        return _COMMANDS[command][0](args)
    except NumericError as exc:
        print(f"{PROG}: numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{PROG}: i/o failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"{PROG}: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

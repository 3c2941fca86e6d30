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
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .classicality import (
    METRICS_HEADER,
    classicality_degrees,
    find_windows,
    one_sigma_contour,
)
from .config_io import ConfigError, build_model, load_config_file
from .csvout import format_float, write_csv
from .decoherence import (
    decoherence_rate,
    rate_ratio,
    rates,
    regime_report,
    time_from_rate,
    time_scales,
)
from .fpe import FpeRunSpec, grid_linf_diff, run_fpe
from .model import (
    GaussianState,
    InitialStateSpec,
    NumericError,
    OscillatorConfig,
    _lindblad_table,
    initial_state,
    parameter_table,
    thermal_coefficients,
    validate,
)
from .propagate import (
    TRAJECTORY_HEADER,
    asymptotic_covariance,
    closed_forms,
    integrate_moments_rk4,
    mean_closed_form,
    time_grid,
    trajectory_lyapunov,
    whole_steps,
)
from .states import (
    GridGeometry,
    PhaseSpaceGrid,
    alpha_beta_gamma,
    density_grid,
    geometry_for_states,
    render_grid,
    stationary_grid,
)

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
    group.add_argument("--m", type=float, help="mass (default 1)")
    group.add_argument("--omega", type=float, help="oscillator frequency (default 1)")
    group.add_argument(
        "--lambda", dest="lam", type=float, help="friction constant (default 0)"
    )
    group.add_argument("--mu", type=float, help="friction asymmetry (default 0)")
    group.add_argument("--hbar", type=float, help="hbar (default 1)")
    group.add_argument(
        "--coth", type=float, help="thermal coth factor C (exclusive with --temp)"
    )
    group.add_argument(
        "--temp", type=float, help="bath temperature (exclusive with --coth)"
    )
    group.add_argument(
        "--delta-sq", dest="spread", type=float, help="initial squeezing delta"
    )
    group.add_argument(
        "--corr-r", dest="corr", type=float, help="initial correlation r"
    )
    group.add_argument("--q0", type=float, help="initial mean coordinate")
    group.add_argument("--p0", type=float, help="initial mean momentum")
    group.add_argument(
        "--closed",
        action="store_true",
        help="closed system (forces lambda = mu = 0)",
    )


def _model_from_args(args) -> tuple[OscillatorConfig, InitialStateSpec]:
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {
        "m": args.m,
        "omega": args.omega,
        "lambda": args.lam,
        "mu": args.mu,
        "hbar": args.hbar,
        "temp.C": args.coth,
        "temp.T": args.temp,
        "init.delta": args.spread,
        "init.r": args.corr,
        "init.q0": args.q0,
        "init.p0": args.p0,
    }
    if args.closed:
        for key in ("lambda", "mu"):
            if overrides[key] not in (None, 0.0):
                raise ConfigError("--closed conflicts with nonzero --lambda/--mu")
            overrides[key] = 0.0
    return build_model(file_values, overrides)


# --------------------------------------------------------------------------- #
# simple reports
# --------------------------------------------------------------------------- #


def _cmd_coeffs(args) -> int:
    cfg, _ = _model_from_args(args)
    d = thermal_coefficients(cfg)
    _emit_report({"d_pp": d.d_pp, "d_qq": d.d_qq, "d_pq": d.d_pq}, args.out, args.json)
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
        "m": cfg.m,
        "omega": cfg.omega,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "hbar": cfg.hbar,
        "coth_C": cfg.coth_epsilon,
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


def _closed_columns(
    spec: InitialStateSpec, cfg: OscillatorConfig, times: np.ndarray
) -> np.ndarray:
    """Trajectory columns from the closed forms; s_qq and s_pp are nan.
    ``NumericError`` where sigma or s_pq is not finite (sigma overflows at
    a huge C)."""
    q, p = mean_closed_form(initial_state(spec, cfg), cfg, times)
    sigma, s_pq = closed_forms(_lindblad_table(cfg, spec), times)
    finite = np.isfinite(sigma) & np.isfinite(s_pq)
    if not finite.all():
        t = float(times[np.argmin(finite)])
        raise NumericError(f"closed-form sigma_det or s_pq not finite at t={t}")
    blank = np.full_like(times, math.nan)
    return np.column_stack([times, q, p, blank, blank, s_pq, sigma])


def _cmd_trajectory(args) -> int:
    cfg, spec = _model_from_args(args)
    d = thermal_coefficients(cfg)
    state0 = initial_state(spec, cfg)
    times = time_grid(args.t_end, args.dt)

    if args.route == "closed":
        with _open_out(args.out) as handle:
            write_csv(handle, TRAJECTORY_HEADER, _closed_columns(spec, cfg, times))
        return 0
    if args.route in ("lyapunov", "rk4"):
        if args.route == "lyapunov":
            traj = trajectory_lyapunov(state0, cfg, d, times)
        else:
            traj = integrate_moments_rk4(state0, cfg, d, args.t_end, args.dt)
        with _open_out(args.out) as handle:
            traj.to_csv(handle)
        return 0

    # route == "all": pinned columns from the exact propagation, plus the
    # worst per-row cross-route deviation (amplitude-normalized per quantity).
    if not whole_steps(args.t_end, args.dt)[1]:
        raise ValueError("route=all needs t-end to be an integer multiple of dt")
    lyap = trajectory_lyapunov(state0, cfg, d, times).table
    closed = _closed_columns(spec, cfg, times)
    sub = max(1, math.ceil(args.dt / 2e-3))
    rk4 = integrate_moments_rk4(
        state0, cfg, d, args.t_end, args.dt / sub, record_every=sub
    ).table
    if len(rk4) != len(times):
        raise NumericError("route grids fell out of alignment")

    # deviations in every moment column (t excluded); the closed forms leave
    # s_qq and s_pp as nan, which nanmax skips
    peak = np.abs(lyap[:, 1:]).max(axis=0)
    scale = np.where(peak > 0.0, peak, 1.0)
    to_closed = np.abs(lyap[:, 1:] - closed[:, 1:]) / scale
    to_rk4 = np.abs(lyap[:, 1:] - rk4[:, 1:]) / scale
    dev = np.nanmax(np.hstack([to_closed, to_rk4]), axis=1)
    rows = np.column_stack([lyap, dev])
    with _open_out(args.out) as handle:
        write_csv(handle, TRAJECTORY_HEADER + ",max_route_dev", rows)
    return 0


def _cmd_metrics(args) -> int:
    cfg, spec = _model_from_args(args)
    d = thermal_coefficients(cfg)
    state0 = initial_state(spec, cfg)
    times = time_grid(args.t_end, args.dt)
    traj = trajectory_lyapunov(state0, cfg, d, times)
    qd, cc = classicality_degrees(traj.sigma_det, traj.s_pq, cfg.hbar)
    gamma = alpha_beta_gamma(traj, cfg.hbar).gamma  # the state formula, on columns
    rows = np.column_stack([traj.times, qd, cc, gamma, traj.sigma_det, traj.s_pq])
    with _open_out(args.out) as handle:
        write_csv(handle, METRICS_HEADER, rows)
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
    cfg = OscillatorConfig.reference()
    c_values = (1.0 + 5.0 * np.arange(51) / 50)[:, None]
    t_values = 20.0 * np.arange(n_time) / (n_time - 1)
    table = parameter_table(cfg, InitialStateSpec(spread=4.0), coth=c_values)
    qd, cc = classicality_degrees(*closed_forms(table, t_values), cfg.hbar)
    column = "delta_qd" if which == "2a" else "delta_cc"
    grids = np.broadcast_arrays(c_values, t_values, qd if which == "2a" else cc)
    path = out_dir / f"fig{which}.csv"
    write_csv(path, f"C,t,{column}", np.column_stack([g.ravel() for g in grids]))
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
    bound = 6.0 * math.sqrt(state.s_qq)
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

_SWEEP_AXES = ("lambda", "mu", "delta", "r", "C", "t")
_T_RECORDS = ("delta_qd", "delta_cc", "sigma_det", "sigma_pq")  # depend on t
_SWEEP_RECORDS = _T_RECORDS + ("t_deco", "t_d", "t_rel")
# the parameter_table axis of each swept parameter but t
_TABLE_AXES = {
    "lambda": "lam", "mu": "mu", "delta": "spread", "r": "correlation", "C": "coth"
}
_SWEEP_BLOCK = 1 << 13  # sweep points per evaluation pass


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: name, inclusive bounds, sample count, spacing."""

    name: str
    lo: float
    hi: float
    count: int
    log: bool = False

    def __post_init__(self) -> None:
        if self.name not in _SWEEP_AXES:
            raise ValueError(
                f"unknown sweep axis {self.name!r}; choose from {_SWEEP_AXES}"
            )
        if self.count < 1:
            raise ValueError("axis count must be >= 1")
        if self.log and (self.lo <= 0.0 or self.hi <= 0.0):
            raise ValueError("log spacing needs positive bounds")
        if not all(map(math.isfinite, [self.lo, self.hi, *self.values()])):
            raise ValueError(f"axis {self.name!r}: bounds and values must be finite")

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.lo]
        if self.log:
            ratio = (self.hi / self.lo) ** (1.0 / (self.count - 1))
            return [self.lo * ratio**i for i in range(self.count)]
        step = (self.hi - self.lo) / (self.count - 1)
        return [self.lo + step * i for i in range(self.count)]


@dataclass(frozen=True)
class SweepSpec:
    """Axes (1 or 2), quantities to record, and the evaluation time for the
    state-dependent quantities."""

    axes: tuple[SweepAxis, ...]
    records: tuple[str, ...]
    t: float = 0.0

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("sweeps take one or two axes")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("sweep axes must be distinct")
        if not self.records:
            raise ValueError("nothing to record")
        for record in self.records:
            if record not in _SWEEP_RECORDS:
                raise ValueError(
                    f"unknown record {record!r}; choose from {_SWEEP_RECORDS}"
                )
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t!r}")


def parse_sweep_axis(text: str) -> SweepAxis:
    """Parse ``name:min:max:count[:log]``."""
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ValueError(f"axis spec {text!r} is not name:min:max:count[:log]")
    log = False
    if len(parts) == 5:
        if parts[4] != "log":
            raise ValueError(f"axis spec {text!r}: fifth field must be 'log'")
        log = True
    try:
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ValueError(f"axis spec {text!r}: bad numbers") from exc
    return SweepAxis(name=parts[0], lo=lo, hi=hi, count=count, log=log)


def run_sweep(
    sweep: SweepSpec,
    base_cfg: OscillatorConfig,
    base_spec: InitialStateSpec,
    handle: IO[str],
) -> None:
    """Evaluate the sweep grid row-major (first axis slow) into CSV.

    Points that :func:`~lindosc.model.parameter_table` marks invalid (e.g.
    ``|mu| >= omega``, or a bath that breaks the bath rule) record ``nan``
    for every quantity rather than aborting the sweep; so do points at
    ``t < 0`` when a t-dependent quantity is recorded.

    The flat row-major point index is evaluated in passes of
    ``_SWEEP_BLOCK`` points, each one broadcast call of the closed forms and
    the rates over the points' parameters and times (``sweep.t`` without a
    ``t`` axis).
    """
    names = [axis.name for axis in sweep.axes]
    grids = [np.array(axis.values()) for axis in sweep.axes]
    shape = tuple(grid.size for grid in grids)
    t_dependent = not set(_T_RECORDS).isdisjoint(sweep.records)

    def evaluate(index: np.ndarray) -> np.ndarray:
        """The CSV rows of the points at ``index`` in the flat grid."""
        point = {
            name: grid[i]
            for name, grid, i in zip(names, grids, np.unravel_index(index, shape))
        }
        axes = {_TABLE_AXES[name]: v for name, v in point.items() if name != "t"}
        table = parameter_table(base_cfg, base_spec, **axes)
        t = point.get("t", sweep.t)
        valid = table.valid & ((t >= 0.0) | (not t_dependent))
        values = {}
        if t_dependent:  # invalid rows, t < 0 among them, are nan: take t = 0
            sigma, s_pq = closed_forms(table, np.where(valid, t, 0.0))
            qd, cc = classicality_degrees(sigma, s_pq, table.hbar)
            values.update(delta_qd=qd, delta_cc=cc, sigma_det=sigma, sigma_pq=s_pq)
        if not set(sweep.records).issubset(_T_RECORDS):
            deco, _, statistical = (time_from_rate(x) for x in rates(table))
            values.update(t_deco=deco, t_d=statistical, t_rel=time_from_rate(table.lam))
        recorded = [np.where(valid, values[record], math.nan) for record in sweep.records]
        return np.column_stack([point[name] for name in names] + recorded)

    total = math.prod(shape)
    blocks = (
        evaluate(np.arange(start, min(start + _SWEEP_BLOCK, total)))
        for start in range(0, total, _SWEEP_BLOCK)
    )
    write_csv(handle, ",".join(names + list(sweep.records)), blocks)


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


def _require_fine_cells(geom: GridGeometry, state: GaussianState) -> None:
    """Reject a grid whose cells are wider than twice the initial state's
    standard deviation along either axis: there a cell sum of the Gaussian
    misses its mass by about 2 exp(-pi^2/2) = 1.4 %, beyond the solver's 1e-3."""
    width_q, width_p = math.sqrt(state.s_qq), math.sqrt(state.s_pp)
    if geom.dq > 2.0 * width_q or geom.dp > 2.0 * width_p:
        raise ValueError(
            f"grid cell {geom.dq:.6g} x {geom.dp:.6g} is wider than twice the"
            f" initial state's standard deviations {width_q:.6g} x {width_p:.6g}"
        )


def _cmd_fpe(args) -> int:
    cfg, spec = _model_from_args(args)
    d = thermal_coefficients(cfg)
    if args.stationary:
        w0 = stationary_grid(cfg, args.grid_n, coverage=args.coverage)
        _require_fine_cells(w0.geom, asymptotic_covariance(cfg))
        initial_desc: dict[str, object] = {"stationary": True}
    else:
        state0 = initial_state(spec, cfg)
        cover = [state0] if cfg.closed_system else [state0, asymptotic_covariance(cfg)]
        geom = geometry_for_states(cover, args.grid_n, coverage=args.coverage)
        _require_fine_cells(geom, state0)
        w0 = render_grid(state0, geom)
        initial_desc = {
            "stationary": False,
            "delta": spec.spread,
            "r": spec.correlation,
            "q0": spec.center_q,
            "p0": spec.center_p,
        }

    snapshots: tuple[float, ...] = ()
    if args.snapshots:
        snapshots = tuple(float(x) for x in args.snapshots.split(","))
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
        "config": {
            "m": cfg.m,
            "omega": cfg.omega,
            "lambda": cfg.lam,
            "mu": cfg.mu,
            "hbar": cfg.hbar,
            "coth_C": cfg.coth_epsilon,
            "closed": cfg.closed_system,
        },
        "coefficients": {"d_pp": d.d_pp, "d_qq": d.d_qq, "d_pq": d.d_pq},
        "initial": initial_desc,
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
        help=f"swept parameter, one or two axes; names: {', '.join(_SWEEP_AXES)}",
    )
    p.add_argument(
        "--record",
        action="append",
        required=True,
        metavar="NAME[,NAME...]",
        help=f"quantities to record: {', '.join(_SWEEP_RECORDS)}",
    )
    p.add_argument("--t", type=float, default=0.0, help="evaluation time")
    p.add_argument("--out", default="-")


def _fpe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-n", dest="grid_n", type=int, default=256)
    p.add_argument("--coverage", type=float, default=6.0)
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

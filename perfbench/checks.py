"""Output checks for the benchmark's jobs, against independent references.

Each check reads what one CLI call wrote and raises :class:`CheckError` when
the output breaks a README contract (header, row count, ``%.17g`` numbers,
grid-CSV header, JSON layout) or a value misses its reference by more than the
tolerance stated next to it.  The references are computed here, not by
``lindosc``: the moments come from the eigen-decomposition of the linear
moment equations, Gaussians are rendered from their covariance, and the
decoherence time from its rate formula.  Checks also return the deterministic
accuracy figures the benchmark reports (``grid_l2_err``, ``stationary_drift``,
``route_dev_max``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

from workloads import Job, Physics

TRAJECTORY_HEADER = "t,mean_q,mean_p,s_qq,s_pp,s_pq,sigma_det"
METRICS_HEADER = "t,delta_qd,delta_cc,gamma,sigma_det,sigma_pq"
NONFINITE = {"nan", "inf", "-inf"}

# Tolerances, as a share of the largest magnitude of the reference column.
RTOL_EXACT = 1e-9  # closed forms and exact propagation (round-off is ~1e-14)
RTOL_CC = 1e-6  # delta_cc divides by s_pq; rows with |s_pq| < 1e-6 of its peak skip it
ROUTE_DEV_MAX = 1e-6  # largest max_route_dev allowed in --route all
RENDER_RTOL = 1e-10  # a rendered initial grid against the Gaussian, share of its peak
MASS_TOL = 1e-3  # grid-solver mass against 1 (the solver's own input tolerance)
RENDER_MASS_TOL = 1e-6  # rendered figure grids: Riemann mass or trace against 1
GRID_L2_TOL = 4e-3  # evolved squeezed grid against the exact Gaussian (~1.8e-3 seen)
STATIONARY_DRIFT_TOL = 2e-3  # the acceptance criterion's bound
EDGE_PROBE = 2e-5  # window edges must change the condition within this distance


class CheckError(Exception):
    """An output that breaks its contract or misses its reference."""


# --------------------------------------------------------------------------- #
# references
# --------------------------------------------------------------------------- #


def linear_flow(a: np.ndarray, x0, b, times) -> np.ndarray:
    """Solution of ``x' = A x + b`` at each time, shape (len(times), n), from
    the eigen-decomposition of ``A`` (distinct eigenvalues, ``A`` invertible)."""
    a = np.asarray(a, dtype=float)
    x_inf = -np.linalg.solve(a, np.asarray(b, dtype=float))
    w, v = np.linalg.eig(a)
    coeff = np.linalg.solve(v, np.asarray(x0, dtype=float) - x_inf)
    t = np.asarray(times, dtype=float)
    return ((np.exp(np.outer(t, w)) * coeff) @ v.T).real + x_inf


def initial_covariance(delta: float, r: float) -> tuple[float, float, float]:
    """(s_qq, s_pq, s_pp) of the correlated coherent state, m = omega = hbar = 1."""
    one_minus = 1.0 - r * r
    return 0.5 * delta, 0.5 * r / math.sqrt(one_minus), 0.5 / (delta * one_minus)


def moments(p: Physics, times, q0: float = 0.0, p0: float = 0.0) -> dict[str, np.ndarray]:
    """Exact means and covariance at each time for the thermal bath with
    ``d_qq = (lam - mu) C / 2``, ``d_pp = (lam + mu) C / 2``, ``d_pq = 0``."""
    a, b, c, e = -(p.lam - p.mu), 1.0, -1.0, -(p.lam + p.mu)
    mean = linear_flow([[a, b], [c, e]], [q0, p0], [0.0, 0.0], times)
    cov = linear_flow(
        [[2 * a, 2 * b, 0.0], [c, a + e, b], [0.0, 2 * c, 2 * e]],
        initial_covariance(p.delta, p.r),
        [(p.lam - p.mu) * p.c, 0.0, (p.lam + p.mu) * p.c],
        times,
    )
    s_qq, s_pq, s_pp = cov[:, 0], cov[:, 1], cov[:, 2]
    return {
        "mean_q": mean[:, 0],
        "mean_p": mean[:, 1],
        "s_qq": s_qq,
        "s_pp": s_pp,
        "s_pq": s_pq,
        "sigma_det": s_qq * s_pp - s_pq * s_pq,
    }


def gaussian_grid(geom: dict, mean_q, mean_p, s_qq, s_pq, s_pp) -> np.ndarray:
    """Bivariate Gaussian density at the cell centres of a grid geometry."""
    q = geom["q_min"] + (np.arange(geom["n_q"]) + 0.5) * geom["dq"]
    pp = geom["p_min"] + (np.arange(geom["n_p"]) + 0.5) * geom["dp"]
    dq = q[:, None] - mean_q
    dp = pp[None, :] - mean_p
    det = s_qq * s_pp - s_pq * s_pq
    quad = s_pp * dq * dq - 2.0 * s_pq * dq * dp + s_qq * dp * dp
    return np.exp(-quad / (2.0 * det)) / (2.0 * math.pi * math.sqrt(det))


def decoherence_time(p: Physics, c) -> np.ndarray:
    """1/rate with rate = 2[lam(d+k)C + mu(d-k)C - lam - mu - r/(d sqrt(1-r^2))],
    k = r^2/(d(1-r^2)); infinite where the rate is not positive."""
    d, r = p.delta, p.r
    k = r * r / (d * (1.0 - r * r))
    c = np.asarray(c, dtype=float)
    rate = 2.0 * (
        p.lam * (d + k) * c + p.mu * (d - k) * c - p.lam - p.mu
        - r / (d * math.sqrt(1.0 - r * r))
    )
    with np.errstate(divide="ignore"):
        return np.where(rate > 0.0, 1.0 / rate, np.inf)


# --------------------------------------------------------------------------- #
# file readers
# --------------------------------------------------------------------------- #


def _lines(path: Path) -> list[str]:
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise CheckError(f"{path.name}: truncated (no final newline)")
    return text[:-1].split("\n")


def parse_numbers(tokens: list[str], where: str) -> np.ndarray:
    """Floats from ``%.17g`` tokens; any other spelling is an error."""
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise CheckError(f"{where}: unparseable number ({exc})") from None
    for token, value in zip(tokens, values.tolist()):
        if token not in NONFINITE and format(value, ".17g") != token:
            raise CheckError(f"{where}: {token!r} is not %.17g")
    return values


def read_csv(path: Path, header: str, rows: int) -> np.ndarray:
    """Numeric table under an exact header, ``rows`` rows, as (rows, cols)."""
    lines = _lines(path)
    if lines[0] != header:
        raise CheckError(f"{path.name}: header {lines[0]!r}, expected {header!r}")
    if len(lines) - 1 != rows:
        raise CheckError(f"{path.name}: {len(lines) - 1} rows, expected {rows}")
    cols = header.count(",") + 1
    tokens = []
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != cols:
            raise CheckError(f"{path.name}:{i}: {len(fields)} fields, expected {cols}")
        tokens += fields
    return parse_numbers(tokens, path.name).reshape(rows, cols)


def read_grid(path: Path) -> tuple[dict, np.ndarray]:
    """Grid CSV: ``# q_min q_max p_min p_max n_q n_p`` then n_q rows of n_p."""
    lines = _lines(path)
    head = lines[0].split(" ")
    if head[0] != "#" or len(head) != 7:
        raise CheckError(f"{path.name}: bad grid header {lines[0]!r}")
    bounds = parse_numbers(head[1:5], f"{path.name} header")
    try:
        n_q, n_p = int(head[5]), int(head[6])
    except ValueError:
        raise CheckError(f"{path.name}: bad grid sizes {head[5:]!r}") from None
    if len(lines) - 1 != n_q:
        raise CheckError(f"{path.name}: {len(lines) - 1} rows, expected {n_q}")
    tokens = []
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != n_p:
            raise CheckError(f"{path.name}:{i}: {len(fields)} values, expected {n_p}")
        tokens += fields
    values = parse_numbers(tokens, path.name).reshape(n_q, n_p)
    if not np.isfinite(values).all():
        raise CheckError(f"{path.name}: non-finite grid value")
    q_min, q_max, p_min, p_max = bounds.tolist()
    geom = {
        "q_min": q_min, "q_max": q_max, "p_min": p_min, "p_max": p_max,
        "n_q": n_q, "n_p": n_p,
        "dq": (q_max - q_min) / n_q, "dp": (p_max - p_min) / n_p,
    }
    return geom, values


def _close(name: str, got: np.ndarray, ref: np.ndarray, rtol: float) -> None:
    ref = np.asarray(ref, dtype=float)
    scale = float(np.max(np.abs(ref))) or 1.0
    worst = float(np.max(np.abs(got - ref)))
    if not worst <= rtol * scale:  # also catches nan
        raise CheckError(f"{name}: off by {worst:.3g}, tolerance {rtol * scale:.3g}")


def _time_column(t: np.ndarray, expected: np.ndarray, where: str) -> None:
    if not np.allclose(t, expected, rtol=0.0, atol=1e-9 * max(1.0, float(expected[-1]))):
        raise CheckError(f"{where}: time column differs from the requested grid")


def _cli_times(t_end: float, dt: float) -> np.ndarray:
    """The CLI's uniform time grid: 0, dt, ... plus t_end if it falls between."""
    n = int(math.floor(t_end / dt + 1e-9))
    times = [i * dt for i in range(n + 1)]
    if times[-1] < t_end - 1e-12 * max(1.0, t_end):
        times.append(t_end)
    return np.array(times)


# --------------------------------------------------------------------------- #
# per-kind checks
# --------------------------------------------------------------------------- #


def check_trajectory(job: Job, out: Path, p: Physics) -> dict[str, float]:
    route = job.args[job.args.index("--route") + 1]
    t_end, dt = job.expect["t_end"], job.expect["dt"]
    if route in ("rk4", "all"):
        n = int(round(t_end / dt)) + 1
        times = np.arange(n) * dt
    else:
        times = _cli_times(t_end, dt)
    header = TRAJECTORY_HEADER + (",max_route_dev" if route == "all" else "")
    data = read_csv(out, header, len(times))
    _time_column(data[:, 0], times, out.name)
    ref = moments(p, data[:, 0])
    rtol = job.expect["rtol"]
    columns = TRAJECTORY_HEADER.split(",")[1:]
    for i, col in enumerate(columns, start=1):
        if route == "closed" and col in ("s_qq", "s_pp"):
            if not np.isnan(data[:, i]).all():
                raise CheckError(f"{out.name}: closed route must write nan in {col}")
            continue
        _close(f"{out.name} {col}", data[:, i], ref[col], rtol)
    if route != "all":
        return {}
    dev = data[:, -1]
    if not (np.isfinite(dev).all() and dev.min() >= 0.0 and dev.max() <= ROUTE_DEV_MAX):
        raise CheckError(f"{out.name}: max_route_dev outside [0, {ROUTE_DEV_MAX}]")
    return {"route_dev_max": float(dev.max())}


def check_metrics(job: Job, out: Path, p: Physics) -> dict[str, float]:
    times = _cli_times(job.expect["t_end"], job.expect["dt"])
    data = read_csv(out, METRICS_HEADER, len(times))
    _time_column(data[:, 0], times, out.name)
    ref = moments(p, data[:, 0])
    sigma, s_pq = ref["sigma_det"], ref["s_pq"]
    _close(f"{out.name} sigma_det", data[:, 4], sigma, RTOL_EXACT)
    _close(f"{out.name} sigma_pq", data[:, 5], s_pq, RTOL_EXACT)
    _close(f"{out.name} delta_qd", data[:, 1], 0.5 / np.sqrt(sigma), RTOL_EXACT)
    _close(f"{out.name} gamma", data[:, 3], sigma / (2.0 * ref["s_qq"]), RTOL_EXACT)
    _check_cc(out.name, data[:, 2], sigma, s_pq)
    return {}


def _check_cc(where: str, got, sigma, s_pq) -> None:
    usable = np.abs(s_pq) > 1e-6 * np.max(np.abs(s_pq))
    ref = np.sqrt(sigma[usable]) / np.abs(s_pq[usable])
    rel = np.abs(got[usable] - ref) / ref
    if rel.size and not float(rel.max()) <= RTOL_CC:
        raise CheckError(f"{where} delta_cc: relative error {float(rel.max()):.3g}")


def _axis(lo: float, hi: float, count: int) -> np.ndarray:
    step = (hi - lo) / (count - 1)
    return np.array([lo + step * i for i in range(count)])


def check_sweep(job: Job, out: Path, p: Physics) -> dict[str, float]:
    count = int(job.expect["count"])
    data = read_csv(out, "C,t,delta_qd,delta_cc,t_deco", count * count)
    c_axis = _axis(job.expect["c_lo"], job.expect["c_hi"], count)
    t_axis = _axis(job.expect["t_lo"], job.expect["t_hi"], count)
    if not (np.array_equal(data[:, 0], np.repeat(c_axis, count))
            and np.array_equal(data[:, 1], np.tile(t_axis, count))):
        raise CheckError(f"{out.name}: axis values are not the requested C x t grid")
    _close(f"{out.name} t_deco", data[:, 4], decoherence_time(p, data[:, 0]), RTOL_EXACT)
    rng = random.Random("sweep-spots")
    for row in sorted(rng.sample(range(count * count), 64)):
        c, t = data[row, 0], data[row, 1]
        spot = Physics(p.lam, p.mu, float(c), p.delta, p.r)
        ref = moments(spot, [t])
        sigma, s_pq = float(ref["sigma_det"][0]), float(ref["s_pq"][0])
        if abs(data[row, 2] - 0.5 / math.sqrt(sigma)) > RTOL_EXACT * 0.5 / math.sqrt(sigma):
            raise CheckError(f"{out.name}: delta_qd wrong at C={c}, t={t}")
        cc = math.sqrt(sigma) / abs(s_pq)
        if abs(data[row, 3] - cc) > RTOL_CC * cc:
            raise CheckError(f"{out.name}: delta_cc wrong at C={c}, t={t}")
    return {}


def _condition(p: Physics, times, qd_thr: float, cc_thr: float) -> np.ndarray:
    ref = moments(p, times)
    qd = 0.5 / np.sqrt(ref["sigma_det"])
    cc = np.sqrt(ref["sigma_det"]) / np.abs(ref["s_pq"])
    return (qd < qd_thr) & (cc < cc_thr)


def check_window(job: Job, out: Path, p: Physics) -> dict[str, float]:
    lines = _lines(out)
    try:
        payload = json.loads("\n".join(lines))
    except json.JSONDecodeError as exc:
        raise CheckError(f"{out.name}: not JSON ({exc})") from None
    keys = {"cc_threshold", "count", "dt", "empty", "qd_threshold", "t_end", "windows"}
    if not isinstance(payload, dict) or set(payload) != keys:
        raise CheckError(f"{out.name}: keys differ from the window contract")
    if json.dumps(payload, indent=2, sort_keys=True) != "\n".join(lines):
        raise CheckError(f"{out.name}: not indent=2 sorted-key JSON")
    t_end, qd_thr, cc_thr = (job.expect[k] for k in ("t_end", "qd", "cc"))
    windows = payload["windows"]
    if (payload["qd_threshold"], payload["cc_threshold"], payload["t_end"]) != (qd_thr, cc_thr, t_end):
        raise CheckError(f"{out.name}: echoed parameters differ from the call")
    if payload["count"] != len(windows) or payload["empty"] != (not windows) or not windows:
        raise CheckError(f"{out.name}: expected at least one window, consistently counted")
    flat = [x for w in windows for x in w]
    if any(len(w) != 2 for w in windows) or flat != sorted(flat) or flat[0] < 0 or flat[-1] > t_end:
        raise CheckError(f"{out.name}: windows are not ordered intervals in [0, t_end]")
    mids = [(a + b) / 2.0 for a, b in windows]
    if not _condition(p, mids, qd_thr, cc_thr).all():
        raise CheckError(f"{out.name}: a window midpoint is not classical by both measures")
    edges = [x for x in flat if 0.0 < x < t_end]
    if edges:
        before = _condition(p, [x - EDGE_PROBE for x in edges], qd_thr, cc_thr)
        after = _condition(p, [x + EDGE_PROBE for x in edges], qd_thr, cc_thr)
        if (before == after).any():
            raise CheckError(f"{out.name}: a window edge is not a crossing")
    return {}


FIGURE_FILES = (
    "fig1_trajectory.csv", "fig1_contour_delta1.csv", "fig1_contour_delta4.csv",
    "fig2a.csv", "fig2b.csv", "fig3a.csv", "fig3b.csv", "fig3c.csv",
    "fig4a.csv", "fig4b.csv",
)


def _figure_physics(c: float, delta: float) -> Physics:
    return Physics(lam=0.2, mu=0.1, c=c, delta=delta, r=0.0)


def check_figdata(job: Job, out: Path, p: Physics | None) -> dict[str, float]:
    present = sorted(f.name for f in out.iterdir()) if out.is_dir() else []
    if present != sorted(FIGURE_FILES):
        raise CheckError(f"figdata: wrote {present}, expected {sorted(FIGURE_FILES)}")
    n_time = int(job.expect["t_samples"])
    n_grid = int(job.expect["n"])

    data = read_csv(out / "fig1_trajectory.csv", "t,mean_q,mean_p", n_time)
    ref = moments(_figure_physics(3.0, 1.0), data[:, 0], q0=6.0, p0=4.0)
    _time_column(data[:, 0], 14.0 * np.arange(n_time) / (n_time - 1), "fig1_trajectory.csv")
    _close("fig1 mean_q", data[:, 1], ref["mean_q"], RTOL_EXACT)
    _close("fig1 mean_p", data[:, 2], ref["mean_p"], RTOL_EXACT)
    for delta in (1, 4):
        pts = read_csv(out / f"fig1_contour_delta{delta}.csv", "q,p", 257)
        s_qq, s_pq, s_pp = initial_covariance(float(delta), 0.0)
        dq, dp = pts[:, 0] - 6.0, pts[:, 1] - 4.0
        level = (s_pp * dq * dq - 2 * s_pq * dq * dp + s_qq * dp * dp) / (s_qq * s_pp - s_pq**2)
        _close(f"fig1 contour delta={delta}", level, np.full_like(level, 2.0), RTOL_EXACT)

    c_values = 1.0 + 5.0 * np.arange(51) / 50
    t_values = 20.0 * np.arange(n_time) / (n_time - 1)
    for which, column in (("2a", "delta_qd"), ("2b", "delta_cc")):
        data = read_csv(out / f"fig{which}.csv", f"C,t,{column}", 51 * n_time)
        _time_column(data[:, 1], np.tile(t_values, 51), f"fig{which}.csv")
        if not np.allclose(data[:, 0], np.repeat(c_values, n_time), rtol=1e-15, atol=0.0):
            raise CheckError(f"fig{which}.csv: C column differs from the figure's grid")
        for k, c in enumerate(c_values[::10]):
            block = data[10 * k * n_time:(10 * k + 1) * n_time]
            ref = moments(_figure_physics(float(c), 4.0), block[:, 1])
            if which == "2a":
                _close(f"fig2a C={c}", block[:, 2], 0.5 / np.sqrt(ref["sigma_det"]), RTOL_EXACT)
            else:
                _check_cc(f"fig2b C={c}", block[:, 2], ref["sigma_det"], ref["s_pq"])

    for which in ("3a", "3b", "3c"):
        geom, values = read_grid(out / f"fig{which}.csv")
        if (geom["n_q"], geom["n_p"]) != (n_grid, n_grid):
            raise CheckError(f"fig{which}.csv: {geom['n_q']}x{geom['n_p']} grid")
        trace = float(np.trace(values)) * geom["dq"]
        if not abs(trace - 1.0) <= RENDER_MASS_TOL:
            raise CheckError(f"fig{which}.csv: density-matrix trace {trace!r}")
    for which, (s_qq, s_pq, s_pp) in (
        ("4a", initial_covariance(4.0, 0.0)),
        ("4b", (1.5, 0.0, 1.5)),
    ):
        geom, values = read_grid(out / f"fig{which}.csv")
        ref = gaussian_grid(geom, 0.0, 0.0, s_qq, s_pq, s_pp)
        _close(f"fig{which}.csv", values, ref, RENDER_RTOL)
        mass = float(values.sum()) * geom["dq"] * geom["dp"]
        if not abs(mass - 1.0) <= RENDER_MASS_TOL:
            raise CheckError(f"fig{which}.csv: mass {mass!r}")
    return {}


def check_fpe(job: Job, out: Path, p: Physics) -> dict[str, float]:
    manifest_lines = _lines(out / "manifest.json")
    try:
        manifest = json.loads("\n".join(manifest_lines))
    except json.JSONDecodeError as exc:
        raise CheckError(f"manifest.json: not JSON ({exc})") from None
    keys = {"coefficients", "config", "files", "initial", "linf_drift_vs_initial", "run"}
    if not isinstance(manifest, dict) or set(manifest) != keys:
        raise CheckError("manifest.json: keys differ from the fpe contract")
    cfg = manifest["config"]
    if (cfg.get("lambda"), cfg.get("mu"), cfg.get("coth_C")) != (p.lam, p.mu, p.c):
        raise CheckError("manifest.json: config differs from the --config file")
    run = manifest["run"]
    n = int(job.expect["n"])
    if (run.get("n_q"), run.get("n_p")) != (n, n) or not run.get("steps", 0) > 0:
        raise CheckError("manifest.json: grid size or step count wrong")
    if "steps" in job.expect and run["steps"] != job.expect["steps"]:
        raise CheckError(f"manifest.json: {run['steps']} steps at fixed dt")

    geom, w0 = read_grid(out / manifest["files"]["initial"])
    stationary = bool(job.expect["stationary"])
    if stationary:
        ref0 = gaussian_grid(geom, 0.0, 0.0, p.c / 2.0, 0.0, p.c / 2.0)
    else:
        ref0 = gaussian_grid(geom, 0.0, 0.0, *initial_covariance(p.delta, p.r))
    _close("initial.csv", w0, ref0, RENDER_RTOL)
    cell = geom["dq"] * geom["dp"]
    _, final = read_grid(out / manifest["files"]["final"])
    for name, grid in (("initial", w0), ("final", final)):
        mass = float(grid.sum()) * cell
        if not abs(mass - 1.0) <= MASS_TOL:
            raise CheckError(f"{name}.csv: mass {mass!r} not within {MASS_TOL} of 1")
    if not abs(float(final.sum()) * cell - run["mass_final"]) <= 1e-9:
        raise CheckError("manifest.json: mass_final differs from final.csv")

    drift = float(np.abs(final - w0).max())
    if not abs(drift - manifest["linf_drift_vs_initial"]) <= 1e-9 * max(drift, 1e-300):
        raise CheckError("manifest.json: linf_drift_vs_initial differs from the grids")
    if stationary:
        if not drift <= STATIONARY_DRIFT_TOL:
            raise CheckError(f"stationary drift {drift:.3g} above {STATIONARY_DRIFT_TOL}")
        return {"stationary_drift": float(manifest["linf_drift_vs_initial"])}

    evolved = [(float(t), out / name) for t, name in manifest["files"]["snapshots"].items()]
    evolved.append((float(run["t_end"]), out / manifest["files"]["final"]))
    worst = 0.0
    for t, path in evolved:
        _, grid = read_grid(path)
        ref = moments(p, [t])
        exact = gaussian_grid(
            geom, 0.0, 0.0, *(float(ref[k][0]) for k in ("s_qq", "s_pq", "s_pp"))
        )
        worst = max(worst, math.sqrt(float(((grid - exact) ** 2).sum()) * cell))
    if not worst <= GRID_L2_TOL:
        raise CheckError(f"evolved grid L2 error {worst:.3g} above {GRID_L2_TOL}")
    return {"grid_l2_err": worst}


CHECKS = {
    "trajectory": check_trajectory,
    "metrics": check_metrics,
    "sweep": check_sweep,
    "window": check_window,
    "figdata": check_figdata,
    "fpe": check_fpe,
}


def check_job(job: Job, job_dir: Path, physics: Physics | None) -> dict[str, float]:
    """Run the job's check on what it wrote under ``job_dir``."""
    return CHECKS[job.kind](job, job_dir / job.out, physics)


def digest(job: Job, job_dir: Path) -> str:
    """SHA-256 over every output file of the job, names included, in order."""
    root = job_dir / job.out
    files = sorted(f for f in root.rglob("*") if f.is_file()) if root.is_dir() else [root]
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(job_dir)).encode() + b"\0")
        h.update(f.read_bytes() if f.is_file() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()

"""End-to-end command-line interface checks (driven through main()).

``CONTRACTS`` states the exit contract of every ``lindosc`` call once, one
row per call; the tests after it check what one row cannot, such as
agreement between calls or with the library.
"""

import fnmatch
import io
import itertools
import json
import math
import re
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_properties import PROFILE

from lindosc.classicality import (
    classicality_degrees,
    metrics_from_state,
    write_metrics_csv,
)
from lindosc.cli import main
from lindosc.csvout import write_csv
from lindosc.decoherence import decoherence_time, relaxation_time, statistical_time
from lindosc.model import (
    InitialStateSpec,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    thermal_coefficients,
)
from lindosc.propagate import (
    TRAJECTORY_HEADER,
    route_deviation,
    sigma_det_closed,
    sigma_pq_closed,
    time_grid,
    trajectory_closed,
    trajectory_lyapunov,
)
from lindosc.sweep import SweepAxis, SweepSpec, parse_sweep_axis, run_sweep

MODEL = "--lambda 0.2 --mu 0.1 --coth 3"
SQUEEZED = MODEL + " --delta-sq 4"
HUGE_DAMPING = "--lambda 1e308 --mu 0.1 --coth 3 --delta-sq 4"
HOT = "--lambda 0.2 --mu 0.1 --coth 1e300 --delta-sq 4"
HUGE_C = "--lambda 0.2 --mu 0.1 --coth 1e160 --delta-sq 4"
CANCELLING = MODEL + " --delta-sq 1e20 --t-end 2 --dt 0.5"
ROUTES = ("lyapunov", "closed", "rk4", "all")


# ---------------------------------------------------------------------------
# help surface: each call attaches the flags of its own subcommand only
# ---------------------------------------------------------------------------

MODEL_FLAGS = {
    "--config", "--m", "--omega", "--lambda", "--mu", "--hbar", "--coth",
    "--temp", "--delta-sq", "--corr-r", "--q0", "--p0", "--closed",
}
# the model group, last in the help of every subcommand that takes it, as
# `lindosc trajectory --help` prints it at 80 columns
MODEL_HELP = """\
  --config FILE         key=value config file
  --m M                 mass (default 1)
  --omega OMEGA         oscillator frequency (default 1)
  --lambda LAM          friction constant (default 0)
  --mu MU               friction asymmetry (default 0)
  --hbar HBAR           hbar (default 1)
  --coth COTH           thermal coth factor C (exclusive with --temp)
  --temp TEMP           bath temperature (exclusive with --coth)
  --delta-sq SPREAD     initial squeezing delta
  --corr-r CORR         initial correlation r
  --q0 Q0               initial mean coordinate
  --p0 P0               initial mean momentum
  --closed              closed system (forces lambda = mu = 0)
"""
# each subcommand's own flags, and whether it takes the model flags
COMMAND_FLAGS = {
    "coeffs": ({"--json", "--out"}, True),
    "validate": ({"--out"}, True),
    "trajectory": ({"--t-end", "--dt", "--route", "--out"}, True),
    "metrics": ({"--t-end", "--dt", "--out"}, True),
    "window": (
        {"--t-end", "--dt", "--qd-threshold", "--cc-threshold", "--out"}, True
    ),
    "deco": ({"--high-T", "--separation", "--json", "--out"}, True),
    "figdata": ({"--out-dir", "--n", "--t-samples"}, False),
    "sweep": ({"--axis", "--record", "--t", "--out"}, True),
    "fpe": (
        {"--grid-n", "--coverage", "--t-end", "--dt", "--snapshots",
         "--stationary", "--out-dir"},
        True,
    ),
    "selftest": (set(), False),
}


def _help_text(capsys, *argv: str) -> str:
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert stop.value.code == 0
    return capsys.readouterr().out


def test_top_level_help_lists_all_ten_subcommands(capsys):
    out = _help_text(capsys, "--help")
    assert "{" + ",".join(COMMAND_FLAGS) + "}" in out
    for command in COMMAND_FLAGS:
        assert re.search(rf"^    {command} ", out, re.MULTILINE), command


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_subcommand_help_names_its_flags(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal's width
    own, model = COMMAND_FLAGS[command]
    out = _help_text(capsys, command, "--help")
    assert out.startswith(f"usage: lindosc {command} ")
    flags = set(re.findall(r"(?<![\w-])--[\w-]+", out))
    assert flags == {"--help"} | own | (MODEL_FLAGS if model else set())
    # the help column is set by the widest flag of the whole parser
    group = out.partition("\n\nmodel parameters:\n")[2]
    assert re.sub(" {2,}", "  ", group) == (re.sub(" {2,}", "  ", MODEL_HELP) if model else "")


# ---------------------------------------------------------------------------
# the contract table: one row per call
# ---------------------------------------------------------------------------


class Run(NamedTuple):
    """What one call left: its stdout and stderr, and the path ``OUT``."""

    out: str
    err: str
    path: Path

    def text(self) -> str:
        """The file written at ``OUT``, or stdout where none was."""
        return self.path.read_text() if self.path.is_file() else self.out

    def lines(self) -> list[str]:
        return self.text().splitlines()

    def rows(self) -> list[list[str]]:
        return [line.split(",") for line in self.lines()[1:]]

    def column(self, name: str) -> list[str]:
        k = self.lines()[0].split(",").index(name)
        return [row[k] for row in self.rows()]

    def json(self):
        return json.loads(self.text())

    def file(self, name: str) -> str:
        return (self.path / name).read_text()


class Contract(NamedTuple):
    """One call of ``lindosc`` and what it must do.

    ``argv`` is split on whitespace; ``OUT`` in it is a fresh path for
    ``--out`` or ``--out-dir``. ``err`` is None where stderr stays empty,
    else the ``fnmatch`` pattern of its one line after ``lindosc: ``;
    such a call prints nothing on stdout. A call that exits nonzero writes
    nothing at ``OUT``. ``check``, if given, must hold of the :class:`Run`.
    """

    argv: str
    code: int = 0
    err: str | None = None
    check: Callable[[Run], bool] | None = None


def has(*parts: str) -> Callable[[Run], bool]:
    return lambda run: all(part in run.out for part in parts)


def report(*lines: str) -> Callable[[Run], bool]:
    return lambda run: run.out.splitlines() == list(lines)


TRAJECTORY_HEADER = "t,mean_q,mean_p,s_qq,s_pp,s_pq,sigma_det"
NEED_LAM = "thermal coefficients need lam > |mu| for positive diffusion; got lam={}, mu={}"
INFINITE_C = "thermal coefficients diverge at infinite temperature"
OVERFLOW_D = "thermal coefficients overflow: d_pp=inf, d_qq=inf"
_CLOSED = "pass  diffusion_positive: closed system, zero diffusion"
_WEAK = "FAIL  weak_coupling (advisory): lam=0.2 vs omega/10=0.1"
_NO_DAMPING = "pass  weak_coupling (advisory): lam=0 vs omega/10=0.1"
# "%.17g" of 0.3 and its multiples; the grid never passes t_end
TIMES_TO_0_3 = ["0", "0.10000000000000001", "0.20000000000000001", "0.29999999999999999"]
# sigma at lambda = 1e-3, C = 1e8, t = 1e-6, above the floor hbar^2/4: the
# C^2 terms that cancel at short times are not summed
SIGMA_HOT = "0.35999999868000004"
FIGURES = sorted(["fig1_trajectory.csv", "fig1_contour_delta1.csv", "fig1_contour_delta4.csv",
                  *(f"fig{name}.csv" for name in ("2a", "2b", "3a", "3b", "3c", "4a", "4b"))])
DECO_KEYS = ["m", "omega", "lambda", "mu", "hbar", "coth_C", "delta", "r", "rate", "t_deco",
             "t_d", "t_rel", "variant", "sigma_be", "sigma_heisenberg", "sigma_mb", "regime"]


def _deco_report(run: Run) -> bool:
    values = dict(line.split(" = ") for line in run.lines())
    return (
        [line.split(" = ")[0] for line in run.lines()] == DECO_KEYS
        and float(values["t_deco"]) == pytest.approx(0.15151515151515149)
        and float(values["t_rel"]) == pytest.approx(5.0)
        and (values["variant"], values["regime"]) == ("r0", "quantum-statistical")
    )


def _windows(run: Run) -> bool:
    payload = run.json()
    return (
        (payload["qd_threshold"], payload["cc_threshold"]) == (0.99, 10.0)
        and (payload["count"], payload["empty"]) == (3, False)
        and all(0.0 <= a < b <= payload["t_end"] for a, b in payload["windows"])
    )


def _fig1(run: Run) -> bool:
    lines = run.file("fig1_trajectory.csv").splitlines()
    return (
        lines[0] == "t,mean_q,mean_p" and len(lines) == 16
        and all((run.path / f"fig1_contour_delta{d}.csv").exists() for d in (1, 4))
    )


def _fig4b_peak(run: Run) -> bool:
    # odd grid size puts a cell center exactly at the origin
    lines = run.file("fig4b.csv").splitlines()[1:]
    peak = max(float(x) for line in lines for x in line.split(","))
    return peak == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-12)


def _single_axis(run: Run) -> bool:
    qd = [float(x) for x in run.column("delta_qd")]
    # more squeezing, more classical
    return run.lines()[0] == "delta,delta_qd,t_deco" and len(qd) == 4 and all(
        b < a for a, b in zip(qd, qd[1:])
    )


def _bath_points(run: Run) -> bool:
    # lam = 0 and lam = 0.1 give lam <= |mu|: no valid bath, so nan
    rows = run.rows()
    sigma, qd = (float(x) for x in rows[2][1:])
    return (
        [float(row[0]) for row in rows] == [0.0, 0.1, 0.2]
        and rows[0][1:] == rows[1][1:] == ["nan", "nan"]
        and sigma >= 0.25 and 0.0 < qd <= 1.0
    )


def _fpe_stationary_run(run: Run) -> bool:
    # file names carry the full-precision time stamp
    stamp = format(0.05, ".17g")
    manifest = json.loads(run.file("manifest.json"))
    return (
        "linf_drift_vs_initial = " in run.out
        and all((run.path / name).exists() for name in ("initial.csv", "final.csv"))
        and manifest["files"]["snapshots"] == {stamp: f"snapshot_{stamp}.csv"}
        and (run.path / f"snapshot_{stamp}.csv").exists()
        and manifest["config"]["lambda"] == 0.2
        and manifest["coefficients"]["d_pp"] == pytest.approx(0.45)
        and manifest["initial"]["stationary"] is True
        and manifest["run"]["steps"] > 0
        and manifest["linf_drift_vs_initial"] < 1e-3
    )


# each command that takes a time span, its output flag, and the check of
# its run at --t-end 0: one sample, or a grid run of no step
SPAN_COMMANDS = (
    ("trajectory", "--out OUT", lambda r: r.column("t") == ["0"]),
    ("metrics", "--out OUT", lambda r: r.column("t") == ["0"]),
    ("window", "--out OUT", lambda r: (r.json()["t_end"], r.json()["windows"]) == (0.0, [])),
    ("fpe", "--grid-n 64 --out-dir OUT",
     lambda r: json.loads(r.file("manifest.json"))["run"]["steps"] == 0),
)
BAD_SPANS = (
    *((t_end, "0.001", f"t-end must be finite and >= 0, got {float(t_end)!r}")
      for t_end in ("-1", "inf", "nan")),
    *(("1", dt, f"dt must be finite and > 0, got {float(dt)!r}") for dt in ("0", "-1", "nan")),
    ("1", "1e-320", "t-end / dt = 1.0 / 1e-320 is not a finite sample count"),
)

C = Contract
CONTRACTS = [
    C("frobnicate", 1, "argument command: invalid choice: 'frobnicate' *"),
    # -- coeffs
    C(f"coeffs {MODEL}", check=has("d_pp = 0.45", "d_qq = 0.15", "d_pq = 0")),
    C(f"coeffs --json {MODEL}",
      check=lambda r: (r.json()["d_pp"], r.json()["d_qq"]) == pytest.approx((0.45, 0.15))),
    C("coeffs --closed", check=has("d_pp = 0")),
    C("coeffs --config /nonexistent/osc.cfg", 3, "i/o failure: *"),
    C("coeffs --warp 9", 1, "unrecognized arguments: --warp 9"),
    C("coeffs --closed --lambda 0.2", 1, "--closed conflicts with nonzero --lambda/--mu"),
    C(f"coeffs {MODEL} --temp 2", 1, "temp.C and temp.T are mutually exclusive"),
    # -- validate: the report goes to stdout, exit 1 on a hard failure
    C(f"validate {MODEL}", check=report(
        "pass  diffusion_positive: d_pp=0.45, d_qq=0.15",
        "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = 0.27 vs lam^2 = 0.04", _WEAK)),
    C("validate --lambda 0.2 --mu 0.1 --coth 1.1", 1, None, report(
        "pass  diffusion_positive: d_pp=0.165, d_qq=0.055",
        "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = 0.0363 vs lam^2 = 0.04", _WEAK)),
    C("validate --lambda 0.05 --mu 0.1 --coth 3", 1, None, report(
        "FAIL  diffusion_positive: " + NEED_LAM.format("0.05", "0.1"),
        "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = -0.0675 vs lam^2 = 0.0025",
        "pass  weak_coupling (advisory): lam=0.05 vs omega/10=0.1")),
    C("validate --lambda 0.1 --mu 0.1 --coth 3", 1, None, report(
        "FAIL  diffusion_positive: " + NEED_LAM.format("0.1", "0.1"),
        "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = 0 vs lam^2 = 0.01",
        "FAIL  weak_coupling (advisory): lam=0.1 vs omega/10=0.1")),
    C("validate --lambda 0.2 --mu 0.1 --coth inf", 1, None, report(
        "FAIL  diffusion_positive: " + INFINITE_C,
        "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = inf vs lam^2 = 0.04", _WEAK)),
    # no flags: the closed system
    C("validate", check=report(
        _CLOSED, "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = 0 vs lam^2 = 0", _NO_DAMPING)),
    C("validate --closed", check=report(
        _CLOSED, "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = 0 vs lam^2 = 0", _NO_DAMPING)),
    C("validate --closed --coth inf", check=report(
        _CLOSED, "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = inf vs lam^2 = 0", _NO_DAMPING)),
    C("validate --lambda 0.2 --mu 0 --coth 1", check=report(
        "pass  diffusion_positive: d_pp=0.1, d_qq=0.1",
        "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = 0.04 vs lam^2 = 0.04", _WEAK)),
    C("validate --lambda 0.2 --mu -0.1 --temp 0", 1, None, report(
        "pass  diffusion_positive: d_pp=0.05, d_qq=0.15",
        "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = 0.03 vs lam^2 = 0.04", _WEAK)),
    # the bound fails at every finite C unless lam > |mu| or lam = mu = 0,
    # so also in the limit C = inf, and where (lam^2 - mu^2) C^2 overflows
    C("validate --lambda 0 --mu 0.1 --coth inf", 1, None, report(
        "FAIL  diffusion_positive: " + NEED_LAM.format("0.0", "0.1"),
        "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = -inf vs lam^2 = 0", _NO_DAMPING)),
    C("validate --lambda 0.2 --mu 0.2 --coth inf", 1, None, report(
        "FAIL  diffusion_positive: " + NEED_LAM.format("0.2", "0.2"),
        "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = inf vs lam^2 = 0.04", _WEAK)),
    C("validate --lambda 0.2 --mu 0.3 --coth 1e200", 1, None, report(
        "FAIL  diffusion_positive: " + NEED_LAM.format("0.2", "0.3"),
        "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = -inf vs lam^2 = 0.04", _WEAK)),
    # -- trajectory
    C(f"trajectory {SQUEEZED} --t-end 1 --dt 0.1 --out OUT",
      check=lambda r: r.lines()[0] == TRAJECTORY_HEADER and len(r.rows()) == 11
      and float(r.rows()[0][3]) == pytest.approx(2.0)),
    # no closed form for the variances; at lam = 1e308, -2 lam t at t = 0
    # must not form -inf * 0
    *(C(f"trajectory {model} --route closed --t-end 0.5 --dt 0.1 --out OUT",
        check=lambda r: [r.rows()[0][k] for k in (3, 4, 6)] == ["nan", "nan", "0.25"])
      for model in (SQUEEZED, HUGE_DAMPING)),
    C(f"trajectory {SQUEEZED} --route all --t-end 2 --dt 0.1 --out OUT",
      check=lambda r: r.lines()[0].endswith(",max_route_dev")
      and max(float(x) for x in r.column("max_route_dev")) < 1e-6),
    # the closed system at C = inf: sigma = hbar^2/4 on the closed-form route
    C("trajectory --closed --coth inf --delta-sq 4 --route closed --t-end 10 --out OUT",
      check=lambda r: set(r.column("sigma_det")) == {"0.25"}),
    *(C(f"trajectory {SQUEEZED} --route {route} --t-end 0.3 --dt 0.1 --out OUT",
        check=lambda r: r.column("t") == TIMES_TO_0_3) for route in ROUTES),
    *(C(f"trajectory {SQUEEZED} --route {route} --t-end 0 --out OUT",
        check=lambda r: len(r.rows()) == 1) for route in ROUTES[:3]),
    C(f"trajectory {SQUEEZED} --route all --t-end 0 --out OUT",
      check=lambda r: [float(x) for x in r.column("max_route_dev")] == [0.0]),
    # 1.0000000005 lies 5e-10 past 10 * 0.1: the time grid ends on an extra
    # sample at t_end, and the routes that step by dt refuse it as invalid
    # input (exit 1), not as a numeric failure
    C(f"trajectory {SQUEEZED} --t-end 1.0000000005 --dt 0.1 --out OUT",
      check=lambda r: r.column("t")[-3:] == ["0.90000000000000002", "1", "1.0000000005"]),
    C(f"trajectory {SQUEEZED} --t-end 1.0000000005 --dt 0.1 --route rk4 --out OUT", 1,
      "t_end must be an integer multiple of dt"),
    C(f"trajectory {SQUEEZED} --t-end 1.0000000005 --dt 0.1 --route all --out OUT", 1,
      "route=all needs t-end to be an integer multiple of dt"),
    # the RK4 substep 0.002 divides 2.05, so only the route's own guard
    # keeps this invalid input rather than a grid mismatch
    C(f"trajectory {SQUEEZED} --route all --t-end 2.05 --dt 0.1 --out OUT", 1,
      "route=all needs t-end to be an integer multiple of dt"),
    C(f"trajectory --t-end inf --dt 0.1 {SQUEEZED} --out OUT", 1, "*t-end must be finite*"),
    C(f"trajectory --route rk4 --t-end inf --dt 0.1 {SQUEEZED} --out OUT", 1,
      "*t-end must be finite*"),
    C(f"trajectory --route closed --t-end 1 --dt 1e-320 {SQUEEZED} --out OUT", 1,
      "t-end / dt = 1.0 / 1e-320 is not a finite sample count"),
    C(f"trajectory --t-end 1 --dt nan {SQUEEZED} --out OUT", 1, "*dt must be finite*"),
    # 1e15 samples: NumPy refuses the 7 PiB time grid before touching memory
    *(C(f"{command} {MODEL} --t-end 1e15 --dt 1 --out OUT", 1, "out of memory: *")
      for command in ("trajectory", "metrics", "window")),
    C(f"trajectory {MODEL} --corr-r 1", 1, "correlation must be in (-1, 1), got 1.0"),
    C(f"trajectory {MODEL} --delta-sq 0", 1, "spread must be finite and > 0, got 0.0"),
    # RK4 at an unstable step
    C(f"trajectory {MODEL} --route rk4 --dt 50 --t-end 5000 --out OUT", 2, "numeric failure: *"),
    C(f"trajectory --route rk4 {SQUEEZED} --t-end 40 --dt 4", 2, "numeric failure: *"),
    # moments that overflow at lam = 1e308
    *(C(f"{command} {HUGE_DAMPING} --t-end 0.2 --dt 0.1 --out OUT", 2, "numeric failure: *")
      for command in ("trajectory --route lyapunov", "trajectory --route all",
                      "trajectory --route rk4", "metrics")),
    # samples that are no Gaussian state: sigma cancels to <= 0 at t = 0.5
    *(C(f"{command} {CANCELLING}", 2, "numeric failure: *")
      for command in ("trajectory", "trajectory --route lyapunov", "trajectory --route all",
                      "trajectory --route rk4", "metrics")),
    # s_qq s_pp and s_pq^2 both overflow, so sigma is nan
    C(f"metrics {MODEL} --delta-sq 1e300 --t-end 0.2 --dt 0.1", 2, "numeric failure: *"),
    *(C(f"trajectory --route {route} {HOT} --t-end 0.2 --dt 0.1", 2, "numeric failure: *")
      for route in ("lyapunov", "rk4", "all")),
    # C^2 overflows, so the closed-form sigma is inf from t = 0.5 on
    C(f"trajectory --route closed {HUGE_C} --t-end 1 --dt 0.5", 2, "numeric failure: *"),
    # -- metrics
    C(f"metrics {SQUEEZED} --t-end 1 --dt 0.5 --out OUT",
      # r = 0 start: no correlations yet, so delta_cc is infinite at t = 0
      check=lambda r: r.lines()[0] == "t,delta_qd,delta_cc,gamma,sigma_det,sigma_pq"
      and r.rows()[0][2] == "inf" and float(r.rows()[0][1]) == pytest.approx(1.0)),
    C(f"metrics --t-end 1e308 --dt 1e-10 {SQUEEZED} --out OUT", 1,
      "*not a finite sample count*"),
    # -- window, metrics and deco: lam <= |mu| is no Lindblad generator
    *(C(f"{command} --lambda {lam} --mu 0.1 --coth 3", 1, NEED_LAM.format(float(lam), "0.1"))
      for command in ("window --t-end 5", "metrics --t-end 5", "deco") for lam in ("0", "0.05")),
    *(C(f"{command} {bath} --delta-sq 4", 1, message)
      for command in ("deco", "window")
      for bath, message in (("--lambda 0.1 --mu 0.2 --coth 3", NEED_LAM.format("0.1", "0.2")),
                            ("--lambda 0.2 --mu 0.1 --coth inf", INFINITE_C))),
    # -- window
    C("window --closed --t-end 20 --dt 0.01",
      check=lambda r: (r.json()["empty"], r.json()["count"], r.json()["windows"]) == (True, 0, [])),
    C(f"window {SQUEEZED} --t-end 5 --dt 0.01", check=_windows),
    C(f"window {SQUEEZED} --t-end 20 --dt 0.01", check=_windows),
    # a window shorter than dt can be missed
    C(f"window {SQUEEZED} --t-end 20 --qd-threshold 0.99 --cc-threshold 1.491943 --dt 0.01",
      check=lambda r: [[round(x, 5) for x in w] for w in r.json()["windows"]]
      == [[0.55837, 0.59089]]),
    C(f"window {SQUEEZED} --t-end 20 --qd-threshold 0.99 --cc-threshold 1.491943 --dt 0.1",
      check=lambda r: r.json()["windows"] == []),
    C(f"window {SQUEEZED} --t-end 5 --qd-threshold nan", 1,
      "qd threshold must be finite and > 0, got nan"),
    C(f"window {SQUEEZED} --t-end 5 --cc-threshold -1", 1,
      "cc threshold must be finite and > 0, got -1.0"),
    C(f"window --t-end nan --dt 0.01 {SQUEEZED} --out OUT", 1, "*t-end must be finite*"),
    # -- deco
    C(f"deco {SQUEEZED}", check=_deco_report),
    C(f"deco {SQUEEZED} --high-T", check=has("variant = high_T_r0")),
    C("deco --lambda 0.2 --coth 3 --separation 1 --json",
      check=lambda r: r.json()["rate_ratio"] == pytest.approx(1.5)
      and r.json()["separation"] == 1.0),
    *(C(f"deco --lambda 0.2 --coth 3 --separation={value} --json", 1,
        f"separation must be finite, got {value}") for value in ("nan", "inf", "-inf")),
    # hbar omega/(2kT) rounds to 0 at T = 1e308, so C = inf as with --coth inf
    *(C(f"deco --lambda 0.2 --mu 0.1 --delta-sq 4 {temp}", 1, INFINITE_C)
      for temp in ("--coth inf", "--temp 1e308")),
    # sigma_be and sigma_mb underflow to 0 or overflow to inf; their ratio
    # (epsilon C)^2 = 1.08 does not depend on hbar
    *(C(f"deco {SQUEEZED} --hbar {hbar}", check=lambda r: "regime = quantum-statistical"
        in r.lines()) for hbar in ("1e-308", "1e308")),
    # a relaxation time that overflows is inf; a rate that overflows fails
    C("deco --lambda 1e-310 --mu 0 --coth 3 --delta-sq 4", check=has("t_rel = inf")),
    C(f"deco {HUGE_DAMPING}", 2, "numeric failure: *"),
    # C is finite but d_pp = d_qq = 2e308 overflow: the bath rule fails
    # (at mu = 0.1, C = 3 above, d_pp = 1.5e308 is finite)
    C("deco --lambda 1e308 --mu 0 --coth 4", 1, OVERFLOW_D),
    C("validate --lambda 1e308 --mu 0 --coth 4", 1, None, report(
        "FAIL  diffusion_positive: " + OVERFLOW_D,
        "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = inf vs lam^2 = inf",
        "FAIL  weak_coupling (advisory): lam=1e+308 vs omega/10=0.1")),
    # -- figdata
    C("figdata 1 --out-dir OUT --t-samples 15", check=_fig1),
    C("figdata 2a --out-dir OUT --t-samples 3",
      check=lambda r: r.file("fig2a.csv").splitlines()[0] == "C,t,delta_qd"
      and len(r.file("fig2a.csv").splitlines()) == 1 + 51 * 3),
    C("figdata 4b --out-dir OUT --n 41", check=_fig4b_peak),
    # every figure, the grids drawn from the initial and the long-time state among them
    C("figdata all --out-dir OUT --n 41 --t-samples 5",
      check=lambda r: sorted(p.name for p in r.path.iterdir()) == FIGURES
      == sorted(Path(line).name for line in r.lines())),
    C("figdata 3a --out-dir OUT --n 2", 1, "n must be >= 3"),
    # -- sweep
    C(f"sweep {MODEL} --axis delta:1:8:4 --record delta_qd,t_deco --t 0.5 --out OUT",
      check=_single_axis),
    # row-major, the first axis varying slowest
    C(f"sweep {MODEL} --axis delta:1:4:3 --axis C:1.5:6:2 --record sigma_det --t 1 --out OUT",
      check=lambda r: r.lines()[0] == "delta,C,sigma_det" and len(r.rows()) == 6
      and r.column("delta") == sorted(r.column("delta"), key=float)),
    # mu = 1.25 >= omega: not underdamped
    C("sweep --lambda 0.3 --coth 3 --axis mu:0.25:1.25:2 --record sigma_det --t 1 --out OUT",
      check=lambda r: r.column("sigma_det")[0] != "nan" and r.column("sigma_det")[1] == "nan"),
    C("sweep --mu 0.1 --coth 3 --delta-sq 4 --axis lambda:0:0.2:3 --record sigma_det,delta_qd"
      " --t 5 --out OUT", check=_bath_points),
    # |r| = 1 is outside the range of the correlation
    C(f"sweep {MODEL} --axis r:-1:1:3 --t 1 --record delta_qd",
      check=lambda r: r.column("delta_qd")[::2] == ["nan", "nan"]
      and math.isfinite(float(r.column("delta_qd")[1]))),
    # the C and the t axis take the one evaluation path
    C("sweep --lambda 1e-3 --coth 1e8 --axis C:1e8:1e8:1 --t 1e-6 --record sigma_det",
      check=lambda r: r.column("sigma_det") == [SIGMA_HOT]),
    C("sweep --lambda 1e-3 --coth 1e8 --axis t:1e-6:1e-6:1 --record sigma_det",
      check=lambda r: r.column("sigma_det") == [SIGMA_HOT]),
    # the phase Omega t is still finite at t = 1e308, so the closed system
    # keeps sigma = hbar^2/4
    C("sweep --lambda 0 --mu 0 --coth 3 --delta-sq 4 --axis C:3:3:1 --t 1e308 --record sigma_det",
      check=lambda r: r.column("sigma_det") == ["0.25"]),
    C("sweep --mu 0 --coth 3 --axis lambda:0:1e-320:3 --record t_rel,t_deco",
      check=lambda r: r.column("t_rel") == ["inf"] * 3),
    # a rate that overflows records nan in its time, not 0
    C(f"sweep {SQUEEZED} --axis lambda:1e308:1e308:1 --record t_deco,t_d --out OUT",
      check=lambda r: r.lines()[1] == "1e+308,nan,nan"),
    # where the coefficients overflow the point breaks the bath rule: nan in
    # every record
    C("sweep --mu 0 --coth 4 --axis lambda:1e307:1e308:2 --t 1 --record delta_qd,t_deco",
      check=lambda r: r.lines()[2] == "1e+308,nan,nan"),
    *(C(f"sweep {MODEL} --axis t:0:{bound}:3 --record delta_qd,t_deco --out OUT", 1,
        "axis 't': bounds and values must be finite") for bound in ("nan", "inf")),
    C(f"sweep {MODEL} --axis C:2:nan:2 --record delta_qd,t_deco --out OUT", 1,
      "axis 'C': bounds and values must be finite"),
    *(C(f"sweep {MODEL} --axis C:2:3:2 --t {t} --record delta_qd,t_deco --out OUT", 1,
        f"t must be finite, got {t}") for t in ("nan", "inf")),
    C(f"sweep {MODEL} --axis delta:1:2:2 --axis C:2:3:2 --axis r:0:0.5:2 --record delta_qd",
      1, "sweeps take one or two axes"),
    C(f"sweep {MODEL} --axis delta:1:2:2 --record bogus", 1, "unknown record 'bogus'; *"),
    # -- fpe
    C(f"fpe {MODEL} --stationary --grid-n 64 --t-end 0.1 --snapshots 0.05 --out-dir OUT",
      check=_fpe_stationary_run),
    C(f"fpe {SQUEEZED} --grid-n 128 --t-end 1 --dt 0.0053 --out-dir OUT", 1,
      "dt=0.0053 exceeds the stable step 0.00126523 of this grid"),
    # at C = 1e300 the box covers the long-time state, about 1e150 wide, so
    # the initial Gaussian would fall between the cell centres
    C(f"fpe {HOT} --grid-n 16 --t-end 0.1 --out-dir OUT", 1,
      "grid cell 5.3033e+149 x 5.3033e+149 too coarse for the initial state's standard"
      " deviations 1.41421 x 0.353553 (--grid-n): its cell sum may miss 24 by aliasing,"
      " more than 0 outside the box, 24 in all, over 0.001"),
    # n cells over +/- 6 standard deviations are 12/n of them wide: 3, 2 and
    # 12/7 miss the mass by 50 %, 2.9 % and 0.48 %, 1.5 by 0.062 %
    *(C(f"fpe {MODEL} --stationary --grid-n {n} --t-end 0.1 --out-dir OUT", 1,
        f"grid cell {cell} x {cell} too coarse for the initial state's standard deviations"
        f" 1.22474 x 1.22474 (--grid-n): its cell sum may miss {alias} by aliasing, more than"
        f" {tail} outside the box, {total} in all, over 0.001")
      for n, cell, alias, tail, total in (
          (4, "3.67423", "0.496752", "4.93737e-09", "0.496752"),
          (6, "2.44949", "0.0289744", "4.00353e-09", "0.0289744"),
          (7, "2.09956", "0.00484741", "3.95592e-09", "0.00484742"))),
    C(f"fpe {MODEL} --stationary --grid-n 8 --t-end 0.1 --out-dir OUT",
      check=lambda r: json.loads(r.file("manifest.json"))["run"]["steps"] > 0),
    # correlation r = 0.6 puts the largest alias on the diagonal (k, l) =
    # (1, -1): 0.14 % at n = 13, against 0.090 % along the two axes
    C(f"fpe {MODEL} --corr-r 0.6 --grid-n 13 --t-end 0.1 --out-dir OUT", 1,
      "grid cell 1.13053 x 1.13053 too coarse for the initial state's standard deviations"
      " 0.707107 x 0.883883 (--grid-n): its cell sum may miss 0.00144416 by aliasing, more"
      " than 9.39835e-17 outside the box, 0.00144416 in all, over 0.001"),
    C(f"fpe {MODEL} --corr-r 0.6 --grid-n 14 --t-end 0.1 --out-dir OUT",
      check=lambda r: json.loads(r.file("manifest.json"))["run"]["steps"] > 0),
    # at r = 0.99 the largest alias lies far off the axes, at (k, l) = (-5, 1):
    # found only in a reduced basis of the lattice
    C(f"fpe {MODEL} --delta-sq 0.1 --corr-r 0.99 --grid-n 44 --t-end 0.1 --out-dir OUT", 1,
      "grid cell 0.334021 x 4.32302 too coarse for the initial state's standard deviations"
      " 0.223607 x 15.8511 (--grid-n): its cell sum may miss 0.00291814 by aliasing, more"
      " than 2.24756e-08 outside the box, 0.00291816 in all, over 0.001"),
    C(f"fpe {MODEL} --stationary --grid-n 16 --t-end 1e308 --out-dir OUT", 1,
      "t-end / dt = 1e+308 / * is not a finite sample count"),
    *(C(f"fpe {MODEL} --grid-n 64 --t-end 0.1 --coverage {coverage} --out-dir OUT", 1,
        "grid range *") for coverage in ("inf", "1e308")),
    # a box a few subnormals wide has cells of zero width
    C(f"fpe {MODEL} --stationary --grid-n 64 --t-end 0.1 --coverage 4.94066e-324"
      " --out-dir OUT", 1, "grid range *cell widths > 0"),
    *(C(f"fpe {MODEL} --grid-n 64 --t-end 0.1 --coverage {coverage} --out-dir OUT", 1,
        f"--coverage must be positive, got {coverage}") for coverage in ("0", "-1", "nan")),
    # a box too narrow for the initial state is named before anything is
    # rendered: 2 erfc(c/sqrt(2)) > 1e-3 below c = 3.481 on the stationary box
    *(C(f"fpe {MODEL} --stationary --grid-n 64 --t-end 0.1 --coverage {coverage}"
        " --out-dir OUT", 1, "box too narrow for the initial state (--coverage): its cell"
        f" sum may miss {tail} outside the box, more than 0 by aliasing, {tail} in all, over"
        " 0.001")
      for coverage, tail in (("1e-308", "2"), ("0.5", "1.23415"),
                             ("2", "0.0910005"), ("3.48", "0.00100283"))),
    C(f"fpe {MODEL} --stationary --grid-n 64 --t-end 0.1 --coverage 3.49 --out-dir OUT",
      check=lambda r: json.loads(r.file("manifest.json"))["run"]["steps"] > 0),
    # the squeezed state's box also covers the wider long-time state
    C(f"fpe {MODEL} --grid-n 64 --t-end 0.1 --coverage 2 --out-dir OUT", 1,
      "box too narrow for the initial state (--coverage): its cell sum may miss 0.00106401"
      " outside the box, more than 0 by aliasing, 0.00106401 in all, over 0.001"),
    # cells 1e299 wide are named before the stationary state is rendered on them
    C(f"fpe {MODEL} --stationary --grid-n 16 --t-end 0.1 --coverage 1e300 --out-dir OUT", 1,
      "grid cell 1.53093e+299 x 1.53093e+299 too coarse *"),
    # the box and the cells each lose less than 1e-3 here, but together more:
    # both figures are named, and the larger is blamed
    C(f"fpe {SQUEEZED} --grid-n 16 --coverage 3.7 --t-end 0.001 --out-dir OUT", 1,
      "grid cell 0.654074 x 0.566445 too coarse for the initial state's standard deviations"
      " 1.41421 x 0.353553 (--grid-n): its cell sum may miss 0.000914778 by aliasing, more"
      " than 0.000215797 outside the box, 0.00113057 in all, over 0.001"),
    C(f"fpe {SQUEEZED} --grid-n 16 --coverage 3.3 --t-end 0.001 --out-dir OUT", 1,
      "box too narrow for the initial state (--coverage): its cell sum may miss 0.000966971"
      " outside the box, more than 0.000126654 by aliasing, 0.00109362 in all, over 0.001"),
    C(f"fpe {MODEL} --delta-sq 0.25 --grid-n 16 --coverage 3.7 --t-end 0.001 --out-dir OUT", 1,
      "grid cell 0.566445 x 0.654074 too coarse for the initial state's standard deviations"
      " 0.353553 x 1.41421 (--grid-n): its cell sum may miss 0.000914778 by aliasing, more"
      " than 0.000215797 outside the box, 0.00113057 in all, over 0.001"),
    C(f"fpe {SQUEEZED} --q0 2 --grid-n 16 --coverage 3.7 --t-end 0.001 --out-dir OUT", 1,
      "grid cell 0.735259 x 0.566445 too coarse for the initial state's standard deviations"
      " 1.41421 x 0.353553 (--grid-n): its cell sum may miss 0.000914778 by aliasing, more"
      " than 0.000109833 outside the box, 0.00102461 in all, over 0.001"),
    # a narrow ridge crossing the box edge between cells: the cells outside
    # hold 1.38e-3 of the mass, where the two marginals hold 9.7e-4 outside
    C(f"fpe {MODEL} --delta-sq 0.1 --corr-r 0.99 --grid-n 48 --coverage 3.3 --t-end 0.001"
      " --out-dir OUT", 1, "box too narrow for the initial state (--coverage): its cell sum"
      " may miss 0.00290283 outside the box, more than 3.82425e-12 by aliasing, 0.00290283"
      " in all, over 0.001"),
    *(C(f"fpe {MODEL} --stationary --grid-n 64 --t-end 0.1 --snapshots {times} --out-dir OUT",
        1, f"--snapshots entry {entry} is not a number")
      for times, entry in (("0.05,", "''"), ("0.05,x", "'x'"))),
    # -- one time-span rule: every command that takes --t-end/--dt admits the
    # same spans and names a bad one with the same line
    *(C(f"{command} {SQUEEZED} --t-end 0 --dt 0.001 {out}", check=check)
      for command, out, check in SPAN_COMMANDS),
    *(C(f"{command} {SQUEEZED} --t-end {t_end} --dt {dt} {out}", 1, message)
      for command, out, _ in SPAN_COMMANDS for t_end, dt, message in BAD_SPANS),
    # -- selftest: the ten acceptance criteria
    C("selftest", check=lambda r: r.lines()[10:] == ["10/10 criteria passed"]
      and all(line.startswith("PASS  ") for line in r.lines()[:10])),
    C("selftest --warp 9", 1, "unrecognized arguments: --warp 9"),
]


@pytest.mark.parametrize("row", CONTRACTS, ids=[row.argv for row in CONTRACTS])
def test_contract(tmp_path, capsys, row):
    path = tmp_path / "out"
    argv = [str(path) if word == "OUT" else word for word in row.argv.split()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == row.code
    out, err = capsys.readouterr()
    if row.err is None:
        assert err == ""
    else:
        assert err.count("\n") == 1
        assert fnmatch.fnmatchcase(err, f"lindosc: {row.err}\n"), err
        assert out == ""
    if row.code:
        assert not path.exists()
    assert row.check is None or row.check(Run(out, err, path))


def test_contract_table_covers_every_command_and_exit_code():
    calls = {(row.argv.split()[0], row.code) for row in CONTRACTS}
    for command in COMMAND_FLAGS:
        assert {(command, 0), (command, 1)} <= calls, command
    assert {2, 3} <= {code for _, code in calls}
    for row in CONTRACTS:
        # exit 0 writes nothing on stderr and every failure one line, save the
        # FAIL report of validate (exit 1, on stdout)
        if row.code == 0:
            assert row.err is None, row.argv
        elif not (row.argv.startswith("validate") and row.code == 1):
            assert row.err is not None, row.argv


def test_every_example_of_the_readme_contracts_is_a_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Output contracts", 1)[1].split("\n## ", 1)[0]
    calls = [f" {row.argv} " for row in CONTRACTS]
    for span in re.findall(r"`([^`]+)`", section):
        words = span.split()
        if len(words) < 2 or not (words[0].startswith("--") or words[0] in COMMAND_FLAGS):
            continue
        # a leading subcommand must start the row, and the flags follow it in order
        command = words.pop(0) if words[0] in COMMAND_FLAGS else ""
        flags = f" {' '.join(words)} "
        assert any(call.startswith(f" {command}") and flags in call for call in calls), span


@pytest.mark.parametrize(
    "argv",
    [
        *(f"trajectory {SQUEEZED} --route {route} --t-end 200 --dt 0.01" for route in ROUTES),
        f"metrics {SQUEEZED} --t-end 200 --dt 0.01",
        f"sweep {SQUEEZED} --axis delta:1:8:60 --axis C:1:10:40 --record delta_qd,sigma_det,t_d",
    ],
)
def test_stdout_and_out_file_are_the_same_bytes(tmp_path, capsysbinary, argv):
    # 20,001 rows span several formatting passes; on the closed route four
    # of the seven columns are constant
    out = tmp_path / "out.csv"
    assert main(argv.split()) == 0
    stdout = capsysbinary.readouterr().out
    assert main([*argv.split(), "--out", str(out)]) == 0
    assert out.read_bytes() == stdout


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def test_closed_forms_of_the_closed_system_at_infinite_temperature(tmp_path):
    # without a bath C enters no term, so the closed forms at C = inf write
    # what they write at any finite C: sigma = hbar^2/4 and the exact s_pq
    def run(coth, *argv):
        out = tmp_path / f"{argv[0]}-{coth}.csv"
        common = ["--closed", "--delta-sq", "4", "--corr-r", "0.3", "--coth", coth]
        assert main([*argv, *common, "--out", str(out)]) == 0
        return out.read_text()

    trajectory = ["trajectory", "--t-end", "2", "--dt", "0.25"]
    closed = run("inf", *trajectory, "--route", "closed")
    assert closed == run("3", *trajectory, "--route", "closed")
    lyapunov = run("inf", *trajectory, "--route", "lyapunov")
    for got, exact in zip(closed.splitlines()[1:], lyapunov.splitlines()[1:]):
        got, exact = got.split(","), exact.split(",")
        assert got[6] == "0.25"
        assert float(got[5]) == pytest.approx(float(exact[5]), rel=1e-14, abs=1e-15)
    sweep = ["sweep", "--axis", "t:0:2:5", "--record", "sigma_det,delta_qd"]
    assert run("inf", *sweep) == run("3", *sweep)
    assert "nan" not in run("inf", *sweep)


def test_closed_system_up_to_the_largest_finite_temperature(tmp_path):
    # C^2 overflows above about 1.3e154 and 2C above about 9e307; the closed
    # system still writes the values of every smaller C
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--closed", "--delta-sq", "4", "--axis", "C:1:1e308:3", "--t", "1"]
    assert main([*argv, "--record", "sigma_det,sigma_pq,delta_qd", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["1", "5.0000000000000001e+307", "1e+308"]
    assert {tuple(row[1:]) for row in rows} == {("0.25", rows[0][2], "1")}

    def trajectory(coth):
        out = tmp_path / f"trajectory-{coth}.csv"
        argv = ["trajectory", "--closed", "--delta-sq", "4", "--coth", coth, "--route", "closed"]
        assert main([*argv, "--t-end", "2", "--dt", "0.25", "--out", str(out)]) == 0
        return out.read_text()

    assert trajectory("1e200") == trajectory("3")


def test_trajectory_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["trajectory", *SQUEEZED.split(), "--t-end", "3", "--dt", "0.05"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("route", ["closed", "all"])
def test_trajectory_writes_the_library_table_unchanged(tmp_path, route):
    # the handler adds nothing to the table of trajectory_closed or route_deviation
    spec = InitialStateSpec(spread=4.0, correlation=0.3)
    cfg = OscillatorConfig(lam=0.2, mu=0.1, temp=TemperatureSpec.from_coth(3.0))
    out, lib = tmp_path / "cli.csv", tmp_path / "lib.csv"
    argv = ["trajectory", *MODEL.split(), "--delta-sq", "4", "--corr-r", "0.3"]
    assert main([*argv, "--route", route, "--t-end", "3", "--dt", "0.05", "--out", str(out)]) == 0
    if route == "closed":
        write_csv(lib, TRAJECTORY_HEADER, trajectory_closed(spec, cfg, time_grid(3.0, 0.05)))
    else:
        header = TRAJECTORY_HEADER + ",max_route_dev"
        write_csv(lib, header, route_deviation(spec, cfg, 3.0, 0.05))
    assert out.read_bytes() == lib.read_bytes()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_columns_match_per_state_metrics(tmp_path):
    # the command's column arithmetic against metrics_from_state, row by row
    out = tmp_path / "metrics.csv"
    argv = ["metrics", *SQUEEZED.split(), "--t-end", "30", "--dt", "0.05"]
    assert main(argv + ["--out", str(out)]) == 0
    cfg = OscillatorConfig.reference(3.0)
    state0 = initial_state(InitialStateSpec(spread=4.0, correlation=0.0), cfg)
    d = thermal_coefficients(cfg)
    traj = trajectory_lyapunov(state0, cfg, d, time_grid(30.0, 0.05))
    want = io.StringIO()
    write_metrics_csv([metrics_from_state(s, cfg.hbar) for s in traj], want)
    assert out.read_text() == want.getvalue()


NEAR_CRITICAL = ["--omega", "1", "--lambda", "1", "--mu", "0.999999999", "--coth", "3",
                 "--delta-sq", "4", "--corr-r", "0.5"]


def test_near_critical_bath_agrees_between_commands(tmp_path):
    # Omega = sqrt(omega^2 - mu^2) ~ 4.5e-5: metrics (exact route) and sweep
    # (closed forms) report the same delta_cc and a positive s_pq at t = 10,
    # and the three trajectory routes agree to 1e-10
    metrics, sweep, routes = (tmp_path / f for f in ("m.csv", "s.csv", "all.csv"))
    assert main(["metrics", *NEAR_CRITICAL, "--t-end", "10", "--out", str(metrics)]) == 0
    assert main(["sweep", *NEAR_CRITICAL, "--axis", "C:3:3:1", "--t", "10",
                 "--record", "delta_cc,sigma_pq", "--out", str(sweep)]) == 0
    assert main(["trajectory", *NEAR_CRITICAL, "--route", "all", "--t-end", "10",
                 "--out", str(routes)]) == 0
    last = [float(x) for x in metrics.read_text().splitlines()[-1].split(",")]
    assert last[0] == 10.0
    delta_cc, s_pq = (float(x) for x in sweep.read_text().splitlines()[1].split(",")[1:])
    assert last[2] == pytest.approx(delta_cc, rel=1e-6)
    assert last[5] == pytest.approx(s_pq, rel=1e-6)
    assert s_pq > 0.0 and last[5] > 0.0
    rows = routes.read_text().splitlines()[1:]
    assert max(float(line.split(",")[-1]) for line in rows) <= 1e-10


# ---------------------------------------------------------------------------
# deco
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("extra", [[], ["--corr-r", "0.5", "--high-T"]])
def test_deco_closed_system_at_infinite_temperature(capsys, extra):
    # without a bath C enters no time scale, so C = inf reads as any finite C
    argv = ["deco", "--closed", "--delta-sq", "4", *extra]
    assert main([*argv, "--coth", "3"]) == 0
    finite = capsys.readouterr().out.splitlines()
    assert main([*argv, "--coth", "inf"]) == 0
    out = capsys.readouterr().out.splitlines()
    changed = {"coth_C", "sigma_be", "sigma_mb", "regime"}
    assert [line for line in out if line.split(" = ")[0] not in changed] == [
        line for line in finite if line.split(" = ")[0] not in changed
    ]
    assert "t_deco = inf" in out and "t_d = inf" in out and "t_rel = inf" in out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_parse_sweep_axis():
    axis = parse_sweep_axis("delta:1:8:4")
    assert axis.name == "delta" and axis.count == 4 and not axis.log
    axis = parse_sweep_axis("C:1.5:100:7:log")
    assert axis.log
    with pytest.raises(ValueError):
        parse_sweep_axis("delta:1:8")
    with pytest.raises(ValueError):
        parse_sweep_axis("speed:1:8:4")
    with pytest.raises(ValueError):
        parse_sweep_axis("delta:1:8:0")
    # non-finite bounds, or a spacing that overflows to inf or nan values
    for text in ("t:0:nan:3", "t:0:inf:3", "C:2:nan:2", "C:-inf:2:2", "C:2:nan:1",
                 "t:-1e308:1e308:3", "C:1e-300:1e300:3:log"):
        with pytest.raises(ValueError):
            parse_sweep_axis(text)
    # a single-point axis is legal: it pins one parameter
    assert parse_sweep_axis("delta:2:2:1").values() == [2.0]



SWEEP_RECORDS = "delta_qd,delta_cc,sigma_det,sigma_pq,t_deco,t_d,t_rel"


def _pointwise(lam, mu, coth, spread, corr, t):
    """``(cfg, spec, values)`` of one sweep point, every record evaluated by
    its own scalar call (``None`` for an invalid point): the reference for
    ``run_sweep``."""
    try:
        cfg = OscillatorConfig(lam=lam, mu=mu, temp=TemperatureSpec.from_coth(coth))
        spec = InitialStateSpec(spread=spread, correlation=corr)
        sigma = sigma_det_closed(spec, cfg, float(t))
        s_pq = sigma_pq_closed(spec, cfg, float(t))
    except ValueError:
        return None
    qd, cc = classicality_degrees(sigma, s_pq, cfg.hbar)
    values = [
        qd, cc, sigma, s_pq,
        decoherence_time(spec, cfg), statistical_time(spec, cfg), relaxation_time(cfg),
    ]
    return cfg, spec, dict(zip(SWEEP_RECORDS.split(","), values))


@pytest.mark.parametrize(
    "order, records",
    [(("C", "t"), SWEEP_RECORDS), (("t", "C"), SWEEP_RECORDS), (("t", "C"), "t_rel,t_deco")],
)
def test_t_axis_sweep_matches_pointwise_evaluation(tmp_path, order, records):
    axes = {"C": "C:0.5:4:4", "t": "t:-1:1:5"}  # C = 0.5 < 1 is invalid
    out = tmp_path / "sweep.csv"
    argv = ["sweep", *SQUEEZED.split(), "--corr-r", "0.3", "--record", records]
    for name in order:
        argv += ["--axis", axes[name]]
    assert main([*argv, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(order) + "," + records
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    grids = [parse_sweep_axis(axes[name]).values() for name in order]
    # row-major, first axis slow; axis columns exactly as SweepAxis.values()
    assert [row[:2] for row in rows] == [[a, b] for a in grids[0] for b in grids[1]]
    # t < 0 leaves only the t-independent records defined
    t_dependent = "delta_qd" in records
    checked = 0
    for row in rows:
        point = dict(zip(order, row[:2]))
        got = dict(zip(records.split(","), row[2:]))
        if point["C"] < 1.0 or (t_dependent and point["t"] < 0.0):
            assert all(math.isnan(x) for x in got.values())
            continue
        # t-independent records at t < 0 compare with their values at t = 0
        t = max(point["t"], 0.0)
        expected = _pointwise(0.2, 0.1, point["C"], 4.0, 0.3, t)[2]
        checked += 1
        # one evaluation path: every record is exactly its scalar call's value
        assert got == {name: expected[name] for name in got}
    assert checked == 3 * (3 if t_dependent else 5)


def test_sweep_without_t_axis_writes_scalar_closed_forms(tmp_path):
    # the sweep evaluates its points in one broadcast call, the reference one
    # scalar call per record; both take the one NumPy path, so at t = 3.3,
    # where NumPy's exp/cos/sin and math's differ in the last bit at some of
    # these points, the bytes still agree
    out = tmp_path / "lm.csv"
    argv = ["sweep", *SQUEEZED.split(), "--corr-r", "0.3", "--record", SWEEP_RECORDS,
            "--axis", "lambda:0:0.5:6", "--axis", "mu:-0.4:0.4:5", "--t", "3.3"]
    assert main([*argv, "--out", str(out)]) == 0
    lines = ["lambda,mu," + SWEEP_RECORDS]
    invalid = 0
    for lam in parse_sweep_axis("lambda:0:0.5:6").values():
        for mu in parse_sweep_axis("mu:-0.4:0.4:5").values():
            ref = _pointwise(lam, mu, 3.0, 4.0, 0.3, 3.3)
            invalid += ref is None
            values = [math.nan] * 7 if ref is None else ref[2].values()
            lines.append(",".join("%.17g" % x for x in [lam, mu, *values]))
    assert invalid == 16  # lam <= |mu| outside the closed system lam = mu = 0
    assert out.read_text() == "\n".join(lines) + "\n"


# base models: admissible for the constructors (a bath with lam <= |mu| or
# at C = inf included); axis ranges that cross every rule of a valid point
SWEEP_BASES = st.fixed_dictionaries({
    "lambda": st.sampled_from([0.0, 0.05, 0.2, 1.5]),
    "mu": st.sampled_from([0.0, -0.1, 0.1, 0.3, 0.9]),
    "C": st.sampled_from([1.0, 3.0, 1e200, math.inf]),
    "delta": st.sampled_from([0.5, 4.0]),
    "r": st.sampled_from([0.0, -0.3, 0.999]),
    "t": st.sampled_from([0.0, 3.3, -1.0, 1e308]),
})
SWEEP_RANGES = {"lambda": (-0.3, 1.5), "mu": (-1.2, 1.2), "delta": (-1.0, 8.0),
                "r": (-1.2, 1.2), "C": (0.5, 50.0), "t": (-2.0, 20.0)}


@st.composite
def sweep_axes(draw):
    """One or two distinct axes, each with 1-4 points whose bounds are drawn
    from the axis range or its edges (0, +/-1 and the range ends)."""
    names = draw(st.lists(st.sampled_from(list(SWEEP_RANGES)), min_size=1, max_size=2,
                          unique=True))
    axes = []
    for name in names:
        lo, hi = SWEEP_RANGES[name]
        bound = st.floats(lo, hi) | st.sampled_from([lo, hi, -1.0, 0.0, 1.0])
        axes.append((name, draw(bound), draw(bound), draw(st.integers(1, 4))))
    return axes


@PROFILE
@given(
    base=SWEEP_BASES,
    axes=sweep_axes(),
    records=st.lists(st.sampled_from(SWEEP_RECORDS.split(",")), min_size=1, unique=True),
)
@example(  # lam < 0, and lam <= |mu| outside the closed system (lam = |mu| too)
    base={"lambda": 0.2, "mu": 0.1, "C": 3.0, "delta": 4.0, "r": 0.0, "t": 1.0},
    axes=[("lambda", -0.1, 0.1, 3), ("mu", -0.1, 0.1, 3)], records=SWEEP_RECORDS.split(","),
)
@example(  # |mu| >= omega, and C < 1
    base={"lambda": 0.2, "mu": 0.1, "C": 3.0, "delta": 4.0, "r": 0.0, "t": 1.0},
    axes=[("mu", 0.0, 1.5, 4), ("C", 0.5, 3.0, 2)], records=["sigma_det", "t_d"],
)
@example(  # delta <= 0 and |r| >= 1
    base={"lambda": 0.2, "mu": 0.1, "C": 3.0, "delta": 4.0, "r": 0.0, "t": 1.0},
    axes=[("delta", -1.0, 1.0, 3), ("r", -1.0, 1.0, 3)], records=["delta_cc", "t_deco"],
)
@example(  # an open bath at C = inf, and lam = mu = 0 at C = inf (read as 1)
    base={"lambda": 0.2, "mu": 0.0, "C": math.inf, "delta": 4.0, "r": 0.3, "t": 1.0},
    axes=[("lambda", 0.0, 0.2, 2)], records=SWEEP_RECORDS.split(","),
)
@example(  # lam = mu = 0 at finite C up to 1e308
    base={"lambda": 0.0, "mu": 0.0, "C": 1.0, "delta": 4.0, "r": 0.3, "t": 1.0},
    axes=[("C", 1.0, 1e308, 3)], records=SWEEP_RECORDS.split(","),
)
@example(  # t < 0 with and without t-dependent records, t the slow axis
    base={"lambda": 0.2, "mu": 0.1, "C": 3.0, "delta": 4.0, "r": 0.3, "t": 1.0},
    axes=[("t", -1.0, 1.0, 3), ("C", 0.5, 4.0, 3)], records=["t_rel", "delta_qd"],
)
@example(
    base={"lambda": 0.2, "mu": 0.1, "C": 3.0, "delta": 4.0, "r": 0.3, "t": -1.0},
    axes=[("C", 0.5, 4.0, 3)], records=["t_rel", "t_deco"],
)
@example(  # NumPy's exp/cos/sin and math's differ in the last bit of sigma here
    base={"lambda": 0.4, "mu": 0.0, "C": 3.0, "delta": 4.0, "r": 0.3, "t": 3.3},
    axes=[("t", 0.0, 3.3, 2)], records=["sigma_det"],
)
def test_sweep_rows_are_the_scalar_calls(base, axes, records):
    axes = tuple(SweepAxis(name, lo, hi, count) for name, lo, hi, count in axes)
    cfg = OscillatorConfig(lam=base["lambda"], mu=base["mu"],
                           temp=TemperatureSpec.from_coth(base["C"]))
    spec = InitialStateSpec(spread=base["delta"], correlation=base["r"])
    handle = io.StringIO()
    run_sweep(SweepSpec(axes=axes, records=tuple(records), t=base["t"]), cfg, spec, handle)

    names = [axis.name for axis in axes]
    lines = [",".join(names + records)]
    t_dependent = not {"delta_qd", "delta_cc", "sigma_det", "sigma_pq"}.isdisjoint(records)
    for values in itertools.product(*(axis.values() for axis in axes)):
        point = {**base, **dict(zip(names, values))}
        t = point["t"] if t_dependent else max(point["t"], 0.0)
        ref = _pointwise(point["lambda"], point["mu"], point["C"], point["delta"],
                         point["r"], t)
        row = [math.nan] * len(records) if ref is None else [ref[2][r] for r in records]
        lines.append(",".join("%.17g" % x for x in [*values, *row]))
    assert handle.getvalue() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", [1, 3, 11], ids=["point", "part-row", "rows"])
def test_sweep_passes_do_not_change_the_rows(monkeypatch, block):
    # a pass is whole 5-point rows (11), or parts of one row (1, 3)
    axes = (parse_sweep_axis("C:0.5:4:4"), parse_sweep_axis("t:-1:1:5"))
    plan = SweepSpec(axes=axes, records=tuple(SWEEP_RECORDS.split(",")))
    cfg, spec = OscillatorConfig.reference(3.0), InitialStateSpec(spread=4.0, correlation=0.3)
    whole, passes = io.StringIO(), io.StringIO()
    run_sweep(plan, cfg, spec, whole)
    monkeypatch.setattr("lindosc.sweep._SWEEP_BLOCK", block)
    run_sweep(plan, cfg, spec, passes)
    assert passes.getvalue() == whole.getvalue()


@pytest.mark.parametrize(
    "lam, omega", [("0.2", "1"), ("0", "1"), ("0", "2")], ids=["0.2", "0", "0-omega2"]
)
def test_sweep_at_overflowing_phase_agrees_between_routes(tmp_path, lam, omega, capsys):
    # at t = 1e308 the phase Omega t overflows only at omega = 2; the scalar
    # (--t) and the array (t axis) routes write the same row: the steady state
    # when the decay factor has underflowed (lam > 0), sigma = hbar^2/4
    # exactly in the closed system at omega = 1, and nan at omega = 2, where
    # the phase is lost; neither warns
    records = "delta_qd,delta_cc,sigma_det,sigma_pq,t_deco"
    model = ["--omega", omega, "--lambda", lam, "--mu", "0.1" if lam != "0" else "0",
             "--coth", "3", "--delta-sq", "4"]
    scalar, array = tmp_path / "scalar.csv", tmp_path / "array.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", *model, "--axis", "C:3:3:1", "--t", "1e308",
                     "--record", records, "--out", str(scalar)]) == 0
        assert main(["sweep", *model, "--axis", "t:0:1e308:2",
                     "--record", records, "--out", str(array)]) == 0
    assert capsys.readouterr().err == ""
    scalar_row = scalar.read_text().splitlines()[1].split(",")[1:]
    array_row = array.read_text().splitlines()[2].split(",")
    assert array_row[0] == "1e+308"
    assert array_row[1:] == scalar_row
    qd, cc, sigma, s_pq, t_deco = (float(x) for x in scalar_row)
    if omega == "2":
        assert all(math.isnan(x) for x in (qd, sigma, s_pq))
    elif lam == "0":
        assert sigma == 0.25 and qd == 1.0 and math.isfinite(s_pq)
    else:
        assert sigma == 0.25 * 3.0**2 and s_pq == 0.0 and qd == pytest.approx(1 / 3)
        assert math.isfinite(t_deco)


def test_sweep_at_huge_c_reads_no_nan(tmp_path):
    # above about 1.34e154 C^2 overflows: sigma = hbar^2/4 at t = 0 and +inf
    # once it overflows, and 2C overflows in s_pq from about 9e307 on
    base = ["sweep", *HUGE_C.split(), "--axis", "C:1e160:1e308:2", "--record"]
    records = "sigma_det,delta_qd,sigma_pq"
    out = tmp_path / "huge.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*base, records, "--t", "0", "--out", str(out)]) == 0
        assert out.read_text() == f"C,{records}\n1e+160,0.25,1,0\n1e+308,0.25,1,0\n"
        assert main([*base, records, "--t", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[:3] for row in rows] == [["1e+160", "inf", "0"], ["1e+308", "inf", "0"]]
    assert all(math.isfinite(float(row[3])) for row in rows)



# ---------------------------------------------------------------------------
# fpe and config files
# ---------------------------------------------------------------------------


def test_fpe_determinism(tmp_path):
    argv = ["fpe", *SQUEEZED.split(), "--grid-n", "48", "--t-end", "0.1"]
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("final.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_config_file_drives_model(tmp_path, capsys):
    cfg = tmp_path / "osc.cfg"
    cfg.write_text("lambda = 0.2\nmu = 0.1\ntemp.C = 3\n")
    assert main(["coeffs", "--config", str(cfg)]) == 0
    assert "d_pp = 0.45" in capsys.readouterr().out


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "osc.cfg"
    cfg.write_text("lambda = 0.2\nmu = 0.1\ntemp.C = 3\n")
    assert main(["coeffs", "--config", str(cfg), "--mu", "0"]) == 0
    out = capsys.readouterr().out
    assert "d_pp = 0.3" in out
    assert "d_qq = 0.3" in out

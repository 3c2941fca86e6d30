"""End-to-end command-line interface checks (driven through main())."""

import io
import itertools
import json
import math
import re
import warnings

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_properties import PROFILE

from lindosc.classicality import (
    classicality_degrees,
    metrics_from_state,
    write_metrics_csv,
)
from lindosc.cli import SweepAxis, SweepSpec, main, parse_sweep_axis, run_sweep
from lindosc.decoherence import decoherence_time, relaxation_time, statistical_time
from lindosc.model import (
    InitialStateSpec,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    thermal_coefficients,
)
from lindosc.propagate import (
    sigma_det_closed,
    sigma_pq_closed,
    time_grid,
    trajectory_lyapunov,
)

MODEL = ["--lambda", "0.2", "--mu", "0.1", "--coth", "3"]
SQUEEZED = MODEL + ["--delta-sq", "4"]
HUGE_DAMPING = ["--lambda", "1e308", "--mu", "0.1", "--coth", "3", "--delta-sq", "4"]


# ---------------------------------------------------------------------------
# help surface: each call attaches the flags of its own subcommand only
# ---------------------------------------------------------------------------

MODEL_FLAGS = {
    "--config", "--m", "--omega", "--lambda", "--mu", "--hbar", "--coth",
    "--temp", "--delta-sq", "--corr-r", "--q0", "--p0", "--closed",
}
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
def test_subcommand_help_names_its_flags(capsys, command):
    own, model = COMMAND_FLAGS[command]
    out = _help_text(capsys, command, "--help")
    assert out.startswith(f"usage: lindosc {command} ")
    flags = set(re.findall(r"(?<![\w-])--[\w-]+", out))
    assert flags == {"--help"} | own | (MODEL_FLAGS if model else set())


# ---------------------------------------------------------------------------
# coeffs / validate
# ---------------------------------------------------------------------------


def test_coeffs_text(capsys):
    assert main(["coeffs", *MODEL]) == 0
    out = capsys.readouterr().out
    assert "d_pp = 0.45" in out
    assert "d_qq = 0.15" in out
    assert "d_pq = 0" in out


def test_coeffs_json(capsys):
    assert main(["coeffs", "--json", *MODEL]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_pp"] == pytest.approx(0.45)
    assert payload["d_qq"] == pytest.approx(0.15)


def test_coeffs_closed_system(capsys):
    assert main(["coeffs", "--closed"]) == 0
    assert "d_pp = 0" in capsys.readouterr().out


def test_validate_passes(capsys):
    assert main(["validate", *MODEL]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("pass") for line in lines)
    # only the weak-coupling advisory may flag at lam = 0.2
    for line in lines:
        if line.startswith("FAIL"):
            assert "(advisory)" in line


def test_validate_cold_bath_fails(capsys):
    assert main(["validate", "--lambda", "0.2", "--mu", "0.1", "--coth", "1.1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_validate_inverted_coupling_fails():
    assert main(["validate", "--lambda", "0.05", "--mu", "0.1", "--coth", "3"]) == 1


_NEED_LAM = (
    "FAIL  diffusion_positive: thermal coefficients need lam > |mu| for "
    "positive diffusion; got lam={}, mu=0.1"
)
_CLOSED = "pass  diffusion_positive: closed system, zero diffusion"
_WEAK = "FAIL  weak_coupling (advisory): lam=0.2 vs omega/10=0.1"
_NO_DAMPING = "pass  weak_coupling (advisory): lam=0 vs omega/10=0.1"


@pytest.mark.parametrize(
    "argv, code, lines",
    [
        (MODEL, 0, [
            "pass  diffusion_positive: d_pp=0.45, d_qq=0.15",
            "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = 0.27 vs lam^2 = 0.04",
            _WEAK,
        ]),
        (["--lambda", "0.2", "--mu", "0.1", "--coth", "1.1"], 1, [
            "pass  diffusion_positive: d_pp=0.165, d_qq=0.055",
            "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = 0.0363 vs lam^2 = 0.04",
            _WEAK,
        ]),
        (["--lambda", "0.05", "--mu", "0.1", "--coth", "3"], 1, [
            _NEED_LAM.format("0.05"),
            "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = -0.0675 vs lam^2 = 0.0025",
            "pass  weak_coupling (advisory): lam=0.05 vs omega/10=0.1",
        ]),
        (["--lambda", "0.1", "--mu", "0.1", "--coth", "3"], 1, [
            _NEED_LAM.format("0.1"),
            "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = 0 vs lam^2 = 0.01",
            "FAIL  weak_coupling (advisory): lam=0.1 vs omega/10=0.1",
        ]),
        (["--lambda", "0.2", "--mu", "0.1", "--coth", "inf"], 1, [
            "FAIL  diffusion_positive: thermal coefficients diverge at infinite temperature",
            "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = inf vs lam^2 = 0.04",
            _WEAK,
        ]),
        (["--closed"], 0, [
            _CLOSED,
            "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = 0 vs lam^2 = 0",
            _NO_DAMPING,
        ]),
        (["--closed", "--coth", "inf"], 0, [
            _CLOSED,
            "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = inf vs lam^2 = 0",
            _NO_DAMPING,
        ]),
        (["--lambda", "0.2", "--mu", "0", "--coth", "1"], 0, [
            "pass  diffusion_positive: d_pp=0.1, d_qq=0.1",
            "pass  thermal_constraint: (lam^2 - mu^2)*C^2 = 0.04 vs lam^2 = 0.04",
            _WEAK,
        ]),
        (["--lambda", "0.2", "--mu", "-0.1", "--temp", "0"], 1, [
            "pass  diffusion_positive: d_pp=0.05, d_qq=0.15",
            "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = 0.03 vs lam^2 = 0.04",
            _WEAK,
        ]),
        # the bound fails at every finite C unless lam > |mu| or lam = mu = 0,
        # so also in the limit C = inf, and where (lam^2 - mu^2) C^2 overflows
        (["--lambda", "0", "--mu", "0.1", "--coth", "inf"], 1, [
            _NEED_LAM.format("0.0"),
            "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = -inf vs lam^2 = 0",
            _NO_DAMPING,
        ]),
        (["--lambda", "0.2", "--mu", "0.2", "--coth", "inf"], 1, [
            _NEED_LAM.replace("mu=0.1", "mu=0.2").format("0.2"),
            "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = inf vs lam^2 = 0.04",
            _WEAK,
        ]),
        (["--lambda", "0.2", "--mu", "0.3", "--coth", "1e200"], 1, [
            _NEED_LAM.replace("mu=0.1", "mu=0.3").format("0.2"),
            "FAIL  thermal_constraint: (lam^2 - mu^2)*C^2 = -inf vs lam^2 = 0.04",
            _WEAK,
        ]),
    ],
)
def test_validate_report(capsys, argv, code, lines):
    assert main(["validate", *argv]) == code
    assert capsys.readouterr().out.splitlines() == lines


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def test_trajectory_lyapunov(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        ["trajectory", *SQUEEZED, "--t-end", "1", "--dt", "0.1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean_q,mean_p,s_qq,s_pp,s_pq,sigma_det"
    assert len(lines) == 12  # header + 11 samples
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(2.0)


def test_trajectory_closed_route_blanks_variances(tmp_path):
    out = tmp_path / "closed.csv"
    # at lam = 1e308, -2 lam t at t = 0 must not form -inf * 0
    for model in (SQUEEZED, HUGE_DAMPING):
        argv = [*model, "--route", "closed", "--t-end", "0.5", "--dt", "0.1"]
        assert main(["trajectory", *argv, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "nan" and row[4] == "nan"
        assert row[6] == "0.25"  # sigma_det is known in closed form


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


def test_trajectory_all_routes_agree(tmp_path):
    out = tmp_path / "all.csv"
    code = main(
        [
            "trajectory",
            *SQUEEZED,
            "--route",
            "all",
            "--t-end",
            "2",
            "--dt",
            "0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",max_route_dev")
    deviations = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(deviations) < 1e-6


@pytest.mark.parametrize("route", ["lyapunov", "closed", "rk4", "all"])
def test_trajectory_last_time_is_t_end(tmp_path, route):
    # 3 * 0.1 rounds to 0.30000000000000004; the grid never passes t_end
    out = tmp_path / "grid.csv"
    argv = ["trajectory", *SQUEEZED, "--route", route, "--t-end", "0.3", "--dt", "0.1"]
    assert main(argv + ["--out", str(out)]) == 0
    times = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert times[:3] == ["0", "0.10000000000000001", "0.20000000000000001"]
    assert times[3:] == ["0.29999999999999999"]  # "%.17g" of 0.3
    assert float(times[-1]) == 0.3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trajectory", "--t-end", "inf", "--dt", "0.1"], "t-end must be finite"),
        (["trajectory", "--route", "rk4", "--t-end", "inf", "--dt", "0.1"], "t-end must be finite"),
        (["trajectory", "--route", "closed", "--t-end", "1", "--dt", "1e-320"], "not a finite sample count"),
        (["trajectory", "--t-end", "1", "--dt", "nan"], "dt must be finite"),
        (["metrics", "--t-end", "1e308", "--dt", "1e-10"], "not a finite sample count"),
        (["window", "--t-end", "nan", "--dt", "0.01"], "t-end must be finite"),
    ],
    ids=["inf", "rk4-inf", "tiny-dt", "nan-dt", "metrics-overflow", "window-nan"],
)
def test_non_finite_time_grid_is_rejected(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, *SQUEEZED, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trajectory", "metrics", "window"])
def test_oversized_time_grid_is_one_line_error(tmp_path, capsys, command):
    # 1e15 samples: NumPy refuses the 7 PiB time grid before touching memory
    out = tmp_path / "out"
    assert main([command, *MODEL, "--t-end", "1e15", "--dt", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("lindosc: out of memory: ")
    assert not out.exists()


def test_trajectory_all_rejects_t_end_off_the_dt_grid(tmp_path, capsys):
    # the RK4 substep 0.002 divides 2.05, so only the route's own guard
    # keeps this a validation failure (exit 1) rather than a grid mismatch
    argv = ["trajectory", *SQUEEZED, "--route", "all", "--t-end", "2.05", "--dt", "0.1"]
    assert main(argv + ["--out", str(tmp_path / "all.csv")]) == 1
    assert "integer multiple of dt" in capsys.readouterr().err


def test_trajectory_routes_share_one_integer_multiple_rule(tmp_path, capsys):
    # 1.0000000005 lies 5e-10 past 10 * 0.1: no integer multiple of dt, so
    # the time grid ends on an extra sample at t_end and the routes that step
    # by dt refuse it as invalid input (exit 1), not as a numeric failure
    argv = [*SQUEEZED, "--t-end", "1.0000000005", "--dt", "0.1"]
    out = tmp_path / "lyapunov.csv"
    assert main(["trajectory", *argv, "--out", str(out)]) == 0
    times = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert times[-3:] == ["0.90000000000000002", "1", "1.0000000005"]
    for route in ("rk4", "all"):
        out = tmp_path / f"{route}.csv"
        assert main(["trajectory", *argv, "--route", route, "--out", str(out)]) == 1
        assert "integer multiple of dt" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("route", ["lyapunov", "closed", "rk4", "all"])
def test_trajectory_zero_time(tmp_path, route):
    out = tmp_path / "zero.csv"
    argv = ["trajectory", *SQUEEZED, "--route", route, "--t-end", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    if route == "all":
        assert float(lines[1].split(",")[-1]) == 0.0


def test_trajectory_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["trajectory", *SQUEEZED, "--t-end", "3", "--dt", "0.05"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# metrics / window
# ---------------------------------------------------------------------------


def test_metrics_csv(tmp_path):
    out = tmp_path / "metrics.csv"
    code = main(
        ["metrics", *SQUEEZED, "--t-end", "1", "--dt", "0.5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,delta_qd,delta_cc,gamma,sigma_det,sigma_pq"
    # r = 0 start: no correlations yet, so delta_cc is infinite at t = 0
    assert lines[1].split(",")[2] == "inf"
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0)


def test_metrics_columns_match_per_state_metrics(tmp_path):
    # the command's column arithmetic against metrics_from_state, row by row
    out = tmp_path / "metrics.csv"
    argv = ["metrics", *SQUEEZED, "--t-end", "30", "--dt", "0.05"]
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


def test_window_empty_for_closed_symmetric_state(capsys):
    assert main(["window", "--closed", "--t-end", "20", "--dt", "0.01"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["empty"] is True
    assert payload["count"] == 0
    assert payload["windows"] == []


def test_window_reports_intervals(capsys):
    code = main(["window", *SQUEEZED, "--t-end", "5", "--dt", "0.01"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qd_threshold"] == 0.99
    assert payload["cc_threshold"] == 10.0
    assert payload["count"] == 3
    assert payload["empty"] is False
    for a, b in payload["windows"]:
        assert 0.0 <= a < b <= 5.0


@pytest.mark.parametrize("lam", ["0", "0.05"])
def test_window_rejects_inadmissible_bath(lam, capsys):
    # lam <= |mu| is no Lindblad generator; trajectory, metrics and deco reject it too
    model = ["--lambda", lam, "--mu", "0.1", "--coth", "3"]
    assert main(["window", *model, "--t-end", "5"]) == 1
    err = capsys.readouterr().err
    assert "thermal coefficients need lam > |mu|" in err
    assert main(["metrics", *model, "--t-end", "5"]) == 1
    assert capsys.readouterr().err == err
    assert main(["deco", *model]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "flag, value", [("--qd-threshold", "nan"), ("--cc-threshold", "-1")]
)
def test_window_rejects_impossible_threshold(flag, value, capsys):
    argv = ["window", *SQUEEZED, "--t-end", "5", flag, value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "threshold must be finite and > 0" in captured.err


# ---------------------------------------------------------------------------
# deco
# ---------------------------------------------------------------------------


def test_deco_text_output(capsys):
    assert main(["deco", *SQUEEZED]) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    assert keys == [
        "m",
        "omega",
        "lambda",
        "mu",
        "hbar",
        "coth_C",
        "delta",
        "r",
        "rate",
        "t_deco",
        "t_d",
        "t_rel",
        "variant",
        "sigma_be",
        "sigma_heisenberg",
        "sigma_mb",
        "regime",
    ]
    values = dict(line.split(" = ") for line in lines)
    assert float(values["t_deco"]) == pytest.approx(0.15151515151515149)
    assert float(values["t_rel"]) == pytest.approx(5.0)
    assert values["variant"] == "r0"
    assert values["regime"] == "quantum-statistical"


def test_deco_json_with_separation(capsys):
    code = main(
        ["deco", "--lambda", "0.2", "--coth", "3", "--separation", "1", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rate_ratio"] == pytest.approx(1.5)
    assert payload["separation"] == 1.0


@pytest.mark.parametrize("separation", ["nan", "inf", "-inf"])
def test_deco_rejects_non_finite_separation(capsys, separation):
    argv = ["deco", "--lambda", "0.2", "--coth", "3", f"--separation={separation}", "--json"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"lindosc: separation must be finite, got {float(separation)!r}\n"


def test_deco_underflowing_thermal_exponent_is_infinite_temperature(capsys):
    # hbar*omega/(2kT) rounds to 0 at T = 1e308, so C = inf as with --coth inf
    argv = ["deco", "--lambda", "0.2", "--mu", "0.1", "--delta-sq", "4"]
    assert main([*argv, "--coth", "inf"]) == 1
    err = capsys.readouterr().err
    assert err == "lindosc: thermal coefficients diverge at infinite temperature\n"
    assert main([*argv, "--temp", "1e308"]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("hbar", ["1e-308", "1e308"])
def test_deco_regime_at_extreme_hbar(capsys, hbar):
    # sigma_be and sigma_mb underflow to 0 or overflow to inf; their ratio
    # (epsilon C)^2 = 1.08 does not depend on hbar
    assert main(["deco", *SQUEEZED, "--hbar", hbar]) == 0
    assert "regime = quantum-statistical" in capsys.readouterr().out.splitlines()


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


def test_deco_high_temperature_variant(capsys):
    assert main(["deco", *SQUEEZED, "--high-T"]) == 0
    assert "variant = high_T_r0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# figdata
# ---------------------------------------------------------------------------


def test_figdata_contours_and_trajectory(tmp_path, capsys):
    code = main(["figdata", "1", "--out-dir", str(tmp_path), "--t-samples", "15"])
    assert code == 0
    for name in (
        "fig1_trajectory.csv",
        "fig1_contour_delta1.csv",
        "fig1_contour_delta4.csv",
    ):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "fig1_trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,mean_q,mean_p"
    assert len(lines) == 16


def test_figdata_metric_surface(tmp_path):
    assert main(["figdata", "2a", "--out-dir", str(tmp_path), "--t-samples", "3"]) == 0
    lines = (tmp_path / "fig2a.csv").read_text().splitlines()
    assert lines[0] == "C,t,delta_qd"
    assert len(lines) == 1 + 51 * 3


def test_figdata_stationary_wigner_peak(tmp_path):
    assert main(["figdata", "4b", "--out-dir", str(tmp_path), "--n", "41"]) == 0
    lines = (tmp_path / "fig4b.csv").read_text().splitlines()
    values = [float(x) for line in lines[1:] for x in line.split(",")]
    # odd grid size puts a cell center exactly at the origin
    assert max(values) == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-12)


def test_figdata_rejects_tiny_grid(tmp_path):
    assert main(["figdata", "3a", "--out-dir", str(tmp_path), "--n", "2"]) == 1


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


def test_sweep_single_axis(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            *MODEL,
            "--axis",
            "delta:1:8:4",
            "--record",
            "delta_qd,t_deco",
            "--t",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,delta_qd,t_deco"
    assert len(lines) == 5
    qd = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b < a for a, b in zip(qd, qd[1:]))  # more squeezing, more classical


def test_sweep_two_axes_row_major(tmp_path):
    out = tmp_path / "sweep2.csv"
    code = main(
        [
            "sweep",
            *MODEL,
            "--axis",
            "delta:1:4:3",
            "--axis",
            "C:1.5:6:2",
            "--record",
            "sigma_det",
            "--t",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,C,sigma_det"
    assert len(lines) == 1 + 3 * 2
    # first axis varies slowest
    first_col = [float(line.split(",")[0]) for line in lines[1:]]
    assert first_col == sorted(first_col)


def test_sweep_invalid_points_become_nan(tmp_path):
    out = tmp_path / "nan.csv"
    code = main(
        [
            "sweep",
            "--lambda",
            "0.3",
            "--coth",
            "3",
            "--axis",
            "mu:0.25:1.25:2",
            "--record",
            "sigma_det",
            "--t",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[0][1] != "nan"
    assert rows[1][1] == "nan"  # mu = 1.25 >= omega: not underdamped


def test_sweep_inadmissible_bath_points_are_nan(tmp_path):
    out = tmp_path / "bath.csv"
    code = main(
        [
            "sweep",
            "--mu",
            "0.1",
            "--coth",
            "3",
            "--delta-sq",
            "4",
            "--axis",
            "lambda:0:0.2:3",
            "--record",
            "sigma_det,delta_qd",
            "--t",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == [0.0, 0.1, 0.2]
    # lam = 0 and lam = 0.1 give lam <= |mu|: no valid bath, so nan
    assert rows[0][1:] == ["nan", "nan"] and rows[1][1:] == ["nan", "nan"]
    sigma, qd = float(rows[2][1]), float(rows[2][2])
    assert sigma >= 0.25 and 0.0 < qd <= 1.0


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
    argv = ["sweep", *SQUEEZED, "--corr-r", "0.3", "--record", records]
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
    argv = ["sweep", *SQUEEZED, "--corr-r", "0.3", "--record", SWEEP_RECORDS,
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
    base = ["sweep", *HUGE_C, "--axis", "C:1e160:1e308:2", "--record"]
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


@pytest.mark.parametrize(
    "axis", ["t:0:nan:3", "t:0:inf:3", "C:2:nan:2", "C:2:3:2 --t nan", "C:2:3:2 --t inf"]
)
def test_sweep_rejects_non_finite_bounds(tmp_path, axis):
    # an axis bound, or the evaluation time --t, that is not finite
    out = tmp_path / "bad.csv"
    argv = ["sweep", *MODEL, "--axis", *axis.split(), "--record", "delta_qd,t_deco"]
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()


def test_sweep_rejects_three_axes():
    code = main(
        [
            "sweep",
            *MODEL,
            "--axis",
            "delta:1:2:2",
            "--axis",
            "C:2:3:2",
            "--axis",
            "r:0:0.5:2",
            "--record",
            "delta_qd",
        ]
    )
    assert code == 1


def test_sweep_rejects_unknown_record():
    assert main(["sweep", *MODEL, "--axis", "delta:1:2:2", "--record", "bogus"]) == 1


# ---------------------------------------------------------------------------
# fpe
# ---------------------------------------------------------------------------


def test_fpe_stationary_run(tmp_path, capsys):
    code = main(
        [
            "fpe",
            *MODEL,
            "--stationary",
            "--grid-n",
            "64",
            "--t-end",
            "0.1",
            "--snapshots",
            "0.05",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "linf_drift_vs_initial = " in out
    # file names carry the full-precision time stamp
    snap_name = f"snapshot_{format(0.05, '.17g')}.csv"
    for name in ("initial.csv", "final.csv", snap_name, "manifest.json"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["lambda"] == 0.2
    assert manifest["coefficients"]["d_pp"] == pytest.approx(0.45)
    assert manifest["initial"]["stationary"] is True
    assert manifest["run"]["steps"] > 0
    assert manifest["files"]["snapshots"] == {format(0.05, ".17g"): snap_name}
    assert manifest["linf_drift_vs_initial"] < 1e-3


def test_fpe_rejects_dt_above_stable_step(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["fpe", *SQUEEZED, "--grid-n", "128", "--t-end", "1", "--dt", "0.0053"]
    assert main(argv + ["--out-dir", str(out)]) == 1
    assert "stable step 0.00126523" in capsys.readouterr().err
    assert not out.exists()


def test_fpe_rejects_cells_wider_than_the_initial_state(tmp_path, capsys):
    # at C = 1e300 the box covers the long-time state, about 1e150 wide, so
    # the initial Gaussian would fall between the cell centres
    out = tmp_path / "run"
    argv = ["fpe", *HOT, "--grid-n", "16", "--t-end", "0.1", "--out-dir", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        "lindosc: grid cell 5.3033e+149 x 5.3033e+149 is wider than twice the"
        " initial state's standard deviations 1.41421 x 0.353553\n"
    )
    assert not out.exists()


def test_fpe_rejects_step_count_that_overflows(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["fpe", *MODEL, "--stationary", "--grid-n", "16", "--t-end", "1e308"]
    assert main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "not a finite step count" in err
    assert not out.exists()


@pytest.mark.parametrize("coverage", ["inf", "1e308"])
def test_fpe_rejects_infinite_grid_range(tmp_path, capsys, coverage):
    out = tmp_path / "run"
    argv = ["fpe", *MODEL, "--grid-n", "64", "--t-end", "0.1", "--coverage", coverage]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lindosc: grid range ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_fpe_determinism(tmp_path):
    argv = ["fpe", *SQUEEZED, "--grid-n", "48", "--t-end", "0.1"]
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("final.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


# ---------------------------------------------------------------------------
# exit codes and flag conflicts
# ---------------------------------------------------------------------------


def test_missing_config_file_is_io_failure(capsys):
    assert main(["coeffs", "--config", "/nonexistent/osc.cfg"]) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["coeffs", "--warp", "9"]) == 1
    assert capsys.readouterr().err != ""


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_closed_conflicts_with_damping(capsys):
    assert main(["coeffs", "--closed", "--lambda", "0.2"]) == 1
    assert "closed" in capsys.readouterr().err


def test_coth_conflicts_with_temp():
    assert main(["coeffs", *MODEL, "--temp", "2"]) == 1


def test_numeric_failure_exit_code(tmp_path, capsys):
    code = main(
        [
            "trajectory",
            *MODEL,
            "--route",
            "rk4",
            "--dt",
            "50",
            "--t-end",
            "5000",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["trajectory", "--route", "lyapunov"],
        ["trajectory", "--route", "all"],
        ["trajectory", "--route", "rk4"],
        ["metrics"],
    ],
)
def test_overflowing_damping_is_one_numeric_failure(tmp_path, capsys, argv):
    # a NumPy warning would raise here, and the stderr must be the one line
    out = str(tmp_path / "x.csv")
    code = main([*argv, *HUGE_DAMPING, "--t-end", "0.2", "--dt", "0.1", "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("lindosc: numeric failure: ") and err.count("\n") == 1


CANCELLING = [*MODEL, "--delta-sq", "1e20", "--t-end", "2", "--dt", "0.5"]
HOT = ["--lambda", "0.2", "--mu", "0.1", "--coth", "1e300", "--delta-sq", "4"]
HUGE_C = ["--lambda", "0.2", "--mu", "0.1", "--coth", "1e160", "--delta-sq", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        # sigma cancels to <= 0 at t = 0.5
        ["trajectory", "--route", "lyapunov", *CANCELLING],
        ["trajectory", "--route", "all", *CANCELLING],
        ["trajectory", "--route", "rk4", *CANCELLING],
        ["metrics", *CANCELLING],
        # s_qq s_pp and s_pq^2 both overflow, so sigma is nan
        ["metrics", *MODEL, "--delta-sq", "1e300", "--t-end", "0.2", "--dt", "0.1"],
        ["trajectory", "--route", "lyapunov", *HOT, "--t-end", "0.2", "--dt", "0.1"],
        ["trajectory", "--route", "rk4", *HOT, "--t-end", "0.2", "--dt", "0.1"],
        ["trajectory", "--route", "all", *HOT, "--t-end", "0.2", "--dt", "0.1"],
        # C^2 overflows, so the closed-form sigma is inf from t = 0.5 on
        ["trajectory", "--route", "closed", *HUGE_C, "--t-end", "1", "--dt", "0.5"],
        # the decoherence rate overflows to inf
        ["deco", *HUGE_DAMPING],
    ],
    ids=[
        "cancel-lyapunov", "cancel-all", "cancel-rk4", "cancel-metrics", "nan-metrics",
        "nan-lyapunov", "nan-rk4", "nan-all", "inf-closed", "deco-rate",
    ],
)
def test_moments_that_are_no_gaussian_state_are_one_numeric_failure(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("lindosc: numeric failure: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "bath, message",
    [
        (["--lambda", "0.1", "--mu", "0.2", "--coth", "3"],
         "thermal coefficients need lam > |mu| for positive diffusion; got lam=0.1, mu=0.2"),
        (["--lambda", "0.2", "--mu", "0.1", "--coth", "inf"],
         "thermal coefficients diverge at infinite temperature"),
    ],
    ids=["mu-above-lam", "open-infinite-C"],
)
@pytest.mark.parametrize("command", ["deco", "window"])
def test_a_bath_that_is_no_lindblad_generator_is_invalid_input(capsys, command, bath, message):
    # deco reaches the bath rule through time_scales, window through find_windows
    assert main([command, *bath, "--delta-sq", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"lindosc: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["deco", "--lambda", "1e-310", "--mu", "0", "--coth", "3", "--delta-sq", "4"],
        ["sweep", "--mu", "0", "--coth", "3", "--axis", "lambda:0:1e-320:3",
         "--record", "t_rel,t_deco"],
    ],
    ids=["deco", "sweep"],
)
def test_a_relaxation_time_that_overflows_is_inf_without_a_warning(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if argv[0] == "deco":
        assert "t_rel = inf" in out
    else:
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["inf"] * 3


def test_sweep_writes_nan_for_an_overflowing_rate(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", *SQUEEZED, "--axis", "lambda:1e308:1e308:1", "--record", "t_deco,t_d"]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "1e+308,nan,nan"


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

"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

They run small ``lindosc`` jobs through the same child-process path the
benchmark uses, then break the outputs on purpose.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.make_job(
    "small", "trajectory",
    ["trajectory", "--route", "lyapunov", "--t-end", "2", "--dt", "0.01"],
    "out/small.csv", t_end=2.0, dt=0.01, rtol=1e-9,
)


@pytest.fixture()
def produced(tmp_path):
    """A work directory holding the checked output of one small real job."""
    physics = workloads.draw_physics(7, SMALL.name)
    (tmp_path / "cfg").mkdir()
    (tmp_path / "cfg" / "small.ini").write_text(physics.config_text())
    verdicts = run.Verdicts()
    result = run.run_job(SMALL, tmp_path, physics, verdicts, trace=False)
    assert result.ok, result.error
    return tmp_path, physics, result


def _judge_fresh(work, physics):
    return run.Verdicts().judge(SMALL, work, physics, checks.digest(SMALL, work))


def test_clean_output_passes(produced):
    work, physics, result = produced
    assert _judge_fresh(work, physics) == ""
    assert result.job_s > 0.0 and result.setup_s > 0.0 and result.maxrss_mib > 0.0


def test_truncated_output_fails(produced):
    work, physics, _ = produced
    out = work / SMALL.out
    text = out.read_text()
    out.write_text(text[: len(text) // 2])
    assert "truncated" in _judge_fresh(work, physics)
    out.write_text(text[: text.rindex("\n", 0, len(text) - 1) + 1])
    assert "rows" in _judge_fresh(work, physics)


def test_corrupted_output_fails(produced):
    work, physics, _ = produced
    out = work / SMALL.out
    lines = out.read_text().split("\n")
    fields = lines[50].split(",")
    fields[5] = format(float(fields[5]) * (1 + 1e-6), ".17g")  # s_pq off by 1e-6
    out.write_text("\n".join(lines[:50] + [",".join(fields)] + lines[51:]))
    assert "s_pq" in _judge_fresh(work, physics)
    fields[5] = "0.5000"  # parses, but is not %.17g
    out.write_text("\n".join(lines[:50] + [",".join(fields)] + lines[51:]))
    assert "%.17g" in _judge_fresh(work, physics)


def test_digest_mismatch_fails(produced):
    work, physics, _ = produced
    verdicts = run.Verdicts()
    assert verdicts.judge(SMALL, work, physics, "a" * 64) == ""
    assert verdicts.judge(SMALL, work, physics, "a" * 64) == ""
    assert "digest" in verdicts.judge(SMALL, work, physics, "b" * 64)


def test_rerun_reproduces_digest_and_bad_exit_fails(produced):
    work, physics, first = produced
    verdicts = run.Verdicts()
    verdicts.digests[SMALL.name] = first.digest
    verdicts.errors[SMALL.name] = ""
    again = run.run_job(SMALL, work, physics, verdicts, trace=False)
    assert again.ok and again.digest == first.digest
    (work / "cfg" / "small.ini").write_text("lambda = -1\n")
    bad = run.run_job(SMALL, work, physics, verdicts, trace=False)
    assert not bad.ok and "exit code 1" in bad.error


def test_traced_job_writes_spans_and_keeps_output(produced):
    work, physics, first = produced
    verdicts = run.Verdicts()
    verdicts.digests[SMALL.name] = first.digest
    verdicts.errors[SMALL.name] = ""
    traced = run.run_job(SMALL, work, physics, verdicts, trace=True)
    assert traced.ok, traced.error
    totals = metrics.LayerTotals()
    totals.add_job(traced.spans)
    values = totals.layer_values()
    assert values["propagate.lyapunov.calls"] == 201
    assert values["propagate.steady_state.per_sample"] == 1.0
    assert values["propagate.traj_csv.us_per_row"] > 0.0
    assert values["cli.self_s"] > 0.0


def _benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    bench = _benchmark_json()
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == metrics.END_TO_END
    assert declared_layer == metrics.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    for name in list(declared_e2e) + list(declared_layer):
        assert metrics.NAME_RE.fullmatch(name), name

    layer = set(metrics.LayerTotals().layer_values())
    layer |= {"import.numpy_s", "import.lindosc_s", "trace.overhead_s"}
    assert layer == set(metrics.PER_LAYER)
    done = run.JobRun("x", True, job_s=1.0, setup_s=0.1, maxrss_mib=50.0)
    verdicts = run.Verdicts(
        measures={job: {name: 1e-3} for name, job in workloads.ACCURACY_JOBS.items()}
    )
    values, units = run.end_to_end_report(
        [run.Round(False, 0.1, [done])], [done], [], verdicts, 2.0
    )
    assert set(values) == set(units) == set(metrics.END_TO_END)
    assert values["pass_ratio"] == 1.0
    assert values["wall_s"] == 2.0 and values["setup_s"] == pytest.approx(0.2)


def test_self_time_subtracts_children(tmp_path):
    spans = {
        "job": "j", "names": ["cli.main", "propagate.covariance_lyapunov", "model.GaussianState"],
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [2, 2.0, 3.0, 1], [1, 5.0, 6.0, 0]],
        "counts": {}, "maxima": {},
    }
    path = tmp_path / "spans.json"
    path.write_text(json.dumps(spans))
    totals = metrics.LayerTotals()
    totals.add_job(path)
    assert totals.self_s["cli.main"] == pytest.approx(6.0)
    assert totals.self_s["propagate.covariance_lyapunov"] == pytest.approx(3.0)
    assert totals.calls["propagate.covariance_lyapunov"] == 2
    values = totals.layer_values()
    assert values["cli.self_s"] == pytest.approx(6.0)
    assert values["propagate.lyapunov.us_per_sample"] == pytest.approx(2e6)


def test_parse_importtime():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        200 | site",
        "import time:      2000 |     110000 |       numpy",
        "import time:      1500 |     180000 |   lindosc",
        "import time:     17000 |     190000 | lindosc.cli",
    ])
    assert metrics.parse_importtime(report) == pytest.approx((0.11, 0.08))


def test_inputs_are_seeded_and_admissible(tmp_path):
    names = [n for n in workloads.JOBS if workloads.JOBS[n].seeded]
    first = workloads.write_configs(3, names, tmp_path / "a")
    again = workloads.write_configs(3, names, tmp_path / "b")
    other = workloads.write_configs(4, names, tmp_path / "c")
    assert first == again and first != other
    for seed in range(50):
        p = workloads.draw_physics(seed, "sweep")
        assert workloads.admissible(p)
        assert abs(p.lam / 0.2 - 1) <= workloads.BAND + 1e-5


def test_reference_matches_exact_propagation():
    from lindosc import (InitialStateSpec, OscillatorConfig, TemperatureSpec,
                         covariance_lyapunov, initial_state, thermal_coefficients)

    p = workloads.draw_physics(1, "traj_lyapunov")
    cfg = OscillatorConfig(lam=p.lam, mu=p.mu, temp=TemperatureSpec.from_coth(p.c))
    state0 = initial_state(InitialStateSpec(spread=p.delta, correlation=p.r), cfg)
    ref = checks.moments(p, [0.0, 0.7, 13.0])
    for i, t in enumerate((0.0, 0.7, 13.0)):
        s = covariance_lyapunov(state0, cfg, thermal_coefficients(cfg), t)
        for key in ("s_qq", "s_pp", "s_pq", "sigma_det"):
            assert math.isclose(getattr(s, key), ref[key][i], rel_tol=1e-12, abs_tol=1e-14)

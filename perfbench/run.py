"""Benchmark of the ``lindosc`` CLI: seeded jobs, checked outputs, metrics.

    python3 perfbench/run.py --workload grid|moments|closed --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/lindosc``.  Each job is one
``lindosc`` call in a fresh child process (``job.py``); children run one at
a time, so the program never uses more than one core.  The workload's job set
is repeated in rounds until ``--seconds`` is used up (at least three rounds).
Every output is checked once against independent references (``checks.py``)
and every later round must reproduce its SHA-256 digest byte for byte.
Reported times are scaled by a host probe timed before every round (see
``HOST_PROBE``), because the shared host's speed drifts between runs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only if every job passed.  A
record of the run (environment, seed, physics, timings, digests) goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
JOB_TIMEOUT_S = 60.0
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
IMPORT_SAMPLES = 5
# Host speed.  Other tenants share the benchmark host, and whole runs a few
# minutes apart differ by 10-35 % in every timing.  Before each round the run
# times a fixed probe, a fresh interpreter importing NumPy, which no change to
# lindosc can move; times are reported scaled by REFERENCE_PROBE_S (about the
# probe's time on the quiet reference host) over the run's median probe time.
# The run record keeps the unscaled times and every probe time.
HOST_PROBE = ("-c", "import numpy")
REFERENCE_PROBE_S = 0.12
# The grid solver's forward-Euler step allocates about ten n-by-n float64
# temporaries; bytes per step below are computed from that, not measured.
STEP_TEMPORARIES = 10
CHILD_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)
CHILD_ENV.pop("PYTHONPATH", None)


@dataclass
class JobRun:
    name: str
    ok: bool
    error: str = ""
    job_s: float = 0.0
    setup_s: float = 0.0
    maxrss_mib: float = 0.0
    digest: str = ""
    spans: Path | None = None


@dataclass
class Verdicts:
    """First digest and check outcome of each job; later runs must match."""

    digests: dict[str, str] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    measures: dict[str, dict[str, float]] = field(default_factory=dict)

    def judge(self, job, work: Path, physics, digest: str) -> str:
        """Empty string if the output is right, else the reason it is not."""
        if job.name not in self.digests:
            self.digests[job.name] = digest
            try:
                self.measures[job.name] = checks.check_job(job, work, physics)
                self.errors[job.name] = ""
            except checks.CheckError as exc:
                self.errors[job.name] = f"check failed: {exc}"
            return self.errors[job.name]
        if digest != self.digests[job.name]:
            return "output digest differs from the first run of this job"
        return self.errors[job.name]


def probe_host() -> float:
    """Seconds for the fixed host probe, from spawn to exit."""
    start = time.monotonic()
    subprocess.run([sys.executable, *HOST_PROBE], env=CHILD_ENV, check=True,
                   stdout=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)
    return time.monotonic() - start


def run_job(job, work: Path, physics, verdicts: Verdicts, trace: bool) -> JobRun:
    out = work / job.out
    if out.is_dir():
        shutil.rmtree(out)
    elif out.exists():
        out.unlink()
    out.parent.mkdir(parents=True, exist_ok=True)
    rec_dir = work / "rec"
    rec_dir.mkdir(exist_ok=True)
    record = rec_dir / f"{job.name}.json"
    record.unlink(missing_ok=True)
    spans = rec_dir / f"{job.name}.spans.json" if trace else None
    command = [sys.executable, str(HERE / "job.py"), str(record), str(SRC),
               str(spans) if spans else "-", "--", *job.argv()]
    with open(rec_dir / f"{job.name}.stdout", "wb") as so, \
            open(rec_dir / f"{job.name}.stderr", "wb") as se:
        spawned = time.monotonic()
        proc = subprocess.Popen(command, cwd=work, stdout=so, stderr=se, env=CHILD_ENV)
        try:
            code = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code is None:
        return JobRun(job.name, False, f"timed out after {JOB_TIMEOUT_S} s")
    if code != 0 or not record.is_file():
        tail = (rec_dir / f"{job.name}.stderr").read_text(errors="replace")[-400:]
        return JobRun(job.name, False, f"exit code {code}: {tail.strip()}")
    rec = json.loads(record.read_text(encoding="utf-8"))
    digest = checks.digest(job, work)
    error = verdicts.judge(job, work, physics, digest)
    return JobRun(
        job.name,
        not error,
        error,
        job_s=rec["job_s"],
        setup_s=rec["imported_monotonic"] - spawned,
        maxrss_mib=rec["maxrss_kib"] / 1024.0,
        digest=digest,
        spans=spans,
    )


IMPORT_CLI = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lindosc.cli"


def warm_up() -> None:
    """Compile ``lindosc`` to bytecode once, so no timed job pays for it."""
    subprocess.run([sys.executable, "-c", IMPORT_CLI], env=CHILD_ENV, check=True,
                   stdout=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)


def import_times() -> tuple[float, float]:
    """Median numpy and lindosc-only import seconds over fresh processes."""
    numpy_s, lindosc_s = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CLI],
                              env=CHILD_ENV, capture_output=True, text=True,
                              check=True, timeout=JOB_TIMEOUT_S)
        a, b = metrics.parse_importtime(proc.stderr)
        numpy_s.append(a)
        lindosc_s.append(b)
    return metrics.median(numpy_s), metrics.median(lindosc_s)


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "cpu_model": "",
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["grid_arrays"] = {
        f"n{n}": {
            "array_kib": n * n * 8 / 1024,
            "step_bytes_computed_from_array_sizes": STEP_TEMPORARIES * n * n * 8,
        }
        for n in (128, 256)
    }
    return env


@dataclass
class Round:
    """One pass over the workload's job set."""

    traced: bool
    probe_s: float  # the host probe, timed just before the round
    jobs: list[JobRun] = field(default_factory=list)
    layer: metrics.LayerTotals | None = None

    def wall_s(self) -> float:
        return sum(j.job_s for j in self.jobs)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    timed = workloads.WORKLOADS[workload]
    untimed = () if trace else workloads.untimed_jobs(workload)
    work = STATE / "work" / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        physics = workloads.write_configs(seed, timed + untimed, work)
        warm_up()
        verdicts = Verdicts()
        rounds: list[Round] = []
        start = time.monotonic()
        needed = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
        while True:
            began = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                rounds.append(Round(traced, probe_host()))
                for name in timed:
                    job = run_job(workloads.JOBS[name], work, physics[name], verdicts, traced)
                    rounds[-1].jobs.append(job)
                if traced:
                    rounds[-1].layer = metrics.LayerTotals()
                    for job in rounds[-1].jobs:
                        if job.ok:
                            rounds[-1].layer.add_job(job.spans)
            now = time.monotonic()
            untraced = sum(1 for r in rounds if not r.traced)
            if untraced >= needed and now + (now - began) > start + seconds:
                break
        runs = [j for r in rounds for j in r.jobs]
        runs += [run_job(workloads.JOBS[n], work, physics[n], verdicts, False) for n in untimed]

        failed = [j for j in runs if not j.ok]
        problems = [f"{j.name}: {j.error}" for j in failed]
        scale = REFERENCE_PROBE_S / metrics.median(r.probe_s for r in rounds)
        if trace:
            values, units = layer_report(rounds, problems, scale)
        else:
            values, units = end_to_end_report(rounds, runs, failed, verdicts, scale)
        record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "environment": environment(),
            "physics": {n: p.as_dict() for n, p in physics.items() if p is not None},
            "argv": {n: workloads.JOBS[n].argv() for n in timed + untimed},
            "host_scale": scale,
            "rounds": [
                {"traced": r.traced,
                 "probe_s": r.probe_s,
                 "jobs": {j.name: {"job_s": j.job_s, "setup_s": j.setup_s,
                                   "maxrss_mib": j.maxrss_mib, "ok": j.ok}
                          for j in r.jobs}}
                for r in rounds
            ],
            "digests": verdicts.digests,
            "accuracy": verdicts.measures,
            "problems": problems,
            "metrics": values,
        }
        result = {
            "correct": not problems,
            "attempted": len(runs),
            "failed": len(failed),
            "metrics": metrics.result_metrics(values, units),
        }
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end_report(rounds, runs, failed, verdicts, scale) -> tuple[dict, dict]:
    """End-to-end figures of the untraced rounds; one no job produced reads null.

    ``wall_s`` is the mean over rounds of one pass over the job set.  The
    host's speed flips between a fast and a slow state within seconds, so the
    median of a run's rounds jumps between the two while the mean moves with
    the share of time spent in each.  Times are multiplied by ``scale``.
    """
    timed = [j for r in rounds for j in r.jobs]
    setups = [j.setup_s for j in timed if j.ok]
    values = {
        "setup_s": metrics.median(setups) * scale if setups else None,
        "wall_s": metrics.mean(r.wall_s() for r in rounds) * scale,
        "peak_rss_mb": max(j.maxrss_mib for j in timed),
        "pass_ratio": (len(runs) - len(failed)) / len(runs),
    }
    for name, job in workloads.ACCURACY_JOBS.items():
        values[name] = verdicts.measures.get(job, {}).get(name)
    return values, metrics.END_TO_END


def layer_report(rounds, problems: list[str], scale) -> tuple[dict, dict]:
    """Means over the traced rounds, times multiplied by ``scale``; counts
    must agree between the traced rounds."""
    traced = [r.layer.layer_values() for r in rounds if r.traced]
    values = {name: metrics.mean(t[name] for t in traced) for name in traced[0]}
    for name in values:
        if metrics.PER_LAYER[name] in ("s", "us", "ns"):
            values[name] *= scale
    for name in metrics.EXACT:
        values[name] = traced[0][name]
        if len({t[name] for t in traced}) != 1:
            problems.append(f"{name}: differs between traced rounds of one seed")
    walls = {flag: metrics.mean(r.wall_s() for r in rounds if r.traced is flag)
             for flag in (False, True)}
    values["trace.overhead_s"] = (walls[True] - walls[False]) * scale
    numpy_s, lindosc_s = import_times()
    values["import.numpy_s"] = numpy_s * scale
    values["import.lindosc_s"] = lindosc_s * scale
    return values, metrics.PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lindosc" / "cli.py").is_file():
        print(f"perfbench: no lindosc sources under {SRC}", file=sys.stderr)
        return 2

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

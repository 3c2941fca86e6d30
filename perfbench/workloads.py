"""Seeded inputs and the fixed job sets of the three workloads.

Every job is one ``lindosc`` CLI call.  Its physics is drawn from ``(seed,
job name)`` in a narrow admissible band around the paper's reference point
(lambda=0.2, mu=0.1, C=3, delta=4, r=0) and handed to the program only as a
``--config`` file.  Grid sizes, horizons and ``dt`` are fixed, so the amount
of work hardly moves with the seed.  The band is +/-2 %: wide enough that
every seed gives different output bytes, narrow enough that the automatic
grid-solver step count moves by less than 1 % between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = {"lambda": 0.2, "mu": 0.1, "temp.C": 3.0, "init.delta": 4.0}
BAND = 0.02  # relative half-width for lambda, mu, C and delta
R_BAND = 0.02  # absolute half-width for the initial correlation r
OMEGA = 1.0  # the configs keep m = omega = hbar = 1


@dataclass(frozen=True)
class Physics:
    lam: float
    mu: float
    c: float
    delta: float
    r: float

    def config_text(self) -> str:
        return (
            f"lambda = {self.lam!r}\nmu = {self.mu!r}\ntemp.C = {self.c!r}\n"
            f"init.delta = {self.delta!r}\ninit.r = {self.r!r}\n"
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "C": self.c,
            "delta": self.delta,
            "r": self.r,
        }


def admissible(p: Physics) -> bool:
    """The thermal-bath conditions the README states for ``lindosc validate``."""
    return (
        p.lam > abs(p.mu)
        and (p.lam**2 - p.mu**2) * p.c**2 >= p.lam**2
        and abs(p.mu) < OMEGA
        and p.c >= 1.0
        and p.delta > 0.0
        and abs(p.r) < 1.0
    )


def draw_physics(seed: int, job_name: str) -> Physics:
    """Physics of one job, a pure function of the seed and the job's name.

    Values are rounded to six decimals so the config file holds them exactly
    as the checker reads them back.
    """
    rng = random.Random(f"lindosc-bench:{seed}:{job_name}")
    while True:
        scaled = {k: v * (1.0 + BAND * rng.uniform(-1.0, 1.0)) for k, v in REFERENCE.items()}
        p = Physics(
            lam=round(scaled["lambda"], 6),
            mu=round(scaled["mu"], 6),
            c=round(scaled["temp.C"], 6),
            delta=round(scaled["init.delta"], 6),
            r=round(R_BAND * rng.uniform(-1.0, 1.0), 6),
        )
        if admissible(p):
            return p


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``kind`` selects the output check; ``out`` is the file or
    directory the call writes, relative to the job's working directory."""

    name: str
    kind: str
    args: tuple[str, ...]
    out: str
    seeded: bool = True  # False: the command takes no --config (figdata)
    expect: dict[str, float] = field(default_factory=dict)  # for the check

    def argv(self) -> list[str]:
        argv = [self.args[0]]
        if self.seeded:
            argv += ["--config", f"cfg/{self.name}.ini"]
        out_flag = "--out-dir" if self.out.endswith("/") else "--out"
        return argv + list(self.args[1:]) + [out_flag, self.out]

def make_job(name, kind, args, out, seeded=True, **expect) -> Job:
    return Job(name, kind, tuple(args), out, seeded, expect)


JOBS = {
    # grid: the grid solver at two sizes around the 2 MiB per-core L2
    "fpe_stationary": make_job(
        "fpe_stationary", "fpe",
        ["fpe", "--stationary", "--grid-n", "256", "--t-end", "1"],
        "out/fpe_stationary/", n=256, t_end=1.0, stationary=1,
    ),
    "fpe_squeezed": make_job(
        "fpe_squeezed", "fpe",
        ["fpe", "--grid-n", "128", "--t-end", "1", "--snapshots", "0.5"],
        "out/fpe_squeezed/", n=128, t_end=1.0, stationary=0,
    ),
    "fpe_fixed_dt": make_job(
        "fpe_fixed_dt", "fpe",
        ["fpe", "--grid-n", "128", "--dt", "2e-4", "--t-end", "0.5"],
        "out/fpe_fixed_dt/", n=128, t_end=0.5, stationary=0, steps=2500,
    ),
    # moments: exact propagation, RK4 and per-row CSV formatting
    "traj_lyapunov": make_job(
        "traj_lyapunov", "trajectory",
        ["trajectory", "--route", "lyapunov", "--t-end", "200", "--dt", "0.01"],
        "out/traj_lyapunov.csv", t_end=200.0, dt=0.01, rtol=1e-9,
    ),
    "metrics": make_job(
        "metrics", "metrics",
        ["metrics", "--t-end", "100", "--dt", "0.01"],
        "out/metrics.csv", t_end=100.0, dt=0.01,
    ),
    "traj_rk4": make_job(
        "traj_rk4", "trajectory",
        ["trajectory", "--route", "rk4", "--t-end", "20", "--dt", "0.001"],
        "out/traj_rk4.csv", t_end=20.0, dt=0.001, rtol=1e-8,
    ),
    "traj_all": make_job(
        "traj_all", "trajectory",
        ["trajectory", "--route", "all", "--t-end", "20", "--dt", "0.01"],
        "out/traj_all.csv", t_end=20.0, dt=0.01, rtol=1e-9,
    ),
    # closed: scalar closed forms, sweep glue, window finder, rendering
    "sweep": make_job(
        "sweep", "sweep",
        ["sweep", "--axis", "C:1.2:6:200", "--axis", "t:0:20:200",
         "--record", "delta_qd,delta_cc,t_deco"],
        "out/sweep.csv", c_lo=1.2, c_hi=6.0, t_lo=0.0, t_hi=20.0, count=200,
    ),
    "figdata": make_job(
        "figdata", "figdata", ["figdata", "all"], "out/figdata/", seeded=False,
        n=201, t_samples=561,
    ),
    "window": make_job(
        "window", "window",
        ["window", "--t-end", "200", "--dt", "0.01"],
        "out/window.json", t_end=200.0, dt=0.01, qd=0.99, cc=10.0,
    ),
    "traj_closed": make_job(
        "traj_closed", "trajectory",
        ["trajectory", "--route", "closed", "--t-end", "200", "--dt", "0.01"],
        "out/traj_closed.csv", t_end=200.0, dt=0.01, rtol=1e-9,
    ),
}

WORKLOADS = {
    "grid": ("fpe_stationary", "fpe_squeezed", "fpe_fixed_dt"),
    "moments": ("traj_lyapunov", "metrics", "traj_rk4", "traj_all"),
    "closed": ("sweep", "figdata", "window", "traj_closed"),
}

# The job whose output defines each deterministic accuracy metric.  A workload
# that does not time that job runs it once, untimed, so every workload reports
# every end-to-end metric.
ACCURACY_JOBS = {
    "grid_l2_err": "fpe_squeezed",
    "stationary_drift": "fpe_stationary",
    "route_dev_max": "traj_all",
}


def untimed_jobs(workload: str) -> tuple[str, ...]:
    """Accuracy jobs the workload runs once, untimed, after its rounds."""
    timed = WORKLOADS[workload]
    return tuple(
        sorted({job for job in ACCURACY_JOBS.values() if job not in timed})
    )


def write_configs(seed: int, names, work_dir: Path) -> dict[str, Physics | None]:
    """Write ``cfg/<job>.ini`` for every seeded job; return each job's physics."""
    cfg_dir = work_dir / "cfg"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    drawn: dict[str, Physics | None] = {}
    for name in names:
        drawn[name] = None
        if JOBS[name].seeded:
            drawn[name] = draw_physics(seed, name)
            (cfg_dir / f"{name}.ini").write_text(drawn[name].config_text(), encoding="utf-8")
    return drawn

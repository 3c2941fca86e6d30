"""Metric names, units and formulas: end-to-end from untraced rounds, per
layer from the spans and counters of traced rounds."""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "1",
    "grid_l2_err": "1",
    "stationary_drift": "1",
    "route_dev_max": "1",
}

PER_LAYER = {
    "fpe.ns_per_cell_step.n128": "ns",
    "fpe.ns_per_cell_step.n256": "ns",
    "fpe.steps": "count",
    "fpe.run_s": "s",
    "fpe.mass_drift_max": "1",
    "states.render_s": "s",
    "states.cells_rendered": "count",
    "states.grid_csv_s": "s",
    "states.grid_csv.ns_per_cell": "ns",
    "propagate.lyapunov.calls": "count",
    "propagate.lyapunov.us_per_sample": "us",
    "propagate.steady_state.per_sample": "1",
    "propagate.rk4.steps": "count",
    "propagate.rk4.ns_per_step": "ns",
    "propagate.closed.calls": "count",
    "propagate.closed.ns_per_call": "ns",
    "propagate.traj_csv_s": "s",
    "propagate.traj_csv.us_per_row": "us",
    "model.states_built": "count",
    "model.state.ns_per_build": "ns",
    "model.configs_built": "count",
    "classicality.metrics.us_per_call": "us",
    "classicality.metrics_csv_s": "s",
    "classicality.window_s": "s",
    "classicality.window.evals": "count",
    "decoherence.calls": "count",
    "decoherence.s": "s",
    "cli.sweep.us_per_point": "us",
    "cli.self_s": "s",
    "config_io.s": "s",
    "import.numpy_s": "s",
    "import.lindosc_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer metrics that are counts of work: they must repeat exactly.
EXACT = tuple(
    name for name, unit in PER_LAYER.items() if unit == "count" or name == "fpe.mass_drift_max"
)


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def result_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    """The ``metrics`` object of the result line, in the declared order."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# --------------------------------------------------------------------------- #
# per-layer aggregation
# --------------------------------------------------------------------------- #


class LayerTotals:
    """Calls, inclusive and self seconds per span name, and counters, summed
    over the jobs of one traced round."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.entries: dict[str, int] = {}  # calls from outside the span's layer
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def add_job(self, path: Path) -> None:
        data = json.loads(path.read_text(encoding="utf-8"))
        names = data["names"]
        spans = data["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            total = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.inclusive[name] = self.inclusive.get(name, 0.0) + total
            self.self_s[name] = self.self_s.get(name, 0.0) + total - child[i]
            outer = names[spans[parent][0]] if parent >= 0 else ""
            if outer.split(".")[0] != name.split(".")[0]:
                self.entries[name] = self.entries.get(name, 0) + 1
        for key, value in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        for key, value in data["maxima"].items():
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def _sum(self, table, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def layer_values(self) -> dict[str, float]:
        """Every per-layer metric except the import and overhead figures.  A
        ratio whose base is zero (the layer did not run) reads 0."""
        c, inc, own, n = self.counts, self.inclusive, self.self_s, self.calls

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        lyap = n.get("propagate.covariance_lyapunov", 0)
        closed_calls = self._sum(n, "propagate.closed.")
        states_built = n.get("model.GaussianState", 0)
        values = {
            "fpe.steps": c.get("fpe.steps", 0),
            "fpe.run_s": self._sum(inc, "fpe.run_fpe."),
            "fpe.mass_drift_max": self.maxima.get("fpe.mass_drift_max", 0.0),
            "states.render_s": self._sum(inc, "states.render."),
            "states.cells_rendered": c.get("states.cells_rendered", 0),
            "states.grid_csv_s": inc.get("states.grid_csv", 0.0),
            "states.grid_csv.ns_per_cell": ratio(
                inc.get("states.grid_csv", 0.0), c.get("states.grid_csv.cells", 0), 1e9
            ),
            "propagate.lyapunov.calls": lyap,
            "propagate.lyapunov.us_per_sample": ratio(
                inc.get("propagate.covariance_lyapunov", 0.0), lyap, 1e6
            ),
            "propagate.steady_state.per_sample": ratio(
                n.get("propagate.steady_state_covariance", 0), lyap
            ),
            "propagate.rk4.steps": c.get("propagate.rk4.steps", 0),
            "propagate.rk4.ns_per_step": ratio(
                inc.get("propagate.integrate_moments_rk4", 0.0),
                c.get("propagate.rk4.steps", 0), 1e9,
            ),
            "propagate.closed.calls": closed_calls,
            "propagate.closed.ns_per_call": ratio(
                self._sum(inc, "propagate.closed."), closed_calls, 1e9
            ),
            "propagate.traj_csv_s": inc.get("propagate.traj_csv", 0.0),
            "propagate.traj_csv.us_per_row": ratio(
                inc.get("propagate.traj_csv", 0.0), c.get("propagate.traj_csv.rows", 0), 1e6
            ),
            "model.states_built": states_built,
            "model.state.ns_per_build": ratio(
                inc.get("model.GaussianState", 0.0), states_built, 1e9
            ),
            "model.configs_built": n.get("model.OscillatorConfig", 0),
            "classicality.metrics.us_per_call": ratio(
                inc.get("classicality.metrics_from_state", 0.0),
                n.get("classicality.metrics_from_state", 0), 1e6,
            ),
            "classicality.metrics_csv_s": inc.get("classicality.write_metrics_csv", 0.0),
            "classicality.window_s": inc.get("classicality.find_windows", 0.0),
            "classicality.window.evals": c.get("classicality.window.evals", 0),
            "decoherence.calls": self._sum(self.entries, "decoherence."),
            "decoherence.s": self._sum(own, "decoherence."),
            "cli.sweep.us_per_point": ratio(
                inc.get("cli.run_sweep", 0.0), c.get("cli.sweep.points", 0), 1e6
            ),
            "cli.self_s": self._sum(own, "cli."),
            "config_io.s": self._sum(own, "config_io."),
        }
        for n_cells in (128, 256):
            values[f"fpe.ns_per_cell_step.n{n_cells}"] = ratio(
                inc.get(f"fpe.run_fpe.n{n_cells}", 0.0),
                c.get(f"fpe.cell_steps.n{n_cells}", 0), 1e9,
            )
        return values


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy, lindosc without numpy) cumulative import seconds from the
    ``-X importtime`` report of ``import lindosc.cli``."""
    numpy_us = 0
    lindosc_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative = int(fields[1])
        name = fields[2].rstrip()
        top_level = name.startswith(" ") and not name.startswith("  ")
        if name.strip() == "numpy":
            numpy_us = cumulative
        elif top_level and name.strip().split(".")[0] == "lindosc":
            lindosc_us += cumulative
    if not numpy_us or not lindosc_us:
        raise ValueError("import report names neither numpy nor lindosc")
    return numpy_us / 1e6, (lindosc_us - numpy_us) / 1e6

"""Spans and counters recorded from outside ``lindosc``, in the job process.

:func:`install` wraps the public functions each layer's metrics need.  A
function is replaced in every ``lindosc`` module namespace that holds it,
because modules import each other's names (``from .propagate import ...``);
methods and constructors are replaced on their class.  Each call records a
span ``[name, start, end, parent]``; spans stay in memory and :meth:`dump`
writes them, with the counters, after the job.  Nothing in ``lindosc`` is
edited: the benchmark measures the program only from outside.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time


class Tracer:
    def __init__(self, job: str) -> None:
        self.job = job
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return any(self.spans[i][0] == nid for i in self.stack[1:])

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``, or as ``name(args)`` if ``name``
        is callable; ``after(args, kwargs, result)`` runs once the span has
        closed, to update counters."""
        nid = None if callable(name) else self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [nid if nid is not None else self.name_id(name(args)),
                      clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def dump(self, path: str) -> None:
        payload = {
            "job": self.job,
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "maxima": self.maxima,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _replace(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "lindosc" and not name.startswith("lindosc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(job: str) -> Tracer:
    """Wrap the layer boundaries of the already imported ``lindosc``."""
    from lindosc import classicality, cli, config_io, decoherence, fpe, model
    from lindosc import propagate, states

    tracer = Tracer(job)

    def patch(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace(original, tracer.wrap(name, original, after))

    def patch_method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], after))

    def cells(key):
        def after(args, kwargs, result):
            values = result[0] if isinstance(result, tuple) else getattr(result, "values", result)
            tracer.add(key, int(getattr(values, "size", 1)))
        return after

    # fpe: grid-solver runs, one span name per grid size
    def after_run_fpe(args, kwargs, result):
        n = result.final.geom.n_q
        tracer.add("fpe.steps", result.steps)
        tracer.add(f"fpe.cell_steps.n{n}", result.steps * result.final.values.size)
        tracer.peak("fpe.mass_drift_max", abs(result.mass_final - result.mass_initial))

    patch(fpe, "run_fpe", lambda args: f"fpe.run_fpe.n{args[0].geom.n_q}", after_run_fpe)
    for attr in ("stable_dt", "grid_linf_diff", "grid_l2_diff", "grid_moments"):
        patch(fpe, attr, f"fpe.{attr}")

    # states: rendering and grid CSV
    for attr in ("render_grid", "stationary_grid", "density_grid", "stationary_density"):
        patch(states, attr, f"states.render.{attr}", cells("states.cells_rendered"))
    patch(states, "geometry_for_states", "states.geometry_for_states")
    patch_method(
        states.PhaseSpaceGrid, "to_csv", "states.grid_csv",
        lambda a, k, r: tracer.add("states.grid_csv.cells", a[0].values.size),
    )

    # propagate: exact route, RK4, closed forms, trajectory CSV
    for attr in ("covariance_lyapunov", "steady_state_covariance", "trajectory_lyapunov",
                 "asymptotic_covariance"):
        patch(propagate, attr, f"propagate.{attr}")
    rk4_signature = inspect.signature(propagate.integrate_moments_rk4)

    def after_rk4(args, kwargs, result):
        bound = rk4_signature.bind(*args, **kwargs).arguments
        tracer.add("propagate.rk4.steps", int(round(bound["t_end"] / bound["dt"])))

    patch(propagate, "integrate_moments_rk4", "propagate.integrate_moments_rk4", after_rk4)
    for attr in ("sigma_det_closed", "sigma_pq_closed", "mean_closed_form"):
        patch(propagate, attr, f"propagate.closed.{attr}")
    patch_method(
        propagate.Trajectory, "to_csv", "propagate.traj_csv",
        lambda a, k, r: tracer.add("propagate.traj_csv.rows", len(a[0])),
    )

    # model: state and configuration construction
    patch_method(model.GaussianState, "__init__", "model.GaussianState")
    patch_method(model.OscillatorConfig, "__init__", "model.OscillatorConfig")
    for attr in ("initial_state", "thermal_coefficients", "validate"):
        patch(model, attr, f"model.{attr}")

    # classicality: metrics, window finder (its closed-form evaluations counted)
    for attr in ("metrics_from_state", "write_metrics_csv", "find_windows", "one_sigma_contour"):
        patch(classicality, attr, f"classicality.{attr}")
    make_evaluator = classicality.closed_form_metric_evaluator

    def counting_evaluator(spec, cfg):
        evaluate = make_evaluator(spec, cfg)

        def counted(t):
            if tracer.inside("classicality.find_windows"):
                tracer.add("classicality.window.evals", 1)
            return evaluate(t)

        return counted

    _replace(
        make_evaluator,
        tracer.wrap("classicality.closed_form_metric_evaluator",
                    functools.update_wrapper(counting_evaluator, make_evaluator)),
    )

    # decoherence: time scales
    for attr in ("decoherence_rate", "decoherence_time", "statistical_time",
                 "relaxation_time", "rate_ratio", "regime_report", "time_scales"):
        patch(decoherence, attr, f"decoherence.{attr}")

    # config_io: --config parsing
    for attr in ("load_config_file", "parse_config_text", "build_model"):
        patch(config_io, attr, f"config_io.{attr}")

    # cli: the root span and the sweep glue
    def after_sweep(args, kwargs, result):
        tracer.add("cli.sweep.points", math.prod(axis.count for axis in args[0].axes))

    patch(cli, "run_sweep", "cli.run_sweep", after_sweep)
    patch(cli, "main", "cli.main")
    return tracer

"""Parameter sweeps: the closed forms and time scales over a grid of one or
two swept parameters, written as long-form CSV.

An axis is one of ``lambda``, ``mu``, ``delta`` and ``r`` (the initial
spread and correlation), ``C`` (the coth factor) and ``t``; the other
parameters keep the base configuration's values.  The recorded quantities
are ``delta_qd``, ``delta_cc``, ``sigma_det`` and ``sigma_pq`` at time
``t``, and the time scales ``t_deco``, ``t_d`` and ``t_rel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .classicality import classicality_degrees
from .csvout import write_csv
from .decoherence import rates, time_from_rate
from .model import InitialStateSpec, OscillatorConfig, parameter_table
from .propagate import closed_forms

__all__ = ["SweepAxis", "SweepSpec", "parse_sweep_axis", "run_sweep"]

AXES = ("lambda", "mu", "delta", "r", "C", "t")
_T_RECORDS = ("delta_qd", "delta_cc", "sigma_det", "sigma_pq")  # depend on t
RECORDS = _T_RECORDS + ("t_deco", "t_d", "t_rel")
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
        if self.name not in AXES:
            raise ValueError(
                f"unknown sweep axis {self.name!r}; choose from {AXES}"
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
            if record not in RECORDS:
                raise ValueError(
                    f"unknown record {record!r}; choose from {RECORDS}"
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


def write_sweep_csv(
    target: str | Path | IO[str],
    values: Mapping[str, Sequence[float]],
    records: Sequence[str],
    base_cfg: OscillatorConfig,
    base_spec: InitialStateSpec,
    t: float = 0.0,
) -> None:
    """CSV of the grid spanned by ``values``, one value array per axis name
    of :data:`AXES`, row-major (first axis slow): each row holds the point's
    axis values and then its ``records``, names of :data:`RECORDS`, under a
    header of those names.

    Points that :func:`~lindosc.model.parameter_table` marks invalid (e.g.
    ``|mu| >= omega``, or a bath that breaks the bath rule) record ``nan``
    for every quantity rather than aborting the sweep; so do points at
    ``t < 0`` when a t-dependent quantity is recorded.

    The grid is evaluated in passes of at most ``_SWEEP_BLOCK`` points:
    whole rows of the first axis, or parts of one row where a row is
    longer.  A pass is one call of the closed forms and the rates, each
    broadcast over the open grid of the pass's axis values, so what depends
    on one axis alone is computed once per value (``t`` without a ``t``
    axis).
    """
    names = list(values)
    first, *rest = (np.asarray(v, dtype=float) for v in values.values())
    t_dependent = not set(_T_RECORDS).isdisjoint(records)

    def evaluate(*axis_values: np.ndarray) -> np.ndarray:
        """The CSV rows of the grid spanned by ``axis_values``."""
        point = dict(zip(names, np.ix_(*axis_values)))
        axes = {_TABLE_AXES[name]: v for name, v in point.items() if name != "t"}
        table = parameter_table(base_cfg, base_spec, **axes)
        at = point.get("t", t)
        valid = table.valid & ((at >= 0.0) | (not t_dependent))
        found = {}
        if t_dependent:  # t < 0 records nan: take t = 0 there
            sigma, s_pq = closed_forms(table, np.maximum(at, 0.0))
            qd, cc = classicality_degrees(sigma, s_pq, table.hbar)
            found.update(delta_qd=qd, delta_cc=cc, sigma_det=sigma, sigma_pq=s_pq)
        if not set(records).issubset(_T_RECORDS):
            deco, _, statistical = (time_from_rate(x) for x in rates(table))
            found.update(t_deco=deco, t_d=statistical, t_rel=time_from_rate(table.lam))
        recorded = [np.where(valid, found[record], math.nan) for record in records]
        shape = tuple(v.size for v in axis_values)
        columns = [*point.values(), *recorded]
        return np.column_stack([np.broadcast_to(c, shape).ravel() for c in columns])

    width = rest[0].size if rest else 1
    rows = max(1, _SWEEP_BLOCK // width)
    blocks = (
        evaluate(first[i : i + rows], *(axis[j : j + _SWEEP_BLOCK] for axis in rest))
        for i in range(0, first.size, rows)
        for j in range(0, width, _SWEEP_BLOCK)
    )
    write_csv(target, ",".join(names + list(records)), blocks)


def run_sweep(
    sweep: SweepSpec,
    base_cfg: OscillatorConfig,
    base_spec: InitialStateSpec,
    handle: IO[str],
) -> None:
    """Evaluate the sweep grid into CSV, the axis columns exactly
    :meth:`SweepAxis.values` (see :func:`write_sweep_csv`)."""
    values = {axis.name: axis.values() for axis in sweep.axes}
    write_sweep_csv(handle, values, sweep.records, base_cfg, base_spec, sweep.t)

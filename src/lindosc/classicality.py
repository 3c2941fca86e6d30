"""Classicality diagnostics: decoherence degree, classical-correlation degree,
the one-sigma covariance contour, and detection of time windows where both
criteria hold simultaneously.

Two dimensionless measures:

* ``delta_qd = hbar/(2 sqrt(sigma_det))`` — degree of quantum decoherence.
  Equals 1 on minimum-uncertainty states and decreases as the state mixes;
  small values mean strong decoherence.
* ``delta_cc = sqrt(sigma_det)/|s_pq|`` — degree of classical correlations.
  Small values mean the phase-space ellipse is strongly squeezed along a
  classical trajectory direction; ``+inf`` whenever the position-momentum
  covariance vanishes (no correlations at all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable

import numpy as np

from .csvout import write_csv
from .model import (
    GaussianState,
    InitialStateSpec,
    OscillatorConfig,
    float_or_array,
    parameter_table,
)
from .propagate import closed_forms, time_grid
from .states import alpha_beta_gamma

__all__ = [
    "ClassicalityMetrics",
    "classicality_degrees",
    "delta_qd",
    "delta_qd_asymptotic",
    "delta_cc",
    "metrics_from_state",
    "write_metrics_csv",
    "one_sigma_contour",
    "closed_form_metric_evaluator",
    "find_windows",
]

METRICS_HEADER = "t,delta_qd,delta_cc,gamma,sigma_det,sigma_pq"


def classicality_degrees(sigma, s_pq, hbar: float = 1.0):
    """``(delta_qd, delta_cc)`` from the covariance determinant ``sigma`` and
    the position-momentum covariance ``s_pq``, elementwise and silently;
    ``delta_cc`` is ``inf`` where ``s_pq == 0``, and both are ``nan`` where
    ``sigma < 0``.  Floats for scalars, arrays for arrays."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = np.sqrt(sigma)
        return float_or_array(hbar / (2.0 * root)), float_or_array(root / np.abs(s_pq))


def delta_qd(state: GaussianState, hbar: float = 1.0) -> float:
    """Degree of quantum decoherence, ``hbar/(2 sqrt(sigma_det))`` in (0, 1]."""
    return classicality_degrees(state.sigma_det, state.s_pq, hbar)[0]


def delta_qd_asymptotic(cfg: OscillatorConfig) -> float:
    """Long-time decoherence degree ``tanh(hbar*omega/(2kT)) = 1/C``.

    Depends on temperature only — the initial squeezing and correlation are
    forgotten.  Equals 1 at T=0 (the asymptotic state is pure) and tends to 0
    at high temperature.
    """
    c = cfg.coth_epsilon
    if math.isinf(c):
        return 0.0
    return 1.0 / c


def delta_cc(state: GaussianState) -> float:
    """Degree of classical correlations ``sqrt(sigma_det)/|s_pq|``.

    Returns ``math.inf`` when ``s_pq == 0`` — legitimately unbounded, not an
    error (the covariance crosses zero repeatedly during damped oscillation).
    """
    return classicality_degrees(state.sigma_det, state.s_pq)[1]


@dataclass(frozen=True)
class ClassicalityMetrics:
    """Classicality measures of one state sample."""

    t: float
    delta_qd: float
    delta_cc: float
    gamma: float
    sigma_det: float
    sigma_pq: float


def metrics_from_state(state: GaussianState, hbar: float = 1.0) -> ClassicalityMetrics:
    coeff = alpha_beta_gamma(state, hbar)
    qd, cc = classicality_degrees(state.sigma_det, state.s_pq, hbar)
    return ClassicalityMetrics(
        t=state.t,
        delta_qd=qd,
        delta_cc=cc,
        gamma=coeff.gamma,
        sigma_det=state.sigma_det,
        sigma_pq=state.s_pq,
    )


def write_metrics_csv(
    metrics: Iterable[ClassicalityMetrics], target: str | Path | IO[str]
) -> None:
    """Metrics CSV with infinity serialized as the literal ``inf``."""
    rows = (
        (m.t, m.delta_qd, m.delta_cc, m.gamma, m.sigma_det, m.sigma_pq)
        for m in metrics
    )
    write_csv(target, METRICS_HEADER, rows)


def one_sigma_contour(state: GaussianState, n_points: int = 256) -> np.ndarray:
    """Closed polyline sampling the one-sigma contour

        (x - mean)^T Sigma^{-1} (x - mean) = 2

    (the level at which the quadratic form scaled by 1/(2 sigma_det) equals 1).
    Returns an (n_points + 1, 2) array whose last row repeats the first.
    """
    if n_points < 8:
        raise ValueError("n_points must be >= 8")
    eigvals, eigvecs = np.linalg.eigh(state.covariance())
    angles = np.linspace(0.0, 2.0 * math.pi, n_points + 1)
    circle = np.stack([np.cos(angles), np.sin(angles)])
    points = (eigvecs * np.sqrt(2.0 * eigvals)) @ circle
    return points.T + state.mean()


# -- simultaneous-classicality windows --------------------------------------

_EDGE_TOL = 1e-6  # width of the bracket at which an edge's bisection stops


def closed_form_metric_evaluator(
    spec: InitialStateSpec, cfg: OscillatorConfig
) -> Callable[[float], tuple[float, float]]:
    """(delta_qd(t), delta_cc(t)) from one evaluation of the closed forms
    (:func:`~lindosc.propagate.closed_forms`); ``t`` may be a scalar or an
    array."""
    table = parameter_table(cfg, spec)

    def evaluate(t):
        return classicality_degrees(*closed_forms(table, t), cfg.hbar)

    return evaluate


def find_windows(
    spec: InitialStateSpec,
    cfg: OscillatorConfig,
    t_end: float,
    dt: float,
    qd_threshold: float,
    cc_threshold: float,
) -> list[tuple[float, float]]:
    """Maximal time intervals where ``delta_qd < qd_threshold`` and
    ``delta_cc < cc_threshold`` hold simultaneously, from the closed forms.

    Membership is sampled on :func:`~lindosc.propagate.time_grid` ``(t_end,
    dt)``; every change of membership between neighbouring samples is bisected
    until its bracket is at most 1e-6 wide, and the edge is the bracket's
    midpoint.  A window that opens at the first sample or closes at the last
    one keeps that sample as its edge.  A window (or a gap) shorter than
    ``dt`` can be missed.  Returns an empty list when no sample is inside.
    ``ValueError`` unless both thresholds are finite and positive: no state
    has a negative degree, so no window could exist.
    """
    if t_end <= 0.0 or dt <= 0.0:
        raise ValueError("t_end and dt must be positive")
    for name, threshold in (("qd", qd_threshold), ("cc", cc_threshold)):
        if not (math.isfinite(threshold) and threshold > 0.0):
            raise ValueError(f"{name} threshold must be finite and > 0, got {threshold!r}")
    evaluate = closed_form_metric_evaluator(spec, cfg)

    def inside(t: np.ndarray) -> np.ndarray:
        qd, cc = evaluate(t)
        return (qd < qd_threshold) & (cc < cc_threshold)

    times = time_grid(t_end, dt)
    flags = inside(times)
    # samples left[j] and left[j] + 1 differ; all crossings are bisected
    # together, each on the midpoint sequence of its own bracket
    left = np.flatnonzero(flags[1:] != flags[:-1])
    t_in = np.where(flags[left], times[left], times[left + 1])
    t_out = np.where(flags[left], times[left + 1], times[left])
    active = np.abs(t_in - t_out) > _EDGE_TOL
    while active.any():
        mid = 0.5 * (t_in + t_out)
        hit = inside(mid)
        t_in = np.where(active & hit, mid, t_in)
        t_out = np.where(active & ~hit, mid, t_out)
        active = np.abs(t_in - t_out) > _EDGE_TOL
    edges = (0.5 * (t_in + t_out)).tolist()
    if flags[0]:
        edges.insert(0, times[0].item())
    if flags[-1]:
        edges.append(times[-1].item())
    return list(zip(edges[::2], edges[1::2]))

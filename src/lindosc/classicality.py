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
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .model import GaussianState, InitialStateSpec, OscillatorConfig
from .propagate import (
    Trajectory,
    sigma_det_closed,
    sigma_pq_closed,
    time_grid,
    write_csv,
)
from .states import alpha_beta_gamma

__all__ = [
    "ClassicalityMetrics",
    "classicality_degrees",
    "delta_qd",
    "delta_qd_asymptotic",
    "delta_cc",
    "delta_cc_closed_system",
    "metrics_from_state",
    "write_metrics_csv",
    "one_sigma_contour",
    "contour_semi_axes",
    "contour_area",
    "classicality_window",
    "closed_form_metric_evaluator",
    "find_windows",
]

METRICS_HEADER = "t,delta_qd,delta_cc,gamma,sigma_det,sigma_pq"


def classicality_degrees(sigma, s_pq, hbar: float = 1.0):
    """``(delta_qd, delta_cc)`` from the covariance determinant ``sigma`` and
    the position-momentum covariance ``s_pq``, elementwise; ``delta_cc`` is
    ``inf`` where ``s_pq == 0``.  Floats for scalars, arrays for arrays."""
    scalar = isinstance(sigma, float) and isinstance(s_pq, float)
    root = math.sqrt(sigma) if scalar else np.sqrt(sigma)
    qd = hbar / (2.0 * root)
    if scalar:
        return qd, (math.inf if s_pq == 0.0 else root / abs(s_pq))
    with np.errstate(divide="ignore", over="ignore"):  # inf, as for floats
        return qd, root / np.abs(s_pq)


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


def delta_cc_closed_system(
    spread: float, cfg: OscillatorConfig, t: float
) -> float:
    """Classical-correlation degree of an undamped oscillator started from an
    uncorrelated squeezed state: ``2/|(spread - 1/spread) sin(2 omega t)|``.

    ``+inf`` for the unsqueezed state (spread=1) at every time, and at the
    zeros of the sine for any spread.
    """
    if spread <= 0.0:
        raise ValueError("spread must be > 0")
    envelope = abs((spread - 1.0 / spread) * math.sin(2.0 * cfg.omega * t))
    if envelope == 0.0:
        return math.inf
    return 2.0 / envelope


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


def contour_semi_axes(state: GaussianState) -> tuple[float, float]:
    """Semi-axis lengths (major, minor) of the one-sigma contour ellipse,
    ``sqrt(2 * eigenvalue)`` of the covariance matrix."""
    eigvals = np.linalg.eigvalsh(state.covariance())
    minor, major = float(eigvals[0]), float(eigvals[1])
    return math.sqrt(2.0 * major), math.sqrt(2.0 * minor)


def contour_area(state: GaussianState) -> float:
    """Area enclosed by the one-sigma contour: ``2 pi sqrt(sigma_det)``.

    ``delta_qd * area == pi * hbar`` — the decoherence degree is inversely
    proportional to the occupied phase-space area.
    """
    return 2.0 * math.pi * math.sqrt(state.sigma_det)


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


def _condition(qd, cc, qd_threshold: float, cc_threshold: float):
    # scalars, or arrays elementwise
    return (qd < qd_threshold) & (cc < cc_threshold)


def _membership(
    evaluator: Callable, qd_threshold: float, cc_threshold: float
) -> Callable:
    """t -> whether both degrees are below their thresholds at t (scalar or
    array ``t``)."""
    return lambda t: _condition(*evaluator(t), qd_threshold, cc_threshold)


def _refine_crossing(
    inside: Callable[[float], bool], t_out: float, t_in: float, time_tol: float
) -> float:
    # Bisect between a time outside the window and a time inside it.
    while abs(t_in - t_out) > time_tol:
        mid = 0.5 * (t_in + t_out)
        if inside(mid):
            t_in = mid
        else:
            t_out = mid
    return 0.5 * (t_in + t_out)


def _windows_from_samples(
    times: Sequence[float],
    flags: Sequence[bool],
    inside: Callable[[float], bool] | None,
    time_tol: float,
) -> list[tuple[float, float]]:
    windows: list[tuple[float, float]] = []
    i = 0
    n = len(times)
    while i < n:
        if not flags[i]:
            i += 1
            continue
        first = i
        while i + 1 < n and flags[i + 1]:
            i += 1
        start, end = times[first], times[i]
        if inside is not None:
            if first > 0:
                start = _refine_crossing(inside, times[first - 1], start, time_tol)
            if i + 1 < n:
                end = _refine_crossing(inside, times[i + 1], end, time_tol)
        windows.append((start, end))
        i += 1
    return windows


def classicality_window(
    traj: Trajectory,
    qd_threshold: float,
    cc_threshold: float,
    *,
    hbar: float = 1.0,
    evaluator: Callable[[float], tuple[float, float]] | None = None,
    time_tol: float = 1e-6,
) -> list[tuple[float, float]]:
    """Maximal time intervals where ``delta_qd < qd_threshold`` and
    ``delta_cc < cc_threshold`` hold simultaneously.

    Thresholds are mandatory (they are conventions, not physics).  The window
    membership is decided on the trajectory samples; when ``evaluator`` is
    given (mapping t -> (delta_qd, delta_cc), typically the cheap closed
    forms), interval endpoints are refined by bisection to ``time_tol``.
    Returns an empty list when the condition never holds.
    """
    if not (0.0 < qd_threshold and 0.0 < cc_threshold):
        raise ValueError("thresholds must be positive")
    if len(traj) < 2:
        raise ValueError("need at least 2 trajectory samples to detect windows")
    qd, cc = classicality_degrees(traj.sigma_det, traj.s_pq, hbar)
    flags = _condition(qd, cc, qd_threshold, cc_threshold).tolist()
    inside = None
    if evaluator is not None:
        inside = _membership(evaluator, qd_threshold, cc_threshold)
    return _windows_from_samples(traj.times.tolist(), flags, inside, time_tol)


def closed_form_metric_evaluator(
    spec: InitialStateSpec, cfg: OscillatorConfig
) -> Callable[[float], tuple[float, float]]:
    """(delta_qd(t), delta_cc(t)) from the closed-form covariance expressions;
    ``t`` may be a scalar or an array."""

    def evaluate(t):
        sigma = sigma_det_closed(spec, cfg, t)
        s_pq = sigma_pq_closed(spec, cfg, t)
        return classicality_degrees(sigma, s_pq, cfg.hbar)

    return evaluate


def find_windows(
    spec: InitialStateSpec,
    cfg: OscillatorConfig,
    t_end: float,
    dt: float,
    qd_threshold: float,
    cc_threshold: float,
    time_tol: float = 1e-6,
) -> list[tuple[float, float]]:
    """Closed-form window detection on a uniform sampling grid (see
    :func:`~lindosc.propagate.time_grid`) with bisection refinement of the
    interval endpoints."""
    if t_end <= 0.0 or dt <= 0.0:
        raise ValueError("t_end and dt must be positive")
    inside = _membership(
        closed_form_metric_evaluator(spec, cfg), qd_threshold, cc_threshold
    )
    times = time_grid(t_end, dt)
    return _windows_from_samples(
        times.tolist(), inside(times).tolist(), inside, time_tol
    )

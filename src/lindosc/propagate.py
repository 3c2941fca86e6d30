"""Time evolution of Gaussian moments, three independent ways.

1. Closed forms: the damped-oscillation expressions for the means, and the
   explicit formulas for the covariance determinant and the position-momentum
   covariance from a correlated-coherent initial state under a thermal bath,
   one kernel (:func:`closed_forms`) broadcast over the parameters of a
   :class:`~lindosc.model.ParameterTable` and the times.
2. Exact propagation: with the oscillation basis ``c = cos(Om t)`` and
   ``s = sin(Om t)/Om`` (:func:`_oscillation`, shared with route 1), which
   never divides by ``Om``, ``E(t) = exp(Y t) = e^{-lam t}[c I + s K]`` with
   ``K = Y + lam I`` (so ``K^2 = -Om^2 I``), and the covariance is
   ``Sigma(t) = E Sigma0 E^T + int_0^t E(u) 2D E(u)^T du``.  The integrand is
   ``e^{-2 lam u}`` times ``c^2``, ``c s`` and ``s^2``, whose integrals follow
   from ``(s^2)' = 2 c s`` and ``c^2 + Om^2 s^2 = 1`` (:func:`_propagate_moments`),
   so one formula covers every ``lam >= 0`` and ``Om -> 0`` alike, and all
   sample times are evaluated in one set of array operations.
3. A fixed-step RK4 integration, used as an independent oracle.  The moment
   equations are stated once, as the linear system ``dx/dt = A x + b`` of
   :func:`_moment_system`, built from :func:`drift_matrix` and ``D`` only; a
   classic RK4 step of a linear autonomous system is the exact map
   ``x <- x + h S (A x + b)`` with ``S = I + hA/2 + (hA)^2/6 + (hA)^3/24``,
   and the steady state is a solve of the same matrix.  The powers of that
   map, built once per call by doubling, give every step of a block of up to
   1024 from the block start, so the steps are evaluated in array operations
   block by block, with each step still checked and at most one block held.

All three must agree to tight tolerances; the test suite enforces this.
The exact and RK4 routes return a :class:`Trajectory`, one validated array of
the trajectory CSV columns; states are built on access only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .csvout import write_csv
from .model import (
    DiffusionCoefficients,
    GaussianState,
    InitialStateSpec,
    NumericError,
    OscillatorConfig,
    ParameterTable,
    _lindblad_bath,
    _lindblad_table,
    _moment_fault,
    float_or_array,
    squeeze_terms,
)

__all__ = [
    "drift_matrix",
    "mean_closed_form",
    "steady_state_covariance",
    "asymptotic_covariance",
    "covariance_lyapunov",
    "sigma_det_closed",
    "sigma_pq_closed",
    "integrate_moments_rk4",
    "Trajectory",
    "trajectory_lyapunov",
    "time_grid",
]

TRAJECTORY_HEADER = "t,mean_q,mean_p,s_qq,s_pp,s_pq,sigma_det"


def _times(t) -> np.ndarray:
    """``t`` as a float array, 0-d for a scalar; ``ValueError`` unless
    ``t >= 0``."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    return t


def _sample_count(t_end: float, dt: float) -> float:
    """``t_end / dt``, after checking that ``t_end >= 0``, ``dt > 0`` and the
    ratio are finite (``ValueError`` otherwise)."""
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t-end must be finite and >= 0, got {t_end!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    count = t_end / dt
    if not math.isfinite(count):
        raise ValueError(f"t-end / dt = {t_end!r} / {dt!r} is not a finite sample count")
    return count


def whole_steps(t_end: float, dt: float) -> tuple[int, bool]:
    """The number ``n`` of whole ``dt`` steps in ``t_end``, and whether they
    make it up: ``t_end`` is an integer multiple of ``dt`` when ``n =
    round(t_end / dt)`` has ``|n dt - t_end| <= 1e-12 t_end``, a slack far
    above the rounding of ``n dt``; otherwise ``n = floor(t_end / dt)``.  The
    one such rule, shared by :func:`time_grid`, :func:`integrate_moments_rk4`
    and ``trajectory --route all``.  ``ValueError`` as :func:`_sample_count`."""
    count = _sample_count(t_end, dt)
    n = round(count)
    if abs(n * dt - t_end) <= 1e-12 * t_end:
        return n, True
    return math.floor(count), False


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform sample times ``0, dt, 2 dt, ...`` with ``t_end`` itself the
    last sample.

    If ``t_end`` is an integer multiple ``n dt`` (see :func:`whole_steps`),
    sample ``n`` is stamped ``t_end``, not the rounded ``n * dt``; otherwise
    ``t_end`` follows the last multiple below it.  ``ValueError`` unless
    ``t_end >= 0``, ``dt > 0`` and ``t_end / dt`` are finite.
    """
    n, whole = whole_steps(t_end, dt)
    times = np.arange(n + 1) * dt
    if not whole:
        return np.append(times, t_end)
    times[-1] = t_end
    return times


def drift_matrix(cfg: OscillatorConfig) -> np.ndarray:
    """Drift matrix Y of the first-moment equations d<q>/dt, d<p>/dt.

    ``Y = [[-(lam - mu), 1/m], [-m omega^2, -(lam + mu)]]``; its trace is
    ``-2 lam`` and its eigenvalues are ``-lam +/- i Omega`` in the underdamped
    regime.
    """
    return np.array(
        [
            [-(cfg.lam - cfg.mu), 1.0 / cfg.m],
            [-cfg.m * cfg.omega**2, -(cfg.lam + cfg.mu)],
        ]
    )


def _generator(cfg: OscillatorConfig) -> np.ndarray:
    """``K = Y + lam I``, the traceless oscillatory generator (``K^2 =
    -Omega^2 I``), written entry by entry: ``-(lam - mu) + lam`` need not round
    to ``mu``."""
    return np.array([[cfg.mu, 1.0 / cfg.m], [-cfg.m * cfg.omega**2, -cfg.mu]])


def _oscillation(lam, big, t):
    """``(e^{-lam t}, cos(Om t), sin(Om t)/Om)`` for the damping ``lam`` and
    the shifted frequency ``big = Om``, broadcast against ``t``.  Where the
    phase ``Om t`` overflows, the last two are taken at phase 0 if
    ``e^{-lam t}`` has underflowed to 0, so every product with the decay is
    its limit, exactly 0; otherwise they are ``nan``, since the phase is
    lost.  NumPy stays silent."""
    with np.errstate(over="ignore", invalid="ignore"):
        decay, phase = np.exp(-lam * t), big * t
        phase = np.where(np.isinf(phase) & (decay == 0.0), 0.0, phase)
        return decay, np.cos(phase), np.sin(phase) / big


def _means(state0: GaussianState, cfg: OscillatorConfig, decay, c, s):
    """``exp(Y t)`` applied to the initial means, from the basis at ``t``."""
    k_q, k_p = (_generator(cfg) @ state0.mean()).tolist()
    q0, p0 = state0.mean_q, state0.mean_p
    return decay * (c * q0 + s * k_q), decay * (c * p0 + s * k_p)


def mean_closed_form(state0: GaussianState, cfg: OscillatorConfig, t):
    """Mean coordinate and momentum at time ``t`` (damped oscillation).

    Decays to (0, 0) as ``t -> inf`` whenever ``lam > 0``; pure rotation with
    frequency ``omega`` in the closed system.  Floats for a scalar ``t``,
    arrays for an array.
    """
    basis = _oscillation(cfg.lam, cfg.shifted_frequency, _times(t))
    q, p = _means(state0, cfg, *basis)
    return float_or_array(q), float_or_array(p)


def _moment_system(
    cfg: OscillatorConfig, d: DiffusionCoefficients
) -> tuple[np.ndarray, np.ndarray]:
    """The moment equations ``d<x>/dt = Y <x>`` and ``dSigma/dt = Y Sigma +
    Sigma Y^T + 2D`` as one linear system ``dx/dt = A x + b`` in
    ``x = (mean_q, mean_p, s_qq, s_pq, s_pp)``; ``A`` is block diagonal, with
    the mean block ``Y`` and the covariance block acting on the three
    distinct entries of ``Sigma``."""
    (a, b), (c, e) = drift_matrix(cfg).tolist()
    system = np.zeros((5, 5))
    system[:2, :2] = [[a, b], [c, e]]
    system[2:, 2:] = [[2.0 * a, 2.0 * b, 0.0], [c, a + e, b], [0.0, 2.0 * c, 2.0 * e]]
    # doubled as Python floats, which overflow to inf without a NumPy warning
    return system, np.array([0.0, 0.0, 2.0 * d.d_qq, 2.0 * d.d_pq, 2.0 * d.d_pp])


def steady_state_covariance(
    cfg: OscillatorConfig, d: DiffusionCoefficients
) -> np.ndarray:
    """Steady-state covariance: the unique solution of
    ``Y S + S Y^T + 2 D = 0`` (exists iff ``lam > 0``), the fixed point of
    the covariance block of :func:`_moment_system`."""
    if cfg.lam <= 0.0:
        raise ValueError("no steady state without damping (lam > 0 required)")
    system, drive = _moment_system(cfg, d)
    s_qq, s_pq, s_pp = np.linalg.solve(system[2:, 2:], -drive[2:])
    return np.array([[s_qq, s_pq], [s_pq, s_pp]])


def asymptotic_covariance(cfg: OscillatorConfig) -> GaussianState:
    """Long-time Gaussian state under a thermal bath: zero means and

        s_qq(inf) = hbar*C/(2 m omega),  s_pp(inf) = hbar*m*omega*C/2,
        s_pq(inf) = 0,

    independent of the initial state; ``ValueError`` without a damped Lindblad bath.
    """
    if cfg.closed_system:
        raise ValueError("no asymptotic state without damping (lam > 0 required)")
    c = cfg.coth_epsilon
    _lindblad_bath(cfg, cfg.lam, cfg.mu, c, strict=True)
    scale = cfg.m * cfg.omega
    return GaussianState(
        mean_q=0.0,
        mean_p=0.0,
        s_qq=cfg.hbar * c / (2.0 * scale),
        s_pp=cfg.hbar * scale * c / 2.0,
        s_pq=0.0,
        t=math.inf,
    )


def _symmetric_terms(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Rows ``M``, ``K M + M K^T`` and ``K M K^T`` for a symmetric ``M``, each
    as its entries ``(qq, pp, pq)``, the trajectory column order."""
    km = k @ m
    return np.array([[x[0, 0], x[1, 1], x[0, 1]] for x in (m, km + km.T, km @ k.T)])


def _propagate_moments(
    state0: GaussianState,
    cfg: OscillatorConfig,
    d: DiffusionCoefficients,
    times: Sequence[float],
) -> np.ndarray:
    """Exact moments, one row ``(mean_q, mean_p, s_qq, s_pp, s_pq)`` per time.

    For a symmetric ``M``, ``E(u) M E(u)^T = e^{-2 lam u}[c^2 M + c s (K M +
    M K^T) + s^2 K M K^T]``, so ``Sigma(t)`` is that form at ``M = Sigma0``
    plus ``J0 2D + J1 (K 2D + 2D K^T) + J2 K 2D K^T`` with ``Jn = int_0^t
    e^{a u} {c^2, c s, s^2} du``, ``a = -2 lam`` and ``F = int_0^t e^{a u} du``
    (``t`` at ``lam = 0``).  By parts, ``(s^2)' = 2 c s`` gives
    ``J1 = e^{a t} s^2/2 - a J2/2``, and ``(c s)' = c^2 - Om^2 s^2 =
    1 - 2 Om^2 s^2`` gives ``e^{a t} s c - a J1 = F - 2 Om^2 J2``, so
    ``J2 = (a e^{a t} s^2 + 2F - 2 e^{a t} s c) / (a^2 + 4 Om^2)``; and
    ``c^2 + Om^2 s^2 = 1`` gives ``J0 = F - Om^2 J2``.  The denominator
    ``4(lam^2 + omega^2 - mu^2)`` is at least ``4 omega^2`` for ``|mu| <= lam``.
    NumPy stays silent; a non-finite row is the caller's to report.
    """
    t = _times(times)
    decay, c, s = _oscillation(cfg.lam, cfg.shifted_frequency, t)
    k = _generator(cfg)
    big2 = cfg.shifted_frequency**2
    a = -2.0 * cfg.lam
    e2 = decay * decay
    with np.errstate(all="ignore"):
        x = a * t
        flat = np.where(x == 0.0, t, np.expm1(x) / a)
        j2 = (a * e2 * s * s + 2.0 * flat - 2.0 * e2 * s * c) / (a * a + 4.0 * big2)
        j1 = 0.5 * (e2 * s * s - a * j2)
        j0 = flat - big2 * j2
        cov = np.column_stack([e2 * c * c, e2 * c * s, e2 * s * s]) @ _symmetric_terms(
            k, state0.covariance()
        )
        cov += np.column_stack([j0, j1, j2]) @ _symmetric_terms(k, 2.0 * d.matrix())
        return np.column_stack([*_means(state0, cfg, decay, c, s), cov])


def covariance_lyapunov(
    state0: GaussianState,
    cfg: OscillatorConfig,
    d: DiffusionCoefficients,
    t: float,
) -> GaussianState:
    """Exact Gaussian state at time ``t``.

    ``Sigma(t) = E Sigma0 E^T + int_0^t E(s) 2D E(s)^T ds`` with
    ``E(s) = exp(Y s)``; the integral is evaluated in closed form, exactly for
    every ``lam >= 0`` (see the module docstring).
    """
    return trajectory_lyapunov(state0, cfg, d, [t]).final


def closed_forms(p: ParameterTable, t) -> tuple[np.ndarray, np.ndarray]:
    """The covariance determinant sigma and the position-momentum covariance
    s_pq in closed form (thermal bath), at every point of ``p`` and time
    ``t``, broadcast together; ``ValueError`` unless ``t >= 0``.

    With the basis ``c``, ``s`` of :func:`_oscillation`, ``C`` the coth
    factor, ``E = e^{-2 lam t}`` and ``F = 1 - E`` (from ``expm1``)::

        sigma = (hbar^2/4)[E^2 + C^2 F^2 + k_+ C E F
                 + 2 mu C E (mu s^2 (k_+ - 2C) + k_- s c
                             + 2 r omega s^2 / sqrt(1 - r^2))]
        s_pq = (hbar/2) E[r/sqrt(1 - r^2) - omega k_- s c
                 + s^2 (mu omega (2C - k_+) - 2 omega^2 r / sqrt(1 - r^2))]

    sigma is grouped so that no terms of size ``C^2`` cancel at ``mu = 0``:
    it starts at exactly ``hbar^2/4`` and relaxes to ``(hbar^2/4) C^2``;
    constant in the closed system, at every ``C``.  Where ``C^2`` overflows
    (``C`` above about 1.34e154), its two terms are taken together as
    ``C (C (F^2 - 4 mu^2 E s^2))``: sigma is ``hbar^2/4`` at ``t = 0`` and
    ``+inf`` wherever it overflows, never ``nan`` (``sweep`` and ``window``
    read +inf there; ``trajectory --route closed`` is a numeric failure).
    s_pq is cov(q, p) of the moment system, so at ``t = 0`` it is
    ``+hbar*r/(2*sqrt(1-r^2))``; it oscillates at twice the shifted
    frequency and decays to zero.  It forms ``2 mu omega (C - k_+/2)``, the
    bits of ``mu omega (2C - k_+)`` without overflowing ``2C``.  NumPy
    stays silent; entries at invalid points (``p.valid`` False) carry no
    meaning, and every caller masks or rejects them.
    """
    t = _times(t)
    r, mu, w, coth = p.correlation, p.mu, p.omega, p.coth
    with np.errstate(all="ignore"):
        k_plus, k_minus, _, root = squeeze_terms(p)
        decay, c, s = _oscillation(p.lam, p.shifted_frequency, t)
        e = decay * decay
        f = -np.expm1(-2.0 * (p.lam * t))
        inner = (
            mu * s * s * (k_plus - 2.0 * coth)
            + k_minus * s * c
            + 2.0 * r * w * s * s / root
        )
        bracket = e * e + coth * coth * f * f + coth * e * (k_plus * f + 2.0 * mu * inner)
        huge = np.isinf(coth * coth) & np.isfinite(coth)
        if huge.any():  # C^2 overflows: its two terms as one product, never nan
            inner = mu * s * s * k_plus + k_minus * s * c + 2.0 * r * w * s * s / root
            square = coth * (coth * (f * f - 4.0 * mu * mu * e * s * s))
            grouped = e * e + square + coth * e * (k_plus * f + 2.0 * mu * inner)
            bracket = np.where(huge, grouped, bracket)
        sigma = (p.hbar * p.hbar / 4.0) * bracket
        bracket = (
            r / root
            + s * s * (2.0 * mu * w * (coth - 0.5 * k_plus) - 2.0 * w * w * r / root)
            - w * k_minus * s * c
        )
        return sigma, (p.hbar / 2.0) * decay * decay * bracket


def sigma_det_closed(spec: InitialStateSpec, cfg: OscillatorConfig, t):
    """Covariance determinant sigma(t) in closed form (thermal bath), see
    :func:`closed_forms`.  A float for a scalar ``t``, an array for an
    array; ``ValueError`` where the bath breaks the bath rule."""
    return float_or_array(closed_forms(_lindblad_table(cfg, spec), t)[0])


def sigma_pq_closed(spec: InitialStateSpec, cfg: OscillatorConfig, t):
    """Position-momentum covariance s_pq(t) in closed form (thermal bath), see
    :func:`closed_forms`; ``sigma_pq_closed(spec, cfg, 0)`` equals the
    initial-state value.  A float for a scalar ``t``, an array for an
    array; ``ValueError`` where the bath breaks the bath rule."""
    return float_or_array(closed_forms(_lindblad_table(cfg, spec), t)[1])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Moments at strictly increasing times: ``rows`` is one read-only
    ``(n, 6)`` array of rows ``(t, mean_q, mean_p, s_qq, s_pp, s_pq)``, the
    trajectory CSV columns but the derived ``sigma_det``.  Every row must be a
    :class:`GaussianState`, by its one check (``ValueError``).  Columns are
    read by their state names; ``traj[i]``, iteration and :attr:`final` build
    states on access only, and no other module knows the row layout."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 6 or len(rows) == 0:
            raise ValueError("trajectory needs an (n >= 1, 6) array of samples")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        t = self.t
        if np.isnan(t).any():
            raise ValueError("t must not be NaN")
        if (fault := _moment_fault(rows[:, 1:])) is not None:
            raise ValueError(fault[1])
        if (t[1:] <= t[:-1]).any():
            raise ValueError("trajectory times must be strictly increasing")

    t = property(lambda self: self.rows[:, 0])
    mean_q = property(lambda self: self.rows[:, 1])
    mean_p = property(lambda self: self.rows[:, 2])
    s_qq = property(lambda self: self.rows[:, 3])
    s_pp = property(lambda self: self.rows[:, 4])
    s_pq = property(lambda self: self.rows[:, 5])
    sigma_det = GaussianState.sigma_det  # the same formula, on whole columns

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> GaussianState:
        t, q, p, s_qq, s_pp, s_pq = self.rows[index].tolist()
        return GaussianState(mean_q=q, mean_p=p, s_qq=s_qq, s_pp=s_pp, s_pq=s_pq, t=t)

    def __iter__(self) -> Iterator[GaussianState]:
        return (self[i] for i in range(len(self)))

    @property
    def final(self) -> GaussianState:
        return self[-1]

    @property
    def table(self) -> np.ndarray:
        """The seven trajectory CSV columns, ``sigma_det`` appended."""
        return np.column_stack([self.rows, self.sigma_det])

    def to_csv(self, target: str | Path | IO[str]) -> None:
        """Write the pinned trajectory CSV (header + one row per sample)."""
        write_csv(target, TRAJECTORY_HEADER, self.table)


def trajectory_lyapunov(
    state0: GaussianState,
    cfg: OscillatorConfig,
    d: DiffusionCoefficients,
    times: Sequence[float],
) -> Trajectory:
    """Exact-propagation trajectory sampled at the given times; raises
    :class:`NumericError` at the first sample that is no Gaussian state."""
    times = np.asarray(times, dtype=float)
    moments = _propagate_moments(state0, cfg, d, times)
    if (fault := _moment_fault(moments)) is not None:
        i, what = fault
        raise NumericError(f"exact {what} at t={float(times[i])}", step=i)
    return Trajectory(np.column_stack([times, moments]))


# Steps evaluated together from one block start; the increments table and the
# block buffer hold this many rows, whatever the step count.
_BLOCK = 1024
# Trajectory columns (mean_q, mean_p, s_qq, s_pp, s_pq) from the moment-system
# vector (mean_q, mean_p, s_qq, s_pq, s_pp).
_ROW_ORDER = [0, 1, 2, 4, 3]


def _step_powers(
    step: np.ndarray, drive: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The increments of ``i = 1..size`` steps of ``x <- x + (M x + g)``:
    ``x_{k+i} = x_k + (P_i x_k + G_i)`` with ``P_i = (I + M)^i - I``.  From
    ``P_1 = M`` and ``G_1 = g``, each doubling pass appends ``P_{m+i} = P_i +
    P_m + P_i P_m`` and ``G_{m+i} = G_i + G_m + P_i G_m`` for ``i = 1..m``,
    so the table takes ``log2(size)`` array steps.  The table stops before
    the first power with a non-finite entry: an unstable step then overflows
    in the moments, at the step where it happens, not in ``inf * 0``."""
    p, g = step[None], drive[None]
    with np.errstate(all="ignore"):
        while len(p) < size:
            head = slice(0, min(len(p), size - len(p)))
            p_m, g_m = p[-1], g[-1]
            p, g = (
                np.concatenate([p, p[head] + p_m + p[head] @ p_m]),
                np.concatenate([g, g[head] + g_m + p[head] @ g_m]),
            )
    finite = np.isfinite(p).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)
    size = len(p) if finite.all() else max(1, int(finite.argmin()))
    return p[:size], g[:size]


def integrate_moments_rk4(
    state0: GaussianState,
    cfg: OscillatorConfig,
    d: DiffusionCoefficients,
    t_end: float,
    dt: float,
    record_every: int = 1,
) -> Trajectory:
    """Fixed-step classic RK4 on the five-dimensional moment system
    ``dx/dt = A x + b`` of :func:`_moment_system`.

    The system is linear and autonomous, so the four stages of one step sum
    to the exact map ``x <- x + (M x + g)`` with ``M = h A S``, ``g = h S b``
    and ``S = I + hA/2 + (hA)^2/6 + (hA)^3/24``.  Its powers give every step
    of a block from the block start, ``x_{k+i} = x_k + (P_i x_k + G_i)``
    (:func:`_step_powers`), so the steps are evaluated in blocks of up to
    1024 with array operations, not one Python iteration each.  The mean and
    covariance blocks are summed separately, in a fixed order that makes row
    1 the increment form ``x + (M x + g)`` of a single step.  The rounding
    is no worse than that of the step-by-step increments: a row adds one
    increment's rounding to its block start, ``P_i`` carries about ``log2 i``
    roundings from the doubling where ``i`` chained increments carry ``i``,
    and the block starts chain once per block, not once per step.  (Iterating
    ``x <- (I + M) x + g`` instead lets rounding build up over many steps.)

    Deterministic by construction; every ``record_every``-th step (plus the
    final step) is recorded, stamped with the times of :func:`time_grid`, so
    the final row is at ``t_end`` itself.  Memory holds one block and the
    recorded rows, whatever the step count.  Aborts with :class:`NumericError`
    at the first step whose moments are non-finite or whose covariance is not
    positive definite.  ``ValueError`` unless ``t_end >= 0``, ``dt > 0`` and
    ``t_end / dt`` are finite and ``t_end`` is an integer multiple of ``dt``
    (see :func:`whole_steps`).
    """
    n_steps, whole = whole_steps(t_end, dt)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if not whole:
        raise ValueError("t_end must be an integer multiple of dt")

    system, drive = _moment_system(cfg, d)
    with np.errstate(all="ignore"):  # a non-finite step map fails at step 1 below
        ha, eye = dt * system, np.eye(5)
        s = eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0))
        step, drive = ha @ s, dt * s @ drive
    powers, drives = _step_powers(step, drive, min(_BLOCK, max(n_steps, 1)))
    # column l of every P_i as rows j = 0..4, contiguous over i
    cols = np.ascontiguousarray(powers.transpose(2, 1, 0))
    drives = np.ascontiguousarray(drives.T)

    x = np.array([state0.mean_q, state0.mean_p, state0.s_qq, state0.s_pq, state0.s_pp])
    rows = np.empty((n_steps // record_every + 1 + (n_steps % record_every > 0), 6))
    rows[0] = [0.0, *x[_ROW_ORDER]]
    recorded, done = 1, 0
    with np.errstate(all="ignore"):  # a bad row is reported below, not warned
        while done < n_steps:
            b = min(len(powers), n_steps - done)
            out = np.empty((5, b))
            out[:2] = x[:2, None] + (cols[0, :2, :b] * x[0] + cols[1, :2, :b] * x[1])
            out[2:] = x[2:, None] + (
                cols[2, 2:, :b] * x[2]
                + cols[3, 2:, :b] * x[3]
                + cols[4, 2:, :b] * x[4]
                + drives[2:, :b]
            )
            if (fault := _moment_fault(out[_ROW_ORDER].T)) is not None:
                k = done + fault[0] + 1
                # exact dynamics keep the covariance positive definite, so a sign
                # loss can only mean the step size is unstable for these parameters
                raise NumericError(
                    f"moment integration became non-finite at step {k}"
                    if fault[1] == "moments not finite"
                    else f"covariance lost positivity at step {k}; decrease dt",
                    step=k,
                )
            # block columns whose global step is a multiple of record_every
            picked = np.arange(record_every - 1 - done % record_every, b, record_every)
            rows[recorded : recorded + len(picked), 0] = (done + 1 + picked) * dt
            rows[recorded : recorded + len(picked), 1:] = out[:, picked][_ROW_ORDER].T
            recorded += len(picked)
            x = out[:, -1]
            done += b
    rows[-1] = [t_end, *x[_ROW_ORDER]]
    return Trajectory(rows)

"""Time evolution of Gaussian moments, three independent ways.

1. Closed forms: the damped-oscillation expressions for the means, and the
   explicit formulas for the covariance determinant and the position-momentum
   covariance from a correlated-coherent initial state under a thermal bath.
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
   and the steady state is a solve of the same matrix.

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
    finite_bath,
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


def _elementwise(t):
    """``(math, float(t))`` for a scalar ``t``, else ``(numpy, float array)``;
    ``t >= 0`` is checked.  The closed forms are elementwise in ``t``, so one
    formula written against the returned module serves both, and a scalar
    skips NumPy's per-call overhead and comes back as a float."""
    if isinstance(t, (int, float)):
        xp, t = math, float(t)
        negative = t < 0.0
    else:
        xp, t = np, np.asarray(t, dtype=float)
        negative = bool(np.any(t < 0.0))
    if negative:
        raise ValueError("t must be >= 0")
    return xp, t


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


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform sample times ``0, dt, 2 dt, ...`` up to ``t_end``.

    ``t_end`` itself is the last sample: it is appended unless the last
    multiple of ``dt`` already lies within ``1e-12 * max(1, t_end)`` of it, and
    no sample lies past it.  ``ValueError`` unless ``t_end >= 0``, ``dt > 0``
    and ``t_end / dt`` are finite.
    """
    n = int(math.floor(_sample_count(t_end, dt) + 1e-9))
    times = np.minimum(np.arange(n + 1) * dt, t_end)
    if times[-1] < t_end - 1e-12 * max(1.0, t_end):
        times = np.append(times, t_end)
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


def _oscillation(xp, cfg: OscillatorConfig, t):
    """``(e^{-lam t}, cos(Om t), sin(Om t)/Om)`` for ``xp`` and ``t`` as
    :func:`_elementwise` returns them.  Where the phase ``Om t`` overflows,
    the last two are taken at phase 0 if ``e^{-lam t}`` has underflowed to 0,
    so every product with the decay is its limit, exactly 0; otherwise they
    are ``nan``, since the phase is lost.  A float ``t`` and an array give the
    same values, and NumPy stays silent."""
    big = cfg.shifted_frequency
    if xp is math:
        decay, phase = math.exp(-cfg.lam * t), big * t
        if math.isinf(phase):
            if decay != 0.0:
                return decay, math.nan, math.nan
            phase = 0.0
        return decay, math.cos(phase), math.sin(phase) / big
    with np.errstate(over="ignore", invalid="ignore"):
        decay, phase = np.exp(-cfg.lam * t), big * t
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
    xp, t = _elementwise(t)
    return _means(state0, cfg, *_oscillation(xp, cfg, t))


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
    return system, 2.0 * np.array([0.0, 0.0, d.d_qq, d.d_pq, d.d_pp])


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

    independent of the initial state.  Requires ``lam > 0``.
    """
    if cfg.lam <= 0.0:
        raise ValueError("no asymptotic state without damping (lam > 0 required)")
    c = cfg.coth_epsilon
    if math.isinf(c):
        raise ValueError("asymptotic covariance diverges at infinite temperature")
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
    """
    _, t = _elementwise(times)
    decay, c, s = _oscillation(np, cfg, t)
    k = _generator(cfg)
    big2 = cfg.shifted_frequency**2
    a = -2.0 * cfg.lam
    e2 = decay * decay
    x = a * t
    with np.errstate(divide="ignore", invalid="ignore"):
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


def sigma_det_closed(spec: InitialStateSpec, cfg: OscillatorConfig, t):
    """Covariance determinant sigma(t) in closed form (thermal bath).

    With the basis ``c``, ``s`` of :func:`_oscillation`, ``C`` the coth
    factor, ``E = e^{-2 lam t}`` and ``F = 1 - E`` (from ``expm1``)::

        sigma = (hbar^2/4)[E^2 + C^2 F^2 + k_+ C E F
                 + 2 mu C E (mu s^2 (k_+ - 2C) + k_- s c
                             + 2 r omega s^2 / sqrt(1 - r^2))]

    Grouped so that no terms of size ``C^2`` cancel at ``mu = 0``: it starts
    at exactly ``hbar^2/4`` and relaxes to ``(hbar^2/4) C^2``; constant in
    the closed system, at every ``C`` (:func:`~lindosc.model.finite_bath`).
    A float for a scalar ``t``, an array for an array.
    """
    xp, t = _elementwise(t)
    coth = finite_bath(cfg).coth_epsilon
    mu = cfg.mu
    k_plus, k_minus, _, root = squeeze_terms(spec)
    r = spec.correlation
    if math.isinf(coth):  # an open bath: the C terms give inf * 0, so no value
        return t * math.nan
    decay, c, s = _oscillation(xp, cfg, t)
    e = decay * decay
    f = -xp.expm1(-2.0 * cfg.lam * t)
    inner = (
        mu * s * s * (k_plus - 2.0 * coth)
        + k_minus * s * c
        + 2.0 * r * cfg.omega * s * s / root
    )
    bracket = e * e + coth * coth * f * f + coth * e * (k_plus * f + 2.0 * mu * inner)
    return (cfg.hbar * cfg.hbar / 4.0) * bracket


def sigma_pq_closed(spec: InitialStateSpec, cfg: OscillatorConfig, t):
    """Position-momentum covariance s_pq(t) in closed form (thermal bath)::

        s_pq = (hbar/2) e^{-2 lam t}[r/sqrt(1 - r^2) - omega k_- s c
                 + s^2 (mu omega (2C - k_+) - 2 omega^2 r / sqrt(1 - r^2))]

    Sign convention: this is cov(q, p) of the moment system, so
    ``sigma_pq_closed(spec, cfg, 0)`` equals the initial-state value
    ``+hbar*r/(2*sqrt(1-r^2))``.  Oscillates at twice the shifted frequency and
    decays to zero.  A float for a scalar ``t``, an array for an array.
    """
    xp, t = _elementwise(t)
    coth = finite_bath(cfg).coth_epsilon
    w = cfg.omega
    k_plus, k_minus, _, root = squeeze_terms(spec)
    r = spec.correlation
    decay, c, s = _oscillation(xp, cfg, t)
    bracket = (
        r / root
        + s * s * (cfg.mu * w * (2.0 * coth - k_plus) - 2.0 * w * w * r / root)
        - w * k_minus * s * c
    )
    return (cfg.hbar / 2.0) * decay * decay * bracket


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Moments at strictly increasing times: ``rows`` is one read-only
    ``(n, 6)`` array of rows ``(t, mean_q, mean_p, s_qq, s_pp, s_pq)``, the
    trajectory CSV columns but the derived ``sigma_det``.  Every row is checked
    as :class:`GaussianState` checks a state (``ValueError``).  Columns are
    read by their state names; ``traj[i]``, iteration and :attr:`final` build
    states on access only, and no other module knows the row layout."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 6 or len(rows) == 0:
            raise ValueError("trajectory needs an (n >= 1, 6) array of samples")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        t = self.times
        if not np.isfinite(rows[:, 1:]).all():
            raise ValueError("moments must be finite")
        if np.isnan(t).any():
            raise ValueError("t must not be NaN")
        if (self.s_qq <= 0.0).any() or (self.s_pp <= 0.0).any():
            raise ValueError("variances must be positive")
        with np.errstate(over="ignore", invalid="ignore"):
            if (self.sigma_det <= 0.0).any():
                raise ValueError("covariance matrix must be positive definite")
        if (t[1:] <= t[:-1]).any():
            raise ValueError("trajectory times must be strictly increasing")

    times = property(lambda self: self.rows[:, 0])
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
    """Exact-propagation trajectory sampled at the given times."""
    times = np.asarray(times, dtype=float)
    moments = _propagate_moments(state0, cfg, d, times)
    return Trajectory(np.column_stack([times, moments]))


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
    and ``S = I + hA/2 + (hA)^2/6 + (hA)^3/24``; ``M`` and ``g`` are built
    once, and the increment is added to ``x`` (iterating ``x <- (I + M) x +
    g`` instead lets rounding build up over many steps).

    Deterministic by construction; every ``record_every``-th step (plus the
    final step) is recorded.  Aborts with :class:`NumericError` on non-finite
    values.  ``ValueError`` unless ``t_end >= 0``, ``dt > 0`` and
    ``t_end / dt`` are finite.
    """
    n_steps = int(round(_sample_count(t_end, dt)))
    if record_every < 1:
        raise ValueError("record_every must be >= 1")

    system, drive = _moment_system(cfg, d)
    ha, eye = dt * system, np.eye(5)
    s = eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0))
    step = ha @ s
    (m_qq, m_qp), (m_pq, m_pp) = step[:2, :2].tolist()
    # rows of the covariance block, for the new s_qq, s_pq and s_pp
    (a_qq, a_pq, a_pp), (b_qq, b_pq, b_pp), (c_qq, c_pq, c_pp) = step[2:, 2:].tolist()
    g_qq, g_pq, g_pp = (dt * s @ drive)[2:].tolist()

    q, p = state0.mean_q, state0.mean_p
    sqq, spq, spp = state0.s_qq, state0.s_pq, state0.s_pp
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of dt")

    rows = [(0.0, q, p, sqq, spp, spq)]
    for k in range(1, n_steps + 1):
        q, p = q + (m_qq * q + m_qp * p), p + (m_pq * q + m_pp * p)
        sqq, spq, spp = (
            sqq + (a_qq * sqq + a_pq * spq + a_pp * spp + g_qq),
            spq + (b_qq * sqq + b_pq * spq + b_pp * spp + g_pq),
            spp + (c_qq * sqq + c_pq * spq + c_pp * spp + g_pp),
        )
        if not (math.isfinite(q) and math.isfinite(p) and math.isfinite(sqq)
                and math.isfinite(spq) and math.isfinite(spp)):
            raise NumericError(
                f"moment integration became non-finite at step {k}", step=k
            )
        if sqq <= 0.0 or spp <= 0.0 or sqq * spp - spq * spq <= 0.0:
            # exact dynamics keep the covariance positive definite, so a sign
            # loss can only mean the step size is unstable for these parameters
            raise NumericError(
                f"covariance lost positivity at step {k}; decrease dt", step=k
            )
        if k % record_every == 0 or k == n_steps:
            rows.append((k * dt, q, p, sqq, spp, spq))
    return Trajectory(rows)

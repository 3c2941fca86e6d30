"""Parameter model for a damped quantum harmonic oscillator coupled to a thermal bath.

The open-system dynamics is Markovian (Lindblad form) with constant friction
constants ``lam`` (overall dissipation) and ``mu`` (asymmetry between the
coordinate and momentum friction terms) and constant diffusion coefficients.
Everything downstream works with Gaussian states, so a state is fully described
by its first moments (mean coordinate/momentum) and its three second central
moments.

Conventions
-----------
* Natural units ``m = omega = hbar = boltzmann = 1`` are the defaults; all
  dimensionless reference values in the tests assume them.  SI values are only
  needed for the macroscopic decoherence estimate, see
  :meth:`OscillatorConfig.si`.
* The bath temperature is carried canonically as ``C = coth(hbar*omega/(2kT))``
  so that ``T = 0`` maps to exactly ``C = 1`` (no overflow in the exponent
  argument) and the infinite-temperature limit is ``C = inf``.
* Underdamped regime only: ``omega > |mu|``, giving the shifted frequency
  ``Omega = sqrt(omega**2 - mu**2)``.
* The thermal bath is a Lindblad generator only when ``lam > |mu|`` and
  ``(lam**2 - mu**2) C**2 >= lam**2``; :func:`validate` checks each condition
  once.  ``lam = mu = 0`` is the closed system (zero diffusion), and the
  defaults of :class:`OscillatorConfig` are that closed system at ``T = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BOLTZMANN_SI",
    "HBAR_SI",
    "NumericError",
    "TemperatureSpec",
    "OscillatorConfig",
    "DiffusionCoefficients",
    "InitialStateSpec",
    "squeeze_terms",
    "GaussianState",
    "CheckResult",
    "ValidationReport",
    "thermal_coefficients",
    "validate",
    "initial_state",
]

# 2019 SI exact value / CODATA 2018 recommended value.
BOLTZMANN_SI = 1.380649e-23  # J/K
HBAR_SI = 1.054571817e-34  # J*s


class NumericError(RuntimeError):
    """An evolution produced non-finite values.

    ``step`` carries the offending step index when available.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TemperatureSpec:
    """Bath temperature in one of two equivalent encodings.

    Exactly one of the two fields is set:

    ``coth_value``
        The dimensionless factor ``C = coth(hbar*omega/(2kT))`` >= 1.  This is
        the canonical form: every thermal formula uses ``C`` (or its inverse,
        ``tanh``), ``C = 1`` encodes ``T = 0`` exactly, and ``C = inf`` the
        infinite-temperature limit.
    ``temperature``
        Temperature in whatever unit system the attached oscillator uses
        (kelvin in SI mode).  Conversion to ``C`` needs ``hbar*omega/boltzmann``
        and is therefore done by :class:`OscillatorConfig`, which has them.
    """

    coth_value: float | None = None
    temperature: float | None = None

    def __post_init__(self) -> None:
        if (self.coth_value is None) == (self.temperature is None):
            raise ValueError(
                "exactly one of coth_value or temperature must be given"
            )
        if self.coth_value is not None:
            c = self.coth_value
            if math.isnan(c) or c < 1.0:
                raise ValueError(f"coth factor must be >= 1, got {c!r}")
        if self.temperature is not None:
            t = self.temperature
            if math.isnan(t) or t < 0.0:
                raise ValueError(f"temperature must be >= 0, got {t!r}")

    @classmethod
    def zero(cls) -> "TemperatureSpec":
        """Zero temperature, i.e. ``C = 1``."""
        return cls(coth_value=1.0)

    @classmethod
    def from_coth(cls, value: float) -> "TemperatureSpec":
        return cls(coth_value=float(value))

    @classmethod
    def from_temperature(cls, value: float) -> "TemperatureSpec":
        return cls(temperature=float(value))

    @classmethod
    def from_epsilon(cls, eps: float) -> "TemperatureSpec":
        """Build from the thermal exponent argument ``eps = hbar*omega/(2kT)`` > 0."""
        eps = float(eps)
        if math.isnan(eps) or eps <= 0.0:
            raise ValueError(f"thermal exponent argument must be > 0, got {eps!r}")
        return cls(coth_value=1.0 / math.tanh(eps))


@dataclass(frozen=True)
class OscillatorConfig:
    """Oscillator and bath parameters.

    ``lam`` >= 0 is the dissipation constant (decay rate of the mean motion is
    exactly ``lam``); ``mu`` splits the friction asymmetrically between the
    coordinate and momentum equations.  Only the underdamped regime
    ``omega > |mu|`` is supported.  Without damping, ``lam = mu = 0``, the
    oscillator is a closed system (:attr:`closed_system`) with zero diffusion;
    the defaults are that closed system at zero temperature.
    """

    m: float = 1.0
    omega: float = 1.0
    lam: float = 0.0
    mu: float = 0.0
    hbar: float = 1.0
    boltzmann: float = 1.0
    temp: TemperatureSpec = field(default_factory=TemperatureSpec.zero)

    def __post_init__(self) -> None:
        for name in ("m", "omega", "hbar", "boltzmann"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value <= 0.0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        _require_finite("lam", self.lam)
        _require_finite("mu", self.mu)
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam!r}")
        if abs(self.mu) >= self.omega:
            raise ValueError(
                f"underdamped regime requires omega > |mu|; got omega={self.omega!r}, mu={self.mu!r}"
            )

    @classmethod
    def reference(cls, coth: float = 3.0) -> "OscillatorConfig":
        """The reference bath of the figures and the acceptance suite:
        ``lam = 0.2``, ``mu = 0.1`` in natural units, ``C = coth``."""
        return cls(lam=0.2, mu=0.1, temp=TemperatureSpec.from_coth(coth))

    @classmethod
    def si(
        cls,
        *,
        m: float,
        omega: float,
        temperature: float,
        lam: float = 0.0,
        mu: float = 0.0,
    ) -> "OscillatorConfig":
        """SI-unit configuration (kg, rad/s, K) with pinned physical constants."""
        return cls(
            m=m,
            omega=omega,
            lam=lam,
            mu=mu,
            hbar=HBAR_SI,
            boltzmann=BOLTZMANN_SI,
            temp=TemperatureSpec.from_temperature(temperature),
        )

    # -- derived scalars ----------------------------------------------------

    @property
    def shifted_frequency(self) -> float:
        """Oscillation frequency of the damped motion, ``sqrt(omega^2 - mu^2)``."""
        return math.sqrt(self.omega * self.omega - self.mu * self.mu)

    @property
    def closed_system(self) -> bool:
        """No damping, ``lam = mu = 0``: no bath acts, so the diffusion is zero."""
        return self.lam == 0.0 and self.mu == 0.0

    @property
    def coth_epsilon(self) -> float:
        """``C = coth(hbar*omega/(2kT))``; ``inf`` where the exponent argument
        is 0, at ``T = inf`` or where ``hbar*omega/(2kT)`` underflows."""
        if self.temp.coth_value is not None:
            return self.temp.coth_value
        eps = self.epsilon
        if eps == 0.0:
            return math.inf
        return 1.0 / math.tanh(eps)

    @property
    def epsilon(self) -> float:
        """Exponent argument ``hbar*omega/(2kT)``; ``inf`` at T=0, ``0`` at T=inf."""
        temp = self.temp.temperature
        if temp is not None:
            if temp == 0.0:
                return math.inf
            return self.hbar * self.omega / (2.0 * self.boltzmann * temp)
        c = self.temp.coth_value
        if c == 1.0:
            return math.inf
        return math.atanh(1.0 / c)

    @property
    def temperature(self) -> float:
        """Temperature in the configured units (kelvin when those are SI)."""
        if self.temp.temperature is not None:
            return self.temp.temperature
        eps = self.epsilon
        if eps == 0.0:
            return math.inf
        return self.hbar * self.omega / (2.0 * self.boltzmann * eps)

    @property
    def thermal_energy(self) -> float:
        """``k*T`` in the configured units."""
        return self.boltzmann * self.temperature


@dataclass(frozen=True)
class DiffusionCoefficients:
    """Constant diffusion coefficients of the master / Fokker-Planck equation.

    ``d_pp`` drives momentum diffusion (and thereby the damping of spatial
    coherences), ``d_qq`` coordinate diffusion, ``d_pq`` the cross term.
    """

    d_pp: float
    d_qq: float
    d_pq: float = 0.0

    def __post_init__(self) -> None:
        for name in ("d_pp", "d_qq", "d_pq"):
            _require_finite(name, getattr(self, name))
        if self.d_pp < 0.0 or self.d_qq < 0.0:
            raise ValueError("diagonal diffusion coefficients must be >= 0")

    @classmethod
    def zero(cls) -> "DiffusionCoefficients":
        return cls(d_pp=0.0, d_qq=0.0, d_pq=0.0)

    def matrix(self) -> np.ndarray:
        """2x2 diffusion matrix in (q, p) ordering."""
        return np.array(
            [[self.d_qq, self.d_pq], [self.d_pq, self.d_pp]], dtype=float
        )


def thermal_coefficients(cfg: OscillatorConfig) -> DiffusionCoefficients:
    """Diffusion coefficients of a bath driving the oscillator to a Gibbs state.

        d_pp = (lam + mu)/2 * hbar * m * omega * C
        d_qq = (lam - mu)/2 * hbar / (m * omega) * C
        d_pq = 0

    with ``C`` the thermal coth factor.  Requires ``lam > |mu|`` so both
    diagonal coefficients are positive; the closed system (``lam = mu = 0``)
    returns all zeros.
    """
    if cfg.closed_system:
        return DiffusionCoefficients.zero()
    if cfg.lam <= abs(cfg.mu):
        raise ValueError(
            "thermal coefficients need lam > |mu| for positive diffusion; "
            f"got lam={cfg.lam!r}, mu={cfg.mu!r}"
        )
    c = cfg.coth_epsilon
    if math.isinf(c):
        raise ValueError("thermal coefficients diverge at infinite temperature")
    half_sum = 0.5 * (cfg.lam + cfg.mu)
    half_diff = 0.5 * (cfg.lam - cfg.mu)
    scale = cfg.m * cfg.omega
    return DiffusionCoefficients(
        d_pp=half_sum * cfg.hbar * scale * c,
        d_qq=half_diff * cfg.hbar / scale * c,
        d_pq=0.0,
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    hard: bool
    detail: str

    def line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        kind = "" if self.hard else " (advisory)"
        return f"{verdict:4s}  {self.name}{kind}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the physical-admissibility checks for a configuration."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        """True when every hard check passed (advisories may still fail)."""
        return all(c.passed for c in self.checks if c.hard)

    def __str__(self) -> str:
        return "\n".join(c.line() for c in self.checks)


def validate(cfg: OscillatorConfig) -> ValidationReport:
    """Check that the configuration's thermal bath is a Lindblad generator.

    Hard checks: ``diffusion_positive``, the thermal coefficients exist with
    ``d_pp, d_qq > 0`` (``lam > |mu|`` and ``C`` finite), or the system is
    closed; and ``thermal_constraint``, ``(lam^2 - mu^2) C^2 >= lam^2``, which
    for these coefficients is the determinant bound
    ``d_pp*d_qq - d_pq^2 >= (lam*hbar/2)^2`` divided by ``hbar^2/4``.  It is
    decided divided by ``lam^2 C^2``, as ``1 - (mu/lam)^2 >= 1/C^2``, where
    nothing overflows or underflows, with a slack relative to the compared
    values.  Since ``1/C^2 > 0``, it needs ``lam > |mu|`` or ``lam = mu = 0``,
    also in the limit ``C = inf``.  The weak-coupling condition
    ``lam < omega/10`` is advisory only.
    """
    try:
        d = thermal_coefficients(cfg)
    except ValueError as exc:
        diffusion = CheckResult("diffusion_positive", False, True, str(exc))
    else:
        if cfg.closed_system:
            detail = "closed system, zero diffusion"
        else:
            detail = f"d_pp={d.d_pp:.6g}, d_qq={d.d_qq:.6g}"
        passed = cfg.closed_system or (d.d_pp > 0.0 and d.d_qq > 0.0)
        diffusion = CheckResult("diffusion_positive", passed, True, detail)

    c = cfg.coth_epsilon
    lam2 = cfg.lam * cfg.lam
    diff = lam2 - cfg.mu * cfg.mu
    if cfg.lam == 0.0:
        thermal_ok = cfg.closed_system
    else:
        ratio = abs(cfg.mu) / cfg.lam
        left, right = (1.0 - ratio) * (1.0 + ratio), 1.0 / c / c
        thermal_ok = ratio < 1.0 and left >= right - 1e-12 * max(left, right)
    lhs = math.copysign(math.inf, diff) if math.isinf(c) else diff * c * c
    thermal = CheckResult(
        "thermal_constraint",
        thermal_ok,
        True,
        f"(lam^2 - mu^2)*C^2 = {lhs:.6g} vs lam^2 = {lam2:.6g}",
    )

    weak = CheckResult(
        "weak_coupling",
        cfg.lam < 0.1 * cfg.omega,
        False,
        f"lam={cfg.lam:.6g} vs omega/10={0.1 * cfg.omega:.6g}",
    )
    return ValidationReport(checks=(diffusion, thermal, weak))


@dataclass(frozen=True)
class InitialStateSpec:
    """Correlated coherent (squeezed, correlated Gaussian) initial condition.

    ``spread``
        Dimensionless squared-width parameter: the initial position variance is
        ``hbar*spread/(2*m*omega)``, so ``spread = 1`` is the unsqueezed
        coherent state, larger values are position-broadened.
    ``correlation``
        Initial position-momentum correlation coefficient ``r``, ``|r| < 1``.
    ``center_q``, ``center_p``
        Initial expectation values.
    """

    spread: float = 1.0
    correlation: float = 0.0
    center_q: float = 0.0
    center_p: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("spread", self.spread)
        _require_finite("correlation", self.correlation)
        _require_finite("center_q", self.center_q)
        _require_finite("center_p", self.center_p)
        if self.spread <= 0.0:
            raise ValueError(f"spread must be > 0, got {self.spread!r}")
        if abs(self.correlation) >= 1.0:
            raise ValueError(
                f"correlation must satisfy |r| < 1, got {self.correlation!r}"
            )


def squeeze_terms(spec: InitialStateSpec | ParameterTable) -> tuple:
    """Squeezing combinations entering the closed forms and the rates:
    ``k_plus/minus = spread +/- 1/(spread*(1 - r^2))``,
    ``correction = r^2/(spread*(1 - r^2))`` and ``sqrt(1 - r^2)``; scalars
    for a spec, arrays for a :class:`ParameterTable`."""
    d = spec.spread
    r = spec.correlation
    one_minus = 1.0 - r * r
    inverse = 1.0 / (d * one_minus)
    return d + inverse, d - inverse, r * r / (d * one_minus), np.sqrt(one_minus)


@dataclass(frozen=True)
class ParameterTable:
    """The parameters of the closed forms and the time scales at many points
    at once.  ``lam``, ``mu``, ``coth``, ``epsilon``, ``spread``,
    ``correlation`` and ``valid`` are arrays that broadcast against each
    other; ``omega`` and ``hbar`` are shared.  Built by
    :func:`parameter_table`."""

    omega: float
    hbar: float
    lam: np.ndarray
    mu: np.ndarray
    coth: np.ndarray
    epsilon: np.ndarray
    spread: np.ndarray
    correlation: np.ndarray
    valid: np.ndarray

    @property
    def shifted_frequency(self) -> np.ndarray:
        """``sqrt(omega^2 - mu^2)``; ``nan`` where ``|mu| > omega``."""
        return np.sqrt(self.omega * self.omega - self.mu * self.mu)


def parameter_table(
    cfg: OscillatorConfig, spec: InitialStateSpec, *,
    lam=None, mu=None, coth=None, spread=None, correlation=None,
) -> ParameterTable:
    """``cfg`` and ``spec`` with each given axis, an array, in place of that
    parameter.

    ``valid`` is False where the constructors or :func:`thermal_coefficients`
    would reject the point: ``|mu| >= omega``, ``C < 1``, ``spread <= 0``,
    ``|r| >= 1``, and outside the closed system ``lam <= |mu|`` (which
    covers ``lam < 0``) or ``C = inf``.

    Closed-system points (``lam = mu = 0``) read every ``C`` as 1: without a
    bath, ``C`` enters only terms that also carry ``lam = mu = 0`` or ``1 -
    e^{-2 lam t} = 0``, so every ``C`` has the value of ``C = 1``.  Read
    directly, ``C = inf`` and a finite ``C`` above about ``1.3e154``, whose
    ``C^2`` (and above about ``9e307``, whose ``2 C``) overflows, would give
    ``inf * 0 = nan`` instead.  ``epsilon`` is the config's ``hbar
    omega/(2kT)`` where it states a temperature and no ``C`` axis is given,
    else ``atanh(1/C)``.
    """

    def axis(values, default) -> np.ndarray:
        return np.asarray(default if values is None else values, dtype=float)

    lam, mu = axis(lam, cfg.lam), axis(mu, cfg.mu)
    given_c = axis(coth, cfg.coth_epsilon)
    spread, r = axis(spread, spec.spread), axis(correlation, spec.correlation)
    closed = (lam == 0.0) & (mu == 0.0)
    valid = (np.abs(mu) < cfg.omega) & (given_c >= 1.0) & (spread > 0.0)
    valid = valid & (np.abs(r) < 1.0) & (closed | ((lam > np.abs(mu)) & ~np.isinf(given_c)))
    c = np.where(closed, 1.0, given_c)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.arctanh(1.0 / c)  # inf at C = 1, 0 at C = inf
    if coth is None and cfg.temp.temperature is not None:
        eps = np.where(closed, eps, cfg.epsilon)
    return ParameterTable(cfg.omega, cfg.hbar, lam, mu, c, eps, spread, r, valid)


def float_or_array(x):
    """A Python float for a 0-d ``x``, else ``x``: scalar in, float out."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a Gaussian phase-space state at time ``t``.

    ``s_qq``, ``s_pp``, ``s_pq`` are the central second moments (variances and
    covariance); the determinant ``s_qq*s_pp - s_pq**2`` is the generalized
    uncertainty, bounded below by ``hbar**2/4`` for physical states.
    """

    mean_q: float
    mean_p: float
    s_qq: float
    s_pp: float
    s_pq: float
    t: float = 0.0

    def __post_init__(self) -> None:
        for name in ("mean_q", "mean_p", "s_qq", "s_pp", "s_pq"):
            _require_finite(name, getattr(self, name))
        if math.isnan(self.t):
            raise ValueError("t must not be NaN")
        if self.s_qq <= 0.0 or self.s_pp <= 0.0:
            raise ValueError("variances must be positive")
        if self.sigma_det <= 0.0:
            raise ValueError("covariance matrix must be positive definite")

    @property
    def sigma_det(self) -> float:
        """Generalized uncertainty: determinant of the covariance matrix."""
        return self.s_qq * self.s_pp - self.s_pq * self.s_pq

    def mean(self) -> np.ndarray:
        return np.array([self.mean_q, self.mean_p])

    def covariance(self) -> np.ndarray:
        return np.array(
            [[self.s_qq, self.s_pq], [self.s_pq, self.s_pp]], dtype=float
        )


def initial_state(spec: InitialStateSpec, cfg: OscillatorConfig) -> GaussianState:
    """Gaussian state of a correlated coherent state at ``t = 0``.

    Variances::

        s_qq = hbar*spread / (2*m*omega)
        s_pp = hbar*m*omega / (2*spread*(1 - r^2))
        s_pq = hbar*r / (2*sqrt(1 - r^2))

    The determinant is exactly ``hbar^2/4`` (minimum uncertainty) for every
    admissible ``(spread, r)``.
    """
    d = spec.spread
    r = spec.correlation
    one_minus = 1.0 - r * r
    scale = cfg.m * cfg.omega
    return GaussianState(
        mean_q=spec.center_q,
        mean_p=spec.center_p,
        s_qq=cfg.hbar * d / (2.0 * scale),
        s_pp=cfg.hbar * scale / (2.0 * d * one_minus),
        s_pq=cfg.hbar * r / (2.0 * math.sqrt(one_minus)),
        t=0.0,
    )

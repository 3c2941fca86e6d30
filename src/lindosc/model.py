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


# The admissible range of each model field, as ``(text, test)``: ``test(x,
# omega)`` broadcasts, so one table serves the constructors (floats) and
# :func:`parameter_table` (arrays); ``nan`` fails every test.
_FINITE = "finite", lambda x, omega: abs(x) < math.inf
_POSITIVE = "finite and > 0", lambda x, omega: (x > 0.0) & (x < math.inf)
_NON_NEGATIVE = "finite and >= 0", lambda x, omega: (x >= 0.0) & (x < math.inf)
_RANGES = {
    "m": _POSITIVE, "omega": _POSITIVE, "hbar": _POSITIVE, "boltzmann": _POSITIVE,
    "spread": _POSITIVE, "lam": _NON_NEGATIVE, "d_pp": _NON_NEGATIVE, "d_qq": _NON_NEGATIVE,
    "center_q": _FINITE, "center_p": _FINITE, "d_pq": _FINITE,
    "mu": ("finite with |mu| < omega={omega!r}", lambda x, omega: abs(x) < omega),
    "coth_value": (">= 1 (inf allowed)", lambda x, omega: x >= 1.0),
    "temperature": (">= 0", lambda x, omega: x >= 0.0),
    "correlation": ("in (-1, 1)", lambda x, omega: abs(x) < 1.0),
}


def _in_range(fields: dict, omega: float = math.nan, strict: bool = False):
    """The range tests of ``fields``, a map of field name to value, broadcast
    and combined by AND; ``mu`` is tested against ``omega``.  ``strict``
    raises ``ValueError`` at the first field whose scalar fails, in the form
    ``<field> must be <range>, got <value>``."""
    ok = True
    for name, value in fields.items():
        text, test = _RANGES[name]
        passed = test(value, omega)
        if strict and not passed:
            raise ValueError(f"{name} must be {text.format(omega=omega)}, got {value!r}")
        ok = ok & passed
    return ok


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
        name = "temperature" if self.coth_value is None else "coth_value"
        _in_range({name: getattr(self, name)}, strict=True)

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
        fields = {"m": self.m, "omega": self.omega, "hbar": self.hbar,
                  "boltzmann": self.boltzmann, "lam": self.lam, "mu": self.mu}
        _in_range(fields, self.omega, strict=True)

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
        _in_range(vars(self), strict=True)

    @classmethod
    def zero(cls) -> "DiffusionCoefficients":
        return cls(d_pp=0.0, d_qq=0.0, d_pq=0.0)

    def matrix(self) -> np.ndarray:
        """2x2 diffusion matrix in (q, p) ordering."""
        return np.array(
            [[self.d_qq, self.d_pq], [self.d_pq, self.d_pp]], dtype=float
        )


def _thermal_diffusion(cfg: OscillatorConfig, lam, mu, coth) -> tuple:
    """``(d_pp, d_qq)`` of :func:`thermal_coefficients` for the bath ``(lam,
    mu, coth)`` and the oscillator of ``cfg``, broadcast; silent where they
    overflow."""
    scale = cfg.m * cfg.omega
    with np.errstate(over="ignore", invalid="ignore"):
        return (0.5 * (lam + mu) * cfg.hbar * scale * coth,
                0.5 * (lam - mu) * cfg.hbar / scale * coth)


def _lindblad_bath(cfg: OscillatorConfig, lam, mu, coth, strict: bool = False):
    """The bath rule, broadcast: True where the diffusion of the bath ``(lam,
    mu, coth)`` on the oscillator of ``cfg`` is positive or zero, and finite:
    the closed system ``lam = mu = 0`` at any ``C``, or ``lam > |mu|`` with
    finite ``d_pp`` and ``d_qq`` (so a finite ``C``); a Lindblad generator
    also needs the fluctuation bound of :func:`validate`.  ``strict`` raises
    its ``ValueError`` at a False scalar."""
    closed = (lam == 0.0) & (mu == 0.0)
    damped = closed | (lam > np.abs(mu))
    d_pp, d_qq = _thermal_diffusion(cfg, lam, mu, coth)
    finite = closed | (np.isfinite(d_pp) & np.isfinite(d_qq))
    if strict and not damped:
        raise ValueError("thermal coefficients need lam > |mu| for positive diffusion; "
                         f"got lam={lam!r}, mu={mu!r}")
    if strict and not finite:
        if math.isinf(coth):
            raise ValueError("thermal coefficients diverge at infinite temperature")
        raise ValueError(f"thermal coefficients overflow: d_pp={d_pp:.6g}, d_qq={d_qq:.6g}")
    return damped & finite


def thermal_coefficients(cfg: OscillatorConfig) -> DiffusionCoefficients:
    """Diffusion coefficients of a bath driving the oscillator to a Gibbs state.

        d_pp = (lam + mu)/2 * hbar * m * omega * C
        d_qq = (lam - mu)/2 * hbar / (m * omega) * C
        d_pq = 0

    with ``C`` the thermal coth factor.  ``ValueError`` unless the bath
    passes the bath rule: ``lam > |mu|`` (both coefficients positive) with
    both coefficients finite, or the closed system ``lam = mu = 0``, which
    returns zeros.
    """
    c = cfg.coth_epsilon
    _lindblad_bath(cfg, cfg.lam, cfg.mu, c, strict=True)
    if cfg.closed_system:
        return DiffusionCoefficients.zero()
    d_pp, d_qq = _thermal_diffusion(cfg, cfg.lam, cfg.mu, c)
    return DiffusionCoefficients(d_pp=d_pp, d_qq=d_qq, d_pq=0.0)


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
        _in_range(vars(self), strict=True)


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
    would reject the point: a field outside its range (the table of
    ``_in_range``), or a bath that breaks the bath rule, one other than the
    closed system ``lam = mu = 0`` or ``lam > |mu|`` with finite coefficients.

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
    fields = {"lam": lam, "mu": mu, "coth_value": given_c, "spread": spread, "correlation": r}
    valid = _in_range(fields, cfg.omega) & _lindblad_bath(cfg, lam, mu, given_c)
    c = np.where(closed, 1.0, given_c)
    with np.errstate(all="ignore"):  # 1/C overflows at a subnormal C < 1
        eps = np.arctanh(1.0 / c)  # inf at C = 1, 0 at C = inf
    if coth is None and cfg.temp.temperature is not None:
        eps = np.where(closed, eps, cfg.epsilon)
    return ParameterTable(cfg.omega, cfg.hbar, lam, mu, c, eps, spread, r, valid)


def _lindblad_table(cfg: OscillatorConfig, spec: InitialStateSpec) -> ParameterTable:
    """:func:`parameter_table` of ``(cfg, spec)``, raising by the bath rule."""
    _lindblad_bath(cfg, cfg.lam, cfg.mu, cfg.coth_epsilon, strict=True)
    return parameter_table(cfg, spec)


def float_or_array(x):
    """A Python float for a 0-d ``x``, else ``x``: scalar in, float out."""
    return float(x) if np.ndim(x) == 0 else x


def _sigma(s_qq, s_pp, s_pq):
    """The one formula of sigma, ``s_qq s_pp - s_pq^2``; silent where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return s_qq * s_pp - s_pq * s_pq


def _moment_fault(rows) -> tuple[int, str] | None:
    """The first moment row ``(mean_q, mean_p, s_qq, s_pp, s_pq)`` of the array
    ``rows`` that is no Gaussian state, as ``(index, fault)``, or ``None``:
    ``"moments not finite"``, also where sigma is ``nan`` (both products
    overflow), else ``"covariance not positive definite"`` unless ``s_qq > 0``
    and sigma > 0 (so ``s_pp > 0``).  sigma = +inf passes.  Silent."""
    sigma, finite = _sigma(*rows.T[2:]), np.isfinite(rows)
    good = (rows.T[2] > 0.0) & (sigma > 0.0)
    if good.all() and finite.all():  # the common case, without a per-row pass
        return None
    finite = finite.all(axis=-1) & ~np.isnan(sigma)
    i = int(np.argmin(finite & good))
    return i, "covariance not positive definite" if finite.flat[i] else "moments not finite"


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a Gaussian phase-space state at time ``t``.

    ``s_qq``, ``s_pp``, ``s_pq`` are the central second moments (variances and
    covariance); the determinant ``s_qq*s_pp - s_pq**2`` is the generalized
    uncertainty, bounded below by ``hbar**2/4`` for physical states.  A state
    has finite moments, sigma not ``nan``, ``s_qq > 0`` and sigma > 0.
    """

    mean_q: float
    mean_p: float
    s_qq: float
    s_pp: float
    s_pq: float
    t: float = 0.0

    def __post_init__(self) -> None:
        if math.isnan(self.t):
            raise ValueError("t must not be NaN")
        moments = np.array([self.mean_q, self.mean_p, self.s_qq, self.s_pp, self.s_pq])
        if (fault := _moment_fault(moments)) is not None:
            raise ValueError(fault[1])

    @property
    def sigma_det(self) -> float:
        """Generalized uncertainty: determinant of the covariance matrix."""
        return _sigma(self.s_qq, self.s_pp, self.s_pq)

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

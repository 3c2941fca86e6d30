"""Decoherence and relaxation time scales, the macroscopic
decoherence/relaxation rate ratio, and the asymptotic uncertainty regime
classification.

The central object is the short-time growth rate of the off-diagonal spread
coefficient gamma: coherences of length scale L decay like
``exp(-gamma(t) L^2 ...)``, so the reciprocal of gamma's initial logarithmic
growth rate is the decoherence time.  All formulas below assume a thermal bath
and a correlated-coherent initial state; the functions of one ``(spec, cfg)``
raise ``ValueError`` where that bath breaks the bath rule of
:func:`~lindosc.model.thermal_coefficients`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    InitialStateSpec,
    NumericError,
    OscillatorConfig,
    ParameterTable,
    _lindblad_table,
    squeeze_terms,
)

__all__ = [
    "TimeScales",
    "RegimeReport",
    "decoherence_rate",
    "decoherence_time",
    "statistical_time",
    "relaxation_time",
    "rate_ratio",
    "regime_report",
    "time_scales",
]


def rates(p: ParameterTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decoherence rate, its high-temperature form and the statistical
    rate at every point of ``p``, broadcast together (the relaxation rate is
    ``p.lam``).  With ``corr = r^2/(spread*(1 - r^2))``, ``k_plus/minus`` of
    :func:`~lindosc.model.squeeze_terms` and ``tau = 2kT/(hbar omega) =
    1/epsilon`` (0 at T = 0)::

        2 [lam (spread + corr) C + mu (spread - corr) C
           - lam - mu - omega r/(spread sqrt(1 - r^2))]
        2 tau [lam (spread + corr) + mu (spread - corr)]
        2 tau [lam k_plus + mu k_minus]

    The second is the dominant thermal part of the first, with ``C``
    replaced by ``tau``.  NumPy stays silent; entries at invalid points carry
    no meaning."""
    d, r, lam, mu, c = p.spread, p.correlation, p.lam, p.mu, p.coth
    with np.errstate(all="ignore"):
        k_plus, k_minus, correction, root = squeeze_terms(p)
        tau = 1.0 / p.epsilon
        decoherence = 2.0 * (
            lam * (d + correction) * c
            + mu * (d - correction) * c
            - lam
            - mu
            - p.omega * r / (d * root)
        )
        high_t = 2.0 * tau * (lam * (d + correction) + mu * (d - correction))
        statistical = 2.0 * tau * (lam * k_plus + mu * k_minus)
    return decoherence, high_t, statistical


def time_from_rate(rate):
    """``1/rate``, silent; ``inf`` where the rate is <= 0 (never acts) or
    1/rate overflows, ``nan`` where it is not finite (not resolved, not 0)."""
    with np.errstate(divide="ignore", over="ignore"):
        time = np.where(rate < math.inf, np.divide(1.0, rate), math.nan)
        return np.where(rate <= 0.0, math.inf, time)


def decoherence_rate(spec: InitialStateSpec, cfg: OscillatorConfig) -> float:
    """Initial logarithmic growth rate of the off-diagonal spread coefficient
    (:func:`rates`).  May be <= 0 (no decoherence, e.g. the unsqueezed state
    at T=0)."""
    return float(rates(_lindblad_table(cfg, spec))[0])


def decoherence_time(spec: InitialStateSpec, cfg: OscillatorConfig) -> float:
    """Reciprocal of :func:`decoherence_rate`; ``+inf`` when the rate is <= 0
    (the state never loses coherence — e.g. spread=1, r=0 at T=0)."""
    return float(time_from_rate(decoherence_rate(spec, cfg)))


def statistical_time(spec: InitialStateSpec, cfg: OscillatorConfig) -> float:
    """Time at which thermal (statistical) fluctuations of the uncertainty
    catch up with the quantum ones, in the high-temperature regime: the
    reciprocal of the third rate of :func:`rates`.  Diverges at T=0
    (tau = 0), where thermal fluctuations never take over.
    """
    return float(time_from_rate(rates(_lindblad_table(cfg, spec))[2]))


def relaxation_time(cfg: OscillatorConfig) -> float:
    """Energy-relaxation time scale, ``1/lam``; ``inf`` without damping."""
    return float(time_from_rate(cfg.lam))


def rate_ratio(cfg: OscillatorConfig, separation: float) -> float:
    """Decoherence rate over relaxation rate for a superposition separated by
    ``separation`` in position: ``(m omega / (2 hbar)) separation^2 C``,
    approximately ``m k T separation^2 / hbar^2`` at high temperature.

    An order-of-magnitude quantity; requires ``mu = 0`` (the pure
    momentum-diffusion regime in which the two rates share the factor lam),
    and a finite ``separation`` (its sign does not enter).
    """
    if cfg.mu != 0.0:
        raise ValueError("rate_ratio is defined for mu = 0")
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation!r}")
    c = cfg.coth_epsilon
    return (cfg.m * cfg.omega / (2.0 * cfg.hbar)) * separation * separation * c


@dataclass(frozen=True)
class RegimeReport:
    """Asymptotic uncertainty levels and the regime they indicate.

    ``sigma_be``        thermal (Bose-Einstein) value ``(hbar^2/4) C^2``;
    ``sigma_heisenberg``  quantum floor ``hbar^2/4``;
    ``sigma_mb``        classical high-temperature value ``(kT/omega)^2``.

    ``sigma_be`` interpolates between the other two: it equals the floor at
    T=0 and approaches ``sigma_mb`` as T grows.
    """

    sigma_be: float
    sigma_heisenberg: float
    sigma_mb: float
    regime: str  # "quantum" | "quantum-statistical" | "classical-statistical"


def regime_report(cfg: OscillatorConfig) -> RegimeReport:
    """Classify the asymptotic uncertainty regime.

    * ``quantum`` when C < 1.01 (essentially the pure-state floor),
    * ``classical-statistical`` when the thermal value agrees with the
      classical one to 1% (high temperature),
    * ``quantum-statistical`` in between.

    The 1% agreement bands are conventions of this library.
    """
    c = cfg.coth_epsilon
    quarter = cfg.hbar * cfg.hbar / 4.0
    sigma_be = math.inf if math.isinf(c) else quarter * c * c
    kt_omega = cfg.thermal_energy / cfg.omega
    sigma_mb = kt_omega * kt_omega
    ratio = cfg.epsilon * c  # sigma_be / sigma_mb = ratio^2, never inf/inf or 0/0
    if c < 1.01:
        regime = "quantum"
    elif math.isinf(c) or abs(ratio * ratio - 1.0) <= 0.01:
        regime = "classical-statistical"
    else:
        regime = "quantum-statistical"
    return RegimeReport(
        sigma_be=sigma_be,
        sigma_heisenberg=quarter,
        sigma_mb=sigma_mb,
        regime=regime,
    )


@dataclass(frozen=True)
class TimeScales:
    """The three time scales governing the quantum-to-classical transition.

    ``t_deco <= t_d <= t_rel`` in the typical open-system regime: coherences
    die first, thermal fluctuations take over next, energy relaxes last.
    ``variant`` records which formula produced ``t_deco``.
    """

    t_deco: float
    t_d: float
    t_rel: float
    variant: str  # "general" | "r0" | "high_T" | "high_T_r0"

    def __post_init__(self) -> None:
        for name in ("t_deco", "t_d", "t_rel"):
            value = getattr(self, name)
            if math.isnan(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive (may be inf), got {value!r}")


def time_scales(
    spec: InitialStateSpec,
    cfg: OscillatorConfig,
    *,
    high_temperature: bool = False,
) -> TimeScales:
    """Bundle the decoherence, statistical, and relaxation times;
    :class:`NumericError` names a rate that is not finite.

    With ``high_temperature=True`` the decoherence time uses the
    high-temperature reduction (tau in place of the coth factor)."""
    decoherence, high_t, statistical = rates(_lindblad_table(cfg, spec))
    t_deco = float(time_from_rate(high_t if high_temperature else decoherence))
    t_d = float(time_from_rate(statistical))
    r_zero = spec.correlation == 0.0
    variant = (("high_T_r0" if r_zero else "high_T") if high_temperature
               else ("r0" if r_zero else "general"))
    for name, time in (("decoherence", t_deco), ("statistical", t_d)):
        if math.isnan(time):
            raise NumericError(f"the {name} rate is not finite")
    return TimeScales(t_deco=t_deco, t_d=t_d, t_rel=relaxation_time(cfg), variant=variant)

"""Decoherence rates, characteristic time scales, and temperature regimes."""

import math

import numpy as np
import pytest

from lindosc.decoherence import (
    RegimeReport,
    TimeScales,
    decoherence_rate,
    decoherence_time,
    rate_ratio,
    regime_report,
    relaxation_time,
    statistical_time,
    time_from_rate,
    time_scales,
)
from lindosc.model import (
    InitialStateSpec,
    NumericError,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    squeeze_terms,
    thermal_coefficients,
)
from lindosc.propagate import covariance_lyapunov
from lindosc.states import alpha_beta_gamma


def make_cfg(c=3.0, lam=0.2, mu=0.1):
    return OscillatorConfig(
        m=1.0, omega=1.0, lam=lam, mu=mu, hbar=1.0, temp=TemperatureSpec.from_coth(c)
    )


CFG = make_cfg()


def spec_of(delta, r=0.0):
    return InitialStateSpec(spread=delta, correlation=r)


# ---------------------------------------------------------------------------
# decoherence rate and time
# ---------------------------------------------------------------------------


class TestDecoherenceTime:
    def test_uncorrelated_rate_formula(self):
        # r = 0 collapses the rate to 2 (lam + mu)(delta C - 1)
        for delta in (1.0, 2.0, 4.0):
            expected = 2.0 * 0.3 * (delta * 3.0 - 1.0)
            assert decoherence_rate(spec_of(delta), CFG) == pytest.approx(
                expected, rel=1e-13
            )

    def test_frozen_times(self):
        assert decoherence_time(spec_of(4.0), CFG) == pytest.approx(
            0.15151515151515149, rel=1e-14
        )
        assert decoherence_time(spec_of(2.0), CFG) == pytest.approx(
            1.0 / 3.0, rel=1e-13
        )

    def test_zero_temperature_squeezed(self):
        cfg = make_cfg(c=1.0, lam=0.2, mu=0.0)
        assert decoherence_time(spec_of(4.0), cfg) == pytest.approx(
            1.0 / 1.2, rel=1e-13
        )

    def test_coherent_state_never_decoheres_at_zero_temperature(self):
        cfg = make_cfg(c=1.0, mu=0.0)
        assert math.isinf(decoherence_time(spec_of(1.0), cfg))

    def test_rate_matches_finite_difference_of_exact_gamma(self):
        # gamma(t) = sigma / (2 hbar^2 s_qq); its initial log-slope is the rate
        d = thermal_coefficients(CFG)
        spec = spec_of(4.0, r=0.3)
        state0 = initial_state(spec, CFG)

        def gamma_at(t):
            s = covariance_lyapunov(state0, CFG, d, t)
            return alpha_beta_gamma(s).gamma

        h = 1e-3
        g0 = gamma_at(0.0)
        slope = (-3.0 * g0 + 4.0 * gamma_at(h) - gamma_at(2.0 * h)) / (2.0 * h)
        assert slope / g0 == pytest.approx(
            decoherence_rate(spec, CFG), rel=1e-4
        )

    def test_monotone_in_squeezing(self):
        times = [decoherence_time(spec_of(d), CFG) for d in (1.5, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(times, times[1:]))


class TestHighTemperatureLimits:
    def test_high_temperature_time(self):
        cfg = make_cfg(c=1.0 / math.tanh(0.05))  # tau = 1/epsilon = 20? no: eps=0.05
        cfg = OscillatorConfig(
            m=1.0,
            omega=1.0,
            lam=0.2,
            mu=0.1,
            hbar=1.0,
            temp=TemperatureSpec.from_epsilon(0.1),
        )
        # tau = 10; delta = 4, r = 0: 1/(2*10*(0.2*4 + 0.1*4))
        assert time_scales(spec_of(4.0), cfg, high_temperature=True).t_deco == pytest.approx(
            1.0 / 24.0, rel=1e-13
        )

    def test_high_temperature_coherent_state(self):
        # tau = 1/artanh(1/3) = 2.8854 at C = 3
        assert time_scales(spec_of(1.0), CFG, high_temperature=True).t_deco == pytest.approx(
            0.57763, abs=1e-5
        )

    def test_statistical_time_frozen(self):
        cfg = OscillatorConfig(
            m=1.0,
            omega=1.0,
            lam=0.2,
            mu=0.1,
            hbar=1.0,
            temp=TemperatureSpec.from_epsilon(0.1),
        )
        assert statistical_time(spec_of(4.0), cfg) == pytest.approx(
            1.0 / 24.5, rel=1e-13
        )
        assert statistical_time(spec_of(2.0), CFG) == pytest.approx(0.2666, abs=1e-4)

    def test_statistical_time_tracks_decoherence_time(self):
        # the two short scales converge as the squeezing grows
        ratios = [
            decoherence_time(spec_of(d), CFG) / statistical_time(spec_of(d), CFG)
            for d in (2.0, 4.0, 8.0)
        ]
        gaps = [abs(r - 1.0) for r in ratios]
        assert all(0.7 < r < 1.3 for r in ratios)
        assert gaps[2] < gaps[1] < gaps[0]

    def test_zero_temperature_statistical_time_is_infinite(self):
        assert math.isinf(statistical_time(spec_of(4.0), make_cfg(c=1.0)))


def test_relaxation_time():
    assert relaxation_time(CFG) == pytest.approx(5.0, rel=1e-15)
    assert math.isinf(relaxation_time(OscillatorConfig()))


def test_time_scale_hierarchy():
    # strongly squeezed, warm: both short scales sit far below relaxation
    scales = time_scales(spec_of(8.0), CFG)
    assert scales.t_deco < scales.t_rel / 10.0
    assert scales.t_d < scales.t_rel / 10.0
    assert scales.t_deco == pytest.approx(scales.t_d, rel=0.05)
    assert scales.variant == "r0"


def test_time_scales_variants():
    assert time_scales(spec_of(4.0, r=0.3), CFG).variant == "general"
    assert time_scales(spec_of(4.0), CFG, high_temperature=True).variant == "high_T_r0"
    assert (
        time_scales(spec_of(4.0, r=0.3), CFG, high_temperature=True).variant
        == "high_T"
    )


def test_time_scales_builds_one_table_and_gives_the_scalar_times(monkeypatch):
    import lindosc.decoherence as decoherence

    tables = []
    build = decoherence._lindblad_table
    monkeypatch.setattr(decoherence, "_lindblad_table", lambda *a: tables.append(a) or build(*a))
    spec = spec_of(4.0, r=0.3)
    for high_t in (False, True):
        tables.clear()
        scales = time_scales(spec, CFG, high_temperature=high_t)
        assert len(tables) == 1
        assert scales.t_d == statistical_time(spec, CFG)
    assert time_scales(spec, CFG).t_deco == decoherence_time(spec, CFG)


def test_overflowing_rate_has_no_time():
    # 1/inf = 0 would read as an instant process; the true time underflows
    times = time_from_rate(np.array([math.inf, math.nan, 2.0, 0.0, -1.0]))
    assert np.array_equal(times, [math.nan, math.nan, 0.5, math.inf, math.inf], equal_nan=True)
    with pytest.raises(NumericError, match="the decoherence rate is not finite"):
        time_scales(spec_of(4.0), make_cfg(lam=1e308))
    with pytest.raises(NumericError, match="the statistical rate is not finite"):
        time_scales(spec_of(1.0), make_cfg(c=6e307, lam=1.0, mu=0.0))  # t_deco 8e-309


# ---------------------------------------------------------------------------
# short-time expansion
# ---------------------------------------------------------------------------


def test_sigma_short_time_slope():
    # the exact route's initial slope of sigma_det against the short-time
    # expansion sigma(t) = (hbar^2/4) (1 + 2 [lam k_plus C + mu k_minus C - 2 lam] t)
    d = thermal_coefficients(CFG)
    spec = spec_of(4.0, r=0.2)
    state0 = initial_state(spec, CFG)
    h = 1e-5
    exact_slope = (
        covariance_lyapunov(state0, CFG, d, h).sigma_det
        - covariance_lyapunov(state0, CFG, d, 0.0).sigma_det
    ) / h
    k_plus, k_minus, _, _ = squeeze_terms(spec)
    c = CFG.coth_epsilon
    series_slope = 0.25 * 2.0 * (CFG.lam * k_plus * c + CFG.mu * k_minus * c - 2.0 * CFG.lam)
    assert series_slope == pytest.approx(exact_slope, rel=1e-3)


class TestRateRatio:
    def test_natural_units(self):
        cfg = make_cfg(mu=0.0)
        # (m omega / 2 hbar) * sep^2 * C = 0.5 * 1 * 3
        assert rate_ratio(cfg, 1.0) == pytest.approx(1.5, rel=1e-14)

    def test_macroscopic_magnitude(self):
        cfg = OscillatorConfig.si(m=1e-3, omega=1.0, temperature=300.0)
        ratio = rate_ratio(cfg, 1e-2)
        assert math.log10(ratio) == pytest.approx(40.571, abs=1e-3)

    def test_requires_pure_position_coupling(self):
        with pytest.raises(ValueError):
            rate_ratio(CFG, 1.0)  # mu != 0 mixes in momentum coupling

    @pytest.mark.parametrize("separation", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_separation(self, separation):
        with pytest.raises(ValueError, match="separation must be finite"):
            rate_ratio(make_cfg(mu=0.0), separation)

    def test_negative_separation_enters_squared(self):
        cfg = make_cfg(mu=0.0)
        assert rate_ratio(cfg, -0.5) == rate_ratio(cfg, 0.5)


# ---------------------------------------------------------------------------
# temperature regimes
# ---------------------------------------------------------------------------


class TestRegimes:
    def test_zero_temperature_is_quantum(self):
        report = regime_report(make_cfg(c=1.0))
        assert report.regime == "quantum"
        assert report.sigma_be == report.sigma_heisenberg == 0.25

    def test_intermediate_is_quantum_statistical(self):
        report = regime_report(CFG)
        assert report.regime == "quantum-statistical"
        assert report.sigma_be == pytest.approx(2.25, rel=1e-14)
        assert report.sigma_mb == pytest.approx(2.0813689810056077, rel=1e-13)

    def test_hot_is_classical_statistical(self):
        report = regime_report(make_cfg(c=100.0))
        assert report.regime == "classical-statistical"
        assert abs(report.sigma_be / report.sigma_mb - 1.0) < 1e-4

    def test_infinite_temperature(self):
        report = regime_report(make_cfg(c=math.inf))
        assert report.regime == "classical-statistical"
        assert math.isinf(report.sigma_be)

    def test_bose_einstein_dominates_maxwell_boltzmann(self):
        # quantum floor keeps sigma_BE above the classical value at any C
        for c in (1.0, 1.5, 3.0, 10.0, 100.0):
            report = regime_report(make_cfg(c=c))
            assert report.sigma_be > report.sigma_mb


def test_time_scales_requires_positive_entries():
    with pytest.raises(ValueError):
        TimeScales(t_deco=-1.0, t_d=1.0, t_rel=1.0, variant="r0")


def test_regime_report_is_frozen():
    report = regime_report(CFG)
    with pytest.raises(Exception):
        report.regime = "other"
    assert isinstance(report, RegimeReport)

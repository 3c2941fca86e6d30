"""Core model objects: temperature, configuration, diffusion, validation."""

import math

import numpy as np
import pytest

from lindosc.classicality import (
    closed_form_metric_evaluator,
    delta_qd_asymptotic,
    find_windows,
)
from lindosc.decoherence import (
    decoherence_rate,
    decoherence_time,
    statistical_time,
    time_scales,
)
from lindosc.model import (
    GaussianState,
    InitialStateSpec,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    squeeze_terms,
    thermal_coefficients,
    validate,
)
from lindosc.propagate import (
    asymptotic_covariance,
    route_deviation,
    sigma_det_closed,
    sigma_pq_closed,
    trajectory_closed,
)
from lindosc.states import stationary_density, stationary_grid


def make_cfg(lam=0.2, mu=0.1, c=3.0, **kw):
    return OscillatorConfig(
        m=kw.get("m", 1.0),
        omega=kw.get("omega", 1.0),
        lam=lam,
        mu=mu,
        hbar=kw.get("hbar", 1.0),
        temp=TemperatureSpec.from_coth(c),
    )


def bath(temp):
    return OscillatorConfig(temp=temp)


class TestTemperatureSpec:
    def test_zero_temperature_coth_is_one(self):
        assert bath(TemperatureSpec.zero()).coth_epsilon == 1.0

    def test_coth_round_trip(self):
        cfg = bath(TemperatureSpec.from_coth(3.0))
        assert cfg.coth_epsilon == 3.0
        # epsilon = artanh(1/3)
        assert cfg.epsilon == pytest.approx(math.atanh(1.0 / 3.0), rel=1e-15)

    def test_temperature_round_trip(self):
        cfg = bath(TemperatureSpec.from_temperature(2.0))
        # C = coth(hbar*omega/(2kT)) = coth(0.25) in natural units
        assert cfg.coth_epsilon == pytest.approx(1.0 / math.tanh(0.25), rel=1e-15)
        assert cfg.temperature == 2.0

    def test_epsilon_constructor(self):
        cfg = bath(TemperatureSpec.from_epsilon(0.1))
        assert cfg.coth_epsilon == pytest.approx(1.0 / math.tanh(0.1), rel=1e-15)

    def test_infinite_temperature(self):
        cfg = bath(TemperatureSpec.from_coth(math.inf))
        assert math.isinf(cfg.coth_epsilon)
        assert math.isinf(cfg.temperature)

    def test_both_fields_rejected(self):
        with pytest.raises(ValueError):
            TemperatureSpec(coth_value=2.0, temperature=1.0)

    def test_coth_below_one_rejected(self):
        with pytest.raises(ValueError):
            TemperatureSpec.from_coth(0.9)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            TemperatureSpec.from_temperature(-1.0)


class TestOscillatorConfig:
    def test_shifted_frequency(self):
        cfg = make_cfg(mu=0.6, lam=0.7)
        assert cfg.shifted_frequency == pytest.approx(0.8, rel=1e-15)

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(lam=2.0, mu=1.5)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(lam=-0.1, mu=0.0)

    def test_closed_constructor(self):
        cfg = OscillatorConfig()
        assert cfg.closed_system and cfg.lam == 0.0 and cfg.mu == 0.0
        assert not OscillatorConfig.reference().closed_system

    def test_reference_constructor(self):
        cfg = OscillatorConfig.reference(20.0)
        assert (cfg.m, cfg.omega, cfg.hbar, cfg.lam, cfg.mu) == (1.0, 1.0, 1.0, 0.2, 0.1)
        assert cfg.coth_epsilon == 20.0
        assert OscillatorConfig.reference().coth_epsilon == 3.0

    def test_thermal_energy_natural_units(self):
        cfg = make_cfg(c=3.0)
        # kT = hbar*omega/(2 artanh(1/C))
        assert cfg.thermal_energy == pytest.approx(
            1.0 / (2.0 * math.atanh(1.0 / 3.0)), rel=1e-15
        )


class TestThermalCoefficients:
    def test_reference_values(self):
        d = thermal_coefficients(make_cfg())
        assert d.d_pp == pytest.approx(0.45, rel=1e-15)
        assert d.d_qq == pytest.approx(0.15, rel=1e-15)
        assert d.d_pq == 0.0

    def test_scaling_with_mass_and_frequency(self):
        d = thermal_coefficients(make_cfg(m=2.0, omega=3.0))
        assert d.d_pp == pytest.approx(0.15 * 2.0 * 3.0 * 3.0, rel=1e-14)
        assert d.d_qq == pytest.approx(0.05 * 3.0 / 6.0, rel=1e-14)

    def test_closed_system_is_zero(self):
        d = thermal_coefficients(OscillatorConfig())
        assert (d.d_pp, d.d_qq, d.d_pq) == (0.0, 0.0, 0.0)

    def test_lam_not_above_mu_rejected(self):
        with pytest.raises(ValueError):
            thermal_coefficients(make_cfg(lam=0.05, mu=0.1))

    def test_infinite_temperature_rejected(self):
        with pytest.raises(ValueError):
            thermal_coefficients(make_cfg(c=math.inf))

    def test_negative_mu_allowed(self):
        d = thermal_coefficients(make_cfg(lam=0.2, mu=-0.1))
        assert d.d_pp == pytest.approx(0.15, rel=1e-15)
        assert d.d_qq == pytest.approx(0.45, rel=1e-15)


# every entry point of one (spec, cfg) takes the one bath rule: a bath that is
# no Lindblad generator raises one of its two messages, never a number
SPEC = InitialStateSpec(spread=4.0, correlation=0.3)
BATH_ENTRY_POINTS = {
    "thermal_coefficients": thermal_coefficients,
    "sigma_det_closed": lambda cfg: sigma_det_closed(SPEC, cfg, 1.0),
    "sigma_pq_closed": lambda cfg: sigma_pq_closed(SPEC, cfg, np.array([0.0, 1.0])),
    "decoherence_rate": lambda cfg: decoherence_rate(SPEC, cfg),
    "decoherence_time": lambda cfg: decoherence_time(SPEC, cfg),
    "statistical_time": lambda cfg: statistical_time(SPEC, cfg),
    "time_scales": lambda cfg: time_scales(SPEC, cfg),
    "time_scales_high_temperature": lambda cfg: time_scales(SPEC, cfg, high_temperature=True),
    "closed_form_metric_evaluator": lambda cfg: closed_form_metric_evaluator(SPEC, cfg),
    "find_windows": lambda cfg: find_windows(SPEC, cfg, 20.0, 0.01, 0.9, 0.5),
    "trajectory_closed": lambda cfg: trajectory_closed(SPEC, cfg, np.array([0.0, 1.0])),
    "route_deviation": lambda cfg: route_deviation(SPEC, cfg, 1.0, 0.5),
    "delta_qd_asymptotic": delta_qd_asymptotic,
}
# these have no value in the closed system, which has no long-time state
ASYMPTOTIC_ENTRY_POINTS = {
    "asymptotic_covariance": asymptotic_covariance,
    "stationary_grid": lambda cfg: stationary_grid(cfg, 16),
    "stationary_density": lambda cfg: stationary_density(cfg, 0.0, 0.0),
}
NO_LINDBLAD_BATH = {
    "mu-above-lam": (make_cfg(lam=0.1, mu=0.2), "need lam > |mu|.*lam=0.1, mu=0.2$"),
    "lam-zero": (make_cfg(lam=0.0, mu=0.1), "need lam > |mu|.*lam=0.0, mu=0.1$"),
    "open-infinite-C": (make_cfg(c=math.inf), "diverge at infinite temperature$"),
}


@pytest.mark.parametrize("bad", NO_LINDBLAD_BATH.values(), ids=NO_LINDBLAD_BATH.keys())
@pytest.mark.parametrize(
    "entry",
    [*BATH_ENTRY_POINTS.values(), *ASYMPTOTIC_ENTRY_POINTS.values()],
    ids=[*BATH_ENTRY_POINTS, *ASYMPTOTIC_ENTRY_POINTS],
)
def test_entry_points_reject_a_bath_that_is_no_lindblad_generator(entry, bad):
    cfg, message = bad
    with pytest.raises(ValueError, match=f"^thermal coefficients {message}"):
        entry(cfg)


@pytest.mark.parametrize("entry", BATH_ENTRY_POINTS.values(), ids=BATH_ENTRY_POINTS.keys())
def test_entry_points_give_values_for_the_closed_system_at_infinite_c(entry):
    assert entry(OscillatorConfig(temp=TemperatureSpec.from_coth(math.inf))) is not None


class TestValidate:
    def test_reference_passes(self):
        report = validate(make_cfg())
        assert report.ok
        # the weak-coupling advisory fires at lam = 0.2 but must not fail the run
        advisories = [c for c in report.checks if not c.hard and not c.passed]
        assert len(advisories) == 1

    def test_constraint_boundary_fails(self):
        report = validate(make_cfg(lam=0.05, mu=0.1))
        assert not report.ok

    def test_low_temperature_fails_fluctuation_bound(self):
        # (lam^2 - mu^2) C^2 = 0.0363 < lam^2 = 0.04
        report = validate(make_cfg(c=1.1))
        assert not report.ok
        names = {c.name for c in report.checks if c.hard and not c.passed}
        assert names == {"thermal_constraint"}

    def test_si_bath_below_constraint_fails(self):
        # C = 1.00096: (lam^2 - mu^2) C^2 = 7.51e-15 < lam^2 = 1e-14, a
        # violation far below any absolute slack
        cfg = OscillatorConfig.si(
            m=1e-3, omega=1.0, temperature=1e-12, lam=1e-7, mu=5e-8
        )
        report = validate(cfg)
        assert not report.ok
        names = {c.name for c in report.checks if c.hard and not c.passed}
        assert names == {"thermal_constraint"}

    def test_closed_system_passes(self):
        assert validate(OscillatorConfig()).ok

    def test_report_renders_one_line_per_check(self):
        report = validate(make_cfg())
        lines = str(report).splitlines()
        assert len(lines) == len(report.checks)


class TestInitialState:
    def test_coherent_state_moments(self):
        state = initial_state(InitialStateSpec(spread=1.0, correlation=0.0), make_cfg())
        assert state.s_qq == pytest.approx(0.5)
        assert state.s_pp == pytest.approx(0.5)
        assert state.s_pq == 0.0
        assert state.sigma_det == pytest.approx(0.25, rel=1e-15)

    def test_squeezed_state_moments(self):
        state = initial_state(InitialStateSpec(spread=4.0, correlation=0.0), make_cfg())
        assert state.s_qq == pytest.approx(2.0)
        assert state.s_pp == pytest.approx(0.125)

    def test_correlated_state_is_minimum_uncertainty(self):
        spec = InitialStateSpec(spread=1.0, correlation=0.6)
        state = initial_state(spec, make_cfg())
        assert state.s_pq == pytest.approx(0.375, rel=1e-15)
        assert state.sigma_det == pytest.approx(0.25, rel=1e-14)
        assert state.s_pq / math.sqrt(state.s_qq * state.s_pp) == pytest.approx(0.6, rel=1e-14)

    def test_correlation_bounds(self):
        with pytest.raises(ValueError):
            InitialStateSpec(spread=1.0, correlation=1.0)
        with pytest.raises(ValueError):
            InitialStateSpec(spread=0.0, correlation=0.0)

    def test_means_carried_over(self):
        spec = InitialStateSpec(spread=1.0, correlation=0.0, center_q=6.0, center_p=4.0)
        state = initial_state(spec, make_cfg())
        assert (state.mean_q, state.mean_p) == (6.0, 4.0)

    def test_hbar_scaling(self):
        spec = InitialStateSpec(spread=1.0, correlation=0.0)
        state = initial_state(spec, make_cfg(hbar=2.0))
        assert state.sigma_det == pytest.approx(1.0, rel=1e-15)

    def test_squeeze_terms(self):
        assert squeeze_terms(InitialStateSpec(spread=4.0)) == (4.25, 3.75, 0.0, 1.0)
        # r = 0.6: 1 - r^2 = 0.64, so 1/(spread (1 - r^2)) = 1.5625 at spread 1
        k_plus, k_minus, correction, root = squeeze_terms(
            InitialStateSpec(spread=1.0, correlation=0.6)
        )
        assert k_plus == pytest.approx(2.5625, rel=1e-15)
        assert k_minus == pytest.approx(-0.5625, rel=1e-15)
        assert correction == pytest.approx(0.5625, rel=1e-15)
        assert root == pytest.approx(0.8, rel=1e-15)


class TestGaussianState:
    def test_covariance_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            GaussianState(mean_q=0, mean_p=0, s_qq=1.0, s_pp=1.0, s_pq=1.5, t=0.0)

    def test_nan_determinant_is_not_finite(self):
        # s_qq s_pp and s_pq^2 both overflow, so sigma = inf - inf = nan
        with pytest.raises(ValueError, match="moments not finite"):
            GaussianState(mean_q=0, mean_p=0, s_qq=1e200, s_pp=1e200, s_pq=1e200)

    def test_infinite_determinant_from_finite_moments_passes(self):
        state = GaussianState(mean_q=0, mean_p=0, s_qq=1e200, s_pp=1e200, s_pq=0.0)
        assert state.sigma_det == math.inf


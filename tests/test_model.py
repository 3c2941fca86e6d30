"""Core model objects: temperature, configuration, diffusion, validation."""

import math

import pytest

from lindosc.model import (
    DiffusionCoefficients,
    GaussianState,
    InitialStateSpec,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    squeeze_terms,
    thermal_coefficients,
    validate,
)


def make_cfg(lam=0.2, mu=0.1, c=3.0, **kw):
    return OscillatorConfig(
        m=kw.get("m", 1.0),
        omega=kw.get("omega", 1.0),
        lam=lam,
        mu=mu,
        hbar=kw.get("hbar", 1.0),
        temp=TemperatureSpec.from_coth(c),
    )


class TestTemperatureSpec:
    def test_zero_temperature_coth_is_one(self):
        assert TemperatureSpec.zero().coth() == 1.0

    def test_coth_round_trip(self):
        spec = TemperatureSpec.from_coth(3.0)
        assert spec.coth() == 3.0
        # epsilon = artanh(1/3)
        assert spec.epsilon() == pytest.approx(math.atanh(1.0 / 3.0), rel=1e-15)

    def test_temperature_round_trip(self):
        spec = TemperatureSpec.from_temperature(2.0)
        # C = coth(hbar*omega/(2kT)) = coth(0.25) in natural units
        assert spec.coth() == pytest.approx(1.0 / math.tanh(0.25), rel=1e-15)
        assert spec.kelvin() == 2.0

    def test_epsilon_constructor(self):
        spec = TemperatureSpec.from_epsilon(0.1)
        assert spec.coth() == pytest.approx(1.0 / math.tanh(0.1), rel=1e-15)

    def test_infinite_temperature(self):
        spec = TemperatureSpec.from_coth(math.inf)
        assert math.isinf(spec.coth())
        assert math.isinf(spec.kelvin())

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

    def test_closed_requires_no_damping(self):
        with pytest.raises(ValueError):
            OscillatorConfig(
                m=1.0, omega=1.0, lam=0.1, mu=0.0, hbar=1.0, closed_system=True
            )

    def test_closed_constructor(self):
        cfg = OscillatorConfig.closed()
        assert cfg.closed_system and cfg.lam == 0.0 and cfg.mu == 0.0

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
        d = thermal_coefficients(OscillatorConfig.closed())
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


class TestValidate:
    def test_reference_passes(self):
        report = validate(make_cfg())
        assert report.ok
        # the weak-coupling advisory fires at lam = 0.2 but must not fail the run
        assert len(report.advisories) == 1

    def test_constraint_boundary_fails(self):
        report = validate(make_cfg(lam=0.05, mu=0.1))
        assert not report.ok

    def test_low_temperature_fails_fluctuation_bound(self):
        # (lam^2 - mu^2) C^2 = 0.0363 < lam^2 = 0.04
        report = validate(make_cfg(c=1.1))
        assert not report.ok
        names = {c.name for c in report.failures}
        assert "thermal_constraint" in names
        assert "determinant_bound" in names

    def test_closed_system_passes(self):
        assert validate(OscillatorConfig.closed()).ok

    def test_explicit_coefficients(self):
        good = DiffusionCoefficients(d_pp=0.45, d_qq=0.15, d_pq=0.0)
        assert validate(make_cfg(), good).ok
        bad = DiffusionCoefficients(d_pp=0.45, d_qq=0.15, d_pq=0.3)
        assert not validate(make_cfg(), bad).ok

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


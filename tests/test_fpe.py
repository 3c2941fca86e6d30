"""Finite-volume phase-space solver: stability, conservation, accuracy."""

import math

import numpy as np
import pytest

from lindosc.fpe import (
    FpeRunSpec,
    grid_l2_diff,
    grid_linf_diff,
    grid_moments,
    run_fpe,
    stable_dt,
)
from lindosc.model import (
    DiffusionCoefficients,
    InitialStateSpec,
    NumericError,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    thermal_coefficients,
)
from lindosc.propagate import asymptotic_covariance, covariance_lyapunov
from lindosc.states import GridGeometry, PhaseSpaceGrid, geometry_for_states, render_grid, stationary_grid


def make_cfg(c=3.0, lam=0.2, mu=0.1):
    return OscillatorConfig(
        m=1.0, omega=1.0, lam=lam, mu=mu, hbar=1.0, temp=TemperatureSpec.from_coth(c)
    )


CFG = make_cfg()
D = thermal_coefficients(CFG)


# ---------------------------------------------------------------------------
# run-spec validation and the stability bound
# ---------------------------------------------------------------------------


class TestRunSpec:
    def test_negative_t_end_rejected(self):
        with pytest.raises(ValueError):
            FpeRunSpec(t_end=-1.0)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            FpeRunSpec(t_end=1.0, dt=0.0)

    def test_safety_range(self):
        with pytest.raises(ValueError):
            FpeRunSpec(t_end=1.0, safety=0.6)
        with pytest.raises(ValueError):
            FpeRunSpec(t_end=1.0, safety=0.0)

    def test_snapshots_must_lie_inside_run(self):
        with pytest.raises(ValueError):
            FpeRunSpec(t_end=1.0, snapshot_times=(0.5, 1.5))
        with pytest.raises(ValueError):
            FpeRunSpec(t_end=1.0, snapshot_times=(0.0,))
        with pytest.raises(ValueError):
            FpeRunSpec(t_end=1.0, snapshot_times=(0.5, 0.5))


def _four_term_bound(geom, cfg, d):
    # the documented per-axis limit the solver must never exceed
    q = max(abs(geom.q_min), abs(geom.q_max))
    p = max(abs(geom.p_min), abs(geom.p_max))
    vq = p / cfg.m + abs(cfg.lam - cfg.mu) * q
    vp = cfg.m * cfg.omega**2 * q + (cfg.lam + cfg.mu) * p
    terms = [geom.dq / vq, geom.dp / vp]
    if d.d_qq > 0.0:
        terms.append(geom.dq**2 / (2.0 * d.d_qq))
    if d.d_pp > 0.0:
        terms.append(geom.dp**2 / (2.0 * d.d_pp))
    return 0.5 * min(terms)


class TestStableDt:
    def test_within_documented_bound(self):
        state = initial_state(InitialStateSpec(spread=4.0, correlation=0.0), CFG)
        for n in (64, 128, 256):
            geom = geometry_for_states([state], n)
            assert stable_dt(geom, CFG, D) <= _four_term_bound(geom, CFG, D) + 1e-18

    def test_scales_down_with_resolution(self):
        state = initial_state(InitialStateSpec(spread=1.0, correlation=0.0), CFG)
        dts = [stable_dt(geometry_for_states([state], n), CFG, D) for n in (64, 128, 256)]
        assert dts[0] > dts[1] > dts[2]

    def test_safety_scales_linearly(self):
        geom = GridGeometry.centered(8.0, 8.0, 64)
        assert stable_dt(geom, CFG, D, safety=0.25) == pytest.approx(
            0.5 * stable_dt(geom, CFG, D, safety=0.5), rel=1e-13
        )


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------


class TestGuards:
    def test_rejects_dt_above_documented_bound(self):
        grid = stationary_grid(CFG, 64)
        bound = _four_term_bound(grid.geom, CFG, D)
        with pytest.raises(ValueError):
            run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.1, dt=2.0 * bound))

    def test_rejects_unnormalized_input(self):
        grid = stationary_grid(CFG, 64)
        bad = PhaseSpaceGrid(geom=grid.geom, values=2.0 * grid.values)
        with pytest.raises(ValueError):
            run_fpe(bad, CFG, D, FpeRunSpec(t_end=0.1))

    def test_numeric_blowup_reports_step(self):
        # a dt below the documented bound but far above the sharp combined
        # limit destabilizes the shortest-wavelength mode within a few steps
        grid = stationary_grid(CFG, 192)
        auto = stable_dt(grid.geom, CFG, D, safety=0.5)
        bound = _four_term_bound(grid.geom, CFG, D)
        dt = 0.98 * bound
        assert dt > auto  # genuinely in the gap between the two limits
        with pytest.raises(NumericError) as err:
            run_fpe(grid, CFG, D, FpeRunSpec(t_end=6.0, dt=dt))
        assert err.value.step >= 1

    def test_diff_helpers_require_matching_geometry(self):
        a = stationary_grid(CFG, 64)
        b = stationary_grid(CFG, 96)
        with pytest.raises(ValueError):
            grid_l2_diff(a, b)
        with pytest.raises(ValueError):
            grid_linf_diff(a, b)


# ---------------------------------------------------------------------------
# correctness on physical problems
# ---------------------------------------------------------------------------


class TestPhysics:
    def test_stationary_state_is_fixed_point(self):
        grid = stationary_grid(CFG, 128)
        result = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.5))
        drift = grid_linf_diff(result.final, grid)
        assert drift < 2e-3 * float(np.max(grid.values))
        assert result.mass_final == pytest.approx(1.0, abs=1e-6)

    def test_mass_conservation_interior(self):
        state = initial_state(InitialStateSpec(spread=2.0, correlation=0.0), CFG)
        cover = [state, asymptotic_covariance(CFG)]
        grid = render_grid(state, geometry_for_states(cover, 128))
        result = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.5))
        assert abs(result.mass_final - result.mass_initial) < 1e-6

    def test_moments_track_exact_solution(self):
        state = initial_state(
            InitialStateSpec(spread=4.0, correlation=0.0, center_q=1.0), CFG
        )
        cover = [state, asymptotic_covariance(CFG)]
        grid = render_grid(state, geometry_for_states(cover, 192))
        result = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.5))
        got = grid_moments(result.final, t=0.5)
        want = covariance_lyapunov(state, CFG, D, 0.5)
        assert got.mean_q == pytest.approx(want.mean_q, abs=2e-3)
        assert got.mean_p == pytest.approx(want.mean_p, abs=2e-3)
        assert got.s_qq == pytest.approx(want.s_qq, rel=2e-3)
        assert got.s_pp == pytest.approx(want.s_pp, rel=2e-3)
        assert got.s_pq == pytest.approx(want.s_pq, abs=2e-3)

    def test_positivity_preserved_for_thermal_run(self):
        state = initial_state(InitialStateSpec(spread=2.0, correlation=0.3), CFG)
        cover = [state, asymptotic_covariance(CFG)]
        grid = render_grid(state, geometry_for_states(cover, 128))
        result = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.5))
        assert result.min_value > -1e-6

    def test_classical_kramers_limit(self):
        # position diffusion switched off entirely: the classical equation
        # with momentum diffusion 2 m lam kT only
        cfg = make_cfg(c=3.0, lam=0.1, mu=0.1)
        kt = cfg.thermal_energy
        d = DiffusionCoefficients(d_pp=2.0 * cfg.m * cfg.lam * kt, d_qq=0.0, d_pq=0.0)
        state = initial_state(InitialStateSpec(spread=2.0, correlation=0.0), cfg)
        wide = GridGeometry.centered(
            8.0 * math.sqrt(kt), 8.0 * math.sqrt(kt), 192
        )
        grid = render_grid(state, wide)
        result = run_fpe(grid, cfg, d, FpeRunSpec(t_end=0.5))
        got = grid_moments(result.final, t=0.5)
        want = covariance_lyapunov(state, cfg, d, 0.5)
        assert got.s_qq == pytest.approx(want.s_qq, rel=5e-3)
        assert got.s_pp == pytest.approx(want.s_pp, rel=5e-3)

    def test_grid_moments_of_rendered_state(self):
        state = initial_state(
            InitialStateSpec(spread=4.0, correlation=0.4, center_q=0.7, center_p=-0.5),
            CFG,
        )
        grid = render_grid(state, geometry_for_states([state], 128))
        got = grid_moments(grid)
        assert got.mean_q == pytest.approx(0.7, abs=1e-6)
        assert got.mean_p == pytest.approx(-0.5, abs=1e-6)
        assert got.s_qq == pytest.approx(state.s_qq, rel=1e-5)
        assert got.s_pp == pytest.approx(state.s_pp, rel=1e-5)
        assert got.s_pq == pytest.approx(state.s_pq, abs=1e-5)


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


class TestBookkeeping:
    def test_snapshots_recorded_at_requested_times(self):
        grid = stationary_grid(CFG, 64)
        run = FpeRunSpec(t_end=0.3, snapshot_times=(0.1, 0.2))
        result = run_fpe(grid, CFG, D, run)
        assert [t for t, _ in result.snapshots] == [0.1, 0.2]
        for _, snap in result.snapshots:
            assert snap.geom == grid.geom

    def test_zero_time_run_returns_input(self):
        grid = stationary_grid(CFG, 64)
        result = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.0))
        assert result.steps == 0
        assert np.array_equal(result.final.values, grid.values)

    def test_summary_keys(self):
        grid = stationary_grid(CFG, 64)
        result = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.1))
        summary = result.summary()
        for key in (
            "dt",
            "steps",
            "t_end",
            "mass_initial",
            "mass_final",
            "mass_drift",
            "min_value",
            "boundary",
            "n_q",
            "n_p",
            "q_min",
            "q_max",
            "p_min",
            "p_max",
            "snapshot_times",
        ):
            assert key in summary

    def test_summary_reports_zero_inflow_boundary(self):
        grid = stationary_grid(CFG, 64)
        result = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.05))
        assert result.summary()["boundary"] == "zero-inflow"

    def test_determinism(self):
        state = initial_state(InitialStateSpec(spread=2.0, correlation=0.0), CFG)
        grid = render_grid(state, geometry_for_states([state, asymptotic_covariance(CFG)], 64))
        a = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.2))
        b = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.2))
        assert np.array_equal(a.final.values, b.final.values)
        assert a.dt == b.dt and a.steps == b.steps

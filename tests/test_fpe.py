"""Finite-volume phase-space solver: stability, conservation, accuracy."""

import math

import numpy as np
import pytest

from lindosc import fpe
from lindosc.fpe import (
    FpeRunSpec,
    _Stepper,
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

    def test_rejects_dt_above_stable_dt(self):
        grid = stationary_grid(CFG, 64)
        dt = 1.01 * stable_dt(grid.geom, CFG, D)
        with pytest.raises(ValueError, match="stable step"):
            run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.1, dt=dt))

    def test_rejects_dt_that_blows_up_under_four_term_bound(self):
        # the squeezed run of the README model: dt = 0.0053 is 4.2x the
        # stable step yet within the per-axis bound, and a run with it blows
        # up (min_value -1.3e27 by t = 1)
        state = initial_state(InitialStateSpec(spread=4.0, correlation=0.0), CFG)
        geom = geometry_for_states([state, asymptotic_covariance(CFG)], 128)
        assert 0.0053 < _four_term_bound(geom, CFG, D)
        with pytest.raises(ValueError, match="stable step 0.00126523"):
            run_fpe(render_grid(state, geom), CFG, D, FpeRunSpec(t_end=1.0, dt=0.0053))

    def test_numeric_blowup_reports_step(self, monkeypatch):
        # a cell turns non-finite in step 7: the run stops there and
        # reports that step and its time
        grid = stationary_grid(CFG, 64)
        # one segment of equal steps h = t_end / n: step k ends at k * h
        h = 0.1 / math.ceil(0.1 / stable_dt(grid.geom, CFG, D) - 1e-12)
        step = fpe._Stepper.step
        for bad in (np.inf, -np.inf, np.nan):
            taken = []

            def failing_step(self, w, dt):
                w = step(self, w, dt)
                taken.append(dt)
                if len(taken) == 7:
                    w[10, 20] = bad
                return w

            monkeypatch.setattr(fpe._Stepper, "step", failing_step)
            with pytest.raises(NumericError) as err:
                run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.1))
            assert err.value.step == 7
            assert taken == [h] * 7
            reported = float(str(err.value).rsplit("t ~ ", 1)[1].rstrip(")"))
            assert reported == pytest.approx(7 * h, rel=1e-5)

    def test_rejects_step_count_that_overflows(self):
        grid = stationary_grid(CFG, 16)
        with pytest.raises(ValueError, match="not a finite step count"):
            run_fpe(grid, CFG, D, FpeRunSpec(t_end=1e308))

    def test_accepts_large_finite_step_count(self, monkeypatch):
        # no step limit: a run of about 1e303 steps starts stepping
        class Started(Exception):
            pass

        def first_step(self, w, dt):
            raise Started

        monkeypatch.setattr(fpe._Stepper, "step", first_step)
        with pytest.raises(Started):
            run_fpe(stationary_grid(CFG, 16), CFG, D, FpeRunSpec(t_end=1e300))

    @pytest.mark.parametrize("t_end", [0.0, 0.1])
    def test_rejects_non_finite_input(self, t_end):
        grid = stationary_grid(CFG, 64)
        values = grid.values.copy()
        values[10, 20] = np.nan
        bad = PhaseSpaceGrid(geom=grid.geom, values=values)
        with pytest.raises(ValueError):
            run_fpe(bad, CFG, D, FpeRunSpec(t_end=t_end))

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
        half = 8.0 * math.sqrt(kt)
        wide = GridGeometry(-half, half, -half, half, 192, 192)
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

    @pytest.mark.parametrize("d_pq", [0.1, -0.1])
    def test_cross_diffusion_moments_track_exact_solution(self, d_pq):
        d = DiffusionCoefficients(d_pp=D.d_pp, d_qq=D.d_qq, d_pq=d_pq)
        state = initial_state(
            InitialStateSpec(spread=4.0, correlation=0.0, center_q=1.0), CFG
        )
        cover = [state, asymptotic_covariance(CFG)]
        grid = render_grid(state, geometry_for_states(cover, 192))
        got = grid_moments(run_fpe(grid, CFG, d, FpeRunSpec(t_end=0.5)).final, t=0.5)
        want = covariance_lyapunov(state, CFG, d, 0.5)
        assert got.mean_q == pytest.approx(want.mean_q, abs=2e-3)
        assert got.mean_p == pytest.approx(want.mean_p, abs=2e-3)
        assert got.s_qq == pytest.approx(want.s_qq, rel=2e-3)
        assert got.s_pp == pytest.approx(want.s_pp, rel=2e-3)
        assert got.s_pq == pytest.approx(want.s_pq, abs=2e-3)
        # the shift the cross term causes, against the same run without it:
        # the spatial error common to both runs cancels
        got0 = grid_moments(run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.5)).final, t=0.5)
        want0 = covariance_lyapunov(state, CFG, D, 0.5)
        shift = want.s_pq - want0.s_pq
        assert abs(shift) > 0.05
        assert got.s_pq - got0.s_pq == pytest.approx(shift, abs=2e-4)


# ---------------------------------------------------------------------------
# the step kernel against the direct upwind form
# ---------------------------------------------------------------------------


def _direct_step(geom, cfg, d):
    """The forward-Euler step written out directly: zero-padded copies of
    the grid per axis, both linear-upwind branches selected with np.where,
    diffusion and cross diffusion as separate face terms."""
    nq, npp = geom.n_q, geom.n_p
    dq, dp = geom.dq, geom.dp
    q = geom.q_centers()
    p = geom.p_centers()
    q_faces = geom.q_min + dq * np.arange(nq + 1)
    p_faces = geom.p_min + dp * np.arange(npp + 1)
    vq = q_faces[:, None] * (-(cfg.lam - cfg.mu)) + p[None, :] / cfg.m
    vp = -cfg.m * cfg.omega**2 * q[:, None] - (cfg.lam + cfg.mu) * p_faces[None, :]

    def step(w, dt):
        pq = np.zeros((nq + 4, npp))
        pq[2:-2, :] = w
        adv_q = np.where(
            vq >= 0.0,
            1.5 * pq[1 : nq + 2, :] - 0.5 * pq[0 : nq + 1, :],
            1.5 * pq[2 : nq + 3, :] - 0.5 * pq[3 : nq + 4, :],
        )
        flux_q = vq * adv_q - d.d_qq * (pq[2 : nq + 3, :] - pq[1 : nq + 2, :]) / dq

        pp = np.zeros((nq, npp + 4))
        pp[:, 2:-2] = w
        adv_p = np.where(
            vp >= 0.0,
            1.5 * pp[:, 1 : npp + 2] - 0.5 * pp[:, 0 : npp + 1],
            1.5 * pp[:, 2 : npp + 3] - 0.5 * pp[:, 3 : npp + 4],
        )
        flux_p = vp * adv_p - d.d_pp * (pp[:, 2 : npp + 3] - pp[:, 1 : npp + 2]) / dp

        dwdp = np.zeros((nq + 2, npp))
        dwdp[1:-1, :] = (pp[:, 3 : npp + 3] - pp[:, 1 : npp + 1]) / (2.0 * dp)
        flux_q -= d.d_pq * 0.5 * (dwdp[0 : nq + 1, :] + dwdp[1 : nq + 2, :])
        dwdq = np.zeros((nq, npp + 2))
        dwdq[:, 1:-1] = (pq[3 : nq + 3, :] - pq[1 : nq + 1, :]) / (2.0 * dq)
        flux_p -= d.d_pq * 0.5 * (dwdq[:, 0 : npp + 1] + dwdq[:, 1 : npp + 2])

        div = (flux_q[1:, :] - flux_q[:-1, :]) / dq + (flux_p[:, 1:] - flux_p[:, :-1]) / dp
        return w - dt * div

    return step


class TestStepKernel:
    # a tight, off-centre box: both velocity signs on every axis and
    # non-negligible values at the boundary faces
    GEOM = GridGeometry(q_min=-2.5, q_max=3.0, p_min=-3.0, p_max=2.0, n_q=40, n_p=56)

    @pytest.mark.parametrize(
        "d",
        [
            D,
            DiffusionCoefficients(d_pp=D.d_pp, d_qq=0.0, d_pq=0.0),
            DiffusionCoefficients(d_pp=D.d_pp, d_qq=D.d_qq, d_pq=0.1),
            DiffusionCoefficients(d_pp=D.d_pp, d_qq=D.d_qq, d_pq=-0.1),
        ],
        ids=["d_qq", "no_d_qq", "d_pq+", "d_pq-"],
    )
    def test_matches_direct_step(self, d):
        state = initial_state(
            InitialStateSpec(spread=2.0, correlation=0.4, center_q=0.8, center_p=-0.6),
            CFG,
        )
        w0 = render_grid(state, self.GEOM).values
        assert abs(w0[0, :]).max() > 1e-3 * w0.max()  # mass reaches the boundary
        dt = stable_dt(self.GEOM, CFG, d)
        direct = _direct_step(self.GEOM, CFG, d)
        stepper = _Stepper(self.GEOM, CFG, d)
        want, got = w0, w0
        for _ in range(50):
            want = direct(want, dt)
            got = stepper.step(got, dt)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(want - w0).max() > 1e-3 * np.abs(w0).max()  # it moved
        # the ghost cells of the padded buffer are still zero
        outside = stepper.padded.copy()
        outside[2:-2, 2:-2] = 0.0
        assert not outside.any()

    @pytest.mark.parametrize(
        "d",
        [D, DiffusionCoefficients(d_pp=D.d_pp, d_qq=D.d_qq, d_pq=0.1)],
        ids=["no_d_pq", "d_pq"],
    )
    def test_run_matches_direct_steps(self, d, monkeypatch):
        # a snapshot splits the run into two segments of different sub-step
        # h; run_fpe must equal the direct step looped with the same h
        state = initial_state(
            InitialStateSpec(spread=2.0, correlation=0.4, center_q=0.8, center_p=-0.6),
            CFG,
        )
        w0 = render_grid(state, self.GEOM).values
        grid = PhaseSpaceGrid(self.GEOM, w0 / (w0.sum() * self.GEOM.dq * self.GEOM.dp))
        steppers = []

        class Recording(fpe._Stepper):
            def __init__(self, *args):
                super().__init__(*args)
                steppers.append(self)

        monkeypatch.setattr(fpe, "_Stepper", Recording)
        dt = stable_dt(self.GEOM, CFG, d)
        run = FpeRunSpec(t_end=0.05, dt=dt, snapshot_times=(0.013,))
        result = run_fpe(grid, CFG, d, run)

        direct = _direct_step(self.GEOM, CFG, d)
        want, t_prev, lowest, segments = grid.values, 0.0, grid.values.min(), []
        for t_event in (0.013, 0.05):
            n = math.ceil((t_event - t_prev) / dt - 1e-12)
            h = (t_event - t_prev) / n
            for _ in range(n):
                want = direct(want, h)
                lowest = min(lowest, want.min())
            segments.append((n, h, want))
            t_prev = t_event
        (n1, h1, want1), (n2, h2, want2) = segments
        assert h1 != h2
        assert result.steps == n1 + n2
        (t, snap), = result.snapshots
        assert t == 0.013
        peak = np.abs(want1).max()
        assert np.abs(snap.values - want1).max() <= 1e-13 * peak
        assert np.abs(result.final.values - want2).max() <= 1e-13 * peak
        assert result.min_value == pytest.approx(lowest, abs=1e-13 * peak)
        assert np.abs(want2 - grid.values).max() > 1e-3 * peak  # it moved
        (stepper,) = steppers
        outside = stepper.padded.copy()
        outside[2:-2, 2:-2] = 0.0
        assert not outside.any()


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

    def test_snapshot_is_not_overwritten_by_later_steps(self):
        state = initial_state(InitialStateSpec(spread=2.0, correlation=0.3), CFG)
        grid = render_grid(state, geometry_for_states([state, asymptotic_covariance(CFG)], 64))
        long = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.3, snapshot_times=(0.1,)))
        short = run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.1))
        (t, snap), = long.snapshots
        assert t == 0.1
        assert np.array_equal(snap.values, short.final.values)
        assert not np.array_equal(snap.values, long.final.values)

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

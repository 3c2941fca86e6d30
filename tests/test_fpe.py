"""Finite-volume phase-space solver: stability, conservation, accuracy."""

import math
from dataclasses import replace

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

    # the README model and baths at the edges: lam -> 0+, |mu| -> lam at
    # large C, large C, strong damping, and C near its thermal bound
    BATHS = [(0.2, 0.1, 3.0), (1e-4, 0.0, 1.0), (0.2, 0.19999, 100.0),
             (0.2, -0.19999, 100.0), (0.2, 0.1, 1e4), (3.0, 0.9, 1.5), (0.2, 0.1, 1.2)]

    @staticmethod
    def _largest_gain(geom, cfg, d, dt):
        """Largest |g| of one step of ``dt`` over the Fourier modes of the
        frozen-coefficient scheme, its face weights read from
        ``fpe._face_coefficients``.  For velocities of one sign ``g`` is
        affine in (v_q, v_p), so ``|g|`` peaks at a corner of the box of
        velocities; a sign flip is a flip of theta, which the grid of theta
        in [-pi, pi] covers, so v = 0 and the largest v per axis suffice."""
        theta = np.linspace(-np.pi, np.pi, 257)
        shift = np.exp(1j * theta)

        def symbol(v, diff, dx):
            # the face flux over dx reads W[f-2..f+1]; the divergence of a mode
            # is (e^{i theta} - 1) times the face's
            a, b, c, e = (float(w[0]) for w in fpe._face_coefficients(np.array([v]), diff, dx))
            return -(shift - 1.0) * (a / shift**2 + b / shift + c + e * shift)

        q = max(abs(geom.q_min), abs(geom.q_max))
        p = max(abs(geom.p_min), abs(geom.p_max))
        vq = p / cfg.m + abs(cfg.lam - cfg.mu) * q
        vp = cfg.m * cfg.omega**2 * q + (cfg.lam + cfg.mu) * p
        return max(
            np.abs(1.0 + dt * (symbol(uq, d.d_qq, geom.dq)[:, None]
                               + symbol(up, d.d_pp, geom.dp)[None, :])).max()
            for uq in (0.0, vq) for up in (0.0, vp)
        )

    @pytest.mark.parametrize("lam, mu, c", BATHS)
    def test_frozen_coefficient_symbol_is_stable(self, lam, mu, c):
        # von Neumann: at stable_dt no mode of the frozen-coefficient scheme
        # grows, on the stationary box and on the box of the delta = 4 run
        cfg = make_cfg(c=c, lam=lam, mu=mu)
        d = thermal_coefficients(cfg)
        state = initial_state(InitialStateSpec(spread=4.0, correlation=0.0), cfg)
        for cover in ([asymptotic_covariance(cfg)], [state, asymptotic_covariance(cfg)]):
            for n in (32, 64, 128, 256):
                geom = geometry_for_states(cover, n)
                assert self._largest_gain(geom, cfg, d, stable_dt(geom, cfg, d)) <= 1.0 + 1e-12

    def test_frozen_coefficient_margin_is_small_somewhere(self):
        # the check above can fail: near C's thermal bound at 64^2 a step
        # 10 % above stable_dt grows a mode (the limit there is 1.04 times it)
        cfg = make_cfg(c=1.2)
        d = thermal_coefficients(cfg)
        state = initial_state(InitialStateSpec(spread=4.0, correlation=0.0), cfg)
        geom = geometry_for_states([state, asymptotic_covariance(cfg)], 64)
        dt = stable_dt(geom, cfg, d)
        assert self._largest_gain(geom, cfg, d, dt) <= 1.0 + 1e-12
        assert self._largest_gain(geom, cfg, d, 1.1 * dt) > 1.0 + 1e-6


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
        # the stationary run at lam = 1, mu = 0, C = 3 on 128^2: dt = 0.0021
        # is 4.1x the stable step yet within the per-axis bound, and the
        # step with it blows up by t = 1
        cfg = make_cfg(c=3.0, lam=1.0, mu=0.0)
        d = thermal_coefficients(cfg)
        grid = stationary_grid(cfg, 128)
        assert 0.0021 < _four_term_bound(grid.geom, cfg, d)
        with pytest.raises(ValueError, match="stable step 0.000517004"):
            run_fpe(grid, cfg, d, FpeRunSpec(t_end=1.0, dt=0.0021))
        stepper, w = _Stepper(grid.geom, cfg, d, 0.0021), grid.values
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(476):
                w = stepper.step(w)
        assert not w.min() > -1e10  # also true once it is nan

    @pytest.mark.parametrize("centred", [True, False], ids=["half_rows", "all_rows"])
    def test_numeric_blowup_reports_step(self, monkeypatch, centred):
        # a cell turns non-finite in step 7 or 8 (the two steps write
        # different buffers): the run stops there and reports that step and
        # its time, whether the run steps half the rows or all of them
        if centred:
            grid = stationary_grid(CFG, 64)
        else:
            state = initial_state(InitialStateSpec(spread=2.0, correlation=0.0, center_q=0.5), CFG)
            grid = render_grid(state, geometry_for_states([state, asymptotic_covariance(CFG)], 64))
        # one segment of equal steps h = t_end / n: step k ends at k * h
        h = 0.1 / math.ceil(0.1 / stable_dt(grid.geom, CFG, D) - 1e-12)
        step = fpe._Stepper.step
        for bad in (np.inf, -np.inf, np.nan):
            for failing in (7, 8):
                taken, written = [], []

                def failing_step(self, w):
                    w = step(self, w)
                    assert self.rows == (32 if centred else 64)
                    taken.append(self.h)
                    written.append(w.base)
                    if len(taken) == failing:
                        w[10, 20] = bad
                    return w

                monkeypatch.setattr(fpe._Stepper, "step", failing_step)
                with pytest.raises(NumericError) as err:
                    run_fpe(grid, CFG, D, FpeRunSpec(t_end=0.1))
                assert err.value.step == failing
                assert taken == [h] * failing
                # steps alternate between the two buffers
                assert written[-1] is written[-3] and written[-1] is not written[-2]
                reported = float(str(err.value).rsplit("t ~ ", 1)[1].rstrip(")"))
                assert reported == pytest.approx(failing * h, rel=1e-5)

    def test_rejects_step_count_that_overflows(self):
        grid = stationary_grid(CFG, 16)
        # the span rule and message of every run (propagate.whole_steps)
        message = r"^t-end / dt = 1e\+308 / \S+ is not a finite sample count$"
        with pytest.raises(ValueError, match=message):
            run_fpe(grid, CFG, D, FpeRunSpec(t_end=1e308))

    def test_accepts_large_finite_step_count(self, monkeypatch):
        # no step limit: a run of about 1e303 steps starts stepping
        class Started(Exception):
            pass

        def first_step(self, w):
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

    @pytest.mark.parametrize("n, l2_bound, floor", [(64, 7e-4, -3e-6), (128, 3.2e-4, -2e-12)])
    def test_squeezed_run_error_and_minimum(self, n, l2_bound, floor):
        # the README run at t = 1 with the automatic step: L2 error 6.9e-4 and
        # 3.1e-4, smallest cell -2.5e-6 and -1.7e-12 (linear-upwind faces gave
        # 4.8e-3 and 1.3e-3, and -2.8e-4 and -3.8e-7)
        state = initial_state(InitialStateSpec(spread=4.0, correlation=0.0), CFG)
        geom = geometry_for_states([state, asymptotic_covariance(CFG)], n)
        result = run_fpe(render_grid(state, geom), CFG, D, FpeRunSpec(t_end=1.0))
        exact = render_grid(covariance_lyapunov(state, CFG, D, 1.0), geom)
        assert grid_l2_diff(result.final, exact) < l2_bound
        assert result.min_value > floor

    def test_advection_converges_at_third_order(self):
        # diffusion off, so the kappa = 1/3 faces alone set the spatial error;
        # dt = 1e-4 is small enough that the time error does not show
        d = DiffusionCoefficients.zero()
        state = initial_state(InitialStateSpec(spread=4.0, correlation=0.0), CFG)
        errors = []
        for n in (32, 64, 128):
            geom = geometry_for_states([state, asymptotic_covariance(CFG)], n)
            result = run_fpe(render_grid(state, geom), CFG, d, FpeRunSpec(t_end=0.1, dt=1e-4))
            exact = render_grid(covariance_lyapunov(state, CFG, d, 0.1), geom)
            errors.append(grid_l2_diff(result.final, exact))
        # halving the cell widths divides the error by 5.31, then 6.52, on the way
        # to 8 (linear upwind: 2.56 and 3.30)
        assert errors[0] / errors[1] == pytest.approx(5.3082, rel=1e-3)
        assert errors[1] / errors[2] == pytest.approx(6.5218, rel=1e-3)

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
# the step kernel against the direct upwind-biased form
# ---------------------------------------------------------------------------


def _direct_step(geom, cfg, d):
    """The forward-Euler step written out directly: zero-padded copies of
    the grid per axis, both kappa = 1/3 upwind-biased face values selected
    with np.where, diffusion and cross diffusion as separate face terms."""
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
            (-pq[0 : nq + 1, :] + 5.0 * pq[1 : nq + 2, :] + 2.0 * pq[2 : nq + 3, :]) / 6.0,
            (2.0 * pq[1 : nq + 2, :] + 5.0 * pq[2 : nq + 3, :] - pq[3 : nq + 4, :]) / 6.0,
        )
        flux_q = vq * adv_q - d.d_qq * (pq[2 : nq + 3, :] - pq[1 : nq + 2, :]) / dq

        pp = np.zeros((nq, npp + 4))
        pp[:, 2:-2] = w
        adv_p = np.where(
            vp >= 0.0,
            (-pp[:, 0 : npp + 1] + 5.0 * pp[:, 1 : npp + 2] + 2.0 * pp[:, 2 : npp + 3]) / 6.0,
            (2.0 * pp[:, 1 : npp + 2] + 5.0 * pp[:, 2 : npp + 3] - pp[:, 3 : npp + 4]) / 6.0,
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
        stepper = _Stepper(self.GEOM, CFG, d, dt)
        want, got = w0, w0
        for _ in range(50):
            want = direct(want, dt)
            got = stepper.step(got)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(want - w0).max() > 1e-3 * np.abs(w0).max()  # it moved
        _assert_ghost_rows_zero(stepper)

    @pytest.mark.parametrize(
        "d", [D, DiffusionCoefficients(d_pp=D.d_pp, d_qq=D.d_qq, d_pq=0.1)],
        ids=["no_d_pq", "d_pq"],
    )
    @pytest.mark.parametrize("column", [-1, 0], ids=["last", "first"])
    def test_step_does_not_wrap_across_rows(self, d, column):
        # one cell at the end of a row: in the flat buffer the next row's
        # first two cells (the previous row's last two, for column 0) sit one
        # and two elements away, and the diagonal taps reach the rows beyond;
        # the step must leave every cell across the row end exactly zero
        geom = self.GEOM
        i = 17
        w0 = np.zeros((geom.n_q, geom.n_p))
        w0[i, column] = 1.0
        got = _Stepper(geom, CFG, d, stable_dt(geom, CFG, d)).step(w0)
        far = [0, 1] if column == -1 else [-2, -1]  # the columns across the row end
        near = [-2, -1] if column == -1 else [0, 1]
        assert not got[:, far].any()
        assert got[i, near].all()  # it spread along its own row

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
        # one stepper per segment, each with its own step
        assert [stepper.h for stepper in steppers] == [h1, h2]
        for stepper in steppers:
            _assert_ghost_rows_zero(stepper)


class TestSymmetricPath:
    """A centrally symmetric grid on a box symmetric about 0 steps its first
    ceil(n_q/2) rows and mirrors the rest; anything else steps every row."""

    @staticmethod
    def _grid(n_q, n_p, center_q=0.0):
        # a correlated state, so the rows are not symmetric in p on their own
        state = initial_state(
            InitialStateSpec(spread=2.0, correlation=0.4, center_q=center_q), CFG
        )
        geom = GridGeometry(-3.0, 3.0, -2.5, 2.5, n_q, n_p)
        w = render_grid(state, geom).values
        return PhaseSpaceGrid(geom, w / (w.sum() * geom.dq * geom.dp))

    @staticmethod
    def _run(grid, d, run, monkeypatch):
        """``run_fpe`` and the rows each of its steppers computes."""
        rows = []

        class Recording(_Stepper):
            def __init__(self, *args):
                super().__init__(*args)
                rows.append(self.rows)

        monkeypatch.setattr(fpe, "_Stepper", Recording)
        return run_fpe(grid, CFG, d, run), rows

    @pytest.mark.parametrize("d_pq", [0.0, 0.1, -0.1])
    @pytest.mark.parametrize("n_q, n_p", [(3, 3), (4, 5), (5, 4), (16, 21), (17, 12)])
    def test_matches_direct_steps_on_the_whole_grid(self, n_q, n_p, d_pq, monkeypatch):
        d = DiffusionCoefficients(d_pp=D.d_pp, d_qq=D.d_qq, d_pq=d_pq)
        grid = self._grid(n_q, n_p)
        assert np.array_equal(grid.values, grid.values[::-1, ::-1])
        dt = stable_dt(grid.geom, CFG, d)
        run = FpeRunSpec(t_end=0.05, dt=dt, snapshot_times=(0.013,))
        result, rows = self._run(grid, d, run, monkeypatch)
        assert rows == [(n_q + 1) // 2] * 2

        direct = _direct_step(grid.geom, CFG, d)
        want, t_prev, lowest, wanted = grid.values, 0.0, grid.values.min(), []
        for t_event in (0.013, 0.05):
            n = math.ceil((t_event - t_prev) / dt - 1e-12)
            for _ in range(n):
                want = direct(want, (t_event - t_prev) / n)
                lowest = min(lowest, want.min())
            wanted.append(want)
            t_prev = t_event
        (_, snap), = result.snapshots
        peak = np.abs(grid.values).max()
        for got, want in ((snap.values, wanted[0]), (result.final.values, wanted[1])):
            assert np.abs(got - want).max() <= 1e-13 * peak
            assert np.array_equal(got, got[::-1, ::-1])
        assert result.min_value == pytest.approx(lowest, abs=1e-13 * peak)
        assert np.abs(wanted[1] - grid.values).max() > 1e-3 * peak  # it moved

    def test_asymmetric_inputs_step_every_row(self, monkeypatch):
        run = FpeRunSpec(t_end=0.02)
        grid = self._grid(16, 21)
        symmetric, rows = self._run(grid, D, run, monkeypatch)
        assert rows == [8]
        # one ulp off symmetry
        values = grid.values.copy()
        values[3, 5] = np.nextafter(values[3, 5], np.inf)
        nudged, rows = self._run(PhaseSpaceGrid(grid.geom, values), D, run, monkeypatch)
        assert rows == [16]
        assert np.abs(nudged.final.values - symmetric.final.values).max() <= (
            1e-13 * np.abs(grid.values).max()
        )
        # an off-centre state
        _, rows = self._run(self._grid(16, 21, center_q=0.3), D, run, monkeypatch)
        assert rows == [16]
        # symmetric values on a box that is not symmetric about 0
        shifted = replace(grid.geom, q_min=-2.5, q_max=3.5)
        _, rows = self._run(PhaseSpaceGrid(shifted, grid.values), D, run, monkeypatch)
        assert rows == [16]


def _assert_ghost_rows_zero(stepper):
    """Both buffers of ``stepper`` still hold zeros outside the interior."""
    for buffer in stepper.buffers:
        assert not buffer.padded[:2].any() and not buffer.padded[-2:].any()


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

    def test_span_takes_the_whole_steps_of_the_time_grid(self):
        # 0.2/dt = 200 + 1e-11 lies within the relative slack 1e-12 of the
        # whole multiple 200, as propagate.whole_steps and time_grid count it
        cfg = OscillatorConfig.reference(3.0)
        run = FpeRunSpec(t_end=0.2, dt=0.2 / (200 + 1e-11))
        result = run_fpe(stationary_grid(cfg, 16), cfg, thermal_coefficients(cfg), run)
        assert result.steps == 200

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

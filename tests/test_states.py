"""Position-space density, Wigner function, and phase-space grids."""

import io
import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from lindosc.model import (
    GaussianState,
    InitialStateSpec,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    thermal_coefficients,
)
from lindosc.propagate import asymptotic_covariance, covariance_lyapunov
from lindosc.states import (
    GridGeometry,
    PhaseSpaceGrid,
    alpha_beta_gamma,
    density_grid,
    density_matrix,
    density_sigma_delta,
    gaussian_trapezoid,
    geometry_for_states,
    render_grid,
    stationary_density,
    stationary_grid,
    wigner,
    wigner_from_coefficients,
    wigner_from_density,
)


def make_cfg(c=3.0):
    return OscillatorConfig(
        m=1.0, omega=1.0, lam=0.2, mu=0.1, hbar=1.0, temp=TemperatureSpec.from_coth(c)
    )


CFG = make_cfg()


def pure_state(spread=1.0, correlation=0.0, q0=0.0, p0=0.0):
    spec = InitialStateSpec(
        spread=spread, correlation=correlation, center_q=q0, center_p=p0
    )
    return initial_state(spec, CFG)


def evolved_state(t=1.0, spread=4.0, correlation=0.3):
    d = thermal_coefficients(CFG)
    return covariance_lyapunov(pure_state(spread, correlation), CFG, d, t)


# ---------------------------------------------------------------------------
# density coefficients
# ---------------------------------------------------------------------------


class TestAlphaBetaGamma:
    def test_coherent_state(self):
        c = alpha_beta_gamma(pure_state())
        assert c.alpha == pytest.approx(1.0, rel=1e-15)
        assert c.gamma == pytest.approx(0.25, rel=1e-15)
        assert c.beta == 0.0

    def test_squeezed_state(self):
        c = alpha_beta_gamma(pure_state(spread=4.0))
        assert c.alpha == pytest.approx(0.25, rel=1e-15)
        assert c.gamma == pytest.approx(0.0625, rel=1e-15)

    def test_thermal_widened_state(self):
        # s_qq = s_pp = 1.5, s_pq = 0 so sigma = 2.25
        state = GaussianState(mean_q=0, mean_p=0, s_qq=1.5, s_pp=1.5, s_pq=0, t=0)
        c = alpha_beta_gamma(state)
        assert c.alpha == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert c.gamma == pytest.approx(0.75, rel=1e-15)

    def test_correlated_state_has_linear_coefficient(self):
        state = pure_state(correlation=0.6)
        c = alpha_beta_gamma(state)
        assert c.beta == pytest.approx(state.s_pq / state.s_qq, rel=1e-14)


# ---------------------------------------------------------------------------
# density matrix
# ---------------------------------------------------------------------------


class TestDensityMatrix:
    def test_hermiticity(self):
        state = evolved_state(0.9, correlation=0.5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            q, qp = rng.uniform(-3.0, 3.0, size=2)
            assert density_matrix(state, q, qp) == pytest.approx(
                np.conj(density_matrix(state, qp, q)), rel=1e-13
            )

    def test_unit_trace(self):
        state = evolved_state(1.3)
        trace = gaussian_trapezoid(
            lambda q: density_matrix(state, q, q).real,
            state.mean_q,
            math.sqrt(state.s_qq),
        )
        assert trace == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_is_position_marginal(self):
        state = evolved_state(0.6, correlation=-0.3)
        q = state.mean_q + 0.8
        # at fixed q, W is a Gaussian in p of variance sigma_det/s_qq
        marginal = gaussian_trapezoid(
            lambda p: wigner(state, q, p),
            state.mean_p + state.s_pq / state.s_qq * 0.8,
            math.sqrt(state.sigma_det / state.s_qq),
        )
        assert marginal == pytest.approx(density_matrix(state, q, q).real, abs=1e-15)

    def test_off_diagonal_width(self):
        # for gamma = 0.75 the |rho(q, -q)| envelope is exp(-gamma q^2 / hbar^2)
        state = GaussianState(mean_q=0, mean_p=0, s_qq=1.5, s_pp=1.5, s_pq=0, t=0)
        ratio = abs(density_matrix(state, 0.6, -0.6)) / abs(
            density_matrix(state, 0.0, 0.0)
        )
        assert ratio == pytest.approx(math.exp(-0.75 * 1.44), rel=1e-12)

    def test_pure_state_purity(self):
        # Tr rho^2 = 1 for a minimum-uncertainty state
        state = pure_state(spread=2.0, correlation=0.4)
        purity, _ = dblquad(
            lambda qp, q: abs(density_matrix(state, q, qp)) ** 2,
            -12.0, 12.0, -12.0, 12.0,
        )
        assert purity == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Wigner function
# ---------------------------------------------------------------------------


class TestWigner:
    def test_peak_height_pure(self):
        state = pure_state()
        assert wigner(state, 0.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_peak_height_scales_with_determinant(self):
        state = evolved_state(2.0)
        peak = 1.0 / (2.0 * math.pi * math.sqrt(state.sigma_det))
        assert wigner(state, state.mean_q, state.mean_p) == pytest.approx(
            peak, rel=1e-13
        )

    def test_normalization(self):
        state = evolved_state(0.5, correlation=0.6)
        half_q = 10.0 * math.sqrt(state.s_qq)
        half_p = 10.0 * math.sqrt(state.s_pp)
        total, _ = dblquad(
            lambda p, q: wigner(state, q, p),
            state.mean_q - half_q, state.mean_q + half_q,
            state.mean_p - half_p, state.mean_p + half_p,
        )
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_two_formulas_agree(self):
        rng = np.random.default_rng(11)
        state = evolved_state(1.1, correlation=0.45)
        for _ in range(30):
            q, p = rng.uniform(-4.0, 4.0, size=2)
            assert wigner(state, q, p) == pytest.approx(
                wigner_from_coefficients(state, q, p), rel=1e-12, abs=1e-300
            )

    def test_transform_route_agrees(self):
        state = evolved_state(0.8, correlation=0.2)
        for q, p in [(0.0, 0.0), (0.5, -0.3), (-1.2, 0.9)]:
            assert wigner_from_density(state, q, p) == pytest.approx(
                wigner(state, q, p), abs=1e-8
            )

    def test_transform_route_resolves_the_phase_far_out(self):
        # far from <p> the integrand oscillates many times per width; a grid
        # sized from the width alone aliases there
        rng = np.random.default_rng(21)
        for _ in range(40):
            spec = InitialStateSpec(
                spread=10.0 ** rng.uniform(-2.0, 2.0),
                correlation=rng.uniform(-0.99, 0.99),
                center_q=rng.uniform(-2.0, 2.0),
                center_p=rng.uniform(-2.0, 2.0),
            )
            state = initial_state(spec, CFG)
            peak = wigner(state, state.mean_q, state.mean_p)
            sq, sp = math.sqrt(state.s_qq), math.sqrt(state.s_pp)
            for k in (0.0, 3.0, 30.0, -100.0, 300.0, -300.0):
                q = state.mean_q + rng.uniform(-3.0, 3.0) * sq
                p = state.mean_p + k * sp
                assert wigner_from_density(state, q, p) == pytest.approx(
                    wigner(state, q, p), rel=0.0, abs=1e-14 * peak
                )

    def test_translation_covariance(self):
        base = pure_state(spread=2.0, correlation=0.3)
        moved = pure_state(spread=2.0, correlation=0.3, q0=1.5, p0=-0.7)
        assert wigner(moved, 1.5 + 0.4, -0.7 + 0.2) == pytest.approx(
            wigner(base, 0.4, 0.2), rel=1e-13
        )

    def test_vectorized_evaluation(self):
        state = evolved_state(0.4)
        q = np.linspace(-2, 2, 7)
        p = np.zeros(7)
        vals = wigner(state, q, p)
        assert vals.shape == (7,)
        assert vals[3] == pytest.approx(wigner(state, 0.0, 0.0), rel=1e-14)


class TestStationary:
    def test_density_peak(self):
        # rho_inf(0,0) = 1/sqrt(2 pi s_qq) with s_qq = 1.5
        assert stationary_density(CFG, 0.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(3.0 * math.pi), rel=1e-14
        )
        assert stationary_density(CFG, 0.0, 0.0) == pytest.approx(0.32574, abs=5e-6)

    def test_wigner_peak(self):
        assert wigner(asymptotic_covariance(CFG), 0.0, 0.0) == pytest.approx(
            1.0 / (3.0 * math.pi), rel=1e-14
        )

    @pytest.mark.parametrize("c", [1.0, 3.0, 20.0])
    def test_generic_kernels_match_the_paper_formulas(self, c):
        # the paper's long-time Wigner function and density matrix, written out
        cfg = OscillatorConfig(
            m=1.3, omega=0.7, lam=0.2, mu=0.1, hbar=1.1, temp=TemperatureSpec.from_coth(c)
        )
        mw, hc = cfg.m * cfg.omega, cfg.hbar * c
        state = asymptotic_covariance(cfg)
        q = np.linspace(-6.0, 6.0, 41)[:, None] * math.sqrt(state.s_qq)
        p = np.linspace(-6.0, 6.0, 41)[None, :] * math.sqrt(state.s_pp)
        w_inf = np.exp(-(mw * q * q + p * p / mw) / hc) / (math.pi * hc)
        got = wigner(state, q, p)
        assert np.max(np.abs(got - w_inf)) <= 1e-15 * np.max(w_inf)
        qp = q.T
        rho_inf = math.sqrt(mw / (math.pi * hc)) * np.exp(
            -(mw / (4.0 * cfg.hbar)) * ((q + qp) ** 2 / c + c * (q - qp) ** 2)
        )
        for got in (density_matrix(state, q, qp, cfg.hbar), stationary_density(cfg, q, qp)):
            assert np.max(np.abs(got - rho_inf)) <= 1e-15 * np.max(rho_inf)

    def test_density_needs_a_finite_temperature(self):
        # Sigma(inf) diverges at C = inf; no state, rather than a nan density
        with pytest.raises(ValueError, match="infinite temperature"):
            stationary_density(make_cfg(c=math.inf), 0.0, 0.0)

    def test_coherence_suppression(self):
        # off-diagonal coherences shrink with temperature
        narrow = stationary_density(make_cfg(c=1.0), 1.0, -1.0)
        hot = stationary_density(make_cfg(c=10.0), 1.0, -1.0)
        assert abs(hot) < abs(narrow)


def test_scalar_coordinates_give_numpy_scalars():
    # NumPy ufuncs and arithmetic unwrap 0-d arrays, so scalar coordinates
    # (floats or 0-d arrays) give a 0-d NumPy scalar, never an ndarray
    state = evolved_state(0.5, correlation=0.4)
    for q, p in [(0.3, -0.2), (np.array(0.3), np.array(-0.2))]:
        values = {
            "wigner": wigner(state, q, p),
            "wigner_from_coefficients": wigner_from_coefficients(state, q, p),
            "density_matrix": density_matrix(state, q, p),
            "density_sigma_delta": density_sigma_delta(state, q, p),
            "stationary_density": stationary_density(CFG, q, p),
        }
        for name, value in values.items():
            assert isinstance(value, np.generic), name


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


class TestGrids:
    def test_geometry_basics(self):
        geom = GridGeometry(-3.0, 3.0, -6.0, 6.0, 4, 8)
        assert geom.dq == pytest.approx(1.5)
        assert geom.dp == pytest.approx(1.5)
        centers = geom.q_centers()
        assert centers[0] == pytest.approx(-2.25)
        assert centers[-1] == pytest.approx(2.25)

    @pytest.mark.parametrize(
        "bounds",
        [(-math.inf, math.inf, -1.0, 1.0), (-1.0, 1.0, -1.0, math.inf), (-1e308, 1e308, -1.0, 1.0)],
        ids=["q_inf", "p_max_inf", "dq_overflows"],
    )
    def test_geometry_rejects_non_finite_range(self, bounds):
        with pytest.raises(ValueError, match="grid range"):
            GridGeometry(*bounds, 8, 8)

    def test_render_mass(self):
        state = evolved_state(0.5)
        geom = geometry_for_states([state], 128)
        grid = render_grid(state, geom)
        assert grid.mass() == pytest.approx(1.0, abs=1e-4)

    def test_geometry_covers_all_states(self):
        a = pure_state(spread=1.0, q0=2.0)
        b = evolved_state(1.0, spread=8.0)
        geom = geometry_for_states([a, b], 64, coverage=6.0)
        for s in (a, b):
            assert geom.q_min <= s.mean_q - 6.0 * math.sqrt(s.s_qq)
            assert geom.q_max >= s.mean_q + 6.0 * math.sqrt(s.s_qq)
            assert geom.p_min <= s.mean_p - 6.0 * math.sqrt(s.s_pp)

    def test_stationary_grid_mass(self):
        grid = stationary_grid(CFG, 192)
        assert grid.mass() == pytest.approx(1.0, abs=1e-6)

    def test_csv_round_trip_is_exact(self):
        state = evolved_state(0.9, correlation=0.35)
        grid = render_grid(state, geometry_for_states([state], 24))
        buf = io.StringIO()
        grid.to_csv(buf)
        header, *rows = buf.getvalue().splitlines()
        bounds = [float(x) for x in header.split()[1:5]]
        assert bounds == [grid.geom.q_min, grid.geom.q_max, grid.geom.p_min, grid.geom.p_max]
        assert [int(x) for x in header.split()[5:]] == [grid.geom.n_q, grid.geom.n_p]
        values = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.array_equal(values, grid.values)

    def test_csv_header_line(self):
        geom = GridGeometry(q_min=-1.0, q_max=1.0, p_min=-2.0, p_max=2.0, n_q=3, n_p=4)
        grid = PhaseSpaceGrid(geom=geom, values=np.zeros((3, 4)))
        buf = io.StringIO()
        grid.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# ")
        assert lines[0].split()[1:] == ["-1", "1", "-2", "2", "3", "4"]
        assert len(lines) == 4  # header + one line per q row
        assert lines[1].count(",") == 3

    def test_density_grid_diagonal_matches_density(self):
        state = evolved_state(0.7)
        geom = GridGeometry(-6.0, 6.0, -6.0, 6.0, 64, 64)
        values = density_grid(state, geom)
        axis = geom.q_centers()
        k = 20
        assert values[k, k] == pytest.approx(
            density_matrix(state, axis[k], axis[k]), rel=1e-12
        )
        assert axis[0] == pytest.approx(-6.0 + 12.0 / 128.0)

    def test_grid_rejects_complex_values(self):
        # a complex density grid must not lose its imaginary part silently
        state = evolved_state(0.7, correlation=0.3)
        geom = GridGeometry(-6.0, 6.0, -6.0, 6.0, 16, 16)
        values = density_grid(state, geom)
        assert np.any(values.imag != 0.0)
        with pytest.raises(ValueError, match="real"):
            PhaseSpaceGrid(geom, values)

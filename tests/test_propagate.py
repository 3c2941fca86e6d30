"""Moment propagation: closed forms vs exact propagation vs RK4 oracle."""

import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from lindosc import propagate
from lindosc.csvout import format_float
from lindosc.model import (
    DiffusionCoefficients,
    GaussianState,
    InitialStateSpec,
    NumericError,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    thermal_coefficients,
)
from lindosc.propagate import (
    TRAJECTORY_HEADER,
    Trajectory,
    asymptotic_covariance,
    covariance_lyapunov,
    drift_matrix,
    integrate_moments_rk4,
    mean_closed_form,
    sigma_det_closed,
    sigma_pq_closed,
    steady_state_covariance,
    time_grid,
    trajectory_lyapunov,
)


def make_cfg(lam=0.2, mu=0.1, c=3.0, m=1.0, omega=1.0):
    return OscillatorConfig(
        m=m, omega=omega, lam=lam, mu=mu, hbar=1.0, temp=TemperatureSpec.from_coth(c)
    )


REF = make_cfg()
REF_D = thermal_coefficients(REF)


# ---------------------------------------------------------------------------
# exp(Y t) of the closed-form means against scipy's matrix exponential
# ---------------------------------------------------------------------------


def propagator(cfg, t):
    """``exp(Y t)`` as the closed-form means state it: column j is the mean at
    ``t`` from the unit initial mean e_j."""
    columns = [
        mean_closed_form(
            GaussianState(mean_q=q, mean_p=p, s_qq=1.0, s_pp=1.0, s_pq=0.0), cfg, t
        )
        for q, p in ((1.0, 0.0), (0.0, 1.0))
    ]
    return np.array(columns).T


@pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 10.0])
def test_propagator_matches_expm(t):
    expected = expm(drift_matrix(REF) * t)
    assert np.allclose(propagator(REF, t), expected, rtol=1e-12, atol=1e-14)


def test_propagator_random_parameters():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lam = rng.uniform(0.0, 0.5)
        mu = rng.uniform(-0.8, 0.8)
        omega = rng.uniform(0.9, 2.0)
        if omega <= abs(mu):
            continue
        cfg = make_cfg(lam=lam, mu=mu, omega=omega, m=rng.uniform(0.5, 2.0))
        t = rng.uniform(0.0, 8.0)
        assert np.allclose(
            propagator(cfg, t), expm(drift_matrix(cfg) * t), rtol=1e-11, atol=1e-13
        )


def test_propagator_semigroup_property():
    e1 = propagator(REF, 0.8)
    e2 = propagator(REF, 1.3)
    assert np.allclose(e1 @ e2, propagator(REF, 2.1), rtol=1e-13)


# ---------------------------------------------------------------------------
# steady state / asymptotics
# ---------------------------------------------------------------------------


def test_steady_state_matches_scipy_lyapunov():
    y = drift_matrix(REF)
    expected = solve_continuous_lyapunov(y, -2.0 * REF_D.matrix())
    assert np.allclose(steady_state_covariance(REF, REF_D), expected, rtol=1e-12)


def test_steady_state_is_thermal_for_thermal_coefficients():
    s = steady_state_covariance(REF, REF_D)
    assert s[0, 0] == pytest.approx(1.5, rel=1e-12)
    assert s[1, 1] == pytest.approx(1.5, rel=1e-12)
    assert s[0, 1] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "c, var", [(1.0, 0.5), (3.0, 1.5), (20.0, 10.0)]
)
def test_asymptotic_covariance_values(c, var):
    state = asymptotic_covariance(make_cfg(c=c))
    assert state.s_qq == pytest.approx(var, rel=1e-15)
    assert state.s_pp == pytest.approx(var, rel=1e-15)
    assert state.s_pq == 0.0
    assert state.mean_q == 0.0 and state.mean_p == 0.0


def test_asymptotic_requires_damping():
    with pytest.raises(ValueError):
        asymptotic_covariance(OscillatorConfig())
    with pytest.raises(ValueError):
        asymptotic_covariance(make_cfg(c=math.inf))


def test_steady_state_requires_damping():
    with pytest.raises(ValueError):
        steady_state_covariance(OscillatorConfig(), REF_D)


# ---------------------------------------------------------------------------
# exact propagation vs closed forms (dual route, seeded random parameters)
# ---------------------------------------------------------------------------


def _random_setup(rng):
    lam = 10.0 ** rng.uniform(math.log10(0.02), math.log10(0.5))
    mu = lam * rng.uniform(-0.9, 0.9)
    c_min = lam / math.sqrt(lam * lam - mu * mu)
    c = c_min * (1.0 + 9.0 * rng.uniform(0.0, 1.0))
    cfg = make_cfg(lam=lam, mu=mu, c=c)
    spec = InitialStateSpec(
        spread=10.0 ** rng.uniform(-0.7, 0.9),
        correlation=rng.uniform(-0.95, 0.95),
        center_q=rng.uniform(-3.0, 3.0),
        center_p=rng.uniform(-3.0, 3.0),
    )
    return cfg, spec


@pytest.mark.parametrize("seed", range(8))
def test_closed_forms_agree_with_exact_propagation(seed):
    rng = np.random.default_rng(1000 + seed)
    cfg, spec = _random_setup(rng)
    d = thermal_coefficients(cfg)
    state0 = initial_state(spec, cfg)
    for t in rng.uniform(0.0, 30.0, size=6):
        exact = covariance_lyapunov(state0, cfg, d, float(t))
        q, p = mean_closed_form(state0, cfg, float(t))
        s_pq = sigma_pq_closed(spec, cfg, float(t))
        sigma = sigma_det_closed(spec, cfg, float(t))
        assert q == pytest.approx(exact.mean_q, abs=1e-10)
        assert p == pytest.approx(exact.mean_p, abs=1e-10)
        assert abs(sigma - exact.sigma_det) / exact.sigma_det < 1e-8
        assert abs(s_pq - exact.s_pq) / math.sqrt(exact.sigma_det) < 1e-8


def test_sigma_det_initial_and_final_values():
    spec = InitialStateSpec(spread=4.0, correlation=0.3)
    assert sigma_det_closed(spec, REF, 0.0) == pytest.approx(0.25, rel=1e-12)
    # relaxes to (hbar^2/4) C^2 = 2.25
    assert sigma_det_closed(spec, REF, 200.0) == pytest.approx(2.25, rel=1e-12)


@pytest.mark.parametrize("c, t", [(1e8, 1e-6), (1e6, 1e-3)])
def test_sigma_det_closed_at_high_temperature(c, t):
    # terms of size C^2 that cancel to about hbar^2/4 at short times must not
    # be summed: sigma stays within rounding of the exact route
    cfg = make_cfg(lam=1e-3, mu=0.0, c=c)
    spec = InitialStateSpec(spread=1.0, correlation=0.0)
    d = thermal_coefficients(cfg)
    exact = covariance_lyapunov(initial_state(spec, cfg), cfg, d, t).sigma_det
    assert sigma_det_closed(spec, cfg, t) == pytest.approx(exact, rel=1e-12)
    array = sigma_det_closed(spec, cfg, np.array([t]))
    assert array[0] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("lam, mu", [(0.0, 0.0), (0.2, 0.1)])
def test_sigma_det_closed_has_no_value_at_infinite_temperature(lam, mu):
    # an open bath has no value at C = inf (the bath rule rejects it); without
    # a bath C enters no term, so the closed system keeps sigma = hbar^2/4
    # there as at every finite C
    cfg = make_cfg(lam=lam, mu=mu, c=math.inf)
    spec = InitialStateSpec(spread=4.0, correlation=0.0)
    if not cfg.closed_system:
        with pytest.raises(ValueError, match="diverge at infinite temperature"):
            sigma_det_closed(spec, cfg, 1.0)
        return
    assert sigma_det_closed(spec, cfg, 1.0) == pytest.approx(0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigma_det_closed(spec, cfg, np.array([0.0, 1.0, 1e4]))
    assert got == pytest.approx(np.full(3, 0.25))


@pytest.mark.parametrize("c", [1e200, 5e307, 1e308])
def test_closed_system_at_huge_finite_temperature(c):
    # without a bath C enters no term, so a finite C whose square (or double)
    # overflows gives the closed forms of C = 1, as C = inf does
    spec = InitialStateSpec(spread=4.0, correlation=0.5)
    cfg, zero = make_cfg(lam=0.0, mu=0.0, c=c), make_cfg(lam=0.0, mu=0.0, c=1.0)
    t = np.array([0.0, 0.7, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sigma_det_closed(spec, cfg, 0.7) == 0.25
        assert (sigma_det_closed(spec, cfg, t) == 0.25).all()
        assert sigma_pq_closed(spec, cfg, 0.7) == sigma_pq_closed(spec, zero, 0.7)
        assert (sigma_pq_closed(spec, cfg, t) == sigma_pq_closed(spec, zero, t)).all()


def test_sigma_pq_initial_value_and_decay():
    spec = InitialStateSpec(spread=1.0, correlation=0.6)
    assert sigma_pq_closed(spec, REF, 0.0) == pytest.approx(0.375, rel=1e-12)
    assert sigma_pq_closed(spec, REF, 200.0) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# RK4 oracle
# ---------------------------------------------------------------------------


def test_rk4_fourth_order_convergence():
    state0 = initial_state(InitialStateSpec(spread=4.0, correlation=0.5), REF)
    exact = covariance_lyapunov(state0, REF, REF_D, 2.0)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        approx = integrate_moments_rk4(state0, REF, REF_D, 2.0, dt).final
        errors.append(abs(approx.s_qq - exact.s_qq) + abs(approx.s_pp - exact.s_pp))
    # halving dt should shrink the error ~16x
    assert errors[0] / errors[1] > 12.0
    assert errors[1] / errors[2] > 12.0


def test_rk4_matches_exact_propagation():
    state0 = initial_state(InitialStateSpec(spread=2.0, correlation=-0.4), REF)
    exact = covariance_lyapunov(state0, REF, REF_D, 1.5)
    approx = integrate_moments_rk4(state0, REF, REF_D, 1.5, 1e-4, record_every=15000)
    f = approx.final
    assert f.t == pytest.approx(1.5)
    for attr in ("mean_q", "mean_p", "s_qq", "s_pp", "s_pq"):
        assert getattr(f, attr) == pytest.approx(getattr(exact, attr), abs=1e-10)


def test_rk4_zero_time_returns_initial_state():
    state0 = initial_state(InitialStateSpec(spread=1.0, correlation=0.0), REF)
    traj = integrate_moments_rk4(state0, REF, REF_D, 0.0, 0.01)
    assert len(traj) == 1
    assert traj.final == state0


def test_rk4_non_finite_momentum_is_numeric_error():
    # only mean_p overflows here; the other four moments stay finite.  At
    # h lam = 3.6 RK4 is unstable (|1 - 3.6 + 3.6^2/2 - ...| ~ 3.1), so mean_p
    # alone leaves the float range in the first step
    cfg = OscillatorConfig(m=1e10, omega=1e-5, lam=0.9, mu=0.0)
    state0 = GaussianState(mean_q=0.0, mean_p=1.5e308, s_qq=1.0, s_pp=1.0, s_pq=0.0)
    with pytest.raises(NumericError) as caught:
        integrate_moments_rk4(state0, cfg, DiffusionCoefficients.zero(), 8.0, 4.0)
    assert caught.value.step == 1


def _four_stage_step(cfg, d, x, h):
    """One textbook RK4 step, four stages, on the moment equations written out
    in ``x = (mean_q, mean_p, s_qq, s_pq, s_pp)``."""
    y = drift_matrix(cfg)

    def rhs(x):
        mean = y @ x[:2]
        sigma = np.array([[x[2], x[3]], [x[3], x[4]]])
        dsigma = y @ sigma + sigma @ y.T + 2.0 * d.matrix()
        return np.array([*mean, dsigma[0, 0], dsigma[0, 1], dsigma[1, 1]])

    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("h", [1e-3, 0.05, 0.5])
@pytest.mark.parametrize(
    "cfg, d",
    [
        (REF, REF_D),
        (make_cfg(lam=0.0, mu=0.0), DiffusionCoefficients(0.3, 0.1, d_pq=0.05)),
        (make_cfg(lam=0.3, mu=-0.2, m=2.5, omega=1.3), None),
    ],
    ids=["reference", "undamped-d_pq", "heavy-mu-negative"],
)
def test_rk4_step_is_the_four_stage_step(cfg, d, h):
    d = d if d is not None else thermal_coefficients(cfg)
    state0 = initial_state(
        InitialStateSpec(spread=3.0, correlation=0.4, center_q=1.2, center_p=-0.7), cfg
    )
    x0 = np.array([state0.mean_q, state0.mean_p, state0.s_qq, state0.s_pq, state0.s_pp])
    expected = _four_stage_step(cfg, d, x0, h)
    got = integrate_moments_rk4(state0, cfg, d, h, h).final
    got = np.array([got.mean_q, got.mean_p, got.s_qq, got.s_pq, got.s_pp])
    for block in (slice(0, 2), slice(2, 5)):  # the means, then the covariance
        gap = np.abs(got[block] - expected[block]).max()
        assert gap <= 1e-15 * np.abs(expected[block]).max()


def test_rk4_rejects_incommensurate_step():
    state0 = initial_state(InitialStateSpec(spread=1.0, correlation=0.0), REF)
    with pytest.raises(ValueError):
        integrate_moments_rk4(state0, REF, REF_D, 1.0, 0.3)


def _sequential_rk4(state0, cfg, d, dt, n_steps):
    """The step-by-step increment loop, one Python iteration per step: rows
    ``(k dt, mean_q, mean_p, s_qq, s_pp, s_pq)`` for every step, with the
    same checks and messages as :func:`integrate_moments_rk4`."""
    system, drive = propagate._moment_system(cfg, d)
    ha, eye = dt * system, np.eye(5)
    s = eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0))
    step = ha @ s
    (m_qq, m_qp), (m_pq, m_pp) = step[:2, :2].tolist()
    (a_qq, a_pq, a_pp), (b_qq, b_pq, b_pp), (c_qq, c_pq, c_pp) = step[2:, 2:].tolist()
    g_qq, g_pq, g_pp = (dt * s @ drive)[2:].tolist()
    q, p = state0.mean_q, state0.mean_p
    sqq, spq, spp = state0.s_qq, state0.s_pq, state0.s_pp
    rows = [(0.0, q, p, sqq, spp, spq)]
    for k in range(1, n_steps + 1):
        q, p = q + (m_qq * q + m_qp * p), p + (m_pq * q + m_pp * p)
        sqq, spq, spp = (
            sqq + (a_qq * sqq + a_pq * spq + a_pp * spp + g_qq),
            spq + (b_qq * sqq + b_pq * spq + b_pp * spp + g_pq),
            spp + (c_qq * sqq + c_pq * spq + c_pp * spp + g_pp),
        )
        det = sqq * spp - spq * spq
        if not all(map(math.isfinite, (q, p, sqq, spq, spp))) or math.isnan(det):
            message = f"moment integration became non-finite at step {k}"
            raise NumericError(message, step=k)
        if not (sqq > 0.0 and det > 0.0):
            message = f"covariance lost positivity at step {k}; decrease dt"
            raise NumericError(message, step=k)
        rows.append((k * dt, q, p, sqq, spp, spq))
    return np.array(rows)


def test_rk4_blocks_agree_with_the_sequential_loop(monkeypatch):
    monkeypatch.setattr(propagate, "_BLOCK", 16)
    state0 = initial_state(
        InitialStateSpec(spread=4.0, correlation=0.3, center_q=1.0, center_p=-0.5), REF
    )
    n_steps, dt = 100, 0.05  # six whole blocks and a partial one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate_moments_rk4(state0, REF, REF_D, n_steps * dt, dt).rows
    ref = _sequential_rk4(state0, REF, REF_D, dt, n_steps)
    assert got.shape == ref.shape
    assert np.array_equal(got[:2], ref[:2])  # row 1 is the single-step increment
    for lo in range(1, n_steps + 1, 16):
        block = slice(lo, lo + 16)
        steps = min(lo + 15, n_steps)
        peak = np.abs(ref[block, 1:]).max(axis=0)
        gap = np.abs(got[block, 1:] - ref[block, 1:]).max(axis=0)
        assert (gap <= 4.0 * np.finfo(float).eps * steps * peak).all(), (lo, gap / peak)


@pytest.mark.parametrize(
    "block, cfg, d, state0, dt",
    [
        # unstable covariance block: positivity lost at step 157 (block 10)
        (16, REF, REF_D, initial_state(InitialStateSpec(4.0, 0.3), REF), 1.45),
        # h lam = 2.9: the variances grow ~27x a step, from 1e-101 to 1.5e307
        # at step 289, and overflow at step 290, while P_i of the full-size
        # table already overflows near i = 218; the coupling 1/m = 1e-200 (m
        # omega^2 underflows to 0) keeps s_pq^2 below 1e221, so sigma is inf,
        # not nan, until then
        (
            None,
            OscillatorConfig(m=1e200, omega=1e-200, lam=0.9, mu=0.0),
            DiffusionCoefficients.zero(),
            GaussianState(mean_q=0.0, mean_p=0.0, s_qq=1e-101, s_pp=1e-101, s_pq=0.0),
            3.2,
        ),
    ],
    ids=["positivity-block-10", "overflow-past-the-table"],
)
def test_rk4_numeric_error_in_a_later_block_has_the_sequential_step(
    monkeypatch, block, cfg, d, state0, dt
):
    if block is not None:
        monkeypatch.setattr(propagate, "_BLOCK", block)
    with pytest.raises(NumericError) as expected:
        _sequential_rk4(state0, cfg, d, dt, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as caught:
            integrate_moments_rk4(state0, cfg, d, 1000 * dt, dt)
    assert expected.value.step > 2 * (block or 64)
    assert caught.value.step == expected.value.step
    assert str(caught.value) == str(expected.value)


def test_rk4_records_the_final_step_off_the_record_grid(monkeypatch):
    monkeypatch.setattr(propagate, "_BLOCK", 8)
    state0 = initial_state(InitialStateSpec(spread=2.0, correlation=-0.4), REF)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_moments_rk4(state0, REF, REF_D, 3.7, 0.1, record_every=5)
    ref = _sequential_rk4(state0, REF, REF_D, 0.1, 37)
    assert traj.t.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.7]
    expected = ref[[*range(0, 36, 5), 37], 1:]
    np.testing.assert_allclose(traj.rows[:, 1:], expected, rtol=1e-13)


def test_rk4_memory_does_not_grow_with_the_step_count():
    # every step of 1e6 held as five float64 would take 40 MB
    state0 = initial_state(InitialStateSpec(spread=2.0, correlation=0.2), REF)
    tracemalloc.start()
    try:
        traj = integrate_moments_rk4(state0, REF, REF_D, 1e3, 1e-3, record_every=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 101
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "t_end, dt",
    [
        (math.inf, 0.1),
        (math.nan, 0.1),
        (1.0, math.nan),
        (1.0, math.inf),
        (1.0, 1e-320),
        (1e308, 1e-10),
    ],
)
def test_time_grid_and_rk4_reject_non_finite_spans(t_end, dt):
    state0 = initial_state(InitialStateSpec(spread=1.0, correlation=0.0), REF)
    with pytest.raises(ValueError, match="finite"):
        time_grid(t_end, dt)
    with pytest.raises(ValueError, match="finite"):
        integrate_moments_rk4(state0, REF, REF_D, t_end, dt)


# ---------------------------------------------------------------------------
# physics sanity
# ---------------------------------------------------------------------------


def test_closed_system_conserves_determinant():
    cfg = OscillatorConfig()
    zero = DiffusionCoefficients.zero()
    state0 = initial_state(InitialStateSpec(spread=4.0, correlation=0.5), cfg)
    for t in (0.7, 2.9, 11.3):
        s = covariance_lyapunov(state0, cfg, zero, t)
        assert s.sigma_det == pytest.approx(0.25, rel=1e-12)


def test_closed_system_means_rotate():
    cfg = OscillatorConfig()
    state0 = initial_state(
        InitialStateSpec(spread=1.0, correlation=0.0, center_q=2.0), cfg
    )
    q, p = mean_closed_form(state0, cfg, math.pi / 2.0)
    assert q == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(-2.0, rel=1e-12)
    q, p = mean_closed_form(state0, cfg, 2.0 * math.pi)
    assert q == pytest.approx(2.0, rel=1e-12)


def test_initial_condition_forgetting():
    # two very different initial states converge to the same thermal state
    a = initial_state(InitialStateSpec(spread=8.0, correlation=0.9, center_q=3.0), REF)
    b = initial_state(InitialStateSpec(spread=0.3, correlation=-0.5, center_p=-2.0), REF)
    late_a = covariance_lyapunov(a, REF, REF_D, 150.0)
    late_b = covariance_lyapunov(b, REF, REF_D, 150.0)
    assert late_a.s_qq == pytest.approx(late_b.s_qq, abs=1e-10)
    assert late_a.s_pp == pytest.approx(late_b.s_pp, abs=1e-10)
    assert late_a.mean_q == pytest.approx(0.0, abs=1e-10)


def test_undamped_diffusion_matches_rk4():
    # lam = 0 with nonzero diffusion: the diffusion integral grows linearly
    cfg = make_cfg(lam=0.0, mu=0.0)
    d = DiffusionCoefficients(d_pp=0.3, d_qq=0.1, d_pq=0.0)
    state0 = initial_state(InitialStateSpec(spread=1.0, correlation=0.0), cfg)
    got = covariance_lyapunov(state0, cfg, d, 2.0)
    ref = integrate_moments_rk4(state0, cfg, d, 2.0, 1e-4).final
    assert got.s_qq == pytest.approx(ref.s_qq, abs=1e-9)
    assert got.s_pp == pytest.approx(ref.s_pp, abs=1e-9)
    assert got.s_pq == pytest.approx(ref.s_pq, abs=1e-9)


@pytest.mark.parametrize("lam", [1e-9, 1e-11])
def test_weak_damping_diffusion_matches_rk4(lam):
    # as lam -> 0+ the steady state D/lam diverges; the exact integral must not
    # lose the O(1) covariance to cancellation against it
    cfg = make_cfg(lam=lam, mu=0.0)
    d = DiffusionCoefficients(d_qq=0.05, d_pp=0.1)
    state0 = initial_state(InitialStateSpec(spread=4.0, correlation=0.3), cfg)
    ref = integrate_moments_rk4(state0, cfg, d, 10.0, 1e-3, record_every=500)
    scale = max(max(abs(r.s_qq), abs(r.s_pp), abs(r.s_pq)) for r in ref)
    worst = 0.0
    for r in ref:
        got = covariance_lyapunov(state0, cfg, d, r.t)
        for attr in ("s_qq", "s_pp", "s_pq"):
            worst = max(worst, abs(getattr(got, attr) - getattr(r, attr)))
    assert worst / scale < 1e-11


def test_trajectory_matches_pointwise_propagation():
    state0 = initial_state(
        InitialStateSpec(spread=4.0, correlation=0.3, center_q=1.0), REF
    )
    times = [0.0, 0.37, 1.0, 2.5, 13.0, 150.0]
    traj = trajectory_lyapunov(state0, REF, REF_D, times)
    assert list(traj.t) == times
    pointwise = [covariance_lyapunov(state0, REF, REF_D, t) for t in times]
    for attr in ("mean_q", "mean_p", "s_qq", "s_pp", "s_pq"):
        want = np.array([getattr(s, attr) for s in pointwise])
        got = np.array([getattr(s, attr) for s in traj])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_exact_route_rejects_negative_time():
    state0 = initial_state(InitialStateSpec(spread=1.0, correlation=0.0), REF)
    with pytest.raises(ValueError):
        covariance_lyapunov(state0, REF, REF_D, -0.1)
    with pytest.raises(ValueError):
        trajectory_lyapunov(state0, REF, REF_D, [0.0, -0.1])


def test_uncertainty_floor_along_trajectory():
    state0 = initial_state(InitialStateSpec(spread=6.0, correlation=0.8), REF)
    for t in np.linspace(0.0, 30.0, 301):
        s = covariance_lyapunov(state0, REF, REF_D, float(t))
        assert s.sigma_det >= 0.25 - 1e-12


# ---------------------------------------------------------------------------
# Trajectory container and CSV contract
# ---------------------------------------------------------------------------


def test_trajectory_requires_increasing_times():
    s = initial_state(InitialStateSpec(spread=1.0, correlation=0.0), REF)
    row = (s.t, s.mean_q, s.mean_p, s.s_qq, s.s_pp, s.s_pq)
    with pytest.raises(ValueError):
        Trajectory([row, row])


def test_trajectory_rejects_a_nan_determinant():
    good, nan_det = (0.0, 0.0, 0.0, 1.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1e200, 1e200, 1e200)
    with pytest.raises(ValueError, match="moments not finite"):
        Trajectory([good, nan_det])


def test_exact_route_cancellation_is_a_numeric_error():
    # at delta = 1e20, sigma of the first sample after t = 0 cancels to <= 0
    state0 = initial_state(InitialStateSpec(spread=1e20), REF)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not positive definite") as caught:
            trajectory_lyapunov(state0, REF, REF_D, time_grid(2.0, 0.5))
    assert caught.value.step == 1


def test_trajectory_csv_layout():
    state0 = initial_state(InitialStateSpec(spread=4.0, correlation=0.0), REF)
    traj = trajectory_lyapunov(state0, REF, REF_D, [0.0, 0.5, 1.0])
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[3]) == pytest.approx(2.0)
    assert float(first[6]) == pytest.approx(0.25)


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 2.25, 1e-17, 123456.789):
        assert float(format_float(x)) == x


def test_closed_forms_take_arrays_and_reject_negative_times():
    spec = InitialStateSpec(spread=4.0, correlation=0.3)
    state0 = initial_state(spec, REF)
    t = np.array([0.0, 0.7, 3.0])
    q, p = mean_closed_form(state0, REF, t)
    assert q.shape == p.shape == sigma_det_closed(spec, REF, t).shape == (3,)
    assert sigma_pq_closed(spec, REF, t).shape == (3,)
    assert sigma_det_closed(spec, REF, 0) == pytest.approx(0.25, rel=1e-15)
    for f in (sigma_det_closed, sigma_pq_closed):
        with pytest.raises(ValueError):
            f(spec, REF, np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        mean_closed_form(state0, REF, [1.0, -1e-9])


def test_closed_forms_at_overflowing_phase():
    # at t = 1e308 the phase Omega t overflows only at omega = 2: with damping
    # exp(-lam t) is 0 and the closed forms give their limit; the closed
    # system keeps sigma = hbar^2/4 exactly at omega = 1 and loses the phase
    # (nan) at omega = 2; a float and an array agree, and NumPy stays silent
    spec = InitialStateSpec(spread=4.0, correlation=0.3)
    bath = TemperatureSpec.from_coth(3.0)
    closed = OscillatorConfig(lam=0.0, mu=0.0, temp=bath)
    lost = OscillatorConfig(omega=2.0, lam=0.0, mu=0.0, temp=bath)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg in (REF, closed, lost):
            for f in (sigma_det_closed, sigma_pq_closed):
                scalar = f(spec, cfg, 1e308)
                array = f(spec, cfg, np.array([1.0, 1e308]))
                assert isinstance(scalar, float)
                assert np.array_equal([scalar], array[1:], equal_nan=True)
                assert array[0] == f(spec, cfg, 1.0)
                if cfg is lost:
                    assert math.isnan(scalar)
    assert sigma_det_closed(spec, REF, 1e308) == 0.25 * 3.0**2
    assert sigma_pq_closed(spec, REF, 1e308) == 0.0
    assert sigma_det_closed(spec, closed, 1e308) == 0.25
    assert math.isfinite(sigma_pq_closed(spec, closed, 1e308))
    # below the overflow the phase is still evaluated
    assert sigma_pq_closed(spec, lost, 1e307) != sigma_pq_closed(spec, lost, 0.0)


def test_time_grid_rules():
    assert time_grid(0.0, 0.1).tolist() == [0.0]
    assert time_grid(0.25, 0.1).tolist() == [0.0, 0.1, 0.2, 0.25]
    assert time_grid(0.3, 0.1)[-1] == 0.3  # 3 * 0.1 would pass t_end
    # within 1e-12 t_end of 10 dt, t_end is that multiple; 5e-10 past it is not
    assert time_grid(1.0 + 1e-13, 0.1).tolist()[-2:] == [0.9, 1.0 + 1e-13]
    assert time_grid(1.0000000005, 0.1).tolist()[-2:] == [1.0, 1.0000000005]
    with pytest.raises(ValueError):
        time_grid(-1.0, 0.1)
    with pytest.raises(ValueError):
        time_grid(1.0, 0.0)

"""Quantum-decoherence / classical-correlation measures and their windows."""

import io
import math

import numpy as np
import pytest

from lindosc.classicality import (
    METRICS_HEADER,
    classicality_degrees,
    closed_form_metric_evaluator,
    delta_cc,
    delta_qd,
    delta_qd_asymptotic,
    find_windows,
    metrics_from_state,
    one_sigma_contour,
    write_metrics_csv,
)
from lindosc.model import (
    GaussianState,
    InitialStateSpec,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    thermal_coefficients,
)
from lindosc.propagate import time_grid, trajectory_lyapunov


def make_cfg(c=3.0, lam=0.2, mu=0.1):
    return OscillatorConfig(
        m=1.0, omega=1.0, lam=lam, mu=mu, hbar=1.0, temp=TemperatureSpec.from_coth(c)
    )


CFG = make_cfg()


def state_with(s_qq, s_pp, s_pq, t=0.0):
    return GaussianState(mean_q=0, mean_p=0, s_qq=s_qq, s_pp=s_pp, s_pq=s_pq, t=t)


# ---------------------------------------------------------------------------
# pointwise measures
# ---------------------------------------------------------------------------


def test_delta_qd_minimum_uncertainty_state():
    # sigma = hbar^2/4 gives exactly 1
    assert delta_qd(state_with(0.5, 0.5, 0.0)) == 1.0


def test_delta_qd_thermal_state():
    assert delta_qd(state_with(1.5, 1.5, 0.0)) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_delta_qd_asymptotic_equals_inverse_coth():
    for c in (1.0, 1.5, 3.0, 20.0):
        assert delta_qd_asymptotic(make_cfg(c=c)) == pytest.approx(1.0 / c, rel=1e-14)


def test_delta_qd_asymptotic_equals_tanh():
    cfg = make_cfg(c=3.0)
    assert delta_qd_asymptotic(cfg) == pytest.approx(math.tanh(cfg.epsilon), rel=1e-13)


def test_delta_cc_values():
    assert delta_cc(state_with(0.5, 0.5, 0.375)) == pytest.approx(
        0.5 / 0.375 * math.sqrt(0.25 - 0.375**2) / 0.5, rel=1e-12
    )
    s = state_with(1.0, 2.0, 0.8)
    assert delta_cc(s) == pytest.approx(math.sqrt(2.0 - 0.64) / 0.8, rel=1e-14)


def test_delta_cc_infinite_when_uncorrelated():
    assert math.isinf(delta_cc(state_with(0.5, 0.5, 0.0)))


def test_closed_system_delta_cc_matches_general_formula():
    cfg = OscillatorConfig.closed()
    spec = InitialStateSpec(spread=4.0, correlation=0.0)
    state0 = initial_state(spec, cfg)
    from lindosc.model import DiffusionCoefficients
    from lindosc.propagate import covariance_lyapunov

    for t in (0.3, 0.9, 2.2):
        s = covariance_lyapunov(state0, cfg, DiffusionCoefficients.zero(), t)
        # 2/|(delta - 1/delta) sin 2 omega t| for delta = 4
        want = 2.0 / abs((4.0 - 0.25) * math.sin(2.0 * cfg.omega * t))
        assert delta_cc(s) == pytest.approx(want, rel=1e-10)


def test_metrics_from_state_fields():
    m = metrics_from_state(state_with(1.5, 1.5, 0.0, t=2.5))
    assert m.t == 2.5
    assert m.delta_qd == pytest.approx(1.0 / 3.0)
    assert math.isinf(m.delta_cc)
    assert m.sigma_det == pytest.approx(2.25)
    assert m.gamma == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# uncertainty contour
# ---------------------------------------------------------------------------


def test_contour_area_identity():
    # delta_qd * area = pi * hbar for every Gaussian state, where the area
    # inside the one-sigma contour is 2 pi sqrt(sigma)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s_qq = rng.uniform(0.3, 3.0)
        s_pp = rng.uniform(0.3, 3.0)
        bound = math.sqrt(s_qq * s_pp)
        s_pq = rng.uniform(-0.9, 0.9) * bound
        state = state_with(s_qq, s_pp, s_pq)
        if state.sigma_det < 0.25:
            continue
        area = 2.0 * math.pi * math.sqrt(state.sigma_det)
        assert delta_qd(state) * area == pytest.approx(math.pi, rel=1e-12)


def test_contour_points_lie_on_level_set():
    state = GaussianState(
        mean_q=1.0, mean_p=-0.5, s_qq=2.0, s_pp=0.7, s_pq=0.4, t=0.0
    )
    pts = one_sigma_contour(state, n_points=64)
    assert pts.shape == (65, 2)
    # closed polyline
    assert np.allclose(pts[0], pts[-1])
    inv = np.linalg.inv(np.array([[2.0, 0.4], [0.4, 0.7]]))
    for q, p in pts[:-1]:
        x = np.array([q - 1.0, p + 0.5])
        assert x @ inv @ x == pytest.approx(2.0, rel=1e-10)


def test_contour_encloses_expected_area():
    state = state_with(1.2, 0.9, -0.3)
    pts = one_sigma_contour(state, n_points=4096)
    # shoelace formula on the polyline
    x, y = pts[:, 0], pts[:, 1]
    shoelace = 0.5 * abs(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
    assert shoelace == pytest.approx(
        2.0 * math.pi * math.sqrt(state.sigma_det), rel=1e-5
    )


# ---------------------------------------------------------------------------
# metrics CSV
# ---------------------------------------------------------------------------


def test_metrics_csv_format():
    rows = [
        metrics_from_state(state_with(0.5, 0.5, 0.0, t=0.0)),
        metrics_from_state(state_with(1.5, 1.5, 0.0, t=1.0)),
    ]
    buf = io.StringIO()
    write_metrics_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == METRICS_HEADER
    assert METRICS_HEADER == "t,delta_qd,delta_cc,gamma,sigma_det,sigma_pq"
    # infinities are spelled "inf", not "Infinity"
    assert lines[1].split(",")[2] == "inf"
    assert lines[2].split(",")[1] == "0.33333333333333331"


# ---------------------------------------------------------------------------
# simultaneous-classicality windows
# ---------------------------------------------------------------------------


def test_no_window_for_symmetric_closed_state():
    # delta = 1 closed system: delta_cc stays infinite, so no window ever opens
    windows = find_windows(
        InitialStateSpec(spread=1.0, correlation=0.0),
        OscillatorConfig.closed(),
        20.0,
        0.01,
        0.99,
        10.0,
    )
    assert windows == []


def test_windows_for_squeezed_open_system():
    spec = InitialStateSpec(spread=4.0, correlation=0.0)
    windows = find_windows(spec, CFG, 5.0, 0.01, 0.99, 10.0)
    assert len(windows) == 3
    for a, b in windows:
        assert 0.0 <= a < b <= 5.0
    # frozen first-window endpoints (refined to 1e-6)
    assert windows[0][0] == pytest.approx(0.0295, abs=2e-3)
    assert windows[0][1] == pytest.approx(1.422, abs=2e-3)


def test_window_open_at_either_end_keeps_the_sample_as_edge():
    # delta_qd <= 1, so a qd threshold above 1 leaves delta_cc to decide; with
    # r = 0.9 it is below 10 at t = 0 and again at t = 3
    spec = InitialStateSpec(spread=4.0, correlation=0.9)
    windows = find_windows(spec, CFG, 3.0, 0.01, 1.01, 10.0)
    assert len(windows) == 3
    assert windows[0][0] == 0.0 and windows[-1][1] == 3.0
    flat = [x for w in windows for x in w]
    assert flat == sorted(set(flat))


def test_window_membership_consistency():
    # inside a window both measures sit strictly below their thresholds
    spec = InitialStateSpec(spread=4.0, correlation=0.0)
    evaluator = closed_form_metric_evaluator(spec, CFG)
    windows = find_windows(spec, CFG, 5.0, 0.01, 0.99, 10.0)
    for a, b in windows:
        mid = 0.5 * (a + b)
        qd, cc = evaluator(mid)
        assert qd < 0.99 and cc < 10.0


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="membership is sampled every dt, so a gap shorter than dt is missed",
)
def test_window_misses_gap_shorter_than_dt():
    # delta_cc exceeds 2 for about 0.06 around t = 1.57, where s_pq changes
    # sign; no sample of the dt = 0.125 grid falls in that gap, so it is
    # reported inside one window
    cfg = OscillatorConfig(lam=0.1, mu=0.0, temp=TemperatureSpec.from_coth(1.0))
    spec = InitialStateSpec(spread=100.0, correlation=0.0)
    windows = find_windows(spec, cfg, 4.0, 0.125, 0.75, 2.0)
    evaluator = closed_form_metric_evaluator(spec, cfg)
    for a, b in windows:
        qd, cc = evaluator(0.5 * (a + b))
        assert qd < 0.75 and cc < 2.0


@pytest.mark.parametrize(
    "qd, cc",
    [(math.nan, 10.0), (math.inf, 10.0), (0.0, 10.0), (0.99, -1.0), (0.99, math.nan)],
)
def test_window_rejects_impossible_thresholds(qd, cc):
    spec = InitialStateSpec(spread=4.0, correlation=0.0)
    with pytest.raises(ValueError, match="threshold must be finite and > 0"):
        find_windows(spec, CFG, 5.0, 0.01, qd, cc)


def test_window_monotone_in_thresholds():
    spec = InitialStateSpec(spread=4.0, correlation=0.0)
    tight = find_windows(spec, CFG, 5.0, 0.01, 0.99, 10.0)
    loose = find_windows(spec, CFG, 5.0, 0.01, 0.995, 20.0)
    total_tight = sum(b - a for a, b in tight)
    total_loose = sum(b - a for a, b in loose)
    assert total_loose >= total_tight


def test_window_from_trajectory_route():
    # the windows of the closed forms agree with the membership of the exact
    # route on the same grid, at every sample farther than 1e-6 from an edge
    spec = InitialStateSpec(spread=4.0, correlation=0.0)
    times = time_grid(5.0, 0.01)
    traj = trajectory_lyapunov(
        initial_state(spec, CFG), CFG, thermal_coefficients(CFG), times
    )
    qd, cc = classicality_degrees(traj.sigma_det, traj.s_pq, CFG.hbar)
    member = (qd < 0.99) & (cc < 10.0)
    windows = find_windows(spec, CFG, 5.0, 0.01, 0.99, 10.0)
    assert windows
    edges = np.array([x for w in windows for x in w])
    far = np.abs(times[:, None] - edges[None, :]).min(axis=1) > 1e-6
    inside = np.zeros(len(times), dtype=bool)
    for a, b in windows:
        inside |= (a <= times) & (times <= b)
    assert member[far].any() and (~member[far]).any()
    np.testing.assert_array_equal(inside[far], member[far])

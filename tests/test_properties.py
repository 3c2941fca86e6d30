"""Property-based checks of the shared kernels: the time grid, the CSV writer,
the grid cell centres, the grid mass budget, the classicality degrees, the
array forms of the closed-form moments, the agreement of the three
propagation routes at the edges of the domain, the window finder and the
validation of trajectory rows.

Hypothesis runs derandomised with a bounded example count, so the suite stays
deterministic and fast.
"""

import io
import math
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lindosc.classicality import (
    classicality_degrees,
    closed_form_metric_evaluator,
    find_windows,
)
from lindosc.csvout import write_csv
from lindosc.decoherence import (
    decoherence_rate,
    decoherence_time,
    relaxation_time,
    statistical_time,
)
from lindosc.fpe import grid_mass_budget
from lindosc.model import (
    GaussianState,
    InitialStateSpec,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    parameter_table,
    squeeze_terms,
    thermal_coefficients,
)
from lindosc.propagate import (
    Trajectory,
    asymptotic_covariance,
    integrate_moments_rk4,
    mean_closed_form,
    sigma_det_closed,
    sigma_pq_closed,
    time_grid,
    trajectory_lyapunov,
)
from lindosc.states import GridGeometry, geometry_for_states, render_grid

PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------


# (t_end, dt) pairs: arbitrary floats, and decimal grids such as (0.3, 0.1)
# where k * dt rounds past t_end = k * dt in exact arithmetic
GRIDS = st.tuples(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e-3, max_value=100.0),
) | st.tuples(st.integers(1, 1000), st.integers(0, 1000)).map(
    lambda p: (p[0] * p[1] / 1000, p[0] / 1000)
)


@PROFILE
@given(grid=GRIDS)
def test_time_grid_is_increasing_and_ends_at_t_end(grid):
    t_end, dt = grid
    times = time_grid(t_end, dt)
    assert times[0] == 0.0
    assert np.all(np.diff(times) > 0.0)
    assert times[-1] <= t_end
    assert t_end - times[-1] <= 1e-12 * max(1.0, t_end)


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

# the specials and the edges of the %g forms: the last fixed and the first
# exponent value on each side, the extreme normals, and a negative fraction
SPECIAL = [
    math.inf, -math.inf, math.nan, -0.0, 5e-324,
    9.9999999999999995e-05, 1e-05, 1e16, 9.9999999999999998e16, 1e17,
    2.2250738585072014e-308, 1.7976931348623157e308, -0.5,
]
CELL = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(SPECIAL)
TABLES = st.integers(1, 12).flatmap(
    lambda width: st.lists(st.lists(CELL, min_size=width, max_size=width), max_size=40)
    .map(lambda rows: (width, rows))
)


@PROFILE
@given(table=TABLES)
@example(table=(3, []))
@example(table=(len(SPECIAL), [SPECIAL, [-x for x in SPECIAL]]))
def test_write_csv_matches_format_17g(table):
    width, rows = table
    header = ",".join(f"c{j}" for j in range(width))
    expected = header + "\n" + "".join(
        ",".join(format(x, ".17g") for x in row) + "\n" for row in rows
    )
    array = np.array(rows, dtype=float).reshape(len(rows), width)
    blocks = [array[k : k + 1] for k in range(len(array))]
    for given_rows in (blocks, iter(blocks), array, [array[:1], array[1:]]):
        handle = io.StringIO()
        write_csv(handle, header, given_rows)
        assert handle.getvalue() == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, header, array)
        with open(path, "rb") as f:
            assert f.read() == expected.encode("utf-8")


# ---------------------------------------------------------------------------
# grid cell centres
# ---------------------------------------------------------------------------

# every positive half-width whose cells stay finite, subnormals included;
# cells that underflow to zero width are no grid, and are assumed away
HALF_WIDTHS = st.floats(min_value=5e-324, max_value=8e307)
BOUNDS = st.floats(min_value=-1e300, max_value=1e300)


@PROFILE
@given(q_half=HALF_WIDTHS, p_half=HALF_WIDTHS, n_q=st.integers(3, 400), n_p=st.integers(3, 400))
@example(q_half=5e-324, p_half=1.0, n_q=3, n_p=4)
def test_cell_centres_are_antisymmetric_on_a_symmetric_box(q_half, p_half, n_q, n_p):
    # what lets run_fpe evolve a centred Gaussian on half its rows
    assume(2.0 * q_half / n_q > 0.0 and 2.0 * p_half / n_p > 0.0)
    geom = GridGeometry(-q_half, q_half, -p_half, p_half, n_q, n_p)
    for centres in (geom.q_centers(), geom.p_centers()):
        assert np.array_equal(centres, -centres[::-1])


@PROFILE
@given(lo=BOUNDS, hi=BOUNDS, n=st.integers(3, 400))
def test_cell_centres_match_the_offset_form(lo, hi, n):
    assume((hi - lo) / n > 0.0)
    geom = GridGeometry(lo, hi, -1.0, 1.0, n, 3)
    offset_form = lo + (np.arange(n) + 0.5) * geom.dq
    ulp = np.spacing(max(abs(lo), abs(hi)))
    assert np.abs(geom.q_centers() - offset_form).max() <= 4.0 * ulp


# ---------------------------------------------------------------------------
# the grid mass budget
# ---------------------------------------------------------------------------


@PROFILE
@given(
    log_spread=st.floats(-1.5, 1.5),
    corr=st.floats(-0.99, 0.99),
    q0=st.floats(-3.0, 3.0),
    coverage=st.floats(3.0, 6.0),
    n=st.integers(8, 64),
)
# each share alone is under 1e-3 here, and their sum is not
@example(log_spread=math.log10(4.0), corr=0.0, q0=0.0, coverage=3.7, n=16)
@example(log_spread=math.log10(4.0), corr=0.0, q0=0.0, coverage=3.3, n=16)
@example(log_spread=math.log10(0.25), corr=0.0, q0=0.0, coverage=3.7, n=16)
@example(log_spread=math.log10(4.0), corr=0.0, q0=2.0, coverage=3.7, n=16)
# a narrow ridge: its marginals put under 1e-3 outside the box, and the
# cells outside hold more
@example(log_spread=-1.0, corr=0.99, q0=0.0, coverage=3.3, n=48)
def test_grid_mass_budget_admits_only_grids_that_hold_their_mass(
    log_spread, corr, q0, coverage, n
):
    # the grid of `lindosc fpe` from the initial state at the reference bath
    cfg = OscillatorConfig.reference()
    spec = InitialStateSpec(spread=10.0**log_spread, correlation=corr, center_q=q0)
    state = initial_state(spec, cfg)
    geom = geometry_for_states([state, asymptotic_covariance(cfg)], n, coverage=coverage)
    try:
        tail, alias = grid_mass_budget(state, geom)
    except ValueError as exc:
        # the message names both bounds, and they sum past the budget
        figures = re.search(r"miss (\S+) .*, more than (\S+) .*, (\S+) in all", str(exc))
        first, second, total = (float(x) for x in figures.groups())
        assert first >= second
        assert first + second == pytest.approx(total, rel=1e-5)
        assert total > 1e-3
    else:
        assert tail + alias <= 1e-3
        assert abs(render_grid(state, geom).mass() - 1.0) <= tail + alias + 1e-12


# ---------------------------------------------------------------------------
# array kernels agree with scalar calls
# ---------------------------------------------------------------------------

POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
FINITE = st.floats(min_value=-1e300, max_value=1e300) | st.just(0.0)


@PROFILE
@given(pairs=st.lists(st.tuples(POSITIVE, FINITE), min_size=1, max_size=20))
def test_classicality_degrees_array_matches_scalar(pairs):
    sigma = np.array([p[0] for p in pairs])
    s_pq = np.array([p[1] for p in pairs])
    qd, cc = classicality_degrees(sigma, s_pq, 1.5)
    for i, (sig, spq) in enumerate(pairs):
        qd_i, cc_i = classicality_degrees(sig, spq, 1.5)
        assert type(qd_i) is float and type(cc_i) is float
        assert (qd_i, cc_i) == (qd[i], cc[i])
        if spq == 0.0:
            assert cc_i == math.inf


@st.composite
def admissible_models(draw):
    """Thermal baths with lam > |mu| and (lam^2 - mu^2) C^2 >= lam^2, and
    correlated coherent initial states, over several decades."""
    lam = 10.0 ** draw(st.floats(min_value=-3.0, max_value=0.0))
    mu = lam * draw(st.floats(min_value=-0.95, max_value=0.95))
    c_min = lam / math.sqrt(lam * lam - mu * mu)
    c = c_min * 10.0 ** draw(st.floats(min_value=0.0, max_value=2.0))
    cfg = OscillatorConfig(lam=lam, mu=mu, temp=TemperatureSpec.from_coth(c))
    spec = InitialStateSpec(
        spread=10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0)),
        correlation=draw(st.floats(min_value=-0.99, max_value=0.99)),
        center_q=draw(st.floats(min_value=-5.0, max_value=5.0)),
        center_p=draw(st.floats(min_value=-5.0, max_value=5.0)),
    )
    return cfg, spec


@PROFILE
@given(
    model=admissible_models(),
    times=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20),
)
def test_closed_forms_array_matches_scalar(model, times):
    # a scalar and an array take the one NumPy path: the same bits
    cfg, spec = model
    state0 = initial_state(spec, cfg)
    t = np.array(times)
    columns = [
        sigma_det_closed(spec, cfg, t), sigma_pq_closed(spec, cfg, t),
        *mean_closed_form(state0, cfg, t),
    ]
    for i, ti in enumerate(times):
        values = [
            sigma_det_closed(spec, cfg, ti), sigma_pq_closed(spec, cfg, ti),
            *mean_closed_form(state0, cfg, ti),
        ]
        assert all(type(x) is float for x in values)
        assert values == [column[i] for column in columns]


def test_scalar_arguments_give_python_floats():
    # never a NumPy scalar, whose repr reads np.float64(...)
    cfg, spec = OscillatorConfig.reference(), InitialStateSpec(spread=4.0, correlation=0.3)
    state0 = initial_state(spec, cfg)
    values = [relaxation_time(cfg), relaxation_time(OscillatorConfig())]
    for t in (1, 1.5, np.float64(1.5), np.array(1.5)):
        sigma, s_pq = sigma_det_closed(spec, cfg, t), sigma_pq_closed(spec, cfg, t)
        values += [sigma, s_pq, *mean_closed_form(state0, cfg, t)]
        values += [*classicality_degrees(sigma, s_pq), *classicality_degrees(sigma, 0.0)]
    for model in ((spec, cfg), (InitialStateSpec(), OscillatorConfig())):  # finite, inf
        values += [decoherence_time(*model), statistical_time(*model)]
    assert [type(x) for x in values] == [float] * len(values)
    assert math.inf in values


# ---------------------------------------------------------------------------
# the bath rule
# ---------------------------------------------------------------------------

# C from a coth value or from a temperature, where T = inf and a temperature
# whose exponent hbar omega/(2kT) underflows are C = inf too
TEMPERATURES = st.builds(
    TemperatureSpec.from_coth,
    st.sampled_from([1.0, 3.0, 1e308, math.inf]) | st.floats(1.0, 1e300),
) | st.builds(TemperatureSpec.from_temperature, st.sampled_from([0.0, 1.0, 1e308, math.inf]))


@st.composite
def baths(draw):
    """Baths on both sides of the rule: lam <= |mu| (lam = |mu| too), the
    closed system lam = mu = 0, and C = inf, next to admissible ones."""
    lam = draw(st.sampled_from([0.0, 5e-324, 0.1, 0.2]) | st.floats(0.0, 2.0))
    mu = draw(st.sampled_from([0.0, -0.0, 0.1, -0.2, lam, -lam]) | st.floats(-0.99, 0.99))
    assume(abs(mu) < 1.0)
    return OscillatorConfig(lam=lam, mu=mu, temp=draw(TEMPERATURES))


# one field of the point set to an edge of its range (omega = 1, so 1 is
# omega too) or to an ordinary value
FIELD_VALUES = st.tuples(
    st.sampled_from(["lam", "mu", "coth", "spread", "correlation"]),
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, math.nextafter(1.0, 0.0), 1e308,
                     math.inf, -math.inf, math.nan, -1.0]) | st.floats(-2.0, 2.0),
)
UNCHANGED = ("spread", 4.0)


def _with_field(cfg, spec, field, value):
    """``(cfg, spec)`` with one field set to ``value`` through the constructors."""
    if field == "coth":
        return replace(cfg, temp=TemperatureSpec(coth_value=value)), spec
    if field in ("lam", "mu"):
        return replace(cfg, **{field: value}), spec
    return cfg, replace(spec, **{field: value})


@PROFILE
@given(cfg=baths(), point=FIELD_VALUES)
@example(cfg=OscillatorConfig(temp=TemperatureSpec.from_coth(math.inf)), point=UNCHANGED)
@example(cfg=OscillatorConfig(lam=0.1, mu=-0.1, temp=TemperatureSpec.from_coth(3.0)), point=UNCHANGED)
@example(cfg=OscillatorConfig(lam=0.2, mu=0.1, temp=TemperatureSpec.from_temperature(1e308)),
         point=UNCHANGED)
@example(cfg=OscillatorConfig.reference(), point=("lam", math.inf))
@example(cfg=OscillatorConfig.reference(), point=("spread", math.inf))
# C finite, but d_pp = d_qq = 2e308 overflow
@example(cfg=OscillatorConfig(lam=0.2, mu=0.0, temp=TemperatureSpec.from_coth(4.0)),
         point=("lam", 1e308))
def test_parameter_table_valid_is_the_bath_rule(cfg, point):
    # valid where the constructors accept the point's field and
    # thermal_coefficients has coefficients, and exactly there the scalar
    # closed forms and rates give a value rather than ValueError
    spec = InitialStateSpec(spread=4.0, correlation=0.3)
    field, value = point
    valid = parameter_table(cfg, spec, **{field: value}).valid
    try:
        cfg, spec = _with_field(cfg, spec, field, value)
    except ValueError:
        assert not valid
        return
    for call in (
        lambda: thermal_coefficients(cfg),
        lambda: sigma_det_closed(spec, cfg, 1.0),
        lambda: decoherence_rate(spec, cfg),
    ):
        try:
            call()
        except ValueError:
            assert not valid
        else:
            assert valid


# ---------------------------------------------------------------------------
# route agreement at the edges of the domain
# ---------------------------------------------------------------------------


@st.composite
def edge_models(draw):
    """Admissible thermal baths, initial states and times ``t <= 2``, weighted
    toward the edges of the domain: ``lam -> 0+``, ``|mu| -> omega`` (which
    needs ``lam > |mu|``, so ``lam >= 1`` there), squeezing ``10^(+/-4)`` and
    ``C`` up to ``10^4`` times its thermal bound.  ``|r|`` stays below
    ``1 - 1e-6``."""
    if draw(st.booleans()):
        lam = draw(st.floats(min_value=1.0, max_value=3.0))
        u = draw(st.floats(min_value=1.0, max_value=12.0))
        mu = draw(st.sampled_from([-1.0, 1.0])) * (1.0 - 10.0**-u)
    else:
        lam = 10.0 ** draw(st.floats(min_value=-12.0, max_value=0.0))
        mu = lam * draw(st.floats(min_value=-0.999, max_value=0.999))
    c_min = lam / math.sqrt((lam - mu) * (lam + mu))
    c = c_min * 10.0 ** draw(st.floats(min_value=0.0, max_value=4.0))
    cfg = OscillatorConfig(lam=lam, mu=mu, temp=TemperatureSpec.from_coth(c))
    r = draw(st.floats(min_value=-1.0, max_value=1.0))
    if draw(st.booleans()):
        v = draw(st.floats(min_value=0.0, max_value=6.0))
        r = math.copysign(1.0 - 10.0**-v, r)
    spec = InitialStateSpec(
        spread=10.0 ** draw(st.floats(min_value=-4.0, max_value=4.0)),
        correlation=max(-1.0 + 1e-6, min(r, 1.0 - 1e-6)),
        center_q=draw(st.floats(min_value=-5.0, max_value=5.0)),
        center_p=draw(st.floats(min_value=-5.0, max_value=5.0)),
    )
    return cfg, spec, draw(st.floats(min_value=1e-3, max_value=2.0))


@PROFILE
@given(model=edge_models())
@example(  # Omega ~ 4.5e-5, with C above its thermal bound 2.2e4
    model=(
        OscillatorConfig(lam=1.0, mu=1.0 - 1e-9, temp=TemperatureSpec.from_coth(3e4)),
        InitialStateSpec(spread=4.0, correlation=0.5),
        2.0,
    )
)
def test_routes_agree_at_the_edges_of_the_domain(model):
    # RK4 (dt <= 1e-3) agrees with the exact route on the moments to 1e-9 of
    # their scale, the closed forms to rounding: 1e-12 of the covariance
    # scale for s_pq, and for sigma of the terms each route cancels, s_qq s_pp
    # and (hbar^2/4) C (C + k_plus).  Each covariance is positive definite
    # with sigma >= hbar^2/4 up to rounding of s_qq s_pp
    cfg, spec, t = model
    state0 = initial_state(spec, cfg)
    d = thermal_coefficients(cfg)
    n = math.ceil(t / 1e-3)
    exact = trajectory_lyapunov(state0, cfg, d, [t]).final
    rk4 = integrate_moments_rk4(state0, cfg, d, t, t / n, record_every=n).final
    q, p = mean_closed_form(state0, cfg, t)
    quarter = cfg.hbar**2 / 4.0
    amp = abs(state0.mean_q) + abs(state0.mean_p)
    scale = max(exact.s_qq, exact.s_pp, rk4.s_qq, rk4.s_pp)
    for got in (rk4.mean_q, q):
        assert abs(got - exact.mean_q) <= 1e-9 * amp
    for got in (rk4.mean_p, p):
        assert abs(got - exact.mean_p) <= 1e-9 * amp
    for name in ("s_qq", "s_pp", "s_pq"):
        assert abs(getattr(rk4, name) - getattr(exact, name)) <= 1e-9 * scale
    assert abs(sigma_pq_closed(spec, cfg, t) - exact.s_pq) <= 1e-12 * scale
    k_plus = squeeze_terms(spec)[0]
    c = cfg.coth_epsilon
    closed_scale = scale * scale + quarter * c * (c + k_plus)
    assert abs(sigma_det_closed(spec, cfg, t) - exact.sigma_det) <= 1e-12 * closed_scale
    for state in (exact, rk4):
        assert state.s_qq > 0.0 and state.s_pp > 0.0 and state.sigma_det > 0.0
        assert state.sigma_det >= quarter - 1e-12 * state.s_qq * state.s_pp / quarter


# ---------------------------------------------------------------------------
# window finder
# ---------------------------------------------------------------------------


@PROFILE
@given(
    model=admissible_models(),
    qd_thr=st.floats(min_value=0.5, max_value=0.999, exclude_min=True, exclude_max=True),
    cc_thr=st.floats(min_value=1.2, max_value=50.0, exclude_min=True, exclude_max=True),
    dt=st.floats(min_value=0.01, max_value=0.2),
    t_end=st.floats(min_value=1.0, max_value=30.0, exclude_min=True),
)
def test_find_windows_agrees_with_sampled_membership(model, qd_thr, cc_thr, dt, t_end):
    # windows are ordered, disjoint and in [0, t_end]; each edge inside the
    # grid is a change of membership; a grid sample is inside a window exactly
    # when it is a member.  That a window's midpoint is a member is not a
    # property of a sampled finder: see test_window_misses_gap_shorter_than_dt
    cfg, spec = model
    evaluate = closed_form_metric_evaluator(spec, cfg)

    def member(t):
        qd, cc = evaluate(np.asarray(t, dtype=float))
        return (qd < qd_thr) & (cc < cc_thr)

    windows = find_windows(spec, cfg, t_end, dt, qd_thr, cc_thr)
    flat = [x for w in windows for x in w]
    assert flat == sorted(flat)
    assert all(end < start for end, start in zip(flat[1::2], flat[2::2]))
    assert all(0.0 <= x <= t_end for x in flat)
    times = time_grid(t_end, dt)
    interior = np.array([x for x in flat if x not in (times[0], times[-1])])
    if len(interior):
        before = member(np.maximum(interior - 1e-6, 0.0))
        assert (before != member(interior + 1e-6)).all()
    inside = np.zeros(len(times), dtype=bool)
    for a, b in windows:
        inside |= (a <= times) & (times <= b)
    np.testing.assert_array_equal(inside, member(times))


# ---------------------------------------------------------------------------
# trajectory rows are validated as GaussianState validates one state
# ---------------------------------------------------------------------------

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# at most one fault per trajectory, so that every check is needed on its own
FAULTS = st.sampled_from(
    ["none", "time", "moment", "variance", "determinant", "overflow", "underflow",
     "repeat", "order", "none"]
)


@st.composite
def trajectory_rows(draw):
    """Rows ``(t, mean_q, mean_p, s_qq, s_pp, s_pq)`` of valid states at
    increasing times, with at most one fault: a NaN or infinite time or
    moment, a zero or negative variance, an ``s_pq`` on or past the
    positivity boundary, extreme variances whose determinant overflows to NaN
    or underflows to 0, or a repeated or decreasing time."""
    n = draw(st.integers(1, 5))
    t = draw(st.floats(min_value=-10.0, max_value=10.0))
    rows = []
    for _ in range(n):
        s_qq = draw(st.floats(min_value=1e-3, max_value=1e3))
        s_pp = draw(st.floats(min_value=1e-3, max_value=1e3))
        s_pq = draw(st.floats(min_value=-0.999, max_value=0.999)) * math.sqrt(s_qq * s_pp)
        rows.append([t, draw(FINITE), draw(FINITE), s_qq, s_pp, s_pq])
        t += draw(st.floats(min_value=1e-3, max_value=2.0))
    i = draw(st.integers(0, n - 1))
    row, fault = rows[i], draw(FAULTS)
    if fault == "time":  # only NaN is rejected; +-inf is valid if increasing
        row[0] = draw(NON_FINITE)
    elif fault == "moment":
        row[draw(st.integers(1, 5))] = draw(NON_FINITE)
    elif fault == "variance":  # one, or both (the determinant may stay > 0)
        bad = draw(st.sampled_from([0.0, -1.0, -5e-324]))
        for cell in draw(st.sampled_from([[3], [4], [3, 4]])):
            row[cell] = bad
    elif fault == "determinant":  # |s_pq| at or past sqrt(s_qq s_pp)
        scale = draw(st.sampled_from([1.0, -1.0, 1.001, -2.0]))
        row[5] = scale * math.sqrt(row[3] * row[4])
    elif fault == "overflow":  # inf - inf: GaussianState accepts a NaN determinant
        row[3:] = [1e200, 1e200, draw(st.sampled_from([1e200, -1e200]))]
    elif fault == "underflow":
        row[3:] = [5e-324, 1e-3, 0.0]
    elif fault == "repeat" and n > 1:  # inf - inf is NaN, but inf <= inf
        row[0] = rows[i - 1][0] = draw(st.sampled_from([rows[i - 1][0], math.inf]))
    elif fault == "order" and n > 1:
        row[0] = rows[i - 1][0] - draw(st.floats(min_value=0.0, max_value=1.0))
    return rows


def _state_or_none(row):
    t, q, p, s_qq, s_pp, s_pq = row
    try:
        return GaussianState(mean_q=q, mean_p=p, s_qq=s_qq, s_pp=s_pp, s_pq=s_pq, t=t)
    except ValueError:
        return None


def _row(t=0.0, s_qq=1.0, s_pp=1.0, s_pq=0.0):
    return [t, 0.0, 0.0, s_qq, s_pp, s_pq]


@PROFILE
@given(rows=trajectory_rows())
# one example per check, whatever the draws
@example(rows=[_row(t=math.nan)])
@example(rows=[_row(s_pq=math.nan)])
@example(rows=[_row(s_qq=-1.0, s_pp=-1.0)])
@example(rows=[_row(s_pq=1.0)])
@example(rows=[_row(s_qq=1e200, s_pp=1e200, s_pq=1e200)])
@example(rows=[_row(), _row(t=math.inf), _row(t=math.inf)])
def test_trajectory_validates_rows_as_gaussian_state(rows):
    states = [_state_or_none(row) for row in rows]
    times = [row[0] for row in rows]
    increasing = all(b > a for a, b in zip(times, times[1:]))
    with np.errstate(over="ignore", invalid="ignore"):
        if None in states or not increasing:
            with pytest.raises(ValueError):
                Trajectory(rows)
            return
        traj = Trajectory(rows)
        assert len(traj) == len(rows)
        assert repr(traj.final) == repr(states[-1])
        assert [repr(s) for s in traj] == [repr(s) for s in states]
        for i, state in enumerate(states):
            assert repr(traj[i]) == repr(state)
            assert repr(float(traj.sigma_det[i])) == repr(state.sigma_det)

"""Executable acceptance suite.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``selftest`` command prints one verdict line per criterion and the test suite
asserts each one individually.  All checks are deterministic (fixed seeds) and
sized to run on a laptop: everything but the grid-solver criterion completes
in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classicality import classicality_degrees, delta_qd, delta_qd_asymptotic
from .decoherence import (
    decoherence_rate,
    decoherence_time,
    rate_ratio,
    rates,
    regime_report,
    statistical_time,
    time_from_rate,
)
from .fpe import FpeRunSpec, grid_l2_diff, grid_linf_diff, run_fpe
from .model import (
    InitialStateSpec,
    OscillatorConfig,
    TemperatureSpec,
    initial_state,
    parameter_table,
    thermal_coefficients,
)
from .propagate import (
    asymptotic_covariance,
    closed_forms,
    covariance_lyapunov,
    integrate_moments_rk4,
    sigma_det_closed,
    sigma_pq_closed,
    trajectory_lyapunov,
)
from .states import (
    alpha_beta_gamma,
    density_matrix,
    gaussian_trapezoid,
    geometry_for_states,
    render_grid,
    stationary_grid,
    wigner,
    wigner_from_density,
)

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]

_SEED = 20260823


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def check_asymptotic_decoherence_degree() -> CriterionResult:
    """The long-time decoherence degree equals the reciprocal coth factor,
    reproduced three independent ways per temperature."""
    worst = 0.0
    spec = InitialStateSpec(spread=4.0, correlation=0.0)
    for c in (1.5, 3.0, 20.0):
        cfg = OscillatorConfig.reference(c)
        d = thermal_coefficients(cfg)
        state0 = initial_state(spec, cfg)
        closed = delta_qd_asymptotic(cfg)
        stationary = delta_qd(asymptotic_covariance(cfg), cfg.hbar)
        late = delta_qd(covariance_lyapunov(state0, cfg, d, 100.0), cfg.hbar)
        values = (closed, stationary, late)
        worst = max(
            worst, max(abs(a - b) for a in values for b in values)
        )
    passed = worst < 1e-8
    return CriterionResult(
        "asymptotic-decoherence-degree",
        passed,
        f"max three-way deviation {worst:.3e} (bound 1e-08) over C in (1.5, 3, 20)",
    )


def check_covariance_route_agreement() -> CriterionResult:
    """Closed-form covariance determinant and cross-covariance vs exact
    propagation vs fixed-step RK4 over t in [0, 14]."""
    cfg = OscillatorConfig.reference(3.0)
    spec = InitialStateSpec(spread=4.0, correlation=0.0)
    d = thermal_coefficients(cfg)
    state0 = initial_state(spec, cfg)
    times = 0.1 * np.arange(141)
    lyap = trajectory_lyapunov(state0, cfg, d, times)
    rk4 = integrate_moments_rk4(state0, cfg, d, 14.0, 1e-4, record_every=1000)
    assert len(rk4) == len(times)
    worst = 0.0
    for closed, attr in ((sigma_det_closed, "sigma_det"), (sigma_pq_closed, "s_pq")):
        routes = np.array(
            [
                closed(spec, cfg, times),
                getattr(lyap, attr),
                getattr(rk4, attr),
            ]
        )
        # the largest pairwise gap per time is max - min over the three routes
        spread = routes.max(axis=0) - routes.min(axis=0)
        worst = max(worst, float(spread.max() / np.abs(routes[0]).max()))
    passed = worst < 1e-6
    return CriterionResult(
        "covariance-route-agreement",
        passed,
        f"max relative route deviation {worst:.3e} (bound 1e-06) over t in [0, 14]",
    )


def check_uncertainty_floor() -> CriterionResult:
    """The covariance determinant never drops below (hbar/2)^2 across 10^4
    random admissible (parameters, time) samples."""
    rng = np.random.default_rng(_SEED)
    floor = 0.25
    # one row per sample, drawn in the order (lam exponent, mu/lam, C scale,
    # spread exponent, r, t)
    low = [math.log10(0.02), -0.9, 0.0, -0.7, -0.95, 0.0]
    high = [math.log10(0.5), 0.9, 1.0, 0.9, 0.95, 30.0]
    draws = rng.uniform(low, high, size=(10_000, 6)).T
    lam = 10.0 ** draws[0]
    mu = lam * draws[1]
    c_min = lam / np.sqrt(lam * lam - mu * mu)
    c, spread = c_min * (1.0 + 9.0 * draws[2]), 10.0 ** draws[3]
    table = parameter_table(OscillatorConfig(), InitialStateSpec(), lam=lam, mu=mu,
                            coth=c, spread=spread, correlation=draws[4])
    sigma = closed_forms(table, draws[5])[0]
    min_margin = float((sigma - floor).min())
    passed = bool(table.valid.all()) and min_margin >= -1e-12
    return CriterionResult(
        "uncertainty-floor",
        passed,
        f"min(sigma - hbar^2/4) = {min_margin:.3e} over 10^4 samples (bound -1e-12)",
    )


def check_decoherence_time_table() -> CriterionResult:
    """Tabulated decoherence times, including the divergent zero-temperature
    case, plus a finite-difference check that 1/t_deco is the actual initial
    decay rate of the off-diagonal spread coefficient."""
    failures = []

    spec4 = InitialStateSpec(spread=4.0, correlation=0.0)
    cfg_warm = OscillatorConfig.reference(3.0)
    t1 = decoherence_time(spec4, cfg_warm)
    if abs(t1 - 1.0 / 6.6) > 1e-12 or round(t1, 5) != 0.15152:
        failures.append(f"warm-bath value {t1!r}")

    cfg_cold = OscillatorConfig(
        m=1.0, omega=1.0, lam=0.2, mu=0.0, hbar=1.0, temp=TemperatureSpec.zero()
    )
    t2 = decoherence_time(spec4, cfg_cold)
    if abs(t2 - 1.0 / 1.2) > 1e-12 or round(t2, 4) != 0.8333:
        failures.append(f"cold-bath value {t2!r}")

    t3 = decoherence_time(InitialStateSpec(spread=1.0, correlation=0.0), cfg_cold)
    if not math.isinf(t3):
        failures.append(f"unsqueezed cold state should never decohere, got {t3!r}")

    # finite-difference growth rate of gamma(t) = sigma / (2 hbar^2 s_qq)
    d = thermal_coefficients(cfg_warm)
    state0 = initial_state(spec4, cfg_warm)
    h = 1e-3
    traj = trajectory_lyapunov(state0, cfg_warm, d, [0.0, h, 2.0 * h])
    g0, g1, g2 = alpha_beta_gamma(traj, cfg_warm.hbar).gamma.tolist()
    rate_fd = (-3.0 * g0 + 4.0 * g1 - g2) / (2.0 * h * g0)
    rate = decoherence_rate(spec4, cfg_warm)
    fd_err = abs(rate_fd - rate) / rate
    if fd_err > 0.01:
        failures.append(f"finite-difference rate off by {fd_err:.2%}")

    passed = not failures
    detail = (
        f"t_deco {t1:.5f} / {t2:.4f} / inf; finite-difference rate match "
        f"{fd_err:.2e} (bound 1%)"
        if passed
        else "; ".join(failures)
    )
    return CriterionResult("decoherence-time-table", passed, detail)


def check_decoherence_statistical_scale() -> CriterionResult:
    """Decoherence and statistical-fluctuation times share a scale: their
    ratio sits in [0.8, 1.25] and approaches 1 as the squeezing grows."""
    temp = TemperatureSpec.from_epsilon(0.1)  # high temperature, tau = 10
    cfg = OscillatorConfig(m=1.0, omega=1.0, lam=0.2, mu=0.1, hbar=1.0, temp=temp)
    ratios = []
    for spread in (4.0, 8.0, 16.0):
        spec = InitialStateSpec(spread=spread, correlation=0.0)
        ratios.append(decoherence_time(spec, cfg) / statistical_time(spec, cfg))
    in_band = all(0.8 <= r <= 1.25 for r in ratios)
    approaching = all(
        abs(ratios[i + 1] - 1.0) < abs(ratios[i] - 1.0) for i in range(len(ratios) - 1)
    )
    passed = in_band and approaching
    return CriterionResult(
        "decoherence-vs-statistical-scale",
        passed,
        "t_deco/t_d = "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + " (band [0.8, 1.25], approaching 1)",
    )


def check_macroscopic_rate_ratio() -> CriterionResult:
    """A gram-scale superposition separated by a centimeter at room
    temperature decoheres ~10^40 times faster than it relaxes."""
    cfg = OscillatorConfig.si(m=1e-3, omega=1.0, temperature=300.0)
    ratio = rate_ratio(cfg, separation=1e-2)
    exponent = math.log10(ratio)
    passed = 40.0 <= exponent <= 41.0
    return CriterionResult(
        "macroscopic-rate-ratio",
        passed,
        f"rate ratio 10^{exponent:.3f} (required exponent in [40, 41])",
    )


def check_grid_solver_oracle() -> CriterionResult:
    """The finite-difference transport solver holds the stationary state,
    matches the analytic Gaussian evolution, and converges at order about
    1.8: halving the cell widths divides the L2 error by 3.50 from 128^2 to
    256^2 (the bound asks for 3), since the centered diffusion, second
    order, outweighs the third-order advection there."""
    cfg = OscillatorConfig.reference(3.0)
    d = thermal_coefficients(cfg)

    # stationary fixed point over one time unit
    w0 = stationary_grid(cfg, 256)
    res = run_fpe(w0, cfg, d, FpeRunSpec(t_end=1.0))
    drift = grid_linf_diff(res.final, w0)

    # evolved squeezed state vs the analytic solution
    spec = InitialStateSpec(spread=4.0, correlation=0.0)
    state0 = initial_state(spec, cfg)
    cover = [state0, asymptotic_covariance(cfg)]
    t_end, dt = 0.5, 2e-4
    reference = covariance_lyapunov(state0, cfg, d, t_end)
    errs = {}
    for n in (128, 256):
        geom = geometry_for_states(cover, n)
        out = run_fpe(
            render_grid(state0, geom), cfg, d, FpeRunSpec(t_end=t_end, dt=dt)
        )
        errs[n] = grid_l2_diff(out.final, render_grid(reference, geom))
    ratio = errs[128] / errs[256]

    passed = drift < 2e-3 and errs[256] < 1e-3 and ratio >= 3.0
    return CriterionResult(
        "grid-solver-oracle",
        passed,
        f"stationary drift {drift:.3e} (<2e-3); L2 error {errs[256]:.3e} "
        f"(<1e-3); refinement ratio {ratio:.2f} (>=3)",
    )


def check_wigner_density_consistency() -> CriterionResult:
    """Phase-space and coordinate representations agree: the momentum
    integral of the Wigner function is the position distribution, and the
    Fourier transform of the density matrix is the Wigner function, at 100
    random (state, point) pairs."""
    rng = np.random.default_rng(_SEED)
    cfg = OscillatorConfig.reference(3.0)
    d = thermal_coefficients(cfg)
    worst_marginal = 0.0
    worst_fourier = 0.0
    for _ in range(10):
        spec = InitialStateSpec(
            spread=10.0 ** rng.uniform(-0.4, 0.4),
            correlation=rng.uniform(-0.85, 0.85),
            center_q=rng.uniform(-2.0, 2.0),
            center_p=rng.uniform(-2.0, 2.0),
        )
        state = covariance_lyapunov(
            initial_state(spec, cfg), cfg, d, rng.uniform(0.0, 3.0)
        )
        sq = math.sqrt(state.s_qq)
        sp = math.sqrt(state.s_pp)
        # at fixed q the Wigner function is a Gaussian in p, of width
        # hbar sqrt(2 gamma) around <p> + hbar beta (q - <q>)
        coeff = alpha_beta_gamma(state, cfg.hbar)
        for _ in range(10):
            q = state.mean_q + rng.uniform(-3.0, 3.0) * sq
            p = state.mean_p + rng.uniform(-3.0, 3.0) * sp

            marginal = gaussian_trapezoid(
                lambda pv: wigner(state, q, pv),
                state.mean_p + cfg.hbar * coeff.beta * (q - state.mean_q),
                cfg.hbar * math.sqrt(2.0 * coeff.gamma),
            )
            diagonal = density_matrix(state, q, q, cfg.hbar).real
            worst_marginal = max(worst_marginal, abs(marginal - diagonal))

            via_fourier = wigner_from_density(state, q, p, cfg.hbar)
            direct = wigner(state, q, p)
            worst_fourier = max(worst_fourier, abs(via_fourier - direct))
    passed = worst_marginal < 1e-6 and worst_fourier < 1e-6
    return CriterionResult(
        "wigner-density-consistency",
        passed,
        f"max marginal deviation {worst_marginal:.3e}, max transform "
        f"deviation {worst_fourier:.3e} (bounds 1e-06)",
    )


def check_regime_interpolation() -> CriterionResult:
    """The thermal uncertainty level interpolates between the quantum floor
    (exactly, at T=0) and the classical high-temperature value."""
    cold = regime_report(
        OscillatorConfig(
            m=1.0, omega=1.0, lam=0.2, mu=0.1, hbar=1.0, temp=TemperatureSpec.zero()
        )
    )
    exact_floor = cold.sigma_be == cold.sigma_heisenberg == 0.25
    hot = regime_report(OscillatorConfig.reference(100.0))
    hot_gap = abs(hot.sigma_be / hot.sigma_mb - 1.0)
    passed = exact_floor and hot_gap < 1e-4
    return CriterionResult(
        "regime-interpolation",
        passed,
        f"T=0 thermal level equals floor exactly: {exact_floor}; "
        f"C=100 classical gap {hot_gap:.3e} (bound 1e-04)",
    )


def check_monotonicity_battery() -> CriterionResult:
    """Directional claims: the asymptotic decoherence degree falls with
    temperature; the decoherence time falls with damping, temperature, and
    squeezing; both classicality degrees fall with squeezing."""
    failures = []

    asym = [
        delta_qd_asymptotic(OscillatorConfig.reference(c))
        for c in np.linspace(1.0, 20.0, 100)
    ]
    if not all(b < a for a, b in zip(asym, asym[1:])):
        failures.append("asymptotic degree not decreasing in C")

    grid = parameter_table(
        OscillatorConfig(),
        InitialStateSpec(),
        lam=np.linspace(0.05, 0.5, 10)[:, None, None],
        coth=np.linspace(1.5, 10.0, 10)[:, None],
        spread=np.linspace(1.2, 8.0, 10),
    )
    t_deco = time_from_rate(rates(grid)[0])
    for axis, label in ((0, "lambda"), (1, "C"), (2, "delta")):
        if not np.all(np.diff(t_deco, axis=axis) < 0.0):
            failures.append(f"decoherence time not decreasing in {label}")

    cfg = OscillatorConfig.reference(3.0)
    spreads = parameter_table(cfg, InitialStateSpec(), spread=[1.0, 2.0, 4.0, 8.0])
    qd, cc = classicality_degrees(*closed_forms(spreads, 0.5), cfg.hbar)
    if not np.all(np.diff(qd) < 0.0):
        failures.append("decoherence degree not decreasing in delta at t=0.5")
    if not np.all(np.diff(cc) < 0.0):
        failures.append("correlation degree not decreasing in delta at t=0.5")

    passed = not failures
    return CriterionResult(
        "monotonicity-battery",
        passed,
        "all directional checks hold" if passed else "; ".join(failures),
    )


CRITERIA = (
    check_asymptotic_decoherence_degree,
    check_covariance_route_agreement,
    check_uncertainty_floor,
    check_decoherence_time_table,
    check_decoherence_statistical_scale,
    check_macroscopic_rate_ratio,
    check_grid_solver_oracle,
    check_wigner_density_consistency,
    check_regime_interpolation,
    check_monotonicity_battery,
)


def run_acceptance() -> list[CriterionResult]:
    """Run every criterion in order."""
    return [criterion() for criterion in CRITERIA]

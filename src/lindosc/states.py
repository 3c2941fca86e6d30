"""Pointwise evaluation of Gaussian states: density matrix, Wigner function,
the stationary density, and phase-space grids.

The density matrix is evaluated in coordinate representation.  In the
center/offset variables ``center = (q + q')/2`` and ``offset = q - q'`` a
Gaussian state is

    rho(center, offset) = sqrt(alpha/pi) * exp(-alpha*(center - <q>)^2
                           - gamma*offset^2
                           + i*beta*(center - <q>)*offset
                           + i*<p>*offset/hbar)

with the spread coefficients

    alpha = 1/(2 s_qq),  gamma = sigma_det/(2 hbar^2 s_qq),
    beta  = s_pq/(hbar s_qq).

The Wigner function is the Fourier transform of the density matrix in the
offset coordinate and is an ordinary bivariate Gaussian over (q, p) with the
state's covariance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .csvout import format_float, write_csv
from .model import GaussianState, OscillatorConfig
from .propagate import asymptotic_covariance

__all__ = [
    "AlphaBetaGamma",
    "alpha_beta_gamma",
    "density_matrix",
    "density_sigma_delta",
    "wigner",
    "wigner_from_coefficients",
    "wigner_from_density",
    "gaussian_trapezoid",
    "stationary_density",
    "GridGeometry",
    "PhaseSpaceGrid",
    "render_grid",
    "density_grid",
    "geometry_for_states",
    "stationary_grid",
]


@dataclass(frozen=True)
class AlphaBetaGamma:
    """Spread coefficients of the coordinate-representation Gaussian.

    ``alpha`` sets the diagonal width, ``gamma`` the decay of off-diagonal
    coherences (larger gamma = stronger decoherence), ``beta`` the
    position-momentum cross phase.  ``alpha`` and ``gamma`` are positive for
    every valid state.
    """

    alpha: float
    beta: float
    gamma: float


def alpha_beta_gamma(state: GaussianState, hbar: float = 1.0) -> AlphaBetaGamma:
    return AlphaBetaGamma(
        alpha=1.0 / (2.0 * state.s_qq),
        beta=state.s_pq / (hbar * state.s_qq),
        gamma=state.sigma_det / (2.0 * hbar * hbar * state.s_qq),
    )


def density_sigma_delta(state: GaussianState, center, offset, hbar: float = 1.0):
    """Density matrix in center/offset coordinates (complex value).

    ``center = (q + q')/2`` and ``offset = q - q'``; accepts scalars or
    broadcastable arrays.
    """
    center = np.asarray(center, dtype=float)
    offset = np.asarray(offset, dtype=float)
    coeff = alpha_beta_gamma(state, hbar)
    dq = center - state.mean_q
    exponent = (
        -coeff.alpha * dq * dq
        - coeff.gamma * offset * offset
        + 1j * coeff.beta * dq * offset
        + 1j * state.mean_p * offset / hbar
    )
    return math.sqrt(coeff.alpha / math.pi) * np.exp(exponent)


def density_matrix(state: GaussianState, q, qp, hbar: float = 1.0):
    """Density matrix element rho(q, q') (complex).  Hermitian:
    ``rho(q, q') == conj(rho(q', q))``; the diagonal is the positive position
    distribution."""
    q = np.asarray(q, dtype=float)
    qp = np.asarray(qp, dtype=float)
    return density_sigma_delta(state, 0.5 * (q + qp), q - qp, hbar)


def wigner(state: GaussianState, q, p):
    """Wigner function value at (q, p): the bivariate Gaussian with the
    state's means and covariance.  Strictly positive; peak value
    ``1/(2*pi*sqrt(sigma_det))`` at the means."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    sigma = state.sigma_det
    dq = q - state.mean_q
    dp = p - state.mean_p
    quad = (
        state.s_pp * dq * dq
        - 2.0 * state.s_pq * dq * dp
        + state.s_qq * dp * dp
    )
    return np.exp(-quad / (2.0 * sigma)) / (2.0 * math.pi * math.sqrt(sigma))


def wigner_from_coefficients(state: GaussianState, q, p, hbar: float = 1.0):
    """Wigner function written through the spread coefficients:

        W = (1/pi hbar) sqrt(alpha/(4 gamma))
            * exp(-alpha (q - <q>)^2 - (p - <p> - hbar beta (q - <q>))^2/(4 hbar^2 gamma))

    Pointwise identical to :func:`wigner`; kept as an independent evaluation
    route for consistency tests.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    coeff = alpha_beta_gamma(state, hbar)
    dq = q - state.mean_q
    shifted = p - state.mean_p - hbar * coeff.beta * dq
    return (
        math.sqrt(coeff.alpha / (4.0 * coeff.gamma))
        / (math.pi * hbar)
        * np.exp(
            -coeff.alpha * dq * dq
            - shifted * shifted / (4.0 * hbar * hbar * coeff.gamma)
        )
    )


def gaussian_trapezoid(f, center: float, width: float, frequency: float = 0.0):
    """Trapezoidal sum for the integral over the line of ``f``, a Gaussian of
    standard deviation ``width`` around ``center`` times ``exp(i frequency x)``.
    The nodes span ``center +/- 12 width``; the step ``2 pi / (|frequency| +
    12/width)`` keeps each alias of the integrand's Fourier transform below
    e^-72 of its peak, which bounds the error at any frequency (Trefethen &
    Weideman, SIAM Rev. 56:385, 2014).  Takes about ``47 + 3.8 width
    |frequency|`` nodes."""
    step = 2.0 * math.pi / (abs(frequency) + 12.0 / width)
    half = math.ceil(12.0 * width / step)
    return step * np.sum(f(center + step * np.arange(-half, half + 1)))


def wigner_from_density(
    state: GaussianState, q: float, p: float, hbar: float = 1.0
) -> float:
    """Wigner value via numerical Fourier transform of the density matrix:

        W(q, p) = (1/2 pi hbar) Integral rho(center=q, offset) e^{-i p offset/hbar} d(offset)

    A :func:`gaussian_trapezoid` sum, independent of the closed-form Gaussian
    but for the grid: in the offset, the integrand has width ``1/sqrt(2 gamma)``
    and phase frequency ``beta (q - <q>) + (<p> - p)/hbar``.  Used to verify
    the transform convention.
    """
    coeff = alpha_beta_gamma(state, hbar)
    integral = gaussian_trapezoid(
        lambda y: density_sigma_delta(state, q, y, hbar) * np.exp(-1j * p * y / hbar),
        0.0,
        1.0 / math.sqrt(2.0 * coeff.gamma),
        coeff.beta * (q - state.mean_q) + (state.mean_p - p) / hbar,
    )
    return float(np.real(integral) / (2.0 * math.pi * hbar))


def stationary_density(cfg: OscillatorConfig, q, qp):
    """Long-time density matrix, the real Gaussian

        rho_inf(q, q') = sqrt(m omega/(pi hbar C))
            * exp(-(m omega/(4 hbar)) [ (q + q')^2 / C + C (q - q')^2 ])

    evaluated as :func:`density_matrix` of :func:`asymptotic_covariance`,
    which requires damping and a finite C.
    """
    return density_matrix(asymptotic_covariance(cfg), q, qp, cfg.hbar).real


# -- grids -------------------------------------------------------------------


@dataclass(frozen=True)
class GridGeometry:
    """Cell-centered rectangular lattice over (q, p)."""

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int

    def __post_init__(self) -> None:
        if not (self.q_max > self.q_min and self.p_max > self.p_min):
            raise ValueError("degenerate grid range")
        if self.n_q < 3 or self.n_p < 3:
            raise ValueError("grid sizes must be >= 3")
        # an infinite bound makes a width infinite, and so can finite bounds far apart
        if not (math.isfinite(self.dq) and math.isfinite(self.dp)):
            raise ValueError(
                "grid range q [%r, %r], p [%r, %r] must be finite, with finite "
                "cell widths" % (self.q_min, self.q_max, self.p_min, self.p_max)
            )

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_q

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_p

    def q_centers(self) -> np.ndarray:
        return self.q_min + (np.arange(self.n_q) + 0.5) * self.dq

    def p_centers(self) -> np.ndarray:
        return self.p_min + (np.arange(self.n_p) + 0.5) * self.dp


@dataclass(frozen=True, eq=False)
class PhaseSpaceGrid:
    """Sampled real field over a cell-centered phase-space lattice.

    ``values`` has shape (n_q, n_p): the row index walks the q axis (slow
    axis in the CSV layout), the column index the p axis.
    """

    geom: GridGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.values):
            raise ValueError("grid values must be real; take .real or abs() first")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.geom.n_q, self.geom.n_p):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.geom.n_q}, {self.geom.n_p})"
            )
        object.__setattr__(self, "values", values)

    @property
    def dq(self) -> float:
        return self.geom.dq

    @property
    def dp(self) -> float:
        return self.geom.dp

    def mass(self) -> float:
        """Riemann-sum integral of the field over the domain."""
        return float(self.values.sum() * self.dq * self.dp)

    def to_csv(self, target: str | Path | IO[str]) -> None:
        """Header line ``# q_min q_max p_min p_max n_q n_p`` then one
        comma-separated row per q-line (row-major, q slow)."""
        g = self.geom
        bounds = " ".join(
            format_float(x) for x in (g.q_min, g.q_max, g.p_min, g.p_max)
        )
        write_csv(target, f"# {bounds} {g.n_q} {g.n_p}", self.values)


def render_grid(state: GaussianState, geom: GridGeometry) -> PhaseSpaceGrid:
    """Wigner function sampled at the cell centers of ``geom``."""
    q = geom.q_centers()[:, None]
    p = geom.p_centers()[None, :]
    return PhaseSpaceGrid(geom=geom, values=wigner(state, q, p))


def density_grid(state: GaussianState, geom: GridGeometry, hbar: float = 1.0) -> np.ndarray:
    """Density matrix sampled at the cell centers of ``geom``, whose p axis
    holds q': complex ``values[i, j] = rho(q_i, q'_j)`` (q slow axis)."""
    return density_matrix(state, geom.q_centers()[:, None], geom.p_centers()[None, :], hbar)


def geometry_for_states(
    states: Sequence[GaussianState] | Iterable[GaussianState],
    n: int,
    coverage: float = 6.0,
) -> GridGeometry:
    """Smallest n x n box, symmetric per axis, covering mean +/- coverage * std
    of every given state (the domain-sizing rule used by the grid solver)."""
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    q_lo = min(s.mean_q - coverage * math.sqrt(s.s_qq) for s in states)
    q_hi = max(s.mean_q + coverage * math.sqrt(s.s_qq) for s in states)
    p_lo = min(s.mean_p - coverage * math.sqrt(s.s_pp) for s in states)
    p_hi = max(s.mean_p + coverage * math.sqrt(s.s_pp) for s in states)
    return GridGeometry(q_min=q_lo, q_max=q_hi, p_min=p_lo, p_max=p_hi, n_q=n, n_p=n)


def stationary_grid(cfg: OscillatorConfig, n: int, coverage: float = 6.0) -> PhaseSpaceGrid:
    """Stationary Wigner function rendered over its own +/- coverage std box."""
    state = asymptotic_covariance(cfg)
    return render_grid(state, geometry_for_states([state], n, coverage=coverage))

"""Explicit finite-difference solver for the phase-space transport equation
obeyed by the Wigner distribution of the damped oscillator.

The equation is integrated in conservative flux form,

    dW/dt = -d/dq F_q - d/dp F_p,
    F_q = v_q W - d_qq dW/dq - d_pq dW/dp,   v_q = p/m - (lam - mu) q,
    F_p = v_p W - d_pp dW/dp - d_pq dW/dq,   v_p = -m omega^2 q - (lam + mu) p,

which contains all seven generator terms: the two unitary drift terms, the two
friction terms, and the three diffusion terms.  Faces take the upwind-biased
kappa = 1/3 value for advection (two cells on the upwind side, one on the
downwind side; van Leer 1985, Koren 1993), so the advective flux difference
is the third-order upwind derivative, and centered differences for
diffusion, which are second order and set the order of a damped run; time
stepping is forward Euler with the step ``stable_dt`` (derived there), which
is also the largest explicit step a run accepts.  The boundary is
zero-inflow Dirichlet: W = 0 outside the grid, so nothing is advected in and
diffusion may leak mass out through the tails (tracked and reported).

The operator ``L`` is linear and time-invariant, so a step of size ``h`` is
one linear map ``W <- (I - h L) W``.  The upwind choice, the diffusion terms,
the cell widths, the divergence of the two face fluxes, ``h`` and the
identity are folded once into a table of per-cell weights, one per neighbour
the update reads: the cell itself, two cells each way along q and along p,
and with cross diffusion the four diagonal neighbours.  Each step evaluates
that table against shifted views of one of two preallocated grids, padded by
ghost rows only, and writes the interior of the other (``_Stepper``); a tap
that would read past either end of a row has weight zero.

On a box symmetric about the origin the equation keeps central symmetry,
W(q, p) = W(-q, -p), since its drift is linear without a constant term and
its diffusion constant.  A grid that equals its reflection bit for bit, such
as every Gaussian centred at 0 renders, is therefore stepped on its first
``ceil(n_q/2)`` rows only (the rows q < 0, and q = 0 for odd ``n_q``); the
lower ghost rows hold the rows that central symmetry maps there, and the
grids ``run_fpe`` returns are assembled by reflection.

This solver is deliberately independent of the closed-form machinery in
``propagate``/``states`` so the two can be compared as oracles.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import (
    DiffusionCoefficients,
    GaussianState,
    NumericError,
    OscillatorConfig,
)
from .states import GridGeometry, PhaseSpaceGrid

__all__ = [
    "FpeRunSpec",
    "FpeResult",
    "grid_mass_budget",
    "stable_dt",
    "run_fpe",
    "grid_moments",
    "grid_l2_diff",
    "grid_linf_diff",
]

_MASS_TOL = 1e-3


@dataclass(frozen=True)
class FpeRunSpec:
    """Run parameters for the grid solver.

    ``dt=None`` steps with ``stable_dt``, the largest step the solver
    accepts; an explicit ``dt`` may be smaller but not larger (``run_fpe``
    raises ``ValueError``).  ``snapshot_times`` are intermediate times (each
    in (0, t_end]) at which the grid is captured.  The boundary is always
    zero-inflow (see the module docstring).
    """

    t_end: float
    dt: float | None = None
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_end) or self.t_end < 0.0:
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if self.dt is not None and (not math.isfinite(self.dt) or self.dt <= 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))
        for t in self.snapshot_times:
            if not 0.0 < t <= self.t_end:
                raise ValueError(f"snapshot time {t!r} outside (0, t_end]")
        if len(set(self.snapshot_times)) != len(self.snapshot_times):
            raise ValueError("snapshot times must be distinct")


def grid_mass_budget(state: GaussianState, geom: GridGeometry) -> tuple[float, float]:
    """Bounds ``(tail, alias)`` on how far the cell sum of ``state`` on
    ``geom`` can miss its mass of 1: the plane's cell sum misses by at most
    ``alias``, and the cells outside the box hold at most ``tail``.  Where
    the two sum past ``run_fpe``'s 1e-3, a ``ValueError`` names both and
    blames the larger, the box (``--coverage``) or the cell (``--grid-n``).

    * Alias: by Poisson summation the plane's cell sum of a Gaussian of
      covariance S on cells dq x dp sums ``exp(-2 pi^2 K^T S K)`` over K =
      (k/dq, l/dp), k and l integers, times phases set by where the mean
      falls between cell centres.  K = 0 is the mass; the other terms bound
      the error.  ``K^T S K`` is ``|k u + l v|^2`` on the lattice ``u = (a,
      0)``, ``v = (b, c)``, ``a = sqrt(s_qq)/dq``, ``b = s_pq/(sqrt(s_qq)
      dp)``, ``c = sqrt(sigma/s_qq)/dp``.  Lagrange's reduction makes ``|u|
      <= |v|`` and ``2|u.v| <= |u|^2``, so ``|m u + n v|^2 >= (m^2 + n^2)
      |u|^2 / 2``: once the two terms of u stay below 1e-3, ``|u|^2 >
      0.385``, those with |m| or |n| above 2 are below 2e-15, and ``alias``
      sums the 24 others (else short of the sum, but over 1e-3); a form
      that overflows (cells 1e154 times finer) counts no alias.
    * Tail: the cells at q sum over p to the q marginal at q times 1 + e,
      e the alias of p given q, of variance ``sigma/s_qq``: ``|e| <= 2
      sum_{l>=1} exp(-l^2 x) <= 2/(exp(x) - 1)``, ``x = 2 pi^2 sigma/(s_qq
      dp^2)``, so ``1 + |e| <= coth(x/2)``.  Past an edge a standard
      deviation from the mean the marginal is convex, and its midpoint sum
      at most its mass beyond (a nearer edge loses over 1e-3 anyway).
      ``tail`` sums that mass times ``coth(x/2)`` over both axes: about 1
      without correlation, more where a narrow ridge crosses the box edge.
    """
    dq, dp = geom.dq, geom.dp
    tail = 0.0
    for lo, hi, mean, var, d in (
        (geom.q_min, geom.q_max, state.mean_q, state.s_qq, dp),
        (geom.p_min, geom.p_max, state.mean_p, state.s_pp, dq),
    ):
        width = math.sqrt(2.0) * math.sqrt(var)
        outside = 0.5 * (math.erfc((mean - lo) / width) + math.erfc((hi - mean) / width))
        x = 2.0 * math.pi**2 * (state.sigma_det / var) / d / d
        if outside:  # where x/2 underflows the factor is inf, and 0 * inf reads nan
            tail += outside / math.tanh(0.5 * x) if 0.5 * x else math.inf
    width_q, width_p = math.sqrt(state.s_qq), math.sqrt(state.s_pp)
    # the plane as complex numbers: |z|^2 is K^T S K, (conj(z) w).real the dot product
    u = complex(width_q / dq, 0.0)
    v = complex(state.s_pq / width_q / dp, math.sqrt(state.sigma_det) / width_q / dp)
    alias = 0.0
    with contextlib.suppress(OverflowError):  # abs() of a form too large to measure
        while math.isfinite(abs(u) * abs(v)):
            if abs(v) < abs(u):
                u, v = v, u
            # stop once u leaves v no shorter, or once u's two terms exceed 1e-3
            coarse = abs(u) ** 2 < math.log(2.0 / _MASS_TOL) / (2.0 * math.pi**2)
            w = v if coarse else v - round((u.conjugate() * v).real / abs(u) ** 2) * u
            if abs(w) >= abs(v):
                near = (abs(i * u + j * v) for i in range(-2, 3) for j in range(-2, 3) if i or j)
                alias = math.fsum(math.exp(-2.0 * math.pi**2 * r * r) for r in near)
                break
            v = w
    if not tail + alias <= _MASS_TOL:  # also rejects a NaN bound
        shares = f"{tail:.6g} outside the box", f"{alias:.6g} by aliasing"
        cause = (
            f"grid cell {geom.dq:.6g} x {geom.dp:.6g} too coarse for the initial state's"
            f" standard deviations {width_q:.6g} x {width_p:.6g} (--grid-n)"
            if alias > tail else "box too narrow for the initial state (--coverage)"
        )
        first, second = shares[::-1] if alias > tail else shares
        raise ValueError(
            f"{cause}: its cell sum may miss {first}, more than {second},"
            f" {tail + alias:.6g} in all, over {_MASS_TOL}"
        )
    return tail, alias


def stable_dt(
    geom: GridGeometry, cfg: OscillatorConfig, d: DiffusionCoefficients
) -> float:
    """The forward-Euler step of ``run_fpe`` on this grid: the automatic
    step, and the largest explicit step it accepts.

    Freeze the coefficients at their largest magnitudes over the box,

        v_q = |p|max / m + |lam - mu| |q|max,
        v_p = m omega^2 |q|max + (lam + mu) |p|max,

    attained at the corners, and follow one Fourier mode with phase step
    ``theta`` per cell along an axis of width ``dx``.  Per time unit the
    kappa = 1/3 advection (``_Stepper``) multiplies it by

        -(v/dx) (e^{-2 i theta} - 6 e^{-i theta} + 3 + 2 e^{i theta}) / 6
            = -(v/dx) ((1 - cos theta)^2 / 3 + i sin theta (4 - cos theta) / 3)
            = -(v/dx) (i theta + theta^4/12 + ...),

    and centered diffusion by ``-(4 D/dx^2) sin^2(theta/2)``; a step
    multiplies it by ``g = 1 + dt`` times the sum over both axes, and is
    stable while ``|g| <= 1`` for every mode.  That gives two conditions.

    * Sawtooth: at the odd-even mode (``theta = pi`` on both axes) each
      advection factor is ``-(4/3) v/dx`` and each diffusion factor
      ``-4 D/dx^2``, all real, so they add: ``g = 1 - dt (4/3 (v_q/dq +
      v_p/dp) + 4 (D_qq/dq^2 + D_pp/dp^2))``.  With ``S = v_q/dq + v_p/dp +
      D_qq/dq^2 + D_pp/dp^2`` that is at least ``1 - 4 dt S``, so ``dt <=
      0.5 / S`` keeps ``|g| <= 1``.  That over-bounds each advection rate
      by a factor 3, but the exact term, ``1/(4/3 sum v/dx + 4 sum
      D/dx^2)`` (half its limit), costs accuracy: with it a squeezed run
      (``--delta-sq 4``, 128^2, t = 1) takes 448 steps, not 792, and its L2
      error at t = 0.5 rises from 4.35e-4 to 5.62e-4.
    * Long-wave guard: for small ``theta`` along one axis, with Courant
      number ``c = v dt/dx``, ``|g|^2 = 1 + (c^2 - 2 dt D/dx^2) theta^2 +
      O(theta^4)``, so the long waves do not grow while ``dt <= 2 D / v^2``.
      An axis without diffusion has no such guard: its modes near ``theta^2
      = 3c`` grow by about ``3 c^3 / 4`` per step (``c^3 / 4`` with
      linear-upwind faces).  In the closed system (``--delta-sq 4``, 128^2,
      t = 20, 21,760 steps) that costs no accuracy: the L2 error against the
      exact Gaussian is 0.059 (0.18 with linear-upwind faces).

    The textbook per-axis limits ``dx / v`` and ``dx^2 / (2 D)`` of one rate
    alone need no term of their own: ``S`` holds every rate, so the sawtooth
    term never exceeds them.

    The step is half the smallest of these terms.  The factor 1/2 is the
    margin for what the analysis leaves out: modes between the sawtooth and
    the long waves, coefficients that vary over the grid, the
    cross-diffusion taps and the zero-inflow boundary.  On the README model
    and the edge baths of ``tests/test_fpe.py``, the frozen-coefficient
    symbol keeps ``|g| <= 1`` on every mode up to 1.04 times this step or
    more.
    """
    q_abs = max(abs(geom.q_min), abs(geom.q_max))
    p_abs = max(abs(geom.p_min), abs(geom.p_max))
    vq_max = p_abs / cfg.m + abs(cfg.lam - cfg.mu) * q_abs
    vp_max = cfg.m * cfg.omega**2 * q_abs + (cfg.lam + cfg.mu) * p_abs
    dq, dp = geom.dq, geom.dp
    rate_sum = vq_max / dq + vp_max / dp + d.d_qq / dq**2 + d.d_pp / dp**2
    bound = 0.5 / rate_sum
    if d.d_qq > 0.0 and vq_max > 0.0:
        bound = min(bound, 2.0 * d.d_qq / (vq_max * vq_max))
    if d.d_pp > 0.0 and vp_max > 0.0:
        bound = min(bound, 2.0 * d.d_pp / (vp_max * vp_max))
    return 0.5 * bound


class _Stepper:
    """One forward-Euler step of size ``h`` as one linear map ``x <- T x``,
    ``T = I - h L``, with ``L`` the divergence operator below as a per-cell
    tap table.

    Grid layout: ``values[i, j] = W(q_i, p_j)`` with q along axis 0.  Faces in
    q sit at ``q_min + k*dq`` (k = 0..n_q).  The operator is linear and
    time-invariant, so the flux through face f, divided by the cell width,
    is a fixed four-cell stencil along the face normal (``_face_coefficients``),

        F_f / dx = a W[f-2] + b W[f-1] + c W[f] + e W[f+1],
        a = -v+ / (6 dx),  b = (5 v+ / 6 + v- / 3 + D/dx) / dx,
        c = (v+ / 3 + 5 v- / 6 - D/dx) / dx,  e = -v- / (6 dx),

    with v+ = max(v, 0) and v- = min(v, 0): the kappa = 1/3 face value
    ``(-W[f-2] + 5 W[f-1] + 2 W[f]) / 6`` for a face velocity v > 0, and
    ``(2 W[f-1] + 5 W[f] - W[f+1]) / 6`` for v < 0, plus the centered
    diffusive flux.  For a constant v > 0 the advective part of the
    divergence below is ``v (W[x-2] - 6 W[x-1] + 3 W[x] + 2 W[x+1]) / (6
    dx)``, the third-order upwind derivative.  Face f lies on the low side
    of cell f, so the divergence ``F[x+1] - F[x]`` of cell x along one axis
    is a five-cell stencil.  Its tap on cell x+s is the weight with which the high face
    reads that cell minus the weight with which the low face reads it:

        s = -2: -a[x]          s = -1: a[x+1] - b[x]     s = 0: b[x+1] - c[x]
        s = +1: c[x+1] - e[x]  s = +2: e[x+1]

    The q and p stencils share the tap on the cell itself: nine taps.  With
    cross diffusion each face flux adds ``-d_pq dW/d(other axis)``, the
    centered cell derivative averaged over the two cells beside the face.
    In the divergence its terms on the four side neighbours cancel, and each
    axis leaves the same four diagonal taps, ``k (W[i+1, j+1] - W[i+1, j-1]
    - W[i-1, j+1] + W[i-1, j-1])`` with ``k = -d_pq / (4 dq dp)``.

    ``h`` and the identity are folded into the table once, here: the taps
    are ``-h`` times those of ``L``, and the tap on the cell itself gains 1.
    A run therefore builds one stepper per segment of equal steps.

    With ``mirror`` the grid must be centrally symmetric on a box symmetric
    about 0 (see ``run_fpe``), and the stepper computes only its first
    ``rows = ceil(n_q/2)`` rows: the table covers those rows, and ``rows``
    is ``n_q`` otherwise.  Grid row g just past them holds row ``n_q - 1 -
    g`` reversed in p, or zeros for ``g >= n_q``, and for odd ``n_q`` the
    p > 0 half of the middle row is its p < 0 half reversed; ``_Buffer``
    refreshes both after each step, so the half grid steps as the whole one.

    The grid lives in two buffers of ``rows + 4`` rows of ``n_p`` cells: two
    ghost rows on each side of the interior (zeros, the zero-inflow boundary
    in q, except the mirrored rows above), and no ghost columns, so the
    interior is one contiguous block.  On a flattened buffer each tap is a
    fixed shift, by one row per q cell and by one element per p cell, so a
    group of taps is one read-only strided view and one ``np.einsum`` call
    sums weight times cell over the group.  A p shift past either end of a
    row lands on the neighbouring row, so the taps that would cross there
    (-2 in columns 0 and 1, -1 in column 0, +1 in column n_p-1, +2 in
    columns n_p-2 and n_p-1, and the diagonal taps of columns 0 and n_p-1 on
    their outer side) have weight zero: the zero-inflow boundary in p, the
    same sum the ghost zeros would give.  ``step`` reads one buffer and
    writes the interior of the other, so the ghost rows of zeros stay zero,
    and the two swap every step.
    """

    def __init__(
        self,
        geom: GridGeometry,
        cfg: OscillatorConfig,
        d: DiffusionCoefficients,
        h: float,
        mirror: bool = False,
    ) -> None:
        nq, npp = geom.n_q, geom.n_p
        dq, dp = geom.dq, geom.dp
        rows = (nq + 1) // 2 if mirror else nq
        n_cells = rows * npp
        self.h = h
        self.rows = rows
        # Taps -2, -1, 0, +1, +2 rows along q, then -2, -1, +1, +2 along p.
        table = np.zeros((9, rows, npp))
        q = geom.q_centers()[:rows]
        p = geom.p_centers()
        q_faces = geom.q_min + dq * np.arange(rows + 1)
        p_faces = geom.p_min + dp * np.arange(npp + 1)
        # v_q on q-faces: shape (rows + 1, n_p)
        vq = q_faces[:, None] * (-(cfg.lam - cfg.mu)) + p[None, :] / cfg.m
        _add_divergence_taps(table[:5], vq, d.d_qq, dq, axis=0)
        # v_p on p-faces: shape (rows, n_p + 1); the centre tap is shared
        vp = -cfg.m * cfg.omega**2 * q[:, None] - (cfg.lam + cfg.mu) * p_faces[None, :]
        _add_divergence_taps([table[k] for k in (5, 6, 2, 7, 8)], vp, d.d_pp, dp, axis=1)
        # the p taps that would read across a row end
        table[5, :, :2] = table[6, :, :1] = table[7, :, -1:] = table[8, :, -2:] = 0.0
        table *= -h
        table[2] += 1.0
        self.q_line = table[:5].reshape(5, n_cells)
        self.p_pairs = table[5:].reshape(2, 2, n_cells)
        self.corners = None
        if d.d_pq != 0.0:
            # one weight per column, the same on every row: (2, 2, 1, n_p)
            # broadcasts over the rows instead of storing one per row
            k = -d.d_pq / (4.0 * dq * dp)
            signs = np.array([[1.0, -1.0], [-1.0, 1.0]])  # rows i-1, i+1; columns j-1, j+1
            self.corners = np.empty((2, 2, 1, npp))
            self.corners[...] = (-h * 2.0 * k * signs)[:, :, None, None]
            # likewise the diagonal taps that would read across a row end
            self.corners[:, 0, 0, 0] = self.corners[:, 1, 0, -1] = 0.0
        self.buffers = (_Buffer(nq, npp, rows), _Buffer(nq, npp, rows))
        self.term = np.empty(n_cells)

    def step(self, w: np.ndarray) -> np.ndarray:
        """Advance the grid by one step and return its first ``rows`` rows.

        ``w`` holds the grid's first ``rows`` rows or more; the rest follow
        from them.  The result is the interior of one of the stepper's
        buffers, which the call after next overwrites; passing it back in
        saves copying it.
        """
        src, dst = self.buffers
        if w is not src.w:
            src.w[...] = w[: self.rows]
            src.reflect()
        rows, term = dst.rows, self.term
        # order="F" puts the tap axis innermost, so einsum accumulates each
        # cell's taps in one sweep: on NumPy 2.4 a 5-tap group at 256^2 takes
        # about 0.27 ms this way against 0.6 ms (q) and 1.2 ms (p) in "C",
        # which sweeps the grid once per tap; "K" matches "F" only for the
        # q line, whose taps are a whole row apart.
        np.einsum("kx,kx->x", self.q_line, src.q_cells, out=rows, order="F")
        np.einsum("abx,abx->x", self.p_pairs, src.p_cells, out=term, order="F")
        rows += term
        if self.corners is not None:
            # the broadcast weights have no tap-major layout to exploit: here
            # "K" is fastest (about 0.28 ms at 256^2 against 1.1 ms in "F")
            np.einsum(
                "abij,abij->ij", self.corners, src.corner_cells,
                out=term.reshape(dst.w.shape), order="K",
            )
            rows += term
        dst.reflect()
        self.buffers = dst, src
        return dst.w


class _Buffer:
    """One of ``_Stepper``'s two grids: ``padded`` holds two ghost rows
    above and below the interior ``w``, the first ``rows`` of the ``n_q``
    rows of ``n_p`` cells, which ``rows`` flattens; the ``*_cells`` are
    read-only views of ``padded`` with one leading axis per tap group (see
    ``_Stepper``).  The ghost rows hold zeros, except that with ``rows <
    n_q`` (a centrally symmetric grid) ``reflect`` fills the lower ones."""

    def __init__(self, nq: int, npp: int, rows: int) -> None:
        self.padded = np.zeros((rows + 4, npp))
        # grid row g past the interior is row n_q - 1 - g reversed, or zero
        # past the grid; padded row g + 2 holds grid row g
        self.mirrored = [(g + 2, nq - 1 - g) for g in (rows, rows + 1) if g < nq]
        # an odd n_q has its middle row, q = 0, in the interior: its p > 0
        # half mirrors its p < 0 half
        self.middle = self.padded[rows + 1] if rows < nq and nq % 2 else None
        flat = self.padded.ravel()
        start = 2 * npp  # the first interior cell

        def cells(first: int, strides: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
            """Read-only view of the buffer from the cell ``first`` after the
            first interior one, with strides counted in cells."""
            return as_strided(
                flat[start + first :],
                shape=shape,
                strides=tuple(flat.itemsize * s for s in strides),
                writeable=False,
            )

        self.w = self.padded[2:-2]
        self.rows = self.w.reshape(-1)
        self.q_cells = cells(-2 * npp, (npp, 1), (5, rows * npp))
        self.p_cells = cells(-2, (3, 1, 1), (2, 2, rows * npp))
        self.corner_cells = cells(-npp - 1, (2 * npp, 2, npp, 1), (2, 2, rows, npp))

    def reflect(self) -> None:
        """Fill the mirrored ghost rows, and the p > 0 half of an odd grid's
        middle row, from the interior by central symmetry, W(q, p) =
        W(-q, -p); a no-op when the interior is the whole grid."""
        for ghost, row in self.mirrored:
            self.padded[ghost] = self.w[row, ::-1]
        if self.middle is not None:
            half = len(self.middle) // 2
            self.middle[-half:] = self.middle[half - 1 :: -1]


def _add_divergence_taps(
    taps: Sequence[np.ndarray], v: np.ndarray, diff: float, dx: float, axis: int
) -> None:
    """Add the divergence of ``_face_coefficients``' face flux along
    ``axis`` to the five interior ``taps`` (shifts -2..+2 cells): tap s gets
    weight s-1 of each cell's high face minus weight s of its low face."""
    low = (slice(None),) * axis + (slice(None, -1),)
    high = (slice(None),) * axis + (slice(1, None),)
    previous = None
    for tap, weight in zip(taps, chain(_face_coefficients(v, diff, dx), [None])):
        if previous is not None:
            tap += previous[high]
        if weight is not None:
            tap -= weight[low]
        previous = weight


def _face_coefficients(v: np.ndarray, diff: float, dx: float) -> Iterator[np.ndarray]:
    """The stencil weights a, b, c, e of ``_Stepper``'s face flux for face
    velocities ``v`` (the kappa = 1/3 upwind-biased face value times ``v``,
    plus the centered diffusive flux, over ``dx``), each of the shape of
    ``v``, one at a time.  At each face one of ``up`` and ``down`` is zero,
    so the velocity ``-v`` gives the weights ``-e, -c, -b, -a`` of ``v`` bit
    for bit: the step commutes with the reflection of ``run_fpe``'s half
    path."""
    up = np.maximum(v, 0.0)
    down = np.minimum(v, 0.0)
    g = diff / dx
    yield -up / (6.0 * dx)
    yield (5.0 / 6.0 * up + down / 3.0 + g) / dx
    yield (up / 3.0 + 5.0 / 6.0 * down - g) / dx
    yield -down / (6.0 * dx)


@dataclass(frozen=True)
class FpeResult:
    """Outcome of a grid run: final grid, optional snapshots, and telemetry.

    ``min_value`` is the smallest cell value seen at any step (a positivity
    diagnostic); ``mass_*`` use the Riemann cell sum.
    """

    final: PhaseSpaceGrid
    snapshots: tuple[tuple[float, PhaseSpaceGrid], ...]
    dt: float
    steps: int
    t_end: float
    mass_initial: float
    mass_final: float
    min_value: float

    def summary(self) -> dict:
        g = self.final.geom
        return {
            "t_end": self.t_end,
            "dt": self.dt,
            "steps": self.steps,
            "boundary": "zero-inflow",
            "mass_initial": self.mass_initial,
            "mass_final": self.mass_final,
            "mass_drift": self.mass_final - self.mass_initial,
            "min_value": self.min_value,
            "q_min": g.q_min,
            "q_max": g.q_max,
            "p_min": g.p_min,
            "p_max": g.p_max,
            "n_q": g.n_q,
            "n_p": g.n_p,
            "snapshot_times": [t for t, _ in self.snapshots],
        }


def run_fpe(
    w0: PhaseSpaceGrid,
    cfg: OscillatorConfig,
    d: DiffusionCoefficients,
    run: FpeRunSpec,
) -> FpeResult:
    """Integrate the transport equation from ``w0`` to ``run.t_end``.

    On a box symmetric about the origin the equation keeps central symmetry,
    W(q, p) = W(-q, -p): its drift is linear without a constant term and its
    diffusion constant.  So where ``w0`` equals its reflection
    ``values[::-1, ::-1]`` bit for bit, as a Gaussian centred at 0 renders
    (``GridGeometry.q_centers``), the run steps only the first
    ``ceil(n_q/2)`` rows (``_Stepper``) and fills in the rest by reflection;
    the grids it returns equal their reflections bit for bit.  Every other
    input steps every row.

    Raises ``ValueError`` for an unnormalized or non-finite initial grid
    (|mass - 1| > 1e-3, or a NaN or infinite mass), a ``run.dt`` above
    ``stable_dt`` or a step count ``t_end / dt`` that is not finite, and
    ``NumericError`` (with the offending step index) if
    the solution stops being finite mid-run.
    """
    geom = w0.geom
    mass0 = w0.mass()
    if not abs(mass0 - 1.0) <= _MASS_TOL:  # also rejects a NaN mass
        raise ValueError(
            f"initial grid mass {mass0:.6g} deviates from 1 by more than {_MASS_TOL}"
        )
    dt = stable_dt(geom, cfg, d)
    if run.dt is not None:
        if run.dt > dt * (1.0 + 1e-12):
            raise ValueError(
                f"dt={run.dt:.6g} exceeds the stable step {dt:.6g} of this grid"
            )
        dt = run.dt
    if not math.isfinite(run.t_end / dt):
        raise ValueError(
            f"t_end / dt = {run.t_end!r} / {dt:.6g} is not a finite step count"
        )

    events = sorted(set(run.snapshot_times) | {run.t_end})
    if events and events[0] <= 0.0:  # t_end == 0: nothing to do
        events = [t for t in events if t > 0.0]

    w = w0.values  # read only: the stepper copies it into its own buffer
    mirror = (
        geom.q_min == -geom.q_max
        and geom.p_min == -geom.p_max
        and np.array_equal(w, w[::-1, ::-1])
    )
    min_value = float(w.min())
    snapshots: list[tuple[float, PhaseSpaceGrid]] = []
    steps = 0
    t_cur = 0.0
    for t_event in events:
        span = t_event - t_cur
        n = max(1, math.ceil(span / dt - 1e-12))
        h = span / n
        stepper = None  # free the last segment's table before building this one's
        stepper = _Stepper(geom, cfg, d, h, mirror)
        # an unstable run overflows before the finite check trips; keep numpy
        # quiet about it so the NumericError below is the only signal
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, n + 1):
                w = stepper.step(w)
                steps += 1
                lo = float(w.min())
                if not (math.isfinite(lo) and math.isfinite(float(w.max()))):
                    raise NumericError(
                        f"non-finite grid value at step {steps} (t ~ {t_cur + k * h:.6g})",
                        step=steps,
                    )
                if lo < min_value:
                    min_value = lo
        t_cur = t_event
        if t_event in run.snapshot_times:
            snapshots.append((t_event, _unfold(w, geom)))
    final = _unfold(w, geom)
    return FpeResult(
        final=final,
        snapshots=tuple(snapshots),
        dt=dt,
        steps=steps,
        t_end=run.t_end,
        mass_initial=mass0,
        mass_final=final.mass(),
        min_value=min_value,
    )


def _unfold(w: np.ndarray, geom: GridGeometry) -> PhaseSpaceGrid:
    """A new grid from the first rows ``w`` of a run's grid: all of them, or
    the first ``ceil(n_q/2)`` of a centrally symmetric one, whose others are
    those reflected."""
    return PhaseSpaceGrid(geom, np.concatenate((w, w[: geom.n_q - len(w)][::-1, ::-1])))


def grid_moments(grid: PhaseSpaceGrid, t: float = 0.0) -> GaussianState:
    """Riemann-sum means and second central moments of a phase-space grid,
    normalized by the grid's own mass, packaged as a Gaussian state at time
    ``t`` for comparison against the moment propagators."""
    geom = grid.geom
    w = np.asarray(grid.values, dtype=float)
    q = geom.q_centers()[:, None]
    p = geom.p_centers()[None, :]
    cell = geom.dq * geom.dp
    mass = float(w.sum()) * cell
    if mass <= 0.0:
        raise ValueError("grid mass must be positive to extract moments")
    mean_q = float((w * q).sum()) * cell / mass
    mean_p = float((w * p).sum()) * cell / mass
    dq_ = q - mean_q
    dp_ = p - mean_p
    s_qq = float((w * dq_ * dq_).sum()) * cell / mass
    s_pp = float((w * dp_ * dp_).sum()) * cell / mass
    s_pq = float((w * dq_ * dp_).sum()) * cell / mass
    return GaussianState(
        mean_q=mean_q, mean_p=mean_p, s_qq=s_qq, s_pp=s_pp, s_pq=s_pq, t=t
    )


def _difference(a: PhaseSpaceGrid, b: PhaseSpaceGrid) -> np.ndarray:
    if a.geom != b.geom:
        raise ValueError("grids have different geometries")
    return np.asarray(a.values, dtype=float) - np.asarray(b.values, dtype=float)


def grid_l2_diff(a: PhaseSpaceGrid, b: PhaseSpaceGrid) -> float:
    """L2 distance sqrt(sum (a-b)^2 dq dp) between two grids."""
    diff = _difference(a, b)
    return float(math.sqrt((diff * diff).sum() * a.geom.dq * a.geom.dp))


def grid_linf_diff(a: PhaseSpaceGrid, b: PhaseSpaceGrid) -> float:
    """Largest absolute cell difference between two grids."""
    return float(np.abs(_difference(a, b)).max())

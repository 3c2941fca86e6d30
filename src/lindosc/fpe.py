"""Explicit finite-difference solver for the phase-space transport equation
obeyed by the Wigner distribution of the damped oscillator.

The equation is integrated in conservative flux form,

    dW/dt = -d/dq F_q - d/dp F_p,
    F_q = v_q W - d_qq dW/dq - d_pq dW/dp,   v_q = p/m - (lam - mu) q,
    F_p = v_p W - d_pp dW/dp - d_pq dW/dq,   v_p = -m omega^2 q - (lam + mu) p,

which contains all seven generator terms: the two unitary drift terms, the two
friction terms, and the three diffusion terms.  Faces use second-order linear
upwind reconstruction for advection (two-cell stencil on the upwind side) and
centered differences for diffusion; time stepping is forward Euler with
the step ``stable_dt`` (derived there), which is also the largest explicit
step a run accepts.  The boundary is zero-inflow Dirichlet: ghost cells hold
W = 0, so nothing is advected in and diffusion may leak mass out through the
tails (tracked and reported).

The operator is linear and time-invariant, so the upwind choice, the
diffusion terms, the cell widths and the divergence of the two face fluxes
are folded once into a table of per-cell weights, one per neighbour the
update reads: the cell itself, two cells each way along q and along p, and
with cross diffusion the four diagonal neighbours.  Each step evaluates that
table against shifted views of one preallocated padded grid (``_Stepper``).

This solver is deliberately independent of the closed-form machinery in
``propagate``/``states`` so the two can be compared as oracles.
"""

from __future__ import annotations

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
    linear-upwind advection multiplies it by

        -(v/dx) (1.5 - 2 e^{-i theta} + 0.5 e^{-2 i theta})
            = -(v/dx) (i theta + i theta^3/3 + theta^4/4 + ...),

    and centered diffusion by ``-(4 D/dx^2) sin^2(theta/2)``; a step
    multiplies it by ``g = 1 + dt`` times the sum over both axes, and is
    stable while ``|g| <= 1`` for every mode.  That gives two conditions.

    * Sawtooth: at the odd-even mode (``theta = pi`` on both axes) each
      advection factor is ``-4 v/dx`` and each diffusion factor
      ``-4 D/dx^2``, all real, so they add: ``g = 1 - 4 dt S`` with
      ``S = v_q/dq + v_p/dp + D_qq/dq^2 + D_pp/dp^2``, and ``|g| <= 1``
      needs ``dt <= 0.5 / S``.
    * Long-wave guard: for small ``theta`` along one axis, with Courant
      number ``c = v dt/dx``, ``|g|^2 = 1 + (c^2 - 2 dt D/dx^2) theta^2 +
      O(theta^4)``, so the long waves do not grow while ``dt <= 2 D / v^2``.
      An axis without diffusion has no such guard: its long waves grow by at
      most about ``c^3/4`` per step, negligible for the short runs this
      solver targets.

    The textbook per-axis limits ``dx / v`` and ``dx^2 / (2 D)`` of one rate
    alone need no term of their own: ``S`` holds every rate, so the sawtooth
    term never exceeds them.

    The step is half the smallest of these terms.  The factor 1/2 is the
    margin for what the analysis leaves out: coefficients that vary over
    the grid, the cross-diffusion taps and the zero-inflow boundary.
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
    """Per-cell tap table, precomputed, and one forward-Euler update.

    Grid layout: ``values[i, j] = W(q_i, p_j)`` with q along axis 0.  Faces in
    q sit at ``q_min + k*dq`` (k = 0..n_q).  The operator is linear and
    time-invariant, so the flux through face f, divided by the cell width,
    is a fixed four-cell stencil along the face normal (``_face_coefficients``),

        F_f / dx = a W[f-2] + b W[f-1] + c W[f] + e W[f+1],
        a = -v+ / (2 dx),  b = (1.5 v+ + D/dx) / dx,
        c = (1.5 v- - D/dx) / dx,  e = -v- / (2 dx),

    with v+ = max(v, 0) and v- = min(v, 0): the two-cell linear-upwind
    extrapolation from the side the face velocity blows from, plus the
    centered diffusive flux.  Face f lies on the low side of cell f, so the
    divergence ``F[x+1] - F[x]`` of cell x along one axis is a five-cell
    stencil.  Its tap on cell x+s is the weight with which the high face
    reads that cell minus the weight with which the low face reads it:

        s = -2: -a[x]          s = -1: a[x+1] - b[x]     s = 0: b[x+1] - c[x]
        s = +1: c[x+1] - e[x]  s = +2: e[x+1]

    The q and p stencils share the tap on the cell itself: nine taps.  With
    cross diffusion each face flux adds ``-d_pq dW/d(other axis)``, the
    centered cell derivative averaged over the two cells beside the face.
    In the divergence its terms on the four side neighbours cancel, and each
    axis leaves the same four diagonal taps, ``k (W[i+1, j+1] - W[i+1, j-1]
    - W[i-1, j+1] + W[i-1, j-1])`` with ``k = -d_pq / (4 dq dp)``.

    The table is built once, here, and its weights are zero in the ghost
    columns.  ``step`` works in one preallocated grid padded by two ghost
    cells of zeros on each side (the zero-inflow boundary).  On the
    flattened padded grid each tap is a fixed shift, by one padded row per q
    cell and by one element per p cell, so a group of taps is one read-only
    strided view and one ``np.einsum`` call sums weight times cell over the
    group.  The zero weights keep the divergence in the ghost columns, and
    so the ghost cells, zero.
    """

    def __init__(
        self,
        geom: GridGeometry,
        cfg: OscillatorConfig,
        d: DiffusionCoefficients,
    ) -> None:
        nq, npp = geom.n_q, geom.n_p
        dq, dp = geom.dq, geom.dp
        row = npp + 4
        self.padded = np.zeros((nq + 4, row))
        self.w = self.padded[2:-2, 2:-2]
        flat = self.padded.ravel()
        # The update covers padded rows 2..n_q+1, ghost columns included.
        start, n_cells = 2 * row, nq * row
        self.rows = flat[start : start + n_cells]

        def cells(first: int, strides: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
            """Read-only view of the padded grid from the cell ``first``
            after the first updated one, with strides counted in cells."""
            return as_strided(
                flat[start + first :],
                shape=shape,
                strides=tuple(flat.itemsize * s for s in strides),
                writeable=False,
            )

        # Taps -2, -1, 0, +1, +2 rows along q, then -2, -1, +1, +2 along p.
        table = np.zeros((9, nq, row))
        taps = table[:, :, 2:-2]  # the ghost columns keep weight zero
        q = geom.q_centers()
        p = geom.p_centers()
        q_faces = geom.q_min + dq * np.arange(nq + 1)
        p_faces = geom.p_min + dp * np.arange(npp + 1)
        # v_q on q-faces: shape (n_q + 1, n_p)
        vq = q_faces[:, None] * (-(cfg.lam - cfg.mu)) + p[None, :] / cfg.m
        _add_divergence_taps(taps[:5], vq, d.d_qq, dq, axis=0)
        # v_p on p-faces: shape (n_q, n_p + 1); the centre tap is shared
        vp = -cfg.m * cfg.omega**2 * q[:, None] - (cfg.lam + cfg.mu) * p_faces[None, :]
        _add_divergence_taps([taps[k] for k in (5, 6, 2, 7, 8)], vp, d.d_pp, dp, axis=1)
        self.q_line = table[:5].reshape(5, n_cells)
        self.q_cells = cells(-2 * row, (row, 1), (5, n_cells))
        self.p_pairs = table[5:].reshape(2, 2, n_cells)
        self.p_cells = cells(-2, (3, 1, 1), (2, 2, n_cells))
        self.corners = None
        if d.d_pq != 0.0:
            # one weight per column, the same on every row: (2, 2, 1, row)
            # broadcasts over the rows instead of storing n_q copies
            k = -d.d_pq / (4.0 * dq * dp)
            self.corners = np.zeros((2, 2, 1, row))
            signs = np.array([[1.0, -1.0], [-1.0, 1.0]])  # rows i-1, i+1; columns j-1, j+1
            self.corners[:, :, 0, 2:-2] = (2.0 * k * signs)[:, :, None]
            self.corner_cells = cells(-row - 1, (2 * row, 2, row, 1), (2, 2, nq, row))
        self.div = np.empty(n_cells)
        self.term = np.empty(n_cells)

    def step(self, w: np.ndarray, dt: float) -> np.ndarray:
        """Advance ``w`` by ``dt`` and return the new grid.

        The result is a view of the stepper's padded grid, which the next
        call overwrites; passing it back in saves copying it.
        """
        if w is not self.w:
            self.w[...] = w
        div, term = self.div, self.term
        # order="F" puts the tap axis innermost, so einsum accumulates each
        # cell's taps in one sweep: on NumPy 2.4 a 5-tap group at 256^2 takes
        # about 0.27 ms this way against 0.6 ms (q) and 1.2 ms (p) in "C",
        # which sweeps the grid once per tap; "K" matches "F" only for the
        # q line, whose taps are a whole row apart.
        np.einsum("kx,kx->x", self.q_line, self.q_cells, out=div, order="F")
        np.einsum("abx,abx->x", self.p_pairs, self.p_cells, out=term, order="F")
        div += term
        if self.corners is not None:
            # the broadcast weights have no tap-major layout to exploit: here
            # "K" is fastest (about 0.28 ms at 256^2 against 1.1 ms in "F")
            np.einsum(
                "abij,abij->ij", self.corners, self.corner_cells,
                out=term.reshape(self.corner_cells.shape[2:]), order="K",
            )
            div += term
        div *= dt
        self.rows -= div
        return self.w


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
    velocities ``v``, each of the shape of ``v``, one at a time so that the
    four are never held at once."""
    v_side = np.maximum(v, 0.0)
    g = diff / dx
    yield -v_side / (2.0 * dx)
    yield (1.5 * v_side + g) / dx
    v_side = np.minimum(v, 0.0, out=v_side)
    yield (1.5 * v_side - g) / dx
    yield -v_side / (2.0 * dx)


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

    stepper = _Stepper(geom, cfg, d)
    w = w0.values  # read only: the stepper copies it into its own buffer
    min_value = float(w.min())
    snapshots: list[tuple[float, PhaseSpaceGrid]] = []
    steps = 0
    t_cur = 0.0
    for t_event in events:
        span = t_event - t_cur
        n = max(1, math.ceil(span / dt - 1e-12))
        h = span / n
        # an unstable run overflows before the finite check trips; keep numpy
        # quiet about it so the NumericError below is the only signal
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, n + 1):
                w = stepper.step(w, h)
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
            snapshots.append((t_event, PhaseSpaceGrid(geom, w.copy())))
    final = PhaseSpaceGrid(geom, w.copy())
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

"""Deterministic two-sided Wiener increment generation.

Increments are the stored primitive. Each fine-cell increment is a pure
function of (seed, path_index, component, absolute cell index): a Philox
counter-based stream is keyed per (seed, path_index, component, grid mode)
and indexed by the absolute cell position, so extending the window (larger
pull-back times) or changing the generation order never disturbs existing
values. Gaussians come from one uniform per cell via the inverse normal CDF.

Two grid modes:
  * dyadic: cell width 2^-L; supports coarse/fine coupling, every coarse
    Brownian increment is the exact partial sum of fine increments.
  * uniform: arbitrary cell width dt (e.g. 0.1); no refinement, used for the
    qualitative fixed-stepsize experiments.

`grid_steps` is the one place where a time becomes a whole number of cells;
a grid keeps its first absolute cell, so a Wiener shift is an index offset.
`ensemble_increments` turns a seed and a range of path indices into the
(paths, steps, m) increment array that every batched estimator consumes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "WienerGrid",
    "WindowError",
    "grid_steps",
    "generate",
    "generate_uniform",
    "coarse_increment",
    "ensemble_increments",
]

# Cell positions are offset by 2^62 blocks-worth of draws so that negative
# absolute indices (pull-back windows) map to valid Philox counters.
_POSITION_OFFSET = 1 << 62


class WindowError(ValueError):
    """Requested cells are misaligned or fall outside the generated window."""


def grid_steps(t: float, h: float, name: str) -> int:
    """The whole number of cells of width h in t; `name` says what t is.

    t must lie on the grid to within 1e-9 * max(1, |t|).
    """
    n = round(t / h)
    if abs(n * h - t) > 1e-9 * max(1.0, abs(t)):
        raise WindowError(
            f"{name} must be grid-aligned: {t} is not a multiple of the stepsize {h}"
        )
    return n


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _stream_key(seed: int, path_index: int, component: int, mode_salt: int):
    k0 = _mix64(seed & 0xFFFFFFFFFFFFFFFF)
    k1 = _mix64(k0 ^ _mix64(path_index) ^ _mix64(component + 0x1000) ^ _mix64(mode_salt))
    return [k0, k1]


def _raw_normals(seed, path_index, component, mode_salt, first_cell, n_cells):
    """Standard normal draws for absolute cells [first_cell, first_cell + n_cells)."""
    p0 = first_cell + _POSITION_OFFSET
    if p0 < 0:
        raise WindowError("cell index below supported range")
    b0, lane0 = divmod(p0, 4)
    n_blocks = (p0 + n_cells - b0 * 4 + 3) // 4
    bg = np.random.Philox(
        key=_stream_key(seed, path_index, component, mode_salt),
        counter=[b0 & 0xFFFFFFFFFFFFFFFF, b0 >> 64, 0, 0],
    )
    raw = bg.random_raw(n_blocks * 4)[lane0 : lane0 + n_cells]
    # strictly inside (0, 1) so ndtri stays finite
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53)
    return ndtri(u)


def _cell_salt(fine_level, cell_width):
    # distinct streams for distinct grid resolutions
    if fine_level is not None:
        return fine_level
    return 0x5A5A0000 ^ struct.unpack("<Q", struct.pack("<d", cell_width))[0] & 0xFFFFFFFF


@dataclass(frozen=True)
class WienerGrid:
    """Seeded two-sided Brownian increments over one window.

    Immutable; `increments` has shape (n_cells, noise_dim), row j holding
    absolute cell i = first_cell + j, which covers [i*h, (i+1)*h], h = cell_width.
    """

    seed: int
    path_index: int
    noise_dim: int
    cell_width: float
    first_cell: int
    increments: np.ndarray
    fine_level: int | None = None

    @property
    def n_cells(self) -> int:
        return self.increments.shape[0]

    def step_increments(self, t_start: float, n_steps: int, dt: float) -> np.ndarray:
        """Brownian increments over n_steps consecutive cells of width dt.

        dt must be an integer multiple of the fine cell width; each coarse
        increment is the exact sum of the fine increments it spans.
        """
        h = self.cell_width
        q = grid_steps(dt, h, "dt")
        if q < 1:
            raise WindowError(f"dt {dt} is below the cell width {h}")
        j0 = grid_steps(t_start, h, "t_start") - self.first_cell
        j1 = j0 + n_steps * q
        if j0 < 0 or j1 > self.n_cells:
            raise WindowError(
                f"cells [{t_start}, {t_start + n_steps * dt}] outside window "
                f"[{self.first_cell * h}, {(self.first_cell + self.n_cells) * h}]"
            )
        fine = self.increments[j0:j1]
        if q == 1:
            return fine
        if q & (q - 1) == 0:
            # pairwise tree fold: the sum over a cell is bit-for-bit the sum
            # of its two half-cell sums, so dyadic coarsening telescopes
            # exactly across every level
            out = fine
            while out.shape[0] > n_steps:
                out = out.reshape(-1, 2, self.noise_dim).sum(axis=1)
            return out
        return fine.reshape(n_steps, q, self.noise_dim).sum(axis=1)


def generate(
    seed: int,
    path_index: int,
    fine_level: int,
    window: tuple[float, float],
    noise_dim: int,
) -> WienerGrid:
    """Dyadic grid: fine cells of width 2^-fine_level over the window."""
    if not (0 <= fine_level <= 30):
        raise WindowError(f"fine_level must be in [0, 30], got {fine_level}")
    h = 2.0**-fine_level
    return _generate(seed, path_index, h, window, noise_dim, fine_level)


def generate_uniform(
    seed: int,
    path_index: int,
    dt: float,
    window: tuple[float, float],
    noise_dim: int,
) -> WienerGrid:
    """Uniform grid with cell width dt; no coarse/fine refinement available."""
    if dt <= 0.0:
        raise WindowError("dt must be positive")
    return _generate(seed, path_index, dt, window, noise_dim, None)


def ensemble_increments(
    seed: int,
    paths,
    window: tuple[float, float],
    noise_dim: int,
    dt: float,
    fine_level: int | None = None,
) -> np.ndarray:
    """Step increments of width dt over the window, one row per path index.

    Returns shape (len(paths), n_steps, noise_dim). Row i is path paths[i]
    on a uniform grid of width dt, or on the dyadic grid 2^-fine_level
    summed to width dt; each row depends only on its own path index, so
    any split of the paths into chunks gives the same rows.
    """
    n = grid_steps(window[1] - window[0], dt, f"window {window} length")
    out = np.empty((len(paths), n, noise_dim))
    for row, p in enumerate(paths):
        if fine_level is None:
            grid = generate_uniform(seed, p, dt, window, noise_dim)
        else:
            grid = generate(seed, p, fine_level, window, noise_dim)
        out[row] = grid.step_increments(window[0], n, dt)
    return out


def _generate(seed, path_index, h, window, noise_dim, fine_level):
    i0 = grid_steps(window[0], h, "window start")
    i1 = grid_steps(window[1], h, "window end")
    if i1 <= i0:
        raise WindowError(f"window {window} must have positive length")
    if noise_dim < 1:
        raise WindowError("noise_dim must be >= 1")
    n = i1 - i0
    salt = _cell_salt(fine_level, h)
    scale = np.sqrt(h)
    incs = np.empty((n, noise_dim))
    for comp in range(noise_dim):
        incs[:, comp] = scale * _raw_normals(seed, path_index, comp, salt, i0, n)
    incs.setflags(write=False)
    return WienerGrid(
        seed=seed,
        path_index=path_index,
        noise_dim=noise_dim,
        cell_width=h,
        first_cell=i0,
        increments=incs,
        fine_level=fine_level,
    )


def coarse_increment(grid: WienerGrid, coarse_level: int, cell_index: int) -> np.ndarray:
    """Brownian increment over coarse cell [i*2^-c, (i+1)*2^-c] as exact fine sums."""
    if grid.fine_level is None:
        raise WindowError("coarse_increment requires a dyadic grid")
    if coarse_level > grid.fine_level:
        raise WindowError(
            f"coarse_level {coarse_level} exceeds fine_level {grid.fine_level}"
        )
    dt = 2.0**-coarse_level
    return grid.step_increments(cell_index * dt, 1, dt)[0]


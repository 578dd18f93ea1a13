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
from there on a window is a first absolute cell and a cell count, so a
Wiener shift is an index offset. `ensemble_increments` turns a seed, a range
of path indices and such a window into the time-first (cells, paths, m)
array that every batched estimator consumes, and `tree_fold` sums fine
steps into coarse ones along the time axis by a pairwise tree.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "WienerGrid",
    "grid_steps",
    "generate",
    "generate_uniform",
    "ensemble_increments",
    "tree_fold",
]

# Cell positions are offset by 2^62 blocks-worth of draws so that negative
# absolute indices (pull-back windows) map to valid Philox counters.
_POSITION_OFFSET = 1 << 62
_MASK64 = 0xFFFFFFFFFFFFFFFF


def grid_steps(t: float, h: float, name: str) -> int:
    """The whole number of cells of width h in t; `name` says what t is.

    t must be finite, lie on the grid to within 1e-9 * max(1, |t|) and span
    fewer than 2^62 cells, the range of `_POSITION_OFFSET`.
    """
    if not math.isfinite(t):
        raise ValueError(f"{name} must be finite, got {t}")
    steps = t / h
    if not abs(steps) < _POSITION_OFFSET:
        raise ValueError(
            f"{name} = {t} spans {steps:.3g} steps of {h}; a run takes fewer than 2^62"
        )
    n = round(steps)
    if abs(n * h - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(
            f"{name} must be grid-aligned: {t} is not a multiple of the stepsize {h}"
        )
    return n


def _mix64(z):
    """splitmix64 finalizer of a Python int, or of each word of a np.uint64 array."""
    with np.errstate(over="ignore"):
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def _stream_key(seed: int, path_index, component: int, mode_salt: int) -> np.ndarray:
    """Philox key words, shape np.shape(path_index) + (2,), of (seed, path, component, grid).

    k0 = mix(seed), k1 = mix(k0 ^ mix(path_index) ^ mix(component + 0x1000) ^ mix(mode_salt)),
    as Philox has always received them: through `np.asarray([k0, k1])`, which
    is float64 when exactly one word is >= 2^63, so both words of those rows
    (about half the streams) lose their low 11 bits. Every increment is
    defined by these words, so those rows go through the same conversion.
    """
    k0 = _mix64(seed)
    paths = np.asarray(path_index, dtype=np.int64).astype(np.uint64)
    k1 = _mix64(_mix64(paths) ^ np.uint64(k0 ^ _mix64(component + 0x1000) ^ _mix64(mode_salt)))
    keys = np.stack([np.full_like(k1, k0), k1], axis=-1)
    rounded = (k1 >> 63) != k0 >> 63
    keys[rounded] = keys[rounded].astype(np.float64).astype(np.uint64)
    return keys


# raw Philox words turned into normals in one pass: a few hundred short
# streams at once, or a single long one
_CHUNK_WORDS = 1 << 16


def _fill(seed, mode_salt, h, i0, paths, out):
    """Write sqrt(h) * N(0, 1) per cell into the time-first out, (n, len(paths), m).

    out[j, i] is cell i0 + j of path paths[i], from the streams of one seed
    and grid. The first Philox block and lane are found once, and the keys
    of a component in one vector pass. Each (path, component) stream then
    sets the key of one reused Philox instead of constructing a generator,
    and the words of a chunk of streams become normals in one pass.
    """
    n, _, m = out.shape
    p0 = i0 + _POSITION_OFFSET
    if p0 < 0:
        raise ValueError("cell index below supported range")
    b0, lane0 = divmod(p0, 4)
    n_raw = 4 * ((p0 + n - b0 * 4 + 3) // 4)
    scale = np.sqrt(h)
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    state["state"]["counter"] = [b0 & _MASK64, b0 >> 64, 0, 0]
    state["buffer_pos"] = 4  # empty buffer, as in a new generator
    keys = [_stream_key(seed, paths, comp, mode_salt) for comp in range(m)]
    rows = max(1, _CHUNK_WORDS // (m * n_raw))
    raw = np.empty((min(rows, len(paths)), m, n_raw), dtype=np.uint64)
    for r0 in range(0, len(paths), rows):
        chunk = paths[r0 : r0 + rows]
        for i in range(len(chunk)):
            for comp in range(m):
                state["state"]["key"] = keys[comp][r0 + i]
                bitgen.state = state
                raw[i, comp] = bitgen.random_raw(n_raw)
        bits = raw[: len(chunk), :, lane0 : lane0 + n] >> np.uint64(11)
        # inside (0, 1) so ndtri stays finite: bits = 2^53 - 1 rounds to 1.0 unclamped
        u = bits.astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        np.minimum(u, 1.0 - 2.0**-53, out=u)
        ndtri(u, out=u)
        np.multiply(scale, u, out=out[:, r0 : r0 + len(chunk)].transpose(1, 2, 0))


def _grid(fine_level, dt):
    """Cell width and stream salt: the dyadic grid 2^-fine_level, else the uniform grid dt."""
    if fine_level is None:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        # distinct streams for distinct grid resolutions
        return dt, 0x5A5A0000 ^ struct.unpack("<Q", struct.pack("<d", dt))[0] & 0xFFFFFFFF
    if not (0 <= fine_level <= 30):
        raise ValueError(f"fine_level must be in [0, 30], got {fine_level}")
    return 2.0**-fine_level, fine_level


@dataclass(frozen=True)
class WienerGrid:
    """Seeded two-sided Brownian increments over one window.

    Immutable; `increments` has shape (n_cells, noise_dim), row j holding
    absolute cell i = first_cell + j, which covers [i*h, (i+1)*h], h = cell_width.
    """

    noise_dim: int
    cell_width: float
    first_cell: int
    increments: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.increments.shape[0]

    def step_increments(self, t_start: float, n_steps: int, dt: float) -> np.ndarray:
        """Brownian increments over n_steps consecutive cells of width dt.

        dt must be a power-of-two multiple of the fine cell width; each coarse
        increment is the exact pairwise sum of the fine increments it spans.
        """
        h = self.cell_width
        q = grid_steps(dt, h, "dt")
        if q < 1:
            raise ValueError(f"dt {dt} is below the cell width {h}")
        j0 = grid_steps(t_start, h, "t_start") - self.first_cell
        j1 = j0 + n_steps * q
        if j0 < 0 or j1 > self.n_cells:
            raise ValueError(
                f"cells [{t_start}, {t_start + n_steps * dt}] outside window "
                f"[{self.first_cell * h}, {(self.first_cell + self.n_cells) * h}]"
            )
        return tree_fold(self.increments[j0:j1], q)


def tree_fold(increments: np.ndarray, q: int) -> np.ndarray:
    """Sum each run of q consecutive steps of the leading time axis: (n * q, ...) -> (n, ...).

    q must be a power of two. The sum is a pairwise tree: the sum over a cell
    is bit for bit the sum of its two half-cell sums, so dyadic coarsening
    telescopes exactly across every level, and folding level by level gives
    the bits of folding at once.
    """
    if q < 1 or q & (q - 1):
        raise ValueError(f"fold ratio must be a power of two, got {q}")
    rest = increments.shape[1:]
    while q > 1:
        increments = increments.reshape(-1, 2, *rest).sum(axis=1)
        q //= 2
    return increments


def generate(
    seed: int,
    path_index: int,
    fine_level: int,
    window: tuple[float, float],
    noise_dim: int,
) -> WienerGrid:
    """Dyadic grid: fine cells of width 2^-fine_level over the window."""
    return _generate(seed, path_index, fine_level, None, window, noise_dim)


def generate_uniform(
    seed: int,
    path_index: int,
    dt: float,
    window: tuple[float, float],
    noise_dim: int,
) -> WienerGrid:
    """Uniform grid with cell width dt; no coarse/fine refinement available."""
    return _generate(seed, path_index, None, dt, window, noise_dim)


def _generate(seed, path_index, fine_level, dt, window, noise_dim):
    h = _grid(fine_level, dt)[0]
    i0 = grid_steps(window[0], h, "window start")
    n = grid_steps(window[1], h, "window end") - i0
    if n <= 0:
        raise ValueError(f"window {window} must have positive length")
    incs = ensemble_increments(seed, [path_index], i0, n, noise_dim, h, fine_level)[:, 0]
    incs.setflags(write=False)
    return WienerGrid(noise_dim=noise_dim, cell_width=h, first_cell=i0, increments=incs)


def ensemble_increments(
    seed: int,
    paths,
    first_cell: int,
    n_cells: int,
    noise_dim: int,
    dt: float,
    fine_level: int | None = None,
) -> np.ndarray:
    """Increments of n_cells cells of width dt from absolute cell first_cell, for each path index.

    Returns the C-contiguous (n_cells, len(paths), noise_dim) array whose
    [j, i] is absolute cell first_cell + j of path paths[i], on a uniform
    grid of width dt, or on the dyadic grid 2^-fine_level, whose width dt
    must then be; coarser steps are whole-block `tree_fold`s. A path's
    values depend only on its own index, so any split of the paths into
    chunks gives the same values, and a cell's only on its absolute index,
    so adjacent windows concatenate along the time axis to the joint
    window. No cells give an empty array and draw nothing. One Philox
    generator serves every stream of the call, and the normals are written
    straight into the output. The seed must lie in [0, 2^64).
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    h, salt = _grid(fine_level, dt)
    if h != dt:
        raise ValueError(f"dt {dt} must be the cell width {h}; fold coarser steps with tree_fold")
    if noise_dim < 1:
        raise ValueError("noise_dim must be >= 1")
    if n_cells < 0:
        raise ValueError(f"n_cells must be >= 0, got {n_cells}")
    out = np.empty((n_cells, len(paths), noise_dim))
    if n_cells:
        _fill(seed, salt, h, first_cell, paths, out)
    return out

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtri

from rpsde.noise import (
    WindowError,
    _mix64,
    _stream_key,
    ensemble_increments,
    generate,
    generate_uniform,
    grid_steps,
    tree_fold,
)

# stream salt of the uniform grid dt = 0.01
SALT_DT_001 = 0x1DF4147B


def raw_key(seed, path_index, component, mode_salt):
    """The key words before Philox reads them."""
    k0 = _mix64(seed)
    return [k0, _mix64(k0 ^ _mix64(path_index) ^ _mix64(component + 0x1000) ^ _mix64(mode_salt))]


def coarse_increment(grid, coarse_level, cell_index):
    """Brownian increment over the dyadic cell [i*2^-c, (i+1)*2^-c], as exact fine sums."""
    if grid.fine_level is None:
        raise WindowError("coarse_increment requires a dyadic grid")
    dt = 2.0**-coarse_level
    return grid.step_increments(cell_index * dt, 1, dt)[0]


def increments_one_generator_per_stream(seed, paths, i0, n, dt):
    """Uniform-grid increments of n cells from cell i0, a new Philox built for every stream, m = 1."""
    b0, lane0 = divmod(i0 + (1 << 62), 4)
    salt = 0x5A5A0000 ^ int(np.float64(dt).view(np.uint64)) & 0xFFFFFFFF
    rows = []
    for p in paths:
        bg = np.random.Philox(key=raw_key(seed, p, 0, salt), counter=[b0, 0, 0, 0])
        raw = bg.random_raw(lane0 + n + 4)[lane0 : lane0 + n]
        rows.append(math.sqrt(dt) * ndtri(((raw >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53))
    return np.array(rows).T[..., None]


class TestDeterminism:
    def test_window_extension_preserves_increments(self):
        g1 = generate(123, 0, 5, (-2.0, 0.0), 1)
        g2 = generate(123, 0, 5, (-4.0, 0.0), 1)
        n = g1.n_cells
        assert np.array_equal(g1.increments, g2.increments[-n:])

    def test_regeneration_is_bit_identical(self):
        a = generate(7, 3, 6, (-1.0, 1.0), 2)
        b = generate(7, 3, 6, (-1.0, 1.0), 2)
        assert np.array_equal(a.increments, b.increments)

    def test_distinct_streams_differ(self):
        base = generate(7, 0, 6, (0.0, 1.0), 1)
        assert not np.array_equal(base.increments, generate(8, 0, 6, (0.0, 1.0), 1).increments)
        assert not np.array_equal(base.increments, generate(7, 1, 6, (0.0, 1.0), 1).increments)

    def test_uniform_mode_window_extension(self):
        g1 = generate_uniform(5, 0, 0.1, (-2.0, 0.0), 1)
        g2 = generate_uniform(5, 0, 0.1, (-10.0, 0.0), 1)
        assert np.array_equal(g1.increments, g2.increments[-g1.n_cells :])


class TestStatistics:
    def test_increment_variance_level4(self):
        # 1e5 fine cells at level 4: sample variance within 3% of 2^-4
        g = generate(2024, 0, 4, (0.0, 6250.0), 1)
        assert g.n_cells == 100_000
        var = g.increments.var()
        assert abs(var - 2.0**-4) <= 0.03 * 2.0**-4

    def test_moment_check(self):
        g = generate(99, 0, 8, (0.0, 64.0), 1)
        x = g.increments[:, 0]
        n = x.size
        assert n >= 10_000
        cell = 2.0**-8
        stderr_mean = math.sqrt(cell / n)
        assert abs(x.mean()) <= 4 * stderr_mean
        stderr_var = cell * math.sqrt(2.0 / n)
        assert abs(x.var() - cell) <= 4 * stderr_var

    def test_component_independence(self):
        g = generate(77, 0, 4, (0.0, 6250.0), 2)
        c = np.corrcoef(g.increments[:, 0], g.increments[:, 1])[0, 1]
        assert abs(c) <= 0.01

    def test_path_index_independence(self):
        a = generate(11, 0, 6, (0.0, 160.0), 1).increments[:10_000, 0]
        b = generate(11, 1, 6, (0.0, 160.0), 1).increments[:10_000, 0]
        assert abs(np.corrcoef(a, b)[0, 1]) <= 0.02


class TestCoarsening:
    def test_half_cells_sum_to_full_cell(self):
        g = generate(3, 0, 6, (-1.0, 1.0), 1)
        for i in range(-16, 16):
            full = coarse_increment(g, 5, i)
            halves = coarse_increment(g, 6, 2 * i) + coarse_increment(g, 6, 2 * i + 1)
            assert np.array_equal(full, halves)

    def test_identity_at_fine_level(self):
        g = generate(3, 0, 6, (0.0, 1.0), 1)
        for i in range(0, 64, 7):
            assert np.array_equal(coarse_increment(g, 6, i), g.increments[i])

    def test_full_window_sum(self):
        g = generate(3, 0, 8, (-2.0, 2.0), 1)
        total = g.step_increments(-2.0, 1, 4.0)[0]
        # summation order differs between the tree fold and np.sum
        assert total == pytest.approx(g.increments.sum(), rel=1e-12)

    def test_telescoping_all_levels(self):
        g = generate(17, 0, 8, (0.0, 1.0), 1)
        for c in range(0, 8):
            coarse = g.step_increments(0.0, 2**c, 2.0**-c)
            finer = g.step_increments(0.0, 2 ** (c + 1), 2.0 ** -(c + 1))
            assert np.array_equal(coarse, finer.reshape(2**c, 2, 1).sum(axis=1))

    def test_level_by_level_fold_equals_step_increments(self):
        # two paths of a level-8 grid with two noises, folded to every level
        grids = [generate(17, p, 8, (-1.0, 1.0), 2) for p in range(2)]
        folded = np.stack([g.increments for g in grids], axis=1)
        for lvl in range(8, -1, -1):
            if lvl < 8:
                folded = tree_fold(folded, 2)
            for p, g in enumerate(grids):
                at_once = g.step_increments(-1.0, 2 ** (lvl + 1), 2.0**-lvl)
                assert np.array_equal(folded[:, p], at_once)
                assert np.array_equal(tree_fold(g.increments, 2 ** (8 - lvl)), at_once)

    def test_coarse_increment_requires_dyadic(self):
        g = generate_uniform(3, 0, 0.1, (0.0, 1.0), 1)
        with pytest.raises(WindowError):
            coarse_increment(g, 3, 0)

    def test_out_of_window(self):
        g = generate(3, 0, 4, (0.0, 1.0), 1)
        with pytest.raises(WindowError):
            coarse_increment(g, 4, -1)


class TestGridSteps:
    @pytest.mark.parametrize(
        "t, h, n",
        [
            (-80.0, 0.01, -8000),
            (0.3, 0.1, 3),
            (10.0, 0.1, 100),
            (0.0, 0.25, 0),
            (-4.0, 2.0**-12, -16384),
            (0.75, 2.0**-6, 48),
            (2.0**-6, 2.0**-8, 4),
        ],
    )
    def test_on_grid(self, t, h, n):
        assert grid_steps(t, h, "t") == n

    @pytest.mark.parametrize("t, h", [(0.1, 2.0**-4), (-3.95, 0.1), (0.25, 0.1), (1e-3, 2.0**-5)])
    def test_off_grid_rejected(self, t, h):
        with pytest.raises(WindowError, match="t must be grid-aligned.*multiple of the stepsize"):
            grid_steps(t, h, "t")

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, t):
        # inf used to overflow in round() and nan to fail without naming t
        with pytest.raises(WindowError, match=f"^t must be finite, got {t}$"):
            grid_steps(t, 0.1, "t")


class TestValidation:
    def test_misaligned_window(self):
        with pytest.raises(WindowError):
            generate(0, 0, 2, (0.1, 1.0), 1)

    def test_level_bound(self):
        with pytest.raises(WindowError):
            generate(0, 0, 31, (0.0, 1.0), 1)

    def test_empty_window(self):
        with pytest.raises(WindowError):
            generate(0, 0, 4, (1.0, 1.0), 1)


class TestStreamKey:
    # seed 0 mixes to k0 >= 2^63, so a stream with k1 < 2^63 gives Philox a
    # list it reads through float64; paths 0-2 round, path 3 is exact
    def test_key_words_as_philox_reads_them(self):
        assert SALT_DT_001 == 0x5A5A0000 ^ int(np.float64(0.01).view(np.uint64)) & 0xFFFFFFFF
        sides = set()
        for p in range(4):
            k = raw_key(0, p, 0, SALT_DT_001)
            sides.add(k[1] >> 63)
            words = _stream_key(0, p, 0, SALT_DT_001)
            assert words.dtype == np.uint64
            assert np.array_equal(words, np.asarray(k).astype(np.uint64))
            assert np.array_equal(words, np.random.Philox(key=k).state["state"]["key"])
            exact = np.array(k, dtype=np.uint64)
            assert np.array_equal(words, exact) == (k[1] >> 63 == 1)
        assert sides == {0, 1}

    @pytest.mark.parametrize("seed", [0, 2**64 + 3], ids=["k0-high", "above-2^64-k0-low"])
    def test_vector_keys_equal_philox_state(self, seed):
        paths = np.arange(64)
        keys = _stream_key(seed, paths, 1, SALT_DT_001)
        assert keys.shape == (64, 2) and keys.dtype == np.uint64
        rounded = set()
        for p in paths:
            k = raw_key(seed, int(p), 1, SALT_DT_001)
            rounded.add(k[0] >> 63 != k[1] >> 63)
            assert np.array_equal(keys[p], np.random.Philox(key=k).state["state"]["key"])
        assert rounded == {True, False}

    def test_increments_pinned(self):
        # float.hex of the first two and the last increment per path,
        # recorded when every stream built its own generator
        expected = [
            ("0x1.f2bf8b11bfc1dp-7", "-0x1.eaa575861a55dp-4", "-0x1.ccd78e141d8b0p-6"),
            ("0x1.aa98c1735e310p-5", "-0x1.212364ae6680ap-5", "-0x1.a8f93a76b1de0p-4"),
            ("0x1.8ada57989b5efp-5", "0x1.9048d3d134587p-4", "-0x1.51cf0ef219117p-5"),
            ("0x1.0b9dab9976e58p-3", "0x1.b17319a77710fp-4", "0x1.290f8207fc208p-4"),
        ]
        incs = ensemble_increments(0, range(4), -100, 100, 1, 0.01)[..., 0]
        for p, (first, second, last) in enumerate(expected):
            assert [float(v).hex() for v in incs[[0, 1, -1], p]] == [first, second, last]

    def test_rows_equal_one_generator_per_stream(self):
        # 700 streams of 97 cells span two chunks of the shared generator
        incs = ensemble_increments(0, range(700), -97, 97, 1, 0.01)
        ref = increments_one_generator_per_stream(0, range(700), -97, 97, 0.01)
        assert np.array_equal(incs, ref)


class TestEnsembleIncrements:
    def test_uniform_rows_are_per_path_streams(self):
        incs = ensemble_increments(5, range(4), -4, 6, 2, 0.25)
        assert incs.shape == (6, 4, 2)
        for p in range(4):
            grid = generate_uniform(5, p, 0.25, (-1.0, 0.5), 2)
            assert np.array_equal(incs[:, p], grid.step_increments(-1.0, 6, 0.25))

    def test_dyadic_rows_are_per_path_streams(self):
        # level-6 cells, the block folded to steps of 2^-4 as ms_error folds it
        incs = tree_fold(ensemble_increments(5, range(3), 0, 64, 1, 2.0**-6, fine_level=6), 4)
        assert incs.shape == (16, 3, 1)
        for p in range(3):
            grid = generate(5, p, 6, (0.0, 1.0), 1)
            assert np.array_equal(incs[:, p], grid.step_increments(0.0, 16, 2.0**-4))

    def test_chunk_invariance(self):
        whole = ensemble_increments(9, range(0, 5), -20, 20, 1, 0.1)
        chunk = ensemble_increments(9, range(2, 5), -20, 20, 1, 0.1)
        assert np.array_equal(chunk, whole[:, 2:5])

    @pytest.mark.parametrize(
        "noise_dim, dt, fine_level, split",
        [(1, 0.01, None, -0.37), (1, 2.0**-4, 8, 0.25), (2, 0.05, None, -1.0)],
        ids=["uniform", "dyadic-coarse-dt", "two-noises"],
    )
    def test_adjacent_windows_concatenate(self, noise_dim, dt, fine_level, split):
        # dyadic cells are drawn at the cell width and folded to dt as a block
        h = dt if fine_level is None else 2.0**-fine_level

        def draw(a, b):
            i0 = grid_steps(a, h, "a")
            incs = ensemble_increments(3, range(5), i0, grid_steps(b, h, "b") - i0, noise_dim, h,
                                       fine_level)
            return tree_fold(incs, grid_steps(dt, h, "dt"))

        joint, left, right = draw(-2.0, 1.0), draw(-2.0, split), draw(split, 1.0)
        assert joint.tobytes() == np.concatenate([left, right]).tobytes()

    @pytest.mark.parametrize(
        "noise_dim, dt, fine_level", [(1, 0.01, None), (2, 2.0**-6, 6)], ids=["uniform", "dyadic"]
    )
    def test_time_major_layout(self, noise_dim, dt, fine_level):
        # the stepping loop reads incs[j], one contiguous slab per step
        n = grid_steps(2.0, dt, "window")
        incs = ensemble_increments(3, range(7), -n // 2, n, noise_dim, dt, fine_level)
        assert incs.shape == (n, 7, noise_dim)
        assert incs.flags.c_contiguous
        folded = tree_fold(incs, 4)
        assert folded.flags.c_contiguous
        # the pairwise order does not depend on the layout: the same values
        # stored path by path fold to the same bits
        path_major = np.ascontiguousarray(incs.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert folded.tobytes() == tree_fold(path_major, 4).tobytes()

    @pytest.mark.parametrize("noise_dim", [1, 2])
    def test_out_holds_the_fresh_bits(self, noise_dim):
        fresh = ensemble_increments(3, range(5), -20, 30, noise_dim, 0.05)
        held = np.full((40, 5, noise_dim), np.nan)
        out = held[10:]
        incs = ensemble_increments(3, range(5), -20, 30, noise_dim, 0.05, out=out)
        assert incs is out
        assert held[10:].tobytes() == fresh.tobytes()
        assert np.isnan(held[:10]).all()

    @pytest.mark.parametrize(
        "out",
        [np.empty((29, 5, 1)), np.empty((30, 4, 1)), np.empty((30, 5, 2)), np.empty((5, 30, 1)),
         np.empty((30, 5, 1), dtype=np.float32)],
        ids=["short", "few-paths", "two-noises", "paths-first", "float32"],
    )
    def test_wrong_out_rejected_before_any_draw(self, monkeypatch, out):
        def no_draw(*args):
            raise AssertionError("drew noise")

        monkeypatch.setattr("rpsde.noise._Streams.fill", no_draw)
        with pytest.raises(ValueError, match=r"need float64 \(30, 5, 1\)"):
            ensemble_increments(3, range(5), -20, 30, 1, 0.05, out=out)

    @pytest.mark.parametrize(
        "fine_level, dt", [(None, 0.05), (6, 2.0**-6)], ids=["uniform", "dyadic"]
    )
    def test_no_cells_draw_nothing(self, monkeypatch, fine_level, dt):
        def no_draw(*args):
            raise AssertionError("drew noise")

        monkeypatch.setattr("rpsde.noise._Streams.fill", no_draw)
        for first in (-20, -17, 0, 3):
            incs = ensemble_increments(3, range(5), first, 0, 2, dt, fine_level)
            assert incs.shape == (0, 5, 2) and incs.dtype == np.float64
        with pytest.raises(WindowError, match="n_cells must be >= 0, got -1"):
            ensemble_increments(3, range(5), 0, -1, 2, dt, fine_level)

    def test_dyadic_dt_must_be_the_cell_width(self):
        with pytest.raises(WindowError, match="cell width"):
            ensemble_increments(5, range(3), 0, 64, 1, 2.0**-4, fine_level=6)

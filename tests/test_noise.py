import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtri

from conftest import fresh_interpreter
from rpsde.noise import (
    _fill,
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


def path_increments(seed, path, first_cell, n_cells, m, h, level=None):
    """One path's (n_cells, m) increments from absolute cell first_cell: its column of a draw."""
    return ensemble_increments(seed, [path], first_cell, n_cells, m, h, level)[:, 0]


def coarse_increment(fine, first_cell, fine_level, coarse_level, cell_index):
    """Brownian increment over the dyadic cell [i*2^-c, (i+1)*2^-c], as exact fine sums.

    fine holds one path's cells of width 2^-fine_level from absolute cell first_cell.
    """
    q = 2 ** (fine_level - coarse_level)
    j0 = cell_index * q - first_cell
    assert 0 <= j0 <= len(fine) - q, "cell outside the drawn window"
    return tree_fold(fine[j0 : j0 + q], q)[0]


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
        # the windows (-2, 0) and (-4, 0) at level 5
        g1 = path_increments(123, 0, -64, 64, 1, 2.0**-5, 5)
        g2 = path_increments(123, 0, -128, 128, 1, 2.0**-5, 5)
        assert np.array_equal(g1, g2[-64:])

    def test_regeneration_is_bit_identical(self):
        a = path_increments(7, 3, -64, 128, 2, 2.0**-6, 6)
        b = path_increments(7, 3, -64, 128, 2, 2.0**-6, 6)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        base = path_increments(7, 0, 0, 64, 1, 2.0**-6, 6)
        assert not np.array_equal(base, path_increments(8, 0, 0, 64, 1, 2.0**-6, 6))
        assert not np.array_equal(base, path_increments(7, 1, 0, 64, 1, 2.0**-6, 6))

    def test_uniform_mode_window_extension(self):
        # the windows (-2, 0) and (-10, 0) on the uniform grid 0.1
        g1 = path_increments(5, 0, -20, 20, 1, 0.1)
        g2 = path_increments(5, 0, -100, 100, 1, 0.1)
        assert np.array_equal(g1, g2[-20:])


class TestStatistics:
    def test_increment_variance_level4(self):
        # 1e5 fine cells at level 4: sample variance within 3% of 2^-4
        g = path_increments(2024, 0, 0, 100_000, 1, 2.0**-4, 4)
        var = g.var()
        assert abs(var - 2.0**-4) <= 0.03 * 2.0**-4

    def test_moment_check(self):
        x = path_increments(99, 0, 0, 16_384, 1, 2.0**-8, 8)[:, 0]
        n = x.size
        assert n >= 10_000
        cell = 2.0**-8
        stderr_mean = math.sqrt(cell / n)
        assert abs(x.mean()) <= 4 * stderr_mean
        stderr_var = cell * math.sqrt(2.0 / n)
        assert abs(x.var() - cell) <= 4 * stderr_var

    def test_component_independence(self):
        g = path_increments(77, 0, 0, 100_000, 2, 2.0**-4, 4)
        c = np.corrcoef(g[:, 0], g[:, 1])[0, 1]
        assert abs(c) <= 0.01

    def test_path_index_independence(self):
        a = path_increments(11, 0, 0, 10_240, 1, 2.0**-6, 6)[:10_000, 0]
        b = path_increments(11, 1, 0, 10_240, 1, 2.0**-6, 6)[:10_000, 0]
        assert abs(np.corrcoef(a, b)[0, 1]) <= 0.02


class TestCoarsening:
    def test_half_cells_sum_to_full_cell(self):
        g = path_increments(3, 0, -64, 128, 1, 2.0**-6, 6)
        for i in range(-16, 16):
            full = coarse_increment(g, -64, 6, 5, i)
            left, right = (coarse_increment(g, -64, 6, 6, j) for j in (2 * i, 2 * i + 1))
            assert np.array_equal(full, left + right)

    def test_identity_at_fine_level(self):
        g = path_increments(3, 0, 0, 64, 1, 2.0**-6, 6)
        for i in range(0, 64, 7):
            assert np.array_equal(coarse_increment(g, 0, 6, 6, i), g[i])

    def test_full_window_sum(self):
        g = path_increments(3, 0, -512, 1024, 1, 2.0**-8, 8)
        total = tree_fold(g, 1024)[0]
        # summation order differs between the tree fold and np.sum
        assert total == pytest.approx(g.sum(), rel=1e-12)

    @pytest.mark.parametrize("q", [3, 6, 0])
    def test_fold_ratio_must_be_a_power_of_two(self, q):
        with pytest.raises(ValueError, match=f"^fold ratio must be a power of two, got {q}$"):
            tree_fold(np.zeros((12, 1)), q)

    def test_telescoping_all_levels(self):
        g = path_increments(17, 0, 0, 256, 1, 2.0**-8, 8)
        for c in range(0, 8):
            coarse = tree_fold(g, 2 ** (8 - c))
            finer = tree_fold(g, 2 ** (7 - c))
            assert np.array_equal(coarse, finer.reshape(2**c, 2, 1).sum(axis=1))

    def test_level_by_level_fold_equals_step_increments(self):
        # two paths of a level-8 grid with two noises on (-1, 1), drawn as one block and
        # folded to every level, against each path's own draw folded to it at once
        folded = ensemble_increments(17, range(2), -256, 512, 2, 2.0**-8, 8)
        paths = [path_increments(17, p, -256, 512, 2, 2.0**-8, 8) for p in range(2)]
        for lvl in range(8, -1, -1):
            if lvl < 8:
                folded = tree_fold(folded, 2)
            for p, g in enumerate(paths):
                assert np.array_equal(folded[:, p], tree_fold(g, 2 ** (8 - lvl)))


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

    @pytest.mark.parametrize(
        "t, h",
        [(0.1, 2.0**-4), (-3.95, 0.1), (0.25, 0.1), (1e-3, 2.0**-5),
         # 0.256 cells off: a tolerance that grows with |t| would snap it to -10^7
         (-9999999.996, 2.0**-6)],
    )
    def test_off_grid_rejected(self, t, h):
        with pytest.raises(ValueError, match="t must be grid-aligned.*multiple of the stepsize"):
            grid_steps(t, h, "t")

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, t):
        # inf used to overflow in round() and nan to fail without naming t
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            grid_steps(t, 0.1, "t")


class TestValidation:
    def test_level_bound(self):
        # the window (0, 1) at level 31, rejected before anything is allocated
        with pytest.raises(ValueError, match=r"fine_level must be in \[0, 30\], got 31"):
            path_increments(0, 0, 0, 2**31, 1, 2.0**-31, 31)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_uniform_dt_must_be_positive(self, dt):
        with pytest.raises(ValueError, match="^dt must be positive$"):
            ensemble_increments(0, range(1), 0, 1, 1, dt)

    def test_noise_dim_at_least_one(self):
        with pytest.raises(ValueError, match="^noise_dim must be >= 1$"):
            ensemble_increments(0, range(1), 0, 1, 0, 0.1)

    def test_cell_index_range(self):
        # cell -2^62 is the first Philox position; the one before it has none
        lowest = -(1 << 62)
        assert np.isfinite(ensemble_increments(0, range(2), lowest, 3, 1, 0.1)).all()
        with pytest.raises(ValueError, match="^cell index below supported range$"):
            ensemble_increments(0, range(2), lowest - 1, 3, 1, 0.1)


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

    @pytest.mark.parametrize(
        "fine_level, dt", [(None, 0.05), (6, 2.0**-6)], ids=["uniform", "dyadic"]
    )
    def test_no_cells_draw_nothing(self, monkeypatch, fine_level, dt):
        def no_draw(*args):
            raise AssertionError("drew noise")

        monkeypatch.setattr("rpsde.noise._fill", no_draw)
        for first in (-20, -17, 0, 3):
            incs = ensemble_increments(3, range(5), first, 0, 2, dt, fine_level)
            assert incs.shape == (0, 5, 2) and incs.dtype == np.float64
        with pytest.raises(ValueError, match="n_cells must be >= 0, got -1"):
            ensemble_increments(3, range(5), 0, -1, 2, dt, fine_level)

    def test_dyadic_dt_must_be_the_cell_width(self):
        with pytest.raises(ValueError, match=r"^dt 0.0625 must be the cell width 0.015625; fold"):
            ensemble_increments(5, range(3), 0, 64, 1, 2.0**-4, fine_level=6)

    def test_largest_word_gives_a_finite_normal(self, monkeypatch):
        class AllOnes:
            """Stands in for Philox: every raw word is 2^64 - 1, so bits = 2^53 - 1."""

            def __init__(self, key):
                self.state = {"state": {}}

            def random_raw(self, n):
                return np.full(n, 2**64 - 1, dtype=np.uint64)

        monkeypatch.setattr("rpsde.noise.np.random.Philox", AllOnes)
        out = np.empty((6, 2, 1))
        _fill(0, 0, 0.25, 0, np.arange(2), out)
        # (bits + 0.5) * 2^-53 rounds to 1.0 there; the clamp keeps u at 1 - 2^-53
        assert out.tobytes() == np.full_like(out, 0.5 * ndtri(1.0 - 2.0**-53)).tobytes()
        assert np.isfinite(out).all()


class TestSideDoors:
    """`generate`, `generate_uniform` and `WienerGrid`: one path over a window given in time."""

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

    def test_coarse_step_requires_dyadic_grid(self):
        # a dyadic step 2^-3 is no whole number of uniform cells of 0.1
        g = generate_uniform(3, 0, 0.1, (0.0, 1.0), 1)
        with pytest.raises(ValueError, match="dt must be grid-aligned"):
            g.step_increments(0.0, 1, 2.0**-3)

    def test_out_of_window(self):
        g = generate(3, 0, 4, (0.0, 1.0), 1)
        with pytest.raises(ValueError, match="outside window"):
            g.step_increments(-(2.0**-4), 1, 2.0**-4)

    def test_misaligned_window(self):
        with pytest.raises(ValueError, match="^window start must be grid-aligned: 0.1 is not"):
            generate(0, 0, 2, (0.1, 1.0), 1)

    def test_empty_window(self):
        with pytest.raises(ValueError, match=r"^window \(1.0, 1.0\) must have positive length$"):
            generate(0, 0, 4, (1.0, 1.0), 1)


class TestLoadNdtri:
    """`rpsde._load_ndtri`, which gives noise its `ndtri`: the lean load of a cold start."""

    def test_numpy_loads_inside_the_extension(self):
        # the extension's OpenBLAS threads spin while numpy imports, not during a run.
        # -X importtime prints a module once loaded, one indent deeper per nesting
        # level, so the module that imported numpy is the next line indented less
        done = fresh_interpreter("-X", "importtime", "-c", "import rpsde.cli")
        assert done.returncode == 0
        names = [line.rsplit("|", 1)[-1] for line in done.stderr.splitlines()]
        loaded = [(name.strip(), len(name) - len(name.lstrip())) for name in names]
        i = next(i for i, (name, _) in enumerate(loaded) if name == "numpy")
        assert next(name for name, depth in loaded[i:] if depth < loaded[i][1]) == (
            "scipy.special._ufuncs"
        )
        assert "scipy.special" not in dict(loaded)

    def test_loaded_scipy_special_gives_its_ndtri(self):
        # the lean load begins with find_spec; made to fail, it shows no stand-in was built
        script = (
            "import sys\nfrom unittest import mock\nimport scipy.special\n"
            "special = sys.modules['scipy.special']\n"
            "with mock.patch('importlib.util.find_spec', side_effect=AssertionError):\n"
            "    import rpsde.noise\n"
            "print(rpsde.noise.ndtri is special.ndtri, sys.modules['scipy.special'] is special)"
        )
        done = fresh_interpreter("-c", script)
        assert (done.stdout, done.stderr, done.returncode) == ("True True\n", "", 0)

    def test_refused_lean_load_falls_back_to_the_public_import(self):
        # a finder that refuses _ufuncs under the stand-in, which has no __file__; the
        # public import then finds the real packages, not the stand-ins, in sys.modules
        script = (
            "import sys\n"
            "class Refuse:\n"
            "    stubs = []\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        parent = sys.modules.get('scipy.special')\n"
            "        if name == 'scipy.special._ufuncs' and not hasattr(parent, '__file__'):\n"
            "            self.stubs.append(parent)\n"
            "            raise ImportError('refused under the stand-in')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "import rpsde.noise\n"
            "special, scipy = sys.modules['scipy.special'], sys.modules['scipy']\n"
            "print(len(Refuse.stubs), special is not Refuse.stubs[0], hasattr(special, '__file__'),"
            " hasattr(scipy, '__file__'), rpsde.noise.ndtri is special.ndtri)"
        )
        done = fresh_interpreter("-c", script)
        assert (done.stdout, done.stderr, done.returncode) == ("1 True True True True\n", "", 0)

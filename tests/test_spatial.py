"""Grid, Laplacian, norms, and the snapshot file format."""

import math
import struct

import numpy as np
import pytest

from acbdf2.spatial import (
    SNAPSHOT_MAGIC,
    Grid2D,
    l2_norm,
    laplacian_apply,
    max_norm,
    read_snapshot,
    write_snapshot,
)

from conftest import dense_laplacian, peak_fields


class TestGrid2D:
    def test_spacing_and_axis(self):
        grid = Grid2D(M=4, L=2.0, origin=-1.0)
        assert grid.h == 0.5
        np.testing.assert_array_equal(grid.axis(), [-1.0, -0.5, 0.0, 0.5])

    def test_meshgrid_orientation(self):
        grid = Grid2D(M=3, L=3.0)
        X, Y = grid.meshgrid()
        assert X.shape == (3, 3)
        assert X[0, 1] == 1.0 and X[0, 2] == 2.0  # x varies along axis 1
        assert Y[1, 0] == 1.0 and Y[2, 0] == 2.0  # y varies along axis 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid2D(M=1, L=1.0)
        with pytest.raises(ValueError):
            Grid2D(M=4, L=0.0)


class TestLaplacian:
    def test_annihilates_constants_exactly(self):
        out = laplacian_apply(np.full((8, 8), 0.37), 0.125)
        np.testing.assert_array_equal(out, 0.0)

    def test_single_node_stencil(self):
        # M = 4: the image of a unit impulse is the stencil itself
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        out = laplacian_apply(u, 1.0)
        expect = np.zeros((4, 4))
        expect[0, 0] = -4.0
        expect[0, 1] = expect[0, 3] = expect[1, 0] = expect[3, 0] = 1.0
        np.testing.assert_array_equal(out, expect)

    @pytest.mark.parametrize("k", [1, 3])
    def test_fourier_eigenvectors(self, k):
        # cos(2 pi k x / L) has eigenvalue -(4/h^2) sin^2(pi k / M)
        grid = Grid2D(M=16, L=1.0)
        X, Y = grid.meshgrid()
        lam = -4.0 / grid.h**2 * math.sin(math.pi * k / grid.M) ** 2
        for u in (np.cos(2.0 * math.pi * k * X), np.sin(2.0 * math.pi * k * Y)):
            np.testing.assert_allclose(
                laplacian_apply(u, grid.h), lam * u, rtol=0.0, atol=1e-10
            )
        # a product mode picks up the sum of the axis eigenvalues
        u = np.cos(2.0 * math.pi * k * X) * np.cos(2.0 * math.pi * k * Y)
        np.testing.assert_allclose(
            laplacian_apply(u, grid.h), 2.0 * lam * u, rtol=0.0, atol=1e-10
        )

    @pytest.mark.parametrize("M", [4, 8])
    def test_matches_dense_assembly(self, M, rng):
        h = 1.0 / M
        u = rng.standard_normal((M, M))
        dense = (dense_laplacian(M, h) @ u.ravel()).reshape(M, M)
        np.testing.assert_allclose(laplacian_apply(u, h), dense, atol=1e-11)

    def test_buffer_reuse_matches_fresh_call(self, rng):
        u = rng.standard_normal((16, 16))
        out = np.empty_like(u)
        scratch = np.empty_like(u)
        ret = laplacian_apply(u, 0.1, out=out, scratch=scratch)
        assert ret is out
        np.testing.assert_array_equal(out, laplacian_apply(u, 0.1))

    def test_mean_is_conserved(self, rng):
        # row sums of the periodic stencil vanish
        u = rng.standard_normal((32, 32))
        assert abs(laplacian_apply(u, 0.05).sum()) < 1e-8 / 0.05**2


def roll_laplacian(u, h):
    """Four separately formed neighbor differences, summed below, above, left, right."""
    below = np.roll(u, 1, axis=0) - u
    above = np.roll(u, -1, axis=0) - u
    left = np.roll(u, 1, axis=1) - u
    right = np.roll(u, -1, axis=1) - u
    return (((below + above) + left) + right) * (1.0 / (h * h))


def plateau_field(rng, M):
    """``+-1`` plateaus with a few intermediate cells."""
    u = np.where(rng.uniform(size=(M, M)) < 0.5, 1.0, -1.0)
    u[rng.uniform(size=(M, M)) < 0.1] = 0.3
    return u


class TestLaplacianKernel:
    """The one-difference-per-axis kernel against an independent reference."""

    SIZES = [2, 3, 4, 5, 8, 128, 256]

    @pytest.mark.parametrize("M", SIZES)
    def test_bytes_match_four_separate_differences(self, M, rng):
        h = 1.0 / M
        for u in (rng.standard_normal((M, M)), plateau_field(rng, M)):
            assert laplacian_apply(u, h).tobytes() == roll_laplacian(u, h).tobytes()

    @pytest.mark.parametrize("M", SIZES)
    def test_values_match_with_signed_zeros(self, M, rng):
        # where a -0 sits next to a +0 only the sign of a zero may differ
        u = rng.choice([0.0, -0.0, 1.0, -1.0], size=(M, M))
        np.testing.assert_array_equal(laplacian_apply(u, 0.5), roll_laplacian(u, 0.5))

    def test_transposed_input(self, rng):
        u = rng.standard_normal((8, 8))
        t = u.T
        assert not t.flags.c_contiguous
        got = laplacian_apply(t, 0.25, out=np.empty((8, 8)), scratch=np.empty((8, 8)))
        assert got.tobytes() == roll_laplacian(np.ascontiguousarray(t), 0.25).tobytes()

    @pytest.mark.parametrize("which", ["out", "scratch"])
    def test_buffers_must_be_c_contiguous(self, which):
        u = np.zeros((8, 8))
        bufs = {"out": np.empty((8, 8)), "scratch": np.empty((8, 8))}
        bufs[which] = np.empty((8, 8)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            laplacian_apply(u, 0.1, **bufs)

    def test_given_buffers_allocate_no_field(self, rng):
        grid = Grid2D(M=128, L=1.0)
        u = rng.standard_normal((128, 128))
        out, scratch = np.empty_like(u), np.empty_like(u)
        assert peak_fields(
            grid, lambda: laplacian_apply(u, grid.h, out=out, scratch=scratch)
        ) < 0.5


class TestNorms:
    def test_max_norm(self):
        u = np.array([[1.0, -3.0], [2.0, 0.5]])
        assert max_norm(u) == 3.0
        assert math.copysign(1.0, max_norm(-np.zeros((2, 2)))) == 1.0
        assert math.isnan(max_norm(np.array([[1.0, np.nan]])))

    def test_l2_norm_of_ones_is_the_edge_length(self):
        # h sqrt(sum u^2) = h M = L for a constant-one field
        grid = Grid2D(M=32, L=1.0)
        assert l2_norm(np.ones((32, 32)), grid.h) == pytest.approx(1.0, rel=1e-15)

    def test_l2_norm_scaling(self, rng):
        u = rng.standard_normal((8, 8))
        assert l2_norm(u, 0.25) == pytest.approx(
            0.25 * math.sqrt((u * u).sum()), rel=1e-14
        )


class TestSnapshotFormat:
    def test_round_trip_is_exact(self, tmp_path, rng):
        u = rng.standard_normal((12, 12))
        path = str(tmp_path / "field.acf")
        write_snapshot(path, u, t=1.25)
        v, t = read_snapshot(path)
        assert t == 1.25
        np.testing.assert_array_equal(v, u)

    def test_layout(self, tmp_path):
        # magic, M twice as u32 LE, time as f64 LE, then M^2 f64 row-major
        M = 3
        u = np.arange(9.0).reshape(3, 3)
        path = str(tmp_path / "field.acf")
        write_snapshot(path, u, t=2.0)
        raw = open(path, "rb").read()
        assert len(raw) == 4 + 16 + 8 * M * M
        assert raw[:4] == SNAPSHOT_MAGIC
        assert struct.unpack("<IId", raw[4:20]) == (3, 3, 2.0)
        np.testing.assert_array_equal(
            np.frombuffer(raw[20:], dtype="<f8"), np.arange(9.0)
        )

    def test_rejects_wrong_magic(self, tmp_path):
        path = str(tmp_path / "bogus.acf")
        open(path, "wb").write(b"XXXX" + b"\0" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = str(tmp_path / "short.acf")
        write_snapshot(path, np.zeros((4, 4)), t=0.0)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(path)

    def test_rejects_unequal_dimensions(self, tmp_path):
        path = str(tmp_path / "skew.acf")
        write_snapshot(path, np.zeros((4, 4)), t=0.0)
        raw = bytearray(open(path, "rb").read())
        raw[8:12] = struct.pack("<I", 5)  # the second M
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ValueError, match="dimensions disagree"):
            read_snapshot(path)

    def test_rejects_non_square_field(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot(str(tmp_path / "x.acf"), np.zeros((3, 4)), t=0.0)
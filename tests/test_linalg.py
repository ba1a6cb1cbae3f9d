import numpy as np
import pytest

from crossmesh import (
    DimensionError,
    DomainError,
    fidelity,
    matrix_from_json,
    matrix_to_json,
    random_target_matrix,
    svd_factorize,
    unitarity_residual,
)
from oracles import jacobi_svd


def reconstruct(f):
    return f.u @ np.diag(f.sigma.astype(np.complex128)) @ f.v_dagger


class TestSvdFactorize:
    def test_identity(self):
        f = svd_factorize(np.eye(3))
        assert np.allclose(f.sigma, [1.0, 1.0, 1.0])
        assert unitarity_residual(f.u @ f.v_dagger) < 1e-12
        assert np.max(np.abs(reconstruct(f) - np.eye(3))) < 1e-12

    def test_diagonal(self):
        f = svd_factorize(np.diag([2.0, 1.0]))
        assert np.allclose(f.sigma, [2.0, 1.0])
        # factors are permutation-phase matrices: one unit entry per row
        for mat in (f.u, f.v_dagger):
            assert np.allclose(np.abs(mat), np.eye(2), atol=1e-12)
        assert np.max(np.abs(reconstruct(f) - np.diag([2.0, 1.0]))) < 1e-12

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(2024)
        d = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        f = svd_factorize(d)
        u_o, sigma_o, v_o = jacobi_svd(d)
        assert np.max(np.abs(f.sigma - sigma_o)) < 1e-9
        assert np.max(np.abs(reconstruct(f) - d)) < 1e-10
        assert np.max(np.abs(u_o @ np.diag(sigma_o.astype(complex)) @ v_o - d)) < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 8, 16, 32])
    def test_round_trip_and_factor_unitarity(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            f = svd_factorize(d)
            assert unitarity_residual(f.u) < 1e-10
            assert unitarity_residual(f.v_dagger) < 1e-10
            assert np.all(np.diff(f.sigma) <= 1e-12)
            assert np.all(f.sigma >= 0.0)
            assert np.max(np.abs(reconstruct(f) - d)) < 1e-10

    def test_deterministic(self):
        d = random_target_matrix(5, 7)
        f1, f2 = svd_factorize(d), svd_factorize(d)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v_dagger, f2.v_dagger)

    def test_errors(self):
        with pytest.raises(DimensionError):
            svd_factorize(np.ones((2, 3)))
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(DomainError):
            svd_factorize(bad)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(1)
        for n in range(2, 13):
            for _ in range(10):
                y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                assert abs(fidelity(y, y) - 1.0) < 1e-12

    def test_scalar_invariance(self):
        rng = np.random.default_rng(2)
        y1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        base = fidelity(y1, y2)
        for mag in (1e-3, 0.1, 1.0, 42.0, 1e3):
            c = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(fidelity(c * y1, y2) - base) < 1e-12
            assert abs(fidelity(c * y1, y1) - 1.0) < 1e-12

    def test_hand_computed_value(self):
        # |tr(diag(1,1) diag(1,.5))|^2 / (2 * 1.25) = 2.25 / 2.5
        assert abs(fidelity(np.diag([1.0, 0.5]), np.eye(2)) - 0.9) < 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-15

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0 + 1e-12

    def test_errors(self):
        with pytest.raises(DimensionError):
            fidelity(np.eye(2), np.eye(3))
        with pytest.raises(DimensionError):
            fidelity(np.ones((4, 2, 2)), np.eye(3))
        with pytest.raises(DomainError):
            fidelity(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(DomainError):
            fidelity(np.eye(2), np.zeros((2, 2)))

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        stack = rng.standard_normal((6, 3, 4)) + 1j * rng.standard_normal((6, 3, 4))
        got = fidelity(stack, y)
        assert got.shape == (6,)
        assert got.tolist() == [fidelity(e, y) for e in stack]
        # any stack layout and leading shape
        assert fidelity(stack.reshape(2, 3, 3, 4), y).tolist() == got.reshape(2, 3).tolist()
        transposed = np.swapaxes(stack.reshape(6, 4, 3), -1, -2)
        assert fidelity(transposed, y).tolist() == [fidelity(e, y) for e in transposed]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero-row"])
    def test_stack_rejects_a_bad_row(self, bad):
        stack = np.ones((4, 2, 2), dtype=complex)
        if bad == 0.0:
            stack[2] = 0.0
        else:
            stack[2, 1, 0] = bad
        with pytest.raises(DomainError):
            fidelity(stack, np.eye(2))


class TestRandomTargetMatrix:
    def test_deterministic(self):
        a = random_target_matrix(6, 12345)
        b = random_target_matrix(6, 12345)
        assert np.array_equal(a, b)
        c = random_target_matrix(6, 12346)
        assert not np.array_equal(a, c)

    def test_peak_normalization(self):
        for seed in range(20):
            y = random_target_matrix(4, seed)
            assert abs(np.max(np.abs(y)) - 1.0) < 1e-12

    def test_raw_entry_mean(self):
        # replicate the generator recipe and check the raw ensemble is centered
        total_re, total_im, count = 0.0, 0.0, 0
        for seed in range(10_000):
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            total_re += raw.real.sum()
            total_im += raw.imag.sum()
            count += raw.size
        bound = 3.0 / np.sqrt(10_000)
        assert abs(total_re / count) < bound
        assert abs(total_im / count) < bound

    def test_too_small(self):
        with pytest.raises(DomainError):
            random_target_matrix(1, 0)


class TestMatrixJson:
    def test_round_trip_lossless(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        again = matrix_from_json(matrix_to_json(y))
        assert np.array_equal(y, again)

    def test_shape_validation(self):
        obj = matrix_to_json(np.eye(2))
        obj["rows"] = 3
        with pytest.raises(DimensionError):
            matrix_from_json(obj)
        with pytest.raises(DomainError):
            matrix_from_json({"rows": 1, "cols": 1})

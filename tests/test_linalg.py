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
from crossmesh.linalg import array_from_json, number_from_json, vector_from_json
from oracles import jacobi_svd

HUGE = int("9" * 400)


def reconstruct(u, sigma, v_dagger):
    return u @ np.diag(sigma.astype(np.complex128)) @ v_dagger


class TestSvdFactorize:
    def test_identity(self):
        u, sigma, v_dagger = svd_factorize(np.eye(3))
        assert np.allclose(sigma, [1.0, 1.0, 1.0])
        assert unitarity_residual(u @ v_dagger) < 1e-12
        assert np.max(np.abs(reconstruct(u, sigma, v_dagger) - np.eye(3))) < 1e-12

    def test_diagonal(self):
        u, sigma, v_dagger = svd_factorize(np.diag([2.0, 1.0]))
        assert np.allclose(sigma, [2.0, 1.0])
        # factors are permutation-phase matrices: one unit entry per row
        for mat in (u, v_dagger):
            assert np.allclose(np.abs(mat), np.eye(2), atol=1e-12)
        assert np.max(np.abs(reconstruct(u, sigma, v_dagger) - np.diag([2.0, 1.0]))) < 1e-12

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(2024)
        d = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u, sigma, v_dagger = svd_factorize(d)
        u_o, sigma_o, v_o = jacobi_svd(d)
        assert np.max(np.abs(sigma - sigma_o)) < 1e-9
        assert np.max(np.abs(reconstruct(u, sigma, v_dagger) - d)) < 1e-10
        assert np.max(np.abs(u_o @ np.diag(sigma_o.astype(complex)) @ v_o - d)) < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 8, 16, 32])
    def test_round_trip_and_factor_unitarity(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u, sigma, v_dagger = svd_factorize(d)
            assert unitarity_residual(u) < 1e-10
            assert unitarity_residual(v_dagger) < 1e-10
            assert np.all(np.diff(sigma) <= 1e-12)
            assert np.all(sigma >= 0.0)
            assert np.max(np.abs(reconstruct(u, sigma, v_dagger) - d)) < 1e-10

    def test_deterministic(self):
        d = random_target_matrix(5, 7)
        for f1, f2 in zip(svd_factorize(d), svd_factorize(d)):
            assert np.array_equal(f1, f2)

    @pytest.mark.parametrize("shape", [(5, 5), (3, 4, 4)], ids=["matrix", "stack"])
    def test_is_numpys_own_triple(self, shape):
        # The checks add nothing to the factors: each equals numpy's, bit for bit.
        rng = np.random.default_rng(11)
        d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        factors = svd_factorize(d)
        expected = np.linalg.svd(d)
        assert len(factors) == len(expected) == 3
        for got, want in zip(factors, expected):
            assert np.array_equal(got, want)

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

    @pytest.mark.parametrize(
        "corrupt",
        [dict(rows="2"), dict(cols=2.9), dict(rows=2.0), dict(cols=True), dict(rows=None)],
        ids=["string-rows", "fractional-cols", "float-rows", "bool-cols", "null-rows"],
    )
    def test_sizes_must_be_json_integers(self, corrupt):
        with pytest.raises(DomainError):
            matrix_from_json({**matrix_to_json(np.eye(2)), **corrupt})

    @pytest.mark.parametrize("bad", ["1", True, None, HUGE], ids=["string", "bool", "null", "huge-int"])
    def test_entries_must_be_finite_numbers(self, bad):
        obj = matrix_to_json(np.eye(2))
        obj["re"][0][1] = bad
        with pytest.raises(DomainError):
            matrix_from_json(obj)


class TestArrayFromJson:
    def test_floats_read_bit_for_bit(self):
        x = np.random.default_rng(2).standard_normal((3, 4)) * 10.0 ** np.arange(-150, 150, 25).reshape(3, 4)
        got = array_from_json({"x": x.tolist()}, "x", (3, 4), "test")
        assert got.dtype == np.float64 and np.array_equal(got, x)

    def test_ints_and_the_largest_finite_values_are_numbers(self):
        assert number_from_json({"x": 3}, "x", "test") == 3.0
        assert number_from_json({"x": -(10**308)}, "x", "test") == -1e308
        assert array_from_json({"x": [1.7976931348623157e308, 0]}, "x", (2,), "test")[0] == np.finfo(float).max

    @pytest.mark.parametrize(
        "value", ["1", True, False, None, HUGE, -HUGE, float("nan"), float("inf"), {"re": 1.0}, [1.0]],
        ids=["string", "true", "false", "null", "huge-int", "huge-negative-int", "nan", "inf", "object", "list"],
    )
    def test_anything_but_a_finite_number_is_a_domain_error(self, value):
        with pytest.raises(DomainError):
            number_from_json({"x": value}, "x", "test")
        with pytest.raises(DomainError):
            array_from_json({"x": [[0.0, 1.0], [2.0, value]]}, "x", (2, 2), "test")

    @pytest.mark.parametrize(
        "value, shape",
        [([1.0, 2.0], (3,)), ([[1.0], [2.0, 3.0]], (2, 2)), ([[1.0, 2.0]], (2, 2)), ([[1.0], [2.0, 3.0]], (2, None))],
        ids=["short", "ragged", "missing-row", "ragged-free-axis"],
    )
    def test_a_wrong_length_is_a_dimension_error(self, value, shape):
        with pytest.raises(DimensionError):
            array_from_json({"x": value}, "x", shape, "test")

    @pytest.mark.parametrize("obj", [{}, {"x": 1.0}, {"x": "12"}, [1.0], None],
                             ids=["missing", "number-for-list", "string-for-list", "not-an-object", "null"])
    def test_a_missing_list_is_a_domain_error(self, obj):
        with pytest.raises(DomainError):
            array_from_json(obj, "x", (2,), "test")

    def test_a_free_axis_takes_any_length(self):
        assert array_from_json({"x": [[1, 2, 3], [4, 5, 6]]}, "x", (2, None), "test").shape == (2, 3)
        assert array_from_json({"x": []}, "x", (None,), "test").shape == (0,)


class TestVectorJson:
    @pytest.mark.parametrize("corrupt", [dict(re=[1.0, "0"]), dict(im=[True, 0.0]), dict(re=[HUGE, 0.0])],
                             ids=["string", "bool", "huge-int"])
    def test_entries_must_be_finite_numbers(self, corrupt):
        with pytest.raises(DomainError):
            vector_from_json({"re": [1.0, 0.0], "im": [0.0, 0.0], **corrupt})

    def test_lengths_must_agree(self):
        with pytest.raises(DimensionError):
            vector_from_json({"re": [1.0, 0.0], "im": [0.0]})
        with pytest.raises(DimensionError):
            vector_from_json({"n": 3, "re": [1.0, 0.0], "im": [0.0, 0.0]})
        assert np.array_equal(vector_from_json({"re": [1, 0], "im": [0, -2]}), [1, -2j])

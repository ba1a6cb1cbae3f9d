"""Dense complex linear algebra shared by the device models.

Matrices are plain ``numpy.ndarray`` objects with dtype complex128.  The
helpers here enforce the contracts the rest of the library relies on:
finite entries, ``svd_factorize`` (numpy's own ``(u, sigma, v_dagger)``
triple of a checked square matrix or stack), the Frobenius fidelity
measure, the seeded random-matrix ensemble used by the Monte-Carlo
experiments, and ``array_from_json``, which reads every real number of a
JSON input: a JSON number (int or float, never bool, string or null),
finite, in lists of the declared shape.
"""

from __future__ import annotations

import reprlib
import sys

import numpy as np

from .errors import DimensionError, DomainError


def ensure_matrix(a, *, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce ``a`` to a 2-D (with ``stack``, ``(..., rows, cols)``) complex128 array with finite entries.

    Raises
    ------
    DimensionError
        If the input is not two-dimensional or has an empty axis.
    DomainError
        If any entry is NaN or infinite.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionError(f"{name} must have at least one row and column, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def ensure_square(a, *, name: str = "matrix") -> np.ndarray:
    """A square matrix or a stack ``(..., n, n)`` of them, as ``ensure_matrix`` checks it."""
    arr = ensure_matrix(a, name=name, stack=True)
    if arr.shape[-2] != arr.shape[-1]:
        raise DimensionError(f"{name} must be square, got {arr.shape}")
    return arr


def unitarity_residual(u) -> float:
    """Max-entry deviation of ``u^dagger u`` from the identity, over a stack ``(..., n, n)`` too."""
    u = ensure_square(u, name="u")
    n = u.shape[-1]
    return max(float(np.max(np.abs(m.conj().T @ m - np.eye(n)))) for m in u.reshape(-1, n, n))


def svd_factorize(d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd`` of a checked square complex matrix or ``(..., n, n)`` stack.

    Returns numpy's triple ``(u, sigma, v_dagger)`` with
    ``d = u @ diag(sigma) @ v_dagger``: ``u`` and ``v_dagger`` unitary,
    ``sigma`` the singular values in descending order after any batch axes.
    The LAPACK driver is deterministic for a fixed input, stacked or not;
    degenerate values stay in first-occurrence order.
    """
    return np.linalg.svd(ensure_square(d, name="d"))


def fidelity(y_exp, y) -> float | np.ndarray:
    """Normalized Frobenius-inner-product agreement of two matrices.

    Returns ``|tr(y^dagger y_exp)|^2 / (tr(y^dagger y) tr(y_exp^dagger y_exp))``,
    a value in [0, 1] that is symmetric in its arguments and invariant under
    rescaling either argument by any nonzero complex factor.

    ``y_exp`` may be a stack (..., n, m) of matrices, each compared with the
    n x m ``y``; the result is then an array of the stack's leading shape.
    Finiteness is checked once for the whole stack, and each matrix is
    reduced by the same ``np.vdot`` calls as a single one, so every entry
    equals the call on that matrix alone, bit for bit, whatever the stack.
    """
    y = ensure_matrix(y, name="y")
    y_exp = np.asarray(y_exp, dtype=np.complex128)
    if y_exp.shape[-2:] != y.shape:
        raise DimensionError(f"shape mismatch: {y_exp.shape} vs {y.shape}")
    if not np.isfinite(y_exp).all():
        raise DomainError("y_exp contains non-finite entries")
    yy = float(np.vdot(y, y).real)
    if yy == 0.0:
        raise DomainError("y is the zero matrix")
    out = []
    for e in y_exp.reshape(-1, *y.shape):
        ee = float(np.vdot(e, e).real)
        if ee == 0.0:
            raise DomainError("y_exp is the zero matrix")
        out.append(abs(np.vdot(y, e)) ** 2 / (yy * ee))
    if y_exp.ndim == 2:
        return float(out[0])
    return np.array(out).reshape(y_exp.shape[:-2])


def random_target_matrix(n: int, seed: int) -> np.ndarray:
    """Seeded random complex target matrix with unit peak magnitude.

    Entries are drawn with independent standard-normal real and imaginary
    parts (Ginibre ensemble), then the whole matrix is rescaled so that the
    largest entry magnitude is exactly 1.  Identical (n, seed) pairs give
    bit-identical matrices.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return raw / np.max(np.abs(raw))


def _json_item(obj, key):
    """``obj[key]``, or None when the key is missing or ``obj`` cannot be indexed."""
    try:
        return obj[key]
    except (KeyError, IndexError, TypeError):
        return None


def array_from_json(obj, key, shape: tuple, what: str) -> np.ndarray:
    """``obj[key]``, nested JSON lists of ``shape`` (None: any length), as a float64 array.

    ``shape=()`` reads one number.  DimensionError if a list has the wrong
    length; DomainError if anything but a list, or a finite int or float
    (never a bool), stands where one is due.
    """
    value = _json_item(obj, key)
    items = [value]
    for size in shape:
        if not all(isinstance(v, list) for v in items):
            raise DomainError(f"{what}: {key!r} must be a {len(shape)}-D array of numbers")
        lengths = {len(v) for v in items} | ({size} - {None})
        if len(lengths) > 1:
            raise DimensionError(f"{what}: {key!r} must have shape {shape}, found lengths {sorted(lengths)}")
        items = [x for v in items for x in v]
    for v in items:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
            raise DomainError(f"{what}: {key!r} must hold finite numbers only, got {reprlib.repr(v)}")
    return np.array(value, dtype=np.float64)


def number_from_json(obj, key, what: str) -> float:
    """``obj[key]`` as a float; DomainError unless it is a finite JSON number."""
    return float(array_from_json(obj, key, (), what))


def int_from_json(obj, key, what: str) -> int:
    """``obj[key]``; DomainError unless it is a JSON integer (not a bool, float or string)."""
    value = _json_item(obj, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what}: {key!r} must be an integer, got {value!r}")
    return value


def matrix_to_json(a) -> dict:
    """Serialize to the interchange form {"rows", "cols", "re", "im"}."""
    a = ensure_matrix(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the interchange form produced by :func:`matrix_to_json`."""
    rows, cols = (int_from_json(obj, key, "matrix JSON") for key in ("rows", "cols"))
    re, im = (array_from_json(obj, key, (rows, cols), "matrix JSON") for key in ("re", "im"))
    return ensure_matrix(re + 1j * im)


def vector_to_json(v) -> dict:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionError(f"vector must be 1-D, got ndim={v.ndim}")
    return {"n": int(v.shape[0]), "re": v.real.tolist(), "im": v.imag.tolist()}


def vector_from_json(obj: dict) -> np.ndarray:
    """Parse :func:`vector_to_json` output; ``n``, when given, must be the entry count."""
    n = int_from_json(obj, "n", "vector JSON") if isinstance(obj, dict) and "n" in obj else None
    re = array_from_json(obj, "re", (n,), "vector JSON")
    return re + 1j * array_from_json(obj, "im", re.shape, "vector JSON")

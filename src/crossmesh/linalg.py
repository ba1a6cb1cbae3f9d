"""Dense complex linear algebra shared by the device models.

Matrices are plain ``numpy.ndarray`` objects with dtype complex128.  The
helpers here enforce the contracts the rest of the library relies on:
finite entries, an SVD wrapper with a deterministic ordering convention,
the Frobenius fidelity measure, the seeded random-matrix ensemble used by
the Monte-Carlo experiments, and checked parsing of JSON numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError


def ensure_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array with finite entries.

    Raises
    ------
    DimensionError
        If the input is not two-dimensional or has an empty axis.
    DomainError
        If any entry is NaN or infinite.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must have at least one row and column, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def ensure_square(a, *, name: str = "matrix") -> np.ndarray:
    arr = ensure_matrix(a, name=name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got {arr.shape}")
    return arr


def unitarity_residual(u) -> float:
    """Max-entry deviation of ``u^dagger u`` from the identity."""
    u = ensure_square(u, name="u")
    n = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(n))))


@dataclass(frozen=True)
class SvdFactors:
    """Factors of ``d = u @ diag(sigma) @ v_dagger``.

    ``u`` and ``v_dagger`` are unitary and ``sigma`` holds the singular
    values sorted in descending order.
    """

    u: np.ndarray
    sigma: np.ndarray
    v_dagger: np.ndarray


def svd_factorize(d) -> SvdFactors:
    """Singular value decomposition of a square complex matrix.

    The LAPACK driver is deterministic for a fixed input; singular values
    come out in descending order, with degenerate values left in
    first-occurrence order.
    """
    d = ensure_square(d, name="d")
    u, sigma, v_dagger = np.linalg.svd(d)
    return SvdFactors(u=u, sigma=sigma, v_dagger=v_dagger)


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


def number_from_json(obj, key, what: str) -> float:
    """``obj[key]`` as a float; DomainError unless it is a finite JSON number.

    A missing key, or an ``obj`` that cannot be indexed, is an error too.
    """
    try:
        value = obj[key]
    except (KeyError, IndexError, TypeError):
        value = None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise DomainError(f"{what}: {key!r} must be a finite number, got {value!r}")
    return float(value)


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
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise DimensionError(
            f"matrix JSON shape mismatch: declared {(rows, cols)}, "
            f"re {re.shape}, im {im.shape}"
        )
    return ensure_matrix(re + 1j * im)


def vector_to_json(v) -> dict:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionError(f"vector must be 1-D, got ndim={v.ndim}")
    return {"n": int(v.shape[0]), "re": v.real.tolist(), "im": v.imag.tolist()}


def vector_from_json(obj: dict) -> np.ndarray:
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed vector JSON: {exc}") from exc
    if re.ndim != 1 or re.shape != im.shape:
        raise DimensionError("vector JSON re/im must be equal-length 1-D arrays")
    v = re + 1j * im
    if not np.isfinite(v).all():
        raise DomainError("vector contains non-finite entries")
    return v

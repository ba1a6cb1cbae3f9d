"""Rectangular MZI-mesh factorization of unitaries and the SVD device.

``clements_decompose`` implements the rectangular-mesh factorization of
Clements et al. (Optica 3, 1460, 2016) adapted to this library's cell
convention: a unitary is eliminated to a diagonal by alternating column
(right-inverse) and row (left) cell operations, and the left factors are
then commuted through the residual phase screen so that all cells end up
between the inputs and a single output phase screen.

Meshes are stored as arrays.  The rectangular layout follows from the port
count n alone: the mesh has n layers (one when n = 2), and layer k
(0-based, inputs first) couples the port pairs (r, r + 1) for
r = k % 2, k % 2 + 2, ... up to n - 2.  A mesh's ``theta`` and ``phi``
list its n(n-1)/2 cells layer by layer, rows ascending within a layer
("layer-major" order), so every layer is a contiguous run of cells acting
on a strided slice of the ports.  The phase arrays may carry leading
batch axes; a batch of meshes sharing the layout evaluates in one pass.

The full device cascades a mesh for ``v_dagger``, one attenuator cell per
port for the singular values, and a mesh for ``u``: n^2 cells in all, which
``apply_common_deviation`` shifts as one array.  With lossy cells every
cell contributes the scalar field factor ``T_node``, so signal paths that
traverse different numbers of cells pick up unequal attenuation; that
imbalance is the device's loss-induced infidelity mechanism.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import ensure_square, number_from_json, svd_factorize, unitarity_residual
from .nodes import LossModel, mzi_entries, voa_transfer, voa_transfer_at

_TWO_PI = 2.0 * math.pi


def _layers(n: int) -> list[tuple[int, int, int]]:
    """(first row, first cell index, cell count) of each layer, inputs first."""
    counts = [(n - k % 2) // 2 for k in range(n)]
    starts = itertools.accumulate(counts, initial=0)
    return [(k % 2, start, count) for k, (start, count) in enumerate(zip(starts, counts)) if count]


def _cells(n: int) -> list[tuple[int, int]]:
    """(1-based layer, row) of every cell, in layer-major order."""
    return [
        (layer, row)
        for layer, (first, _start, count) in enumerate(_layers(n), start=1)
        for row in range(first, first + 2 * count, 2)
    ]


@dataclass(frozen=True, eq=False)
class ClementsMesh:
    """A rectangular mesh: cell phases in layer-major order plus output phases.

    ``theta`` and ``phi`` have shape ``(..., n(n-1)/2)`` and hold phases
    reduced mod 2 pi.  Cell i of layer k (both 0-based) sits at index
    ``start_k + i``, where ``start_k`` counts the cells of the earlier
    layers, and couples ports ``(k % 2 + 2i, k % 2 + 2i + 1)``.  Leading
    axes, if any, index a batch of meshes.  ``output_phases`` (length n)
    is the phase screen after the last layer.
    """

    n: int
    theta: np.ndarray
    phi: np.ndarray
    output_phases: np.ndarray

    @property
    def depth(self) -> int:
        return len(_layers(self.n))


def _mesh(n: int, cells, output_phases, name: str = "mesh") -> ClementsMesh:
    """Mesh from (1-based layer, row, theta, phi) cells given in any order.

    DomainError unless the cells cover the n-port rectangular layout once
    each.
    """
    layers, rows, theta, phi = zip(*sorted(cells))
    if list(zip(layers, rows)) != _cells(n):
        raise DomainError(f"{name} cells do not cover the {n}-port rectangular layout once each")
    return ClementsMesh(
        n=n,
        theta=np.mod(theta, _TWO_PI),
        phi=np.mod(phi, _TWO_PI),
        output_phases=np.asarray(output_phases, dtype=np.float64),
    )


def _null_angles(keep: complex, zero: complex, offset: float) -> tuple[float, float]:
    # Angles of the cell that zeroes `zero` by mixing it with `keep`; the
    # phase offset is -pi for a column step and 0 for a row step.  An
    # exactly-zero target keeps the cell at bar so identity-like inputs
    # decompose to all-bar meshes.
    if abs(zero) == 0.0:
        return math.pi, 0.0
    if abs(keep) == 0.0:
        return 0.0, 0.0
    return 2.0 * math.atan2(abs(keep), abs(zero)), cmath.phase(zero) - cmath.phase(keep) + offset


def _apply_right_inverse(work: np.ndarray, c: int, theta: float, phi: float) -> None:
    # Right-multiply columns (c, c + 1) by M(theta, phi)^dagger.
    m11, m12, m21, m22 = mzi_entries(theta, phi)
    col_c = work[:, c].copy()
    col_d = work[:, c + 1]
    work[:, c] = col_c * m11.conjugate() + col_d * m12.conjugate()
    work[:, c + 1] = col_c * m21.conjugate() + col_d * m22.conjugate()


def _apply_left(work: np.ndarray, r: int, theta: float, phi: float) -> None:
    m11, m12, m21, m22 = mzi_entries(theta, phi)
    row_r = work[r, :].copy()
    row_s = work[r + 1, :]
    work[r, :] = m11 * row_r + m12 * row_s
    work[r + 1, :] = m21 * row_r + m22 * row_s


def clements_decompose(u, *, atol: float = 1e-8) -> ClementsMesh:
    """Factor a unitary into a rectangular mesh of MZI cells.

    Parameters
    ----------
    u : array_like
        Square matrix, unitary within ``atol`` (max entry deviation of
        ``u^dagger u`` from the identity).

    Returns
    -------
    ClementsMesh
        ``n(n-1)/2`` cells in layer-major order plus n output phases.  The
        lossless mesh transfer reproduces ``u`` to close to machine
        precision.
    """
    u = ensure_square(u, name="u")
    residual = unitarity_residual(u)
    if residual > atol:
        raise DomainError(
            f"input is not unitary within {atol:g}: residual {residual:.3e}"
        )
    n = u.shape[0]
    work = u.astype(np.complex128, copy=True)

    rights: list[tuple[int, float, float]] = []
    lefts: list[tuple[int, float, float]] = []
    for i in range(1, n):
        if i % 2 == 1:
            for j in range(i):
                r, c = n - 1 - j, i - 1 - j
                theta, phi = _null_angles(work.item(r, c + 1), work.item(r, c), -math.pi)
                _apply_right_inverse(work, c, theta, phi)
                rights.append((c, theta, phi))
        else:
            for j in range(1, i + 1):
                r, c = n - 1 + j - i, j - 1
                theta, phi = _null_angles(work.item(r - 1, c), work.item(r, c), 0.0)
                _apply_left(work, r - 1, theta, phi)
                lefts.append((r - 1, theta, phi))

    diag = np.diag(work).copy()
    off = work - np.diag(diag)
    if n > 1 and np.max(np.abs(off)) > 1e-6:
        raise DomainError(
            f"elimination failed to diagonalize (residual {np.max(np.abs(off)):.3e}); "
            "input is too far from unitary"
        )

    # Commute each left factor through the phase screen:
    # M(theta, phi)^dagger diag(e^{ia}, e^{ib})
    #   = diag(e^{ia'}, e^{ib'}) M(theta, a - b)
    # with a' = b - theta - phi + pi and b' = b - theta + pi.
    phases = np.angle(diag)
    sequence = list(rights)
    for row, theta, phi in reversed(lefts):
        a, b = phases[row], phases[row + 1]
        sequence.append((row, theta, a - b))
        phases[row] = b - theta - phi + math.pi
        phases[row + 1] = b - theta + math.pi
    phases = np.mod(phases, _TWO_PI)

    # Place each cell in the earliest layer free on both its ports; for
    # this elimination order that is the rectangular layout.
    next_free = [0] * n
    cells = []
    for row, theta, phi in sequence:
        layer = max(next_free[row], next_free[row + 1]) + 1
        next_free[row] = next_free[row + 1] = layer
        cells.append((layer, row, theta, phi))
    return _mesh(n, cells, phases)


def apply_mesh(y: np.ndarray, mesh: ClementsMesh, *, node_field: float = 1.0) -> np.ndarray:
    """Left-multiply ``y`` by the mesh transfer, cell losses included.

    ``y`` has shape ``(..., n, m)``; its leading axes broadcast against the
    batch axes of the mesh's phase arrays.  ``node_field`` is the per-cell
    scalar field factor (``T_node``); ports that skip a layer pass
    unattenuated.
    """
    y = np.asarray(y)
    if y.ndim < 2 or y.shape[-2] != mesh.n:
        raise DimensionError(f"operand of shape {y.shape} does not have the mesh's {mesh.n} rows")
    out = np.empty(np.broadcast_shapes(y.shape[:-2], mesh.theta.shape[:-1]) + y.shape[-2:],
                   dtype=np.complex128)
    out[...] = y
    for first, start, count in _layers(mesh.n):
        half = 0.5 * mesh.theta[..., start : start + count]
        common = node_field * 1j * np.exp(1j * half)
        s, c = np.sin(half), np.cos(half)
        ephi = np.exp(1j * mesh.phi[..., start : start + count])
        m11 = (common * ephi * s)[..., None]
        m12 = (common * c)[..., None]
        m21 = (common * ephi * c)[..., None]
        m22 = (-common * s)[..., None]
        tops = slice(first, first + 2 * count, 2)
        bottoms = slice(first + 1, first + 2 * count + 1, 2)
        top = out[..., tops, :]
        bot = out[..., bottoms, :]
        # In-place sums keep one fewer (K, count, m) temporary alive.
        new_top = m11 * top
        new_top += m12 * bot
        new_bot = m21 * top
        new_bot += m22 * bot
        out[..., bottoms, :] = new_bot
        out[..., tops, :] = new_top
    return np.exp(1j * mesh.output_phases)[:, None] * out


@dataclass(frozen=True, eq=False)
class ClementsDevice:
    """A programmed SVD device: v_dagger mesh, attenuator column, u mesh.

    ``sigma_theta`` and ``sigma_phi`` hold the attenuator cells' phases by
    port, reduced mod 2 pi, with the same optional batch axes as the
    meshes.  An attenuator's phi shifter sits on its unconnected arm.
    """

    v_dagger_mesh: ClementsMesh
    sigma_theta: np.ndarray
    sigma_phi: np.ndarray
    u_mesh: ClementsMesh
    loss: LossModel

    @property
    def n(self) -> int:
        return self.v_dagger_mesh.n

    @property
    def programming_steps(self) -> int:
        return self.n * (self.n - 1) // 2


def build_svd_clements(d, loss: LossModel) -> ClementsDevice:
    """Compile an arbitrary square matrix onto the SVD mesh architecture.

    The target is SVD-factorized, singular values are normalized by the
    largest one so every attenuator amplitude lies in [0, 1], and the two
    unitary factors are compiled to rectangular meshes.  The attenuator
    cells carry an inherent phase ``-i e^{i theta/2}`` on their through
    port; those phases are folded into the u-side unitary before its mesh
    is computed, so the lossless device reproduces the target up to one
    positive scalar.

    Phases are always computed from the lossless factors; ``loss`` only
    scales the cells at evaluation time.
    """
    d = ensure_square(d, name="d")
    n = d.shape[0]
    factors = svd_factorize(d)
    sigma_max = float(factors.sigma[0])
    if sigma_max == 0.0:
        raise DomainError("cannot compile the zero matrix")
    amplitudes = factors.sigma / sigma_max

    transfers = []
    sigma_theta = []
    for a in amplitudes:
        transfer, theta = voa_transfer(float(a))
        transfers.append(transfer)
        sigma_theta.append(theta)

    # Fold the attenuators' inherent unit-modulus phases into u.
    inherent = np.array([t / a if a > 0.0 else -1j for t, a in zip(transfers, amplitudes)])
    u_adjusted = factors.u * inherent.conj()[None, :]

    v_mesh = clements_decompose(factors.v_dagger)
    u_mesh = clements_decompose(u_adjusted)
    return ClementsDevice(
        v_dagger_mesh=v_mesh,
        sigma_theta=np.array(sigma_theta),
        sigma_phi=np.zeros(n),
        u_mesh=u_mesh,
        loss=loss,
    )


def evaluate_svd_clements(device: ClementsDevice, deviations=None) -> np.ndarray:
    """Effective transfer matrix of the device, losses included.

    Propagates the uniform 1:N input split (scalar ``1/sqrt(N)``), the
    v_dagger mesh, the attenuator column, and the u mesh.

    ``deviations``, if given, is a pair ``(dtheta, dphi)`` of length-K
    sequences.  Trial k shifts every MZI cell, attenuators included, by
    ``(dtheta[k], dphi[k])`` exactly as ``apply_common_deviation`` does,
    and the K transfer matrices come back stacked as ``(K, n, n)``.
    """
    if deviations is not None:
        dtheta, dphi = (np.asarray(d, dtype=np.float64) for d in deviations)
        if dtheta.ndim != 1 or dtheta.shape != dphi.shape:
            raise DimensionError(f"deviations must be two equal-length 1-D sequences: {dtheta.shape}, {dphi.shape}")
        device = apply_common_deviation(device, dtheta[:, None], dphi[:, None])
    n = device.n
    t_field = device.loss.t_node
    y = np.eye(n, dtype=np.complex128) / math.sqrt(n)
    y = apply_mesh(y, device.v_dagger_mesh, node_field=t_field)
    y = voa_transfer_at(device.sigma_theta, device.loss)[..., None] * y
    return apply_mesh(y, device.u_mesh, node_field=t_field)


def apply_common_deviation(device: ClementsDevice, dtheta, dphi) -> ClementsDevice:
    """The device with (dtheta, dphi) added to every MZI cell, reduced mod 2 pi.

    The deviations broadcast against the device's n^2 cells laid end to
    end: v_dagger cells in layer-major order, the attenuator column by
    port, then u cells in layer-major order.  A scalar pair is one shared
    deviation on every cell, the figure-experiment error model.  Arrays of
    length n^2 give each cell its own deviation (independent per-cell
    errors); the draw order is the caller's, e.g. columns 0 and 1 of
    ``rng.normal(0, sigma, (n * n, 2))`` give each cell, in the order
    above, a theta draw and then a phi draw.  A leading axis indexes a
    batch of devices, as ``evaluate_svd_clements`` uses it.  Output phase
    screens are plain shifters, not MZI cells, and stay untouched.  A
    scalar zero pair returns ``device`` itself.
    """
    if np.ndim(dtheta) == np.ndim(dphi) == 0 and dtheta == 0.0 and dphi == 0.0:
        return device
    v, u = device.v_dagger_mesh, device.u_mesh
    theta = np.concatenate((v.theta, device.sigma_theta, u.theta), axis=-1) + dtheta
    phi = np.concatenate((v.phi, device.sigma_phi, u.phi), axis=-1) + dphi
    theta, phi = np.mod(theta, _TWO_PI), np.mod(phi, _TWO_PI)
    a = v.theta.shape[-1]
    b = a + device.sigma_theta.shape[-1]
    return replace(
        device,
        v_dagger_mesh=replace(v, theta=theta[..., :a], phi=phi[..., :a]),
        sigma_theta=theta[..., a:b],
        sigma_phi=phi[..., a:b],
        u_mesh=replace(u, theta=theta[..., b:], phi=phi[..., b:]),
    )


def with_loss(device, loss: LossModel):
    """Same programmed device, different component losses.

    Works for either architecture: any device dataclass with a ``loss``
    field.
    """
    return replace(device, loss=loss)


def svd_insertion_loss(n: int, il_node_db: float, case: str) -> float:
    """Closed-form device insertion loss along the extreme signal paths.

    10 log10(N) + depth IL_node, with the best- or worst-case depth of
    ``svd_architecture_stats``.
    """
    if il_node_db < 0.0:
        raise DomainError(f"il_node_db must be >= 0, got {il_node_db}")
    if case not in ("best", "worst"):
        raise DomainError(f"case must be 'best' or 'worst', got {case!r}")
    depth = svd_architecture_stats(n)[f"{case}_depth"]
    return 10.0 * math.log10(n) + depth * il_node_db


def svd_architecture_stats(n: int) -> dict:
    """Cell count, extreme path depths, and programming step count.

    A bar-state path stays on its port: it crosses every layer that covers
    the port once in each of the two meshes, plus the port's attenuator, so
    the depths are 2 min + 1 and 2 max + 1 over the ports' layer counts.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    covering = [0] * n
    for first, _start, count in _layers(n):
        for port in range(first, first + 2 * count):
            covering[port] += 1
    return {
        "nodes": n * n,
        "best_depth": 2 * min(covering) + 1,
        "worst_depth": 2 * max(covering) + 1,
        "programming_steps": n * (n - 1) // 2,
    }


def _mesh_to_json(mesh: ClementsMesh) -> tuple[list, list]:
    nodes = [
        {"row": row, "layer": layer, "theta": theta, "phi": phi}
        for (layer, row), theta, phi in zip(_cells(mesh.n), mesh.theta.tolist(), mesh.phi.tolist())
    ]
    return nodes, mesh.output_phases.tolist()


def _list(obj: dict, key: str, length: int) -> list:
    value = obj.get(key)
    if not isinstance(value, list) or len(value) != length:
        raise DomainError(f"svd-clements dump: {key!r} must be a list of {length} entries")
    return value


def _mesh_from_json(obj: dict, name: str, n: int) -> ClementsMesh:
    phases = _list(obj, f"{name}_output_phases", n)
    cells = [
        tuple(number_from_json(c, key, name) for key in ("layer", "row", "theta", "phi"))
        for c in _list(obj, name, n * (n - 1) // 2)
    ]
    return _mesh(n, cells, [number_from_json(phases, i, f"{name} output phases") for i in range(n)], name)


def device_to_json(device: ClementsDevice) -> dict:
    v_nodes, v_phases = _mesh_to_json(device.v_dagger_mesh)
    u_nodes, u_phases = _mesh_to_json(device.u_mesh)
    return {
        "arch": "svd-clements",
        "n": device.n,
        "v_dagger": v_nodes,
        "v_dagger_output_phases": v_phases,
        "sigma": [
            {"theta": theta, "phi": phi}
            for theta, phi in zip(device.sigma_theta.tolist(), device.sigma_phi.tolist())
        ],
        "u": u_nodes,
        "u_output_phases": u_phases,
        "loss": device.loss.to_json(),
        "programming_steps": device.programming_steps,
    }


def device_from_json(obj: dict) -> ClementsDevice:
    """Load a ``device_to_json`` dump; DomainError unless it is a valid device.

    Each mesh must list every (layer, row) cell of the n-port rectangular
    layout exactly once, in any order, and n output phases; the attenuator
    column must have n cells; ``programming_steps`` must be n(n-1)/2.
    """
    arch = obj.get("arch") if isinstance(obj, dict) else None
    if arch != "svd-clements":
        raise DomainError(f"not an svd-clements device dump: arch={arch!r}")
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise DomainError(f"svd-clements dump: n must be an integer >= 2, got {n!r}")
    steps = number_from_json(obj, "programming_steps", "svd-clements dump")
    if steps != n * (n - 1) // 2:
        raise DomainError(f"svd-clements dump: programming_steps must be {n * (n - 1) // 2}, got {steps}")
    sigma = _list(obj, "sigma", n)
    return ClementsDevice(
        v_dagger_mesh=_mesh_from_json(obj, "v_dagger", n),
        sigma_theta=np.mod([number_from_json(c, "theta", "sigma") for c in sigma], _TWO_PI),
        sigma_phi=np.mod([number_from_json(c, "phi", "sigma") for c in sigma], _TWO_PI),
        u_mesh=_mesh_from_json(obj, "u", n),
        loss=LossModel.from_json(obj.get("loss")),
    )

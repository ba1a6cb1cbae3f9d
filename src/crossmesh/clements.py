"""Rectangular MZI-mesh factorization of unitaries and the SVD device.

``clements_decompose`` implements the rectangular-mesh factorization of
Clements et al. (Optica 3, 1460, 2016) adapted to this library's cell
convention: a unitary is eliminated to a diagonal by alternating column
(right-inverse) and row (left) cell operations, and the left factors are
then commuted through the residual phase screen so that all cells end up
between the inputs and a single output phase screen.  The elimination
order depends on n alone, so a ``(..., n, n)`` stack of unitaries is
factored in one pass into meshes with those batch axes.

Meshes are stored as arrays.  The rectangular layout follows from the port
count n alone: the mesh has n layers (one when n = 2), and layer k
(0-based, inputs first) couples the port pairs (r, r + 1) for
r = k % 2, k % 2 + 2, ... up to n - 2.  A mesh's ``theta`` and ``phi``
list its n(n-1)/2 cells layer by layer, rows ascending within a layer
("layer-major" order), so every layer is a contiguous run of cells acting
on a strided slice of the ports.  The phase arrays may carry leading
batch axes; a batch of meshes sharing the layout evaluates in one pass.

The full device cascades a mesh for ``v_dagger``, one attenuator cell per
port for the singular values, and a mesh for ``u``: n^2 cells in all, stored
end to end as one ``theta`` and one ``phi`` array; a batch of phase trials
is a batch of devices.  With lossy cells every cell contributes the scalar
field factor ``T_node``, so signal paths that traverse different numbers of
cells pick up unequal attenuation; that imbalance is the device's
loss-induced infidelity mechanism.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import array_from_json, ensure_square, int_from_json, number_from_json, svd_factorize, unitarity_residual
from .nodes import LossModel, cell_entries, mzi_entries, voa_transfer, voa_transfer_at

_TWO_PI = 2.0 * math.pi
_UNITARY_ATOL = 1e-8


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
    axes, if any, index a batch of meshes.  ``output_phases`` (``(..., n)``)
    is the phase screen after the last layer, one per mesh or shared.
    """

    n: int
    theta: np.ndarray
    phi: np.ndarray
    output_phases: np.ndarray


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


@functools.cache
def _elimination(n: int) -> tuple[tuple, tuple, np.ndarray]:
    """The n-port elimination steps, the row steps last first, and the step of each layer-major slot.

    Step ``(column, r, c)`` nulls entry (r, c) by mixing columns (c, c + 1)
    or rows (r - 1, r).  After the row steps are commuted through the phase
    screen, each cell takes the earliest layer free on both its ports: the
    rectangular layout.
    """
    steps = [
        (True, n - 1 - j, i - 1 - j) if i % 2 else (False, n - i + j, j)
        for i in range(1, n) for j in range(i)
    ]
    lefts = [s for s in reversed(range(len(steps))) if not steps[s][0]]
    next_free, slots = [0] * n, {}
    for s in [s for s, step in enumerate(steps) if step[0]] + lefts:
        column, r, c = steps[s]
        row = c if column else r - 1
        layer = max(next_free[row], next_free[row + 1]) + 1
        next_free[row] = next_free[row + 1] = layer
        slots[layer, row] = s
    order = np.array([slots[cell] for cell in _cells(n)], dtype=np.intp)
    order.flags.writeable = False  # shared by every caller through the cache
    return tuple(steps), tuple(lefts), order


def clements_decompose(u) -> ClementsMesh:
    """Factor a unitary, or a stack ``(..., n, n)`` of them, into rectangular MZI meshes.

    Parameters
    ----------
    u : array_like
        Square matrices, each unitary within ``_UNITARY_ATOL`` (max entry
        deviation of ``u^dagger u`` from the identity).

    Returns
    -------
    ClementsMesh
        ``n(n-1)/2`` cells in layer-major order plus n output phases, after
        the stack's batch axes.  The lossless mesh transfer reproduces each
        matrix to close to machine precision.  Each step computes every
        matrix's cell angles on Python scalars and updates all their rows or
        columns elementwise, so each mesh is bit-identical to its matrix's alone.
    """
    u = ensure_square(u, name="u")
    residual = unitarity_residual(u)
    if residual > _UNITARY_ATOL:
        raise DomainError(
            f"input is not unitary within {_UNITARY_ATOL:g}: residual {residual:.3e}"
        )
    n = u.shape[-1]
    work = u.reshape(-1, n, n).copy()
    cols = work.swapaxes(1, 2)  # column j of every matrix, as a row
    steps, lefts, order = _elimination(n)
    recorded = np.empty((len(steps), len(work), 2))  # per step, each matrix's (theta, phi)
    for step, (column, r, c) in enumerate(steps):
        if column:
            # Right-multiply columns (c, c + 1) by M(theta, phi)^dagger.
            angles = [_null_angles(keep, zero, -math.pi) for zero, keep in work[:, r, c : c + 2].tolist()]
            m = np.array([e.conjugate() for a in angles for e in mzi_entries(*a)]).reshape(-1, 4, 1)
            pair = cols[:, c : c + 2]
            cols[:, c : c + 2] = pair[:, :1] * m[:, 0::2] + pair[:, 1:] * m[:, 1::2]
        else:
            # Left-multiply rows (r - 1, r) by M(theta, phi).
            angles = [_null_angles(keep, zero, 0.0) for keep, zero in work[:, r - 1 : r + 1, c].tolist()]
            m = np.array([e for a in angles for e in mzi_entries(*a)]).reshape(-1, 4, 1)
            pair = work[:, r - 1 : r + 1]
            work[:, r - 1 : r + 1] = m[:, 0::2] * pair[:, :1] + m[:, 1::2] * pair[:, 1:]
        recorded[step] = angles

    diag = np.diagonal(work, axis1=1, axis2=2).copy()
    work[:, range(n), range(n)] = 0.0
    if np.max(np.abs(work)) > 1e-6:
        raise DomainError(
            f"elimination failed to diagonalize (residual {np.max(np.abs(work)):.3e}); "
            "input is too far from unitary"
        )

    # Commute each row-step cell through the phase screen, last first:
    # M(theta, phi)^dagger diag(e^{ia}, e^{ib})
    #   = diag(e^{ia'}, e^{ib'}) M(theta, a - b)
    # with a' = b - theta - phi + pi and b' = b - theta + pi.
    phases = np.angle(diag)
    for k, screen in enumerate(phases.tolist()):
        th, ph = recorded[:, k].T.tolist()
        for s in lefts:
            row = steps[s][1] - 1
            a, b = screen[row], screen[row + 1]
            screen[row] = b - th[s] - ph[s] + math.pi
            screen[row + 1] = b - th[s] + math.pi
            ph[s] = a - b
        recorded[:, k, 1], phases[k] = ph, screen
    theta, phi = np.mod(recorded[order].T, _TWO_PI)
    shape = u.shape[:-2] + (-1,)
    return ClementsMesh(n, theta.reshape(shape), phi.reshape(shape), np.mod(phases, _TWO_PI).reshape(shape))


def apply_mesh(y: np.ndarray, mesh: ClementsMesh, *, node_field=1.0) -> np.ndarray:
    """Left-multiply ``y`` by the mesh transfer, cell losses included.

    ``y`` has shape ``(..., n, m)``; its leading axes broadcast against the
    batch axes of the mesh's phase arrays.  ``node_field`` is the per-cell
    scalar field factor (``T_node``); ports that skip a layer pass
    unattenuated; a ``(K, 1)`` array of them adds a leading axis of K.
    Each layer's cells take their entries from one ``nodes.cell_entries``
    call.
    """
    y = np.asarray(y)
    if y.ndim < 2 or y.shape[-2] != mesh.n:
        raise DimensionError(f"operand of shape {y.shape} does not have the mesh's {mesh.n} rows")
    batch = np.broadcast_shapes(y.shape[:-2], mesh.theta.shape[:-1], np.shape(node_field)[:-1])
    out = np.empty(batch + y.shape[-2:], dtype=np.complex128)
    out[...] = y
    for first, start, count in _layers(mesh.n):
        cells = slice(start, start + count)
        entries = cell_entries(mesh.theta[..., cells], mesh.phi[..., cells], node_field)
        m11, m12, m21, m22 = (m[..., None] for m in entries)
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
    return np.multiply(np.exp(1j * mesh.output_phases)[..., None], out, out=out)


@dataclass(frozen=True, eq=False)
class ClementsDevice:
    """A programmed SVD device: v_dagger mesh, attenuator column, u mesh.

    ``theta`` and ``phi`` (``(..., n^2)``, reduced mod 2 pi) hold the n^2
    cells laid end to end: v_dagger cells in layer-major order, the
    attenuators by port, then u cells in layer-major order.
    ``output_phases`` (``(..., 2, n)``) holds the v_dagger and u meshes'
    phase screens.  Leading axes, if any, index a batch of devices.  An
    attenuator's phi shifter sits on its unconnected arm.
    """

    n: int
    theta: np.ndarray
    phi: np.ndarray
    output_phases: np.ndarray
    loss: LossModel

    @property
    def programming_steps(self) -> int:
        return self.n * (self.n - 1) // 2

    def parts(self) -> tuple[ClementsMesh, np.ndarray, np.ndarray, ClementsMesh]:
        """Views ``(v_dagger_mesh, sigma_theta, sigma_phi, u_mesh)`` of the cells."""
        a, b = self.n * (self.n - 1) // 2, self.n * (self.n + 1) // 2  # v_dagger cells end at a, attenuators at b
        v = ClementsMesh(self.n, self.theta[..., :a], self.phi[..., :a], self.output_phases[..., 0, :])
        u = ClementsMesh(self.n, self.theta[..., b:], self.phi[..., b:], self.output_phases[..., 1, :])
        return v, self.theta[..., a:b], self.phi[..., a:b], u

    def __getitem__(self, index) -> ClementsDevice:
        """Device ``index`` of a batch built from a stack of matrices."""
        return replace(self, theta=self.theta[index], phi=self.phi[index], output_phases=self.output_phases[index])


def _device(v: ClementsMesh, sigma_theta, sigma_phi, u: ClementsMesh, loss: LossModel) -> ClementsDevice:
    """The device of these meshes and attenuator phases: the inverse of ``ClementsDevice.parts``."""
    theta = np.concatenate((v.theta, sigma_theta, u.theta), axis=-1)
    phi = np.concatenate((v.phi, sigma_phi, u.phi), axis=-1)
    return ClementsDevice(v.n, theta, phi, np.stack((v.output_phases, u.output_phases), axis=-2), loss)


def build_svd_clements(d, loss: LossModel) -> ClementsDevice:
    """Compile square matrices onto the SVD mesh architecture.

    The target is SVD-factorized, singular values are normalized by the
    largest one so every attenuator amplitude lies in [0, 1], and the two
    unitary factors are compiled to rectangular meshes.  The attenuator
    cells carry an inherent phase ``-i e^{i theta/2}`` on their through
    port; those phases are folded into the u-side unitary before its mesh
    is computed, so the lossless device reproduces the target up to one
    positive scalar.

    ``d`` is ``(..., n, n)``, the device's phase arrays carry its batch
    axes, and ``device[k]`` is bit-identical to the device of ``d[k]``.

    Phases are always computed from the lossless factors; ``loss`` only
    scales the cells at evaluation time.  DomainError for n < 2, which
    ``device_from_json`` would refuse to load.
    """
    u, sigma, v_dagger = svd_factorize(d)
    n = sigma.shape[-1]
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    sigma_max = sigma[..., :1]
    if np.any(sigma_max == 0.0):
        raise DomainError("cannot compile the zero matrix")
    amplitudes = sigma / sigma_max

    flat = amplitudes.ravel().tolist()
    transfers, sigma_theta = zip(*map(voa_transfer, flat))
    # Fold the attenuators' inherent unit-modulus phases into u.
    inherent = np.reshape([t / a if a > 0.0 else -1j for t, a in zip(transfers, flat)], amplitudes.shape)
    m = clements_decompose(np.stack((v_dagger, u * inherent.conj()[..., None, :])))
    v_mesh, u_mesh = (ClementsMesh(m.n, m.theta[k], m.phi[k], m.output_phases[k]) for k in (0, 1))
    return _device(v_mesh, np.reshape(sigma_theta, amplitudes.shape), np.zeros(amplitudes.shape), u_mesh, loss)


def evaluate_svd_clements(device: ClementsDevice, *, losses=None) -> np.ndarray:
    """Effective transfer matrix of the device, losses included.

    Propagates the uniform 1:N input split (scalar ``1/sqrt(N)``), the
    v_dagger mesh, the attenuator column, and the u mesh.  A batch of
    devices gives the stack of their transfer matrices.

    ``losses``, if given, is a sequence of K ``LossModel``s used in place
    of ``device.loss`` of a single device: the ``(K, n, n)`` stack equals
    K ``with_loss(device, losses[k])`` evaluations bit for bit.
    """
    v, sigma_theta, _sigma_phi, u = device.parts()
    if losses is None:
        t_field = device.loss.t_node
        attenuators = voa_transfer_at(sigma_theta, device.loss)
    elif device.theta.ndim > 1:
        raise DimensionError(f"losses= takes a single device, not a batch of shape {device.theta.shape[:-1]}")
    else:
        t_field = np.array([loss.t_node for loss in losses])[:, None]
        attenuators = np.stack([voa_transfer_at(sigma_theta, loss) for loss in losses])
    y = np.eye(device.n, dtype=np.complex128) / math.sqrt(device.n)
    y = apply_mesh(y, v, node_field=t_field)
    y = attenuators[..., None] * y
    return apply_mesh(y, u, node_field=t_field)


def apply_common_deviation(device: ClementsDevice, dtheta, dphi) -> ClementsDevice:
    """The device with (dtheta, dphi) added to every MZI cell, reduced mod 2 pi.

    The deviations broadcast against ``device.theta`` and ``device.phi``.
    A scalar pair is one shared deviation on every cell, the
    figure-experiment error model.  Arrays of length n^2 give each cell,
    in the device's cell order, its own deviation (independent per-cell
    errors), e.g. columns 0 and 1 of ``rng.normal(0, sigma, (n * n, 2))``.
    Leading axes make a batch of devices: ``(K, 1)`` columns are K
    shared-deviation trials.  Output phase screens are plain shifters, not
    MZI cells, and stay untouched.
    """
    return replace(device, theta=np.mod(device.theta + dtheta, _TWO_PI), phi=np.mod(device.phi + dphi, _TWO_PI))


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
    the port once in each of the two meshes, plus the port's attenuator.
    Layers start alternately at rows 0 and 1, so an edge port lies in
    floor(n/2) or more layers and an inner port (none at n = 2) in all n.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    return {
        "nodes": n * n,
        "best_depth": 2 * (n // 2) + 1,
        "worst_depth": 2 * n + 1 if n > 2 else 3,
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
    """DomainError unless the (layer, row) cells, in any order, cover the n-port layout once each."""
    layers, rows, theta, phi = zip(*sorted(
        (int_from_json(c, "layer", name), int_from_json(c, "row", name),
         number_from_json(c, "theta", name), number_from_json(c, "phi", name))
        for c in _list(obj, name, n * (n - 1) // 2)
    ))
    if list(zip(layers, rows)) != _cells(n):
        raise DomainError(f"{name} cells do not cover the {n}-port rectangular layout once each")
    output = array_from_json(obj, f"{name}_output_phases", (n,), "svd-clements dump")
    return ClementsMesh(n, np.mod(theta, _TWO_PI), np.mod(phi, _TWO_PI), output)


def device_to_json(device: ClementsDevice) -> dict:
    v, sigma_theta, sigma_phi, u = device.parts()
    v_nodes, v_phases = _mesh_to_json(v)
    u_nodes, u_phases = _mesh_to_json(u)
    return {
        "arch": "svd-clements",
        "n": device.n,
        "v_dagger": v_nodes,
        "v_dagger_output_phases": v_phases,
        "sigma": [
            {"theta": theta, "phi": phi}
            for theta, phi in zip(sigma_theta.tolist(), sigma_phi.tolist())
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
    n = int_from_json(obj, "n", "svd-clements dump")
    if n < 2:
        raise DomainError(f"svd-clements dump: n must be >= 2, got {n}")
    steps = int_from_json(obj, "programming_steps", "svd-clements dump")
    if steps != n * (n - 1) // 2:
        raise DomainError(f"svd-clements dump: programming_steps must be {n * (n - 1) // 2}, got {steps}")
    sigma = _list(obj, "sigma", n)
    return _device(
        _mesh_from_json(obj, "v_dagger", n),
        np.mod([number_from_json(c, "theta", "sigma") for c in sigma], _TWO_PI),
        np.mod([number_from_json(c, "phi", "sigma") for c in sigma], _TWO_PI),
        _mesh_from_json(obj, "u", n),
        LossModel.from_json(obj.get("loss")),
    )

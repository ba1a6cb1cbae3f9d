"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written along a different route than the
code under test: the SVD uses one-sided Jacobi rotations instead of LAPACK,
mesh propagation multiplies explicit dense layer matrices instead of
two-row updates, the crossbar output is a literal per-column sum, a
phase trial's deviations come from its own ``trial_rng`` stream, path depths
are counted port by port, and the balanced crossbar's insertion loss is
summed in the log domain.
"""

import math

import numpy as np

from crossmesh.clements import _layers
from crossmesh.montecarlo import trial_rng
from crossmesh.nodes import db_to_field


def jacobi_svd(a, tol=1e-14, max_sweeps=60):
    """One-sided Jacobi SVD of a complex square matrix.

    Returns (u, sigma, v_dagger) with sigma descending.  Orthogonalizes
    column pairs of ``a @ v`` until all cross products vanish.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    w = a.copy()
    v = np.eye(n, dtype=np.complex128)
    norm = np.linalg.norm(a)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = np.vdot(w[:, p], w[:, p]).real
                aqq = np.vdot(w[:, q], w[:, q]).real
                apq = np.vdot(w[:, p], w[:, q])
                off = max(off, abs(apq))
                if abs(apq) <= tol * norm * norm:
                    continue
                # 2x2 Hermitian eigenproblem for the Gram block
                tau = (aqq - app) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                phase = apq / abs(apq)
                rot = np.eye(n, dtype=np.complex128)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s * phase
                rot[q, p] = -s * np.conj(phase)
                w = w @ rot
                v = v @ rot
        if off <= tol * norm * norm:
            break
    sigma = np.array([np.linalg.norm(w[:, j]) for j in range(n)])
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    w = w[:, order]
    v = v[:, order]
    u = np.zeros_like(w)
    for j in range(n):
        if sigma[j] > 1e-300:
            u[:, j] = w[:, j] / sigma[j]
        else:
            u[:, j] = 0.0
    return u, sigma, v.conj().T


def mzi_product(theta, phi):
    """Explicit four-matrix product for the 2x2 cell."""
    b = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=np.complex128) / np.sqrt(2.0)
    d_theta = np.diag([np.exp(1j * theta), 1.0])
    d_phi = np.diag([np.exp(1j * phi), 1.0])
    return b @ d_theta @ b @ d_phi


def haar_unitary_qr(n, rng):
    """Haar unitary via QR of a complex Ginibre matrix with phase fix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def mesh_layer_product(mesh, node_field=1.0):
    """Mesh transfer as an explicit product of dense embedded layer matrices.

    The cells are read from ``mesh.theta``/``mesh.phi`` in order; layer k
    (0-based) of an n-port rectangular mesh holds the cells on rows
    k % 2, k % 2 + 2, ... up to n - 2, and there are n layers.
    """
    n = mesh.n
    cells = iter(zip(mesh.theta.tolist(), mesh.phi.tolist()))
    total = np.eye(n, dtype=np.complex128)
    for k in range(n):
        mat = np.eye(n, dtype=np.complex128)
        for r in range(k % 2, n - 1, 2):
            theta, phi = next(cells)
            block = node_field * mzi_product(theta, phi)
            mat[r, r] = block[0, 0]
            mat[r, r + 1] = block[0, 1]
            mat[r + 1, r] = block[1, 0]
            mat[r + 1, r + 1] = block[1, 1]
        total = mat @ total
    if next(cells, None) is not None:
        raise ValueError("mesh has more cells than its rectangular layout")
    return np.diag(np.exp(1j * mesh.output_phases)) @ total


def svd_device_layer_product(device):
    """Full lossy device transfer built from dense layer matrices."""
    n = device.n
    v_dagger_mesh, sigma_theta, sigma_phi, u_mesh = device.parts()
    t_field = device.loss.t_node
    result = mesh_layer_product(v_dagger_mesh, t_field) / np.sqrt(n)
    column = np.zeros((n, n), dtype=np.complex128)
    for r, (theta, phi) in enumerate(zip(sigma_theta, sigma_phi)):
        cell = t_field * mzi_product(theta, phi)
        column[r, r] = cell[1, 1]
    result = column @ result
    return mesh_layer_product(u_mesh, t_field) @ result


def xbar_column_sums(device, x):
    """Crossbar outputs as literal per-column weighted sums (Eq.-by-hand)."""
    top = device.topology
    loss = device.loss
    m = top.m
    log2nf = top.n_f.bit_length() - 1
    outputs = np.zeros(m, dtype=np.complex128)
    t_prod = 1.0
    for c in range(1, m + 1):
        if c < m:
            n_xi = c
            n_cross = top.recomb_crossings + (c - 1) * top.m_fwd
        else:
            n_xi = m - 1
            n_cross = (m - 1) * top.m_fwd
        l_c = loss.l_coup ** (2 * log2nf) * db_to_field(loss.il_xi_db) ** n_xi * db_to_field(loss.il_x_db) ** n_cross
        xi_c = device.xi[c - 1]
        acc = 0.0 + 0.0j
        for r in range(top.n):
            acc += x[r] * device.weights[r, c - 1]
        outputs[c - 1] = loss.alpha * loss.t_node * l_c * (1.0 / top.n_f) * t_prod * xi_c * acc
        if c < m:
            t_prod *= device.t[c - 1]
    return outputs


def column_transmissions(device):
    """Per-column p_c by direct evaluation of the defining product."""
    top = device.topology
    loss = device.loss
    log2nf = top.n_f.bit_length() - 1
    p = np.zeros(top.m)
    t_prod = 1.0
    for c in range(1, top.m + 1):
        if c < top.m:
            n_xi = c
            n_cross = top.recomb_crossings + (c - 1) * top.m_fwd
        else:
            n_xi = top.m - 1
            n_cross = (top.m - 1) * top.m_fwd
        l_c = loss.l_coup ** (2 * log2nf) * db_to_field(loss.il_xi_db) ** n_xi * db_to_field(loss.il_x_db) ** n_cross
        p[c - 1] = loss.alpha * loss.t_node * l_c * device.xi[c - 1] * t_prod / top.n_f
        if c < top.m:
            t_prod *= device.t[c - 1]
    return p


def trial_deviation_pair(master_seed, arch, n, sweep_index, matrix_index, trial_index, sigma):
    """One phase trial's (d_theta, d_phi), drawn from its own seeded stream."""
    rng = trial_rng(master_seed, arch, n, sweep_index, matrix_index, trial_index)
    return float(rng.normal(0.0, sigma)), float(rng.normal(0.0, sigma))


def svd_path_depths(n):
    """(best, worst) bar-state path depth of the n-port SVD device, counted port by port.

    Each layer covers rows first .. first + 2 count - 1; a path crosses its
    port's layers in both meshes plus the port's attenuator.
    """
    covering = [0] * n
    for first, _start, count in _layers(n):
        for port in range(first, first + 2 * count):
            covering[port] += 1
    return 2 * min(covering) + 1, 2 * max(covering) + 1


def balanced_xbar_insertion_loss_db(topology, loss, il_node_db):
    """Insertion loss of the loss-balanced N x N crossbar, summed in dB so nothing underflows.

    The lossless coupler chain conserves power, sum_c |(prod_{q<c} t_q) xi_c|^2
    = 1, and balancing makes every L_c (prod_{q<c} t_q) xi_c the same p, so
    p^-2 = sum_c L_c^-2 and IL = IL_node + 20 log10(N_f / N) - 20 log10 p.
    """
    log2nf = topology.n_f.bit_length() - 1
    m = topology.m
    db = []  # -20 log10 L_c, column by column
    for c in range(1, m + 1):
        n_cross = (c - 1) * topology.m_fwd + (topology.recomb_crossings if c < m else 0)
        db.append(2 * log2nf * loss.il_coup_db + min(c, m - 1) * loss.il_xi_db + n_cross * loss.il_x_db)
    top = max(db)
    inverse_p2_db = top + 10.0 * math.log10(math.fsum(10.0 ** ((d - top) / 10.0) for d in db))
    return il_node_db + 20.0 * math.log10(topology.n_f / topology.n) + inverse_p2_db

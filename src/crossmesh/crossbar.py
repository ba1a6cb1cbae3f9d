"""The coherent crossbar: topology, splitter design, losses, evaluation.

An N x M crossbar splits each input row across M columns through a chain of
xi^2:t^2 directional couplers, weights every (row, column) crossing with a
single amplitude-and-phase cell, and coherently recombines each column in a
Y-junction tree.  Rows are padded to the next power of two ``N_f`` so the
combiner trees are balanced; dummy waveguide crossings equalize the crossing
count inside every column.

All per-column bookkeeping reduces to the diagonal transmission matrix

    p_c = alpha * T_node * L_c * (1/N_f) * (prod_{q<c} t_q) * xi_c

with L_c = 10^(-A_c/20) the passive path to column c, its loss A_c kept in
dB (``passive_loss_db``), so the realized operator is ``P^T W^T`` for
weight matrix W.  Balanced couplers make every p_c equal,
``L_c xi_c = L_{c+1} t_c xi_{c+1}`` for each c, so the whole loss budget is
a global scalar (fidelity exactly 1); with identical couplers instead, the
per-column imbalance is removed after the fact by the diagonal restoration
matrix ``(P^T)^{-1}``.  Phase errors change the weights themselves:
``weights_with_common_deviation`` is the general per-cell route (the test
oracle, and the one for independent per-cell errors), while
``common_deviation_fidelity`` scores any array of deviations shared by
every cell in closed form, deriving P and the cell angles once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDeviceError, DimensionError, DomainError
from .linalg import array_from_json, ensure_matrix, int_from_json
from .nodes import LossModel

# The coupler designs, by the name a device dump stores: loss-balanced ratios
# (the first, and the default) or identical 50:50 couplers.
XBAR_MODES = ("balanced", "uniform")


@dataclass(frozen=True)
class XbarTopology:
    """Geometry of an N x M crossbar padded to N_f rows.

    ``m_fwd`` is the dummy/real crossing count per forwarding row per
    column; ``recomb_crossings`` the crossings along each recombination
    path.  Both vanish for N_f = 2 and equal max(1, log2(N_f) - 2) and
    N_f/2 - 1 otherwise.
    """

    n: int
    m: int
    n_f: int
    m_fwd: int
    recomb_crossings: int

    @property
    def log2_n_f(self) -> int:
        return self.n_f.bit_length() - 1


def build_topology(n: int, m: int) -> XbarTopology:
    """Topology for an N-input, M-column crossbar.

    N is padded to the smallest power of two ``N_f >= N``; the padded rows
    are dead (zero input, zero weight) but their splitting loss remains.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    n_f = 1 << (n - 1).bit_length()
    if n_f >= 4:
        log2nf = n_f.bit_length() - 1
        m_fwd = max(1, log2nf - 2)
        recomb = n_f // 2 - 1
    else:
        m_fwd = 0
        recomb = 0
    return XbarTopology(n=n, m=m, n_f=n_f, m_fwd=m_fwd, recomb_crossings=recomb)


def passive_loss_db(topology: XbarTopology, loss: LossModel) -> np.ndarray:
    """Power loss A_c in dB of the passive circuitry up to each column c = 1..M.

    Covers the front-end splitter and combiner-tree couplers
    (``2 log2(N_f)`` of them), the ``min(c, M - 1)`` directional couplers
    passed, and the waveguide crossings: ``m_fwd`` per forwarding section
    before column c, plus the recombination path, which the final column
    (no forwarding waveguides to cross) omits.
    """
    m = topology.m
    c = np.arange(1, m + 1)
    n_xi = np.minimum(c, m - 1)
    n_cross = (c - 1) * topology.m_fwd + np.where(c < m, topology.recomb_crossings, 0)
    return 2 * topology.log2_n_f * loss.il_coup_db + n_xi * loss.il_xi_db + n_cross * loss.il_x_db


def design_splitters(topology: XbarTopology, loss: LossModel) -> tuple[np.ndarray, np.ndarray]:
    """Coupler ratios that equalize the transmission p_c of every column.

    p_c = p_{c+1} reads ``L_c xi_c = L_{c+1} t_c xi_{c+1}``; with
    ``xi_c^2 + t_c^2 = 1`` that is ``xi_c^2 = x / (1 + x)`` and
    ``t_c^2 = 1 / (1 + x)`` for ``x = xi_{c+1}^2 10^((A_c - A_{c+1}) / 10)``,
    solved backward from the last column's virtual coupler ``xi_M = 1``
    (``1 - xi_c^2`` would cancel as xi_c^2 nears 1, to relative error
    eps * x).  Only the last step, which skips column M's recombination
    crossings, can have A_c > A_{c+1}, and its x is capped at 10^300, where
    x / (1 + x) is 1.0 anyway.  Returns (xi, t), ``t`` of length M - 1;
    DomainError once xi_1^2, the least, underflows (silicon passives:
    n >= 9018).
    """
    a_c = passive_loss_db(topology, loss).tolist()
    xi2, t2 = [1.0] * topology.m, [0.0] * (topology.m - 1)
    for c in range(topology.m - 2, -1, -1):
        x = xi2[c + 1] * 10.0 ** (min(a_c[c] - a_c[c + 1], 3000.0) / 10.0)
        xi2[c], t2[c] = x / (1.0 + x), 1.0 / (1.0 + x)
    if xi2[0] < 2.0**-1022:  # the least normal double, sys.float_info.min
        raise DomainError(f"crossbar coupler design at n={topology.n}: xi_1^2 underflows")
    return np.sqrt(xi2), np.sqrt(t2)


def uniform_splitters(topology: XbarTopology) -> tuple[np.ndarray, np.ndarray]:
    """Identical 50:50 couplers on every column (no loss balancing)."""
    m = topology.m
    xi = np.full(m, 1.0 / math.sqrt(2.0))
    xi[m - 1] = 1.0
    t = np.full(m - 1, 1.0 / math.sqrt(2.0))
    return xi, t


@dataclass(frozen=True, eq=False)
class XbarDevice:
    """A programmed crossbar: weights, coupler ratios, loss model and the ``XBAR_MODES`` name of its couplers."""

    topology: XbarTopology
    weights: np.ndarray
    xi: np.ndarray
    t: np.ndarray
    loss: LossModel
    mode: str


def _cell_angles(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's attenuator angle ``2 arcsin|w|`` and value phase ``angle(w)``."""
    return 2.0 * np.arcsin(np.clip(np.abs(w), 0.0, 1.0)), np.angle(w)


def transmission_matrix(device: XbarDevice) -> np.ndarray:
    """Per-column field factors p_c (the diagonal of P) collecting every split and loss."""
    top = device.topology
    loss = device.loss
    t_products = np.concatenate(([1.0], np.cumprod(device.t)))
    l_c = 10.0 ** (-passive_loss_db(top, loss) / 20.0)
    return loss.alpha * loss.t_node * l_c * t_products * device.xi / top.n_f


def build_xbar(y, loss: LossModel, mode: str = XBAR_MODES[0]) -> XbarDevice:
    """Program a crossbar for an N x M complex target in one step.

    Every entry maps to its own cell: the stored weight matrix is the
    target divided by its largest entry magnitude, so all cell amplitudes
    lie in [0, 1].  ``mode``, one of ``XBAR_MODES``, selects loss-balanced
    coupler ratios (``"balanced"``, the default) or identical 50:50
    couplers (``"uniform"``); the device keeps it as its ``mode``.
    """
    y = ensure_matrix(y, name="y")
    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        raise DomainError("cannot program the zero matrix")
    topology = build_topology(y.shape[0], y.shape[1])
    if mode not in XBAR_MODES:
        raise DomainError(f"mode must be one of {XBAR_MODES}, got {mode!r}")
    xi, t = design_splitters(topology, loss) if mode == XBAR_MODES[0] else uniform_splitters(topology)
    return XbarDevice(topology=topology, weights=y / scale, xi=xi, t=t, loss=loss, mode=mode)


def realized_matrix(device: XbarDevice, weights: np.ndarray | None = None) -> np.ndarray:
    """The M x N operator the device applies to its input vector: P^T W^T.

    ``weights`` (default: the device's own) may be a (..., N, M) stack, such
    as a batch of trials from ``weights_with_common_deviation``; the result
    is then the (..., M, N) stack of operators.
    """
    w = device.weights if weights is None else weights
    return transmission_matrix(device)[:, None] * np.swapaxes(w, -1, -2)


def evaluate_xbar(device: XbarDevice, x) -> np.ndarray:
    """Column outputs for an input vector within the modulator range."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.shape[0] != device.topology.n:
        raise DimensionError(
            f"input must be a vector of length {device.topology.n}, got shape {x.shape}"
        )
    if np.max(np.abs(x)) > 1.0 + 1e-12:
        raise DomainError("input amplitudes exceed the modulator range |x_r| <= 1")
    return realized_matrix(device) @ x


def xbar_insertion_loss(topology: XbarTopology, loss: LossModel, il_node_db: float) -> float:
    """Closed-form insertion loss of the loss-balanced crossbar, in dB, at any size numpy can index.

    IL = IL_node + 2 log2(N_f) IL_coup + IL_xi + (N_f/2 - 1) IL_x
         - 10 log10(xi_1^2) + 20 log10(N_f / N)

    with xi_1 from ``design_splitters``.  The lossless coupler chain conserves
    power and balancing equalizes every L_c (prod_{q<c} t_q) xi_c, so the
    passive terms and xi_1 add up to 10 log10 sum_c 10^(A_c/10), which is
    how it is computed: relative to the largest A_c, with no coupler solved
    and nothing to underflow.  Assumes transparent cells and modulators
    (alpha = 1); every column of the balanced design then shows this same
    loss.  The cell term is ``il_node_db``, given apart from ``loss`` so the
    cell technology can be swept against fixed passive metrics: only the
    passive terms of ``loss`` are read (its coupler term refers to the
    splitter/combiner trees).  Requires M >= 2 (a single column has no
    coupler chain for the IL_xi term to describe) and M < 2**59, half
    numpy's bound on an array of M doubles; a DomainError names n otherwise.
    """
    if topology.m < 2:
        raise DomainError("closed-form insertion loss requires at least two columns")
    if topology.m > np.iinfo(np.intp).max // 16:  # half numpy's limit: np.arange rounds a long length up
        raise DomainError(f"crossbar insertion loss at n={topology.n}: too many columns for a numpy array")
    if il_node_db < 0.0:
        raise DomainError(f"il_node_db must be >= 0, got {il_node_db}")
    a_c = passive_loss_db(topology, loss)
    passive_db = a_c.max() + 10.0 * math.log10(np.sum(10.0 ** ((a_c - a_c.max()) / 10.0)))
    return float(il_node_db + 20.0 * math.log10(topology.n_f / topology.n) + passive_db)


def _restoration(device: XbarDevice) -> np.ndarray:
    """The diagonal of ``restoration_matrix``, 1 / p_c per column."""
    p = transmission_matrix(device)
    if np.any(p <= 0.0):
        raise DegenerateDeviceError("restoration impossible: some column has p_c = 0")
    return 1.0 / p


def restoration_matrix(device: XbarDevice) -> np.ndarray:
    """Diagonal output correction (P^T)^{-1} that restores fidelity to 1."""
    return np.diag(_restoration(device))


def weights_with_common_deviation(device: XbarDevice, dtheta) -> np.ndarray:
    """Effective weights after the deviation d_theta on every cell's attenuator MZI.

    The general per-cell route: the test oracle of ``common_deviation_fidelity``
    and the route for independent per-cell errors.  ``dtheta`` is a scalar,
    an N x M array (one deviation per cell), or either with leading batch
    axes, e.g. (K, 1, 1) for K trials of one shared deviation each; the
    result has the broadcast shape.  A deviation detunes the amplitude
    through sin(theta/2) and adds the inherent phase d_theta/2, a global
    factor when shared.  A cell's d_phi lands on the unconnected arm of its
    attenuator MZI and never reaches the through path.  An all-zero
    deviation returns an exact copy of the weights, broadcast to that shape;
    a batch equals its trials computed one by one, bit for bit.
    """
    dtheta = np.asarray(dtheta, dtype=np.float64)
    w = device.weights
    if not dtheta.any():
        return np.broadcast_to(w, np.broadcast_shapes(w.shape, dtheta.shape)).copy()
    amplitude_angle, phase = _cell_angles(w)
    return np.sin((amplitude_angle + dtheta) / 2.0) * np.exp(1j * (phase + dtheta / 2.0))


def common_deviation_fidelity(device: XbarDevice, y, dtheta) -> np.ndarray:
    """Fidelity with ``y`` of the device under each shared deviation of ``dtheta``, in closed form.

    Equals ``fidelity(realized_matrix(device, weights_with_common_deviation(device, d)), y)``
    for each entry d.  With a = arcsin|w| (half the attenuator angle), phi the
    value phase and delta = d/2, each perturbed weight is e^{i delta}
    (c sin a + s cos a) e^{i phi}, c = cos delta, s = sin delta, so the
    operator is e^{i delta} (c R_s + s R_c): R_s is the device's own, R_c
    that of the weights cos a e^{i phi}.  The global phase drops out; with
    g = vdot(y, R) and h = vdot(R, R),

        F = |c g_s + s g_c|^2 / (|y|^2 (c^2 h_ss + 2cs Re h_sc + s^2 h_cc)),

    five numbers per device and O(1) work per deviation, the same bits
    however ``dtheta`` is sliced.  Raises as ``fidelity`` does; a
    non-finite deviation is a DomainError.
    """
    y = ensure_matrix(y, name="y")
    half = 0.5 * np.asarray(dtheta, dtype=np.float64)
    amplitude_angle, phase = _cell_angles(device.weights)
    cos_weights = np.cos(amplitude_angle / 2.0) * np.exp(1j * phase)
    r_s, r_c = realized_matrix(device, np.stack((device.weights, cos_weights)))
    if r_s.shape != y.shape:
        raise DimensionError(f"shape mismatch: {r_s.shape} vs {y.shape}")
    if not np.isfinite(half).all():
        raise DomainError("dtheta contains non-finite entries")
    yy = float(np.vdot(y, y).real)
    if yy == 0.0:
        raise DomainError("y is the zero matrix")
    g_s, g_c = np.vdot(y, r_s), np.vdot(y, r_c)
    h_ss, h_sc, h_cc = (np.vdot(a, b).real for a, b in ((r_s, r_s), (r_s, r_c), (r_c, r_c)))
    c, s = np.cos(half), np.sin(half)
    den = c * c * h_ss + 2.0 * c * s * h_sc + s * s * h_cc
    if np.any(den == 0.0):
        raise DomainError("the deviated operator is the zero matrix")
    return np.abs(c * g_s + s * g_c) ** 2 / (yy * den)


def device_to_json(device: XbarDevice) -> dict:
    w = device.weights
    return {
        "arch": "xbar",
        "n": device.topology.n,
        "m": device.topology.m,
        "n_f": device.topology.n_f,
        "mode": device.mode,
        "xi": device.xi.tolist(),
        "t": device.t.tolist(),
        "weights": {"re": w.real.tolist(), "im": w.imag.tolist()},
        "loss": device.loss.to_json(),
        "restoration": _restoration(device).tolist(),
    }


def device_from_json(obj: dict) -> XbarDevice:
    """Load a ``device_to_json`` dump; DomainError unless it is a valid device.

    The weights must be an n x m array of magnitudes at most 1, ``xi`` must
    have m entries and ``t`` m - 1, each a lossless splitter in [0, 1] with
    xi_c^2 + t_c^2 = 1 to 1e-12 (t = 0, so xi = 1, on the last column);
    ``mode`` must be one of ``XBAR_MODES`` (default balanced).
    """
    arch = obj.get("arch") if isinstance(obj, dict) else None
    if arch != "xbar":
        raise DomainError(f"not an xbar device dump: arch={arch!r}")
    n, m, n_f = (int_from_json(obj, key, "xbar dump") for key in ("n", "m", "n_f"))
    mode = obj.get("mode", XBAR_MODES[0])
    if mode not in XBAR_MODES:
        raise DomainError(f"xbar dump: mode must be one of {XBAR_MODES}, got {mode!r}")
    topology = build_topology(n, m)
    if topology.n_f != n_f:
        raise DomainError(f"inconsistent dump: n={n} implies n_f={topology.n_f}, dump says {n_f}")
    re, im = (array_from_json(obj.get("weights"), key, (n, m), "xbar dump weights") for key in ("re", "im"))
    xi, t = (array_from_json(obj, key, (size,), "xbar dump") for key, size in (("xi", m), ("t", m - 1)))
    weights = re + 1j * im
    if np.max(np.abs(weights)) > 1.0 + 1e-12:
        raise DomainError("xbar dump: no weight may exceed magnitude 1")
    # The last column's virtual coupler passes everything on: t = 0, so xi = 1.
    if np.any(np.abs(np.concatenate((xi, t)) - 0.5) > 0.5) or np.any(np.abs(xi**2 + np.append(t, 0.0) ** 2 - 1) > 1e-12):
        raise DomainError("xbar dump: couplers must be lossless splitters: xi, t in [0, 1], xi^2 + t^2 = 1")
    loss = LossModel.from_json(obj.get("loss"))
    return XbarDevice(topology=topology, weights=weights, xi=xi, t=t, loss=loss, mode=mode)

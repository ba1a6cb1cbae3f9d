"""The coherent crossbar: topology, splitter design, losses, evaluation.

An N x M crossbar splits each input row across M columns through a chain of
xi^2:t^2 directional couplers, weights every (row, column) crossing with a
single amplitude-and-phase cell, and coherently recombines each column in a
Y-junction tree.  Rows are padded to the next power of two ``N_f`` so the
combiner trees are balanced; dummy waveguide crossings equalize the crossing
count inside every column.

All per-column bookkeeping reduces to the diagonal transmission matrix

    p_c = alpha * T_node * L_c * (1/N_f) * (prod_{q<c} t_q) * xi_c

so the realized operator is ``P^T W^T`` for weight matrix W.  Choosing the
coupler ratios so every p_c is identical makes the whole loss budget a
global scalar (fidelity exactly 1); with identical couplers instead, the
per-column imbalance is removed after the fact by the diagonal restoration
matrix ``(P^T)^{-1}``.  Phase errors change the weights themselves, through
``weights_with_common_deviation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDeviceError, DimensionError, DomainError
from .linalg import ensure_matrix, number_from_json
from .nodes import LossModel


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


def design_splitters(topology: XbarTopology, loss: LossModel) -> tuple[np.ndarray, np.ndarray]:
    """Coupler ratios that equalize the transmission of every column.

    Works backward from the last coupler: between the final two columns the
    path difference is ``recomb - m_fwd`` crossings, giving the base case
    ``xi_{M-1}^2 = 1 / (1 + l_x^{2 (recomb - m_fwd)})``; between any two
    earlier columns it is one coupler pass and one forwarding section,
    giving ``xi_c = t_c xi_{c+1} l_xi l_x^{m_fwd}`` combined with
    ``xi_c^2 + t_c^2 = 1``.  Returns (xi, t) with ``xi[M-1] = 1`` for the
    virtual coupler of the final column and ``t`` of length M - 1.
    """
    m = topology.m
    xi2 = np.ones(m)
    if m == 1:
        return np.ones(1), np.zeros(0)
    l_xi = loss.l_xi
    l_x = loss.l_x
    base_exp = 2 * (topology.recomb_crossings - topology.m_fwd)
    xi2[m - 2] = 1.0 / (1.0 + l_x**base_exp)
    g2 = (l_xi * l_x**topology.m_fwd) ** 2
    for c in range(m - 3, -1, -1):
        x = xi2[c + 1] * g2
        xi2[c] = x / (1.0 + x)
    t = np.sqrt(1.0 - xi2[: m - 1])
    return np.sqrt(xi2), t


def uniform_splitters(topology: XbarTopology) -> tuple[np.ndarray, np.ndarray]:
    """Identical 50:50 couplers on every column (no loss balancing)."""
    m = topology.m
    xi = np.full(m, 1.0 / math.sqrt(2.0))
    xi[m - 1] = 1.0
    t = np.full(m - 1, 1.0 / math.sqrt(2.0))
    return xi, t


def passive_loss(c: int, topology: XbarTopology, loss: LossModel) -> float:
    """Field transmission of the passive circuitry up to column ``c`` (1-based).

    Covers the front-end splitter and combiner-tree couplers
    (``2 log2(N_f)`` of them), the directional couplers passed, and the
    waveguide crossings.  The final column has no forwarding waveguides to
    cross, so its crossing count omits the recombination term.
    """
    m = topology.m
    if not 1 <= c <= m:
        raise DomainError(f"column index must lie in [1, {m}], got {c}")
    n_coup = 2 * topology.log2_n_f
    if c < m:
        n_xi = c
        n_cross = topology.recomb_crossings + (c - 1) * topology.m_fwd
    else:
        n_xi = m - 1
        n_cross = (m - 1) * topology.m_fwd
    return loss.l_coup**n_coup * loss.l_xi**n_xi * loss.l_x**n_cross


@dataclass(frozen=True, eq=False)
class XbarDevice:
    """A programmed crossbar: weights, coupler ratios, and loss model."""

    topology: XbarTopology
    weights: np.ndarray
    xi: np.ndarray
    t: np.ndarray
    loss: LossModel
    balanced: bool


def transmission_matrix(device: XbarDevice) -> np.ndarray:
    """Per-column field factors p_c (the diagonal of P) collecting every split and loss."""
    top = device.topology
    loss = device.loss
    l_passive = np.array([passive_loss(c, top, loss) for c in range(1, top.m + 1)])
    t_products = np.concatenate(([1.0], np.cumprod(device.t)))
    return loss.alpha * loss.t_node * l_passive * t_products * device.xi / top.n_f


def build_xbar(y, loss: LossModel, mode: str = "balanced") -> XbarDevice:
    """Program a crossbar for an N x M complex target in one step.

    Every entry maps to its own cell: the stored weight matrix is the
    target divided by its largest entry magnitude, so all cell amplitudes
    lie in [0, 1].  ``mode`` selects loss-balanced coupler ratios or
    identical 50:50 couplers.
    """
    y = ensure_matrix(y, name="y")
    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        raise DomainError("cannot program the zero matrix")
    topology = build_topology(y.shape[0], y.shape[1])
    if mode == "balanced":
        xi, t = design_splitters(topology, loss)
    elif mode == "uniform":
        xi, t = uniform_splitters(topology)
    else:
        raise DomainError(f"mode must be 'balanced' or 'uniform', got {mode!r}")
    return XbarDevice(
        topology=topology,
        weights=y / scale,
        xi=xi,
        t=t,
        loss=loss,
        balanced=(mode == "balanced"),
    )


def realized_matrix(device: XbarDevice, weights: np.ndarray | None = None) -> np.ndarray:
    """The M x N operator the device applies to its input vector: P^T W^T."""
    w = device.weights if weights is None else weights
    return transmission_matrix(device)[:, None] * w.T


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


def xbar_insertion_loss(
    topology: XbarTopology, loss: LossModel, il_node_db: float | None = None
) -> float:
    """Closed-form insertion loss of the loss-balanced crossbar, in dB.

    IL = IL_node + 2 log2(N_f) IL_coup + IL_xi + (N_f/2 - 1) IL_x
         - 10 log10(xi_1^2) + 20 log10(N_f / N)

    with xi_1 from the loss-balanced coupler recursion.  Assumes
    transparent cells and modulators (alpha = 1); every column of the
    balanced design then shows this same loss.  ``il_node_db`` overrides
    the cell term so the cell technology can be swept independently of the
    fixed passive metrics in ``loss`` (the coupler term always refers to
    the splitter/combiner trees).  Requires M >= 2 (a single column has no
    coupler chain for the IL_xi term to describe).
    """
    if topology.m < 2:
        raise DomainError("closed-form insertion loss requires at least two columns")
    if il_node_db is None:
        il_node_db = loss.il_node_db
    elif il_node_db < 0.0:
        raise DomainError(f"il_node_db must be >= 0, got {il_node_db}")
    xi, _ = design_splitters(topology, loss)
    xi1_sq = float(xi[0]) ** 2
    return (
        il_node_db
        + 2 * topology.log2_n_f * loss.il_coup_db
        + loss.il_xi_db
        + (topology.n_f / 2 - 1) * loss.il_x_db
        - 10.0 * math.log10(xi1_sq)
        + 20.0 * math.log10(topology.n_f / topology.n)
    )


def restoration_matrix(device: XbarDevice) -> np.ndarray:
    """Diagonal output correction (P^T)^{-1} that restores fidelity to 1."""
    p = transmission_matrix(device)
    if np.any(p <= 0.0):
        raise DegenerateDeviceError("restoration impossible: some column has p_c = 0")
    return np.diag(1.0 / p)


def weights_with_common_deviation(device: XbarDevice, dtheta) -> np.ndarray:
    """Effective weights after the deviation d_theta on every cell's attenuator MZI.

    ``dtheta`` is a scalar or an N x M array.  A scalar is one shared
    deviation on every cell, the figure-experiment error model: it detunes
    every amplitude through sin(theta/2) and adds the common inherent phase
    d_theta/2, a global factor.  An array gives each cell its own deviation
    (independent per-cell errors), which also makes the inherent phase
    d_theta/2 differ from cell to cell.  Only d_theta matters: a cell's
    d_phi lands on the unconnected arm of its attenuator MZI and never
    reaches the through path, and the separate value phase shifter is not
    an MZI cell.  Zero deviation returns an exact copy of the weights.
    """
    w = device.weights
    if not np.any(dtheta):
        return w.copy()
    theta = 2.0 * np.arcsin(np.clip(np.abs(w), 0.0, 1.0)) + dtheta
    return np.sin(theta / 2.0) * np.exp(1j * (np.angle(w) + dtheta / 2.0))


def device_to_json(device: XbarDevice) -> dict:
    w = device.weights
    return {
        "arch": "xbar",
        "n": device.topology.n,
        "m": device.topology.m,
        "n_f": device.topology.n_f,
        "mode": "balanced" if device.balanced else "uniform",
        "xi": device.xi.tolist(),
        "t": device.t.tolist(),
        "weights": {"re": w.real.tolist(), "im": w.imag.tolist()},
        "loss": device.loss.to_json(),
        "restoration": np.diag(restoration_matrix(device)).tolist(),
    }


def device_from_json(obj: dict) -> XbarDevice:
    """Load a ``device_to_json`` dump; DomainError unless it is a valid device.

    The weights must be an n x m array of magnitudes at most 1, ``xi`` must
    have m entries and ``t`` m - 1, all finite.
    """
    arch = obj.get("arch") if isinstance(obj, dict) else None
    if arch != "xbar":
        raise DomainError(f"not an xbar device dump: arch={arch!r}")
    n, m, n_f = (int(number_from_json(obj, key, "xbar dump")) for key in ("n", "m", "n_f"))
    topology = build_topology(n, m)
    if topology.n_f != n_f:
        raise DomainError(f"inconsistent dump: n={n} implies n_f={topology.n_f}, dump says {n_f}")
    try:
        re, im, xi, t = (
            np.asarray(v, dtype=np.float64)
            for v in (obj["weights"]["re"], obj["weights"]["im"], obj["xi"], obj["t"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed xbar dump: {exc!r}") from exc
    if re.shape != (n, m) or im.shape != (n, m):
        raise DimensionError(f"weights must be {n} x {m}, got {re.shape} and {im.shape}")
    if xi.shape != (m,) or t.shape != (m - 1,):
        raise DimensionError(
            f"xi must have {m} entries and t {m - 1}, got shapes {xi.shape} and {t.shape}"
        )
    weights = re + 1j * im
    if not all(np.isfinite(a).all() for a in (weights, xi, t)) or np.max(np.abs(weights)) > 1.0 + 1e-12:
        raise DomainError("xbar dump: weights, xi and t must be finite and no weight may exceed magnitude 1")
    return XbarDevice(
        topology=topology,
        weights=weights,
        xi=xi,
        t=t,
        loss=LossModel.from_json(obj.get("loss")),
        balanced=(obj.get("mode", "balanced") == "balanced"),
    )

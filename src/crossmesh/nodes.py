"""Transfer models for the elementary hardware cells.

The unit cell everywhere is a 2x2 Mach-Zehnder interferometer (MZI) built
from two 3 dB couplers and two phase shifters, following the convention

    M(theta, phi) = B @ diag(e^{i theta}, 1) @ B @ diag(e^{i phi}, 1)

with the symmetric beamsplitter ``B = (1/sqrt(2)) [[1, i], [i, 1]]``, which
evaluates to

    M = i e^{i theta/2} [[e^{i phi} sin(theta/2),  cos(theta/2)],
                         [e^{i phi} cos(theta/2), -sin(theta/2)]].

theta = pi is the bar state, theta = 0 the cross state.  Component losses
enter as a single scalar field factor ``T_node = l_coup^2 k^2`` on the whole
cell (both arms equally lossy), so the lossy cell is ``T_node * M`` and
never mixes ports.

Variable optical attenuators (the diagonal column of the SVD device and the
crossbar weight cells) are the same cell with only the lower input and lower
output connected.  The connected-port transfer is the (2, 2) element
``-i e^{i theta/2} sin(theta/2)``, so the amplitude law is
``w = sin(theta/2)`` and the cell's own input phase shifter sits on the
unconnected arm, where it has no effect on the through path.  A crossbar
weight cell follows its attenuator with a value phase shifter, so it
transfers ``T_node * w * e^{i phi}``; the crossbar folds ``T_node`` into its
per-column factors.

``cell_entries`` is the one batched cell: mesh evaluation
(``clements.apply_mesh``) and the attenuators (``voa_transfer_at``) take
their entries from it.  ``mzi_entries`` is a scalar copy kept for the
elimination in ``clements.clements_decompose``: it sets the bar state
exactly (cos(pi/2) is 6e-17, which would un-zero nulled entries), and on the
small stacks a sweep factors, one batched call per step costs more than the
scalar route.

A cell is nothing but its (theta, phi) pair: the meshes store those pairs
as arrays (``clements.ClementsMesh``) and the crossbar derives them from its
weights.  Phase errors enter through ``clements.apply_common_deviation`` and
``crossbar.weights_with_common_deviation``; a deviation shared by every
crossbar cell is scored in closed form (``crossbar.common_deviation_fidelity``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import DomainError
from .linalg import number_from_json


def db_to_field(db: float) -> float:
    """Electric-field transmission coefficient for a power loss in dB."""
    return 10.0 ** (-db / 20.0)


@dataclass(frozen=True)
class LossModel:
    """Per-component optical power insertion losses, all in dB (>= 0).

    Attributes
    ----------
    il_coup_db : loss of one 3 dB coupler (MMI / Y-junction stage).
    il_ps_db : loss of one phase shifter.
    il_xi_db : loss of one xi^2:t^2 directional coupler.
    il_x_db : loss of one waveguide crossing.
    alpha_db : transparency loss of one input amplitude modulator.
    """

    il_coup_db: float = 0.0
    il_ps_db: float = 0.0
    il_xi_db: float = 0.0
    il_x_db: float = 0.0
    alpha_db: float = 0.0

    def __post_init__(self):
        for name in ("il_coup_db", "il_ps_db", "il_xi_db", "il_x_db", "alpha_db"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} must be a finite dB value >= 0, got {value}")

    @property
    def l_coup(self) -> float:
        return db_to_field(self.il_coup_db)

    @property
    def k(self) -> float:
        return db_to_field(self.il_ps_db)

    @property
    def alpha(self) -> float:
        return db_to_field(self.alpha_db)

    @property
    def t_node(self) -> float:
        """Field transmittivity of one MZI cell: two couplers, two shifters."""
        return self.l_coup**2 * self.k**2

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "LossModel":
        """Parse ``to_json`` output; a missing loss is 0 dB.

        DomainError unless ``obj`` is a JSON object whose keys are loss names
        and whose losses are finite numbers >= 0.
        """
        names = [f.name for f in fields(cls)]
        if not isinstance(obj, dict) or not set(obj) <= set(names):
            raise DomainError(f"loss model must be a JSON object with keys from {names}, got {obj!r}")
        return cls(**{name: number_from_json(obj, name, "loss model") for name in obj})


#: All components ideal.
LOSSLESS = LossModel()

#: State-of-the-art silicon photonic passive losses: 0.06 dB MMI couplers,
#: 0.1 dB directional couplers, 0.02 dB waveguide crossings.
SILICON_PASSIVES = LossModel(il_coup_db=0.06, il_xi_db=0.1, il_x_db=0.02)


def node_loss_model(il_node_db: float, passives: LossModel = SILICON_PASSIVES) -> LossModel:
    """Split a total per-cell loss budget into coupler and shifter parts.

    Couplers are pinned at 0.06 dB each and the two phase shifters absorb
    the remainder.  Budgets below 0.12 dB cannot cover two such couplers, so
    they are split equally between the couplers with lossless shifters,
    which keeps the model continuous down to zero.  Passive (crossbar-only)
    losses are carried over from ``passives``.
    """
    if il_node_db < 0.0:
        raise DomainError(f"il_node_db must be >= 0, got {il_node_db}")
    if il_node_db < 0.12:
        coup, ps = il_node_db / 2.0, 0.0
    else:
        coup, ps = 0.06, (il_node_db - 0.12) / 2.0
    return replace(passives, il_coup_db=coup, il_ps_db=ps)


def cell_entries(theta, phi, field=1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entries (m11, m12, m21, m22) of ``field * M(theta, phi)``, broadcast over all three arguments."""
    half = 0.5 * np.asarray(theta, dtype=np.float64)
    common = field * 1j * np.exp(1j * half)
    s, c = np.sin(half), np.cos(half)
    ephi = np.exp(1j * np.asarray(phi, dtype=np.float64))
    return common * ephi * s, common * c, common * ephi * c, -common * s


def mzi_entries(theta: float, phi: float) -> tuple[complex, complex, complex, complex]:
    """Entries (m11, m12, m21, m22) of the lossless cell M(theta, phi), as Python complex scalars.

    The scalar copy of ``cell_entries`` that ``clements_decompose`` steps
    with: exact at bar, and cheaper than a batched call on a few matrices.
    """
    half = 0.5 * theta
    # Exact at bar (cos(pi/2) is 6e-17), so a bar cell keeps zeros exactly zero.
    s, c = (1.0, 0.0) if theta == math.pi else (math.sin(half), math.cos(half))
    common = 1j * complex(c, s)
    ephi = complex(math.cos(phi), math.sin(phi))
    return common * ephi * s, common * c, common * ephi * c, -common * s


def voa_transfer(target_amplitude: float) -> tuple[complex, float]:
    """Program a lossless single-input/single-output attenuator cell.

    Returns the complex field transfer of the connected port together with
    the cell angle that realizes it: ``theta = 2 asin(a)`` and
    ``transfer = sin(theta/2) * (-i e^{i theta/2})``, so ``|transfer| = a``.
    A lossy cell at that angle transfers ``voa_transfer_at(theta, loss)``,
    of magnitude ``T_node * a``.
    """
    if not (0.0 <= target_amplitude <= 1.0):
        raise DomainError(f"target amplitude must lie in [0, 1], got {target_amplitude}")
    theta = 2.0 * math.asin(target_amplitude)
    return complex(voa_transfer_at(theta)), theta


def voa_transfer_at(theta, loss: LossModel = LOSSLESS) -> np.ndarray:
    """Connected-port transfers of attenuator cells at the angles ``theta``.

    ``theta`` may be a scalar or an array of any shape; the result has the
    same shape.  Each value is the (2, 2) entry of ``cell_entries`` with
    ``field = T_node``, which does not depend on phi: the cell's phi shifter
    sits on the unconnected arm.
    """
    return cell_entries(theta, 0.0, loss.t_node)[3]

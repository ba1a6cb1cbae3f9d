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
unconnected arm, where it has no effect on the through path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_TWO_PI = 2.0 * math.pi


def db_to_field(db: float) -> float:
    """Electric-field transmission coefficient for a power loss in dB."""
    return 10.0 ** (-db / 20.0)


def field_to_db(field: float) -> float:
    """Power loss in dB for an electric-field transmission coefficient."""
    if field <= 0.0:
        raise DomainError(f"field coefficient must be positive, got {field}")
    return -20.0 * math.log10(field)


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
    def l_xi(self) -> float:
        return db_to_field(self.il_xi_db)

    @property
    def l_x(self) -> float:
        return db_to_field(self.il_x_db)

    @property
    def alpha(self) -> float:
        return db_to_field(self.alpha_db)

    @property
    def t_node(self) -> float:
        """Field transmittivity of one MZI cell: two couplers, two shifters."""
        return self.l_coup**2 * self.k**2

    @property
    def il_node_db(self) -> float:
        """Power insertion loss of one MZI cell, 2*IL_coup + 2*IL_ps."""
        return 2.0 * self.il_coup_db + 2.0 * self.il_ps_db

    def to_json(self) -> dict:
        return {
            "il_coup_db": self.il_coup_db,
            "il_ps_db": self.il_ps_db,
            "il_xi_db": self.il_xi_db,
            "il_x_db": self.il_x_db,
            "alpha_db": self.alpha_db,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LossModel":
        return cls(
            il_coup_db=float(obj.get("il_coup_db", 0.0)),
            il_ps_db=float(obj.get("il_ps_db", 0.0)),
            il_xi_db=float(obj.get("il_xi_db", 0.0)),
            il_x_db=float(obj.get("il_x_db", 0.0)),
            alpha_db=float(obj.get("alpha_db", 0.0)),
        )


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
    return LossModel(
        il_coup_db=coup,
        il_ps_db=ps,
        il_xi_db=passives.il_xi_db,
        il_x_db=passives.il_x_db,
        alpha_db=passives.alpha_db,
    )


@dataclass(frozen=True)
class NodeSettings:
    """Programmed phases of one MZI cell, stored reduced mod 2 pi."""

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % _TWO_PI)
        object.__setattr__(self, "phi", float(self.phi) % _TWO_PI)


def mzi_entries(theta: float, phi: float) -> tuple[complex, complex, complex, complex]:
    """Entries (m11, m12, m21, m22) of ``mzi_matrix`` as Python complex scalars."""
    half = 0.5 * theta
    s, c = math.sin(half), math.cos(half)
    common = 1j * complex(math.cos(half), math.sin(half))
    ephi = complex(math.cos(phi), math.sin(phi))
    return common * ephi * s, common * c, common * ephi * c, -common * s


def mzi_matrix(theta: float, phi: float) -> np.ndarray:
    """Lossless 2x2 cell matrix in the convention of the module docstring."""
    m11, m12, m21, m22 = mzi_entries(theta, phi)
    return np.array([[m11, m12], [m21, m22]], dtype=np.complex128)


def node_transfer(settings: NodeSettings, loss: LossModel = LOSSLESS) -> np.ndarray:
    """Lossy 2x2 transfer of one cell: ``T_node * M(theta, phi)``."""
    return loss.t_node * mzi_matrix(settings.theta, settings.phi)


def voa_transfer(target_amplitude: float, loss: LossModel = LOSSLESS) -> tuple[complex, NodeSettings]:
    """Program a single-input/single-output attenuator cell.

    Returns the complex field transfer of the connected port together with
    the settings that realize it: ``theta = 2 asin(a)`` and
    ``transfer = T_node * sin(theta/2) * (-i e^{i theta/2})``, so
    ``|transfer| = T_node * a``.
    """
    if not (0.0 <= target_amplitude <= 1.0):
        raise DomainError(f"target amplitude must lie in [0, 1], got {target_amplitude}")
    theta = 2.0 * math.asin(target_amplitude)
    settings = NodeSettings(theta=theta, phi=0.0)
    return voa_transfer_at(settings, loss), settings


def voa_transfer_at(settings: NodeSettings, loss: LossModel = LOSSLESS) -> complex:
    """Connected-port transfer of an attenuator cell at given settings.

    Equals ``node_transfer(settings, loss)[1, 1]``; the cell's phi shifter
    sits on the unconnected arm and does not appear.
    """
    half = 0.5 * settings.theta
    return complex(loss.t_node * -1j * complex(math.cos(half), math.sin(half)) * math.sin(half))


def xbar_node_transfer(w: float, phi: float, loss: LossModel = LOSSLESS) -> complex:
    """Programmed transfer of one crossbar weight cell: ``T_node * w * e^{i phi}``."""
    if not (0.0 <= w <= 1.0):
        raise DomainError(f"weight magnitude must lie in [0, 1], got {w}")
    return complex(loss.t_node * w * complex(math.cos(phi), math.sin(phi)))


def perturb_phases(settings: NodeSettings, sigma: float, rng: np.random.Generator) -> NodeSettings:
    """Add independent Gaussian deviations to both phases of one cell.

    Draws theta first, then phi, from ``rng``; sigma = 0 returns the input
    unchanged without consuming draws.
    """
    if sigma < 0.0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return settings
    dtheta = rng.normal(0.0, sigma)
    dphi = rng.normal(0.0, sigma)
    return NodeSettings(theta=settings.theta + dtheta, phi=settings.phi + dphi)

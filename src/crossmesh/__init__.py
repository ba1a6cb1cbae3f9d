"""Programmable photonic linear-operator simulation.

Models two ways of running a complex matrix on light: a coherent crossbar
array that maps each matrix entry onto its own weight cell, and the
rectangular-mesh SVD architecture built from cascaded 2x2 MZI cells.  Both
come with realistic component-loss and phase-error models, closed-form
insertion-loss expressions, and seeded Monte-Carlo fidelity experiments.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is
already set, before numpy loads: every sweep runs BLAS on one thread, so
OpenBLAS need not start a thread pool.  A value the user set is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ConfigError,
    CrossmeshError,
    DegenerateDeviceError,
    DimensionError,
    DomainError,
    SweepError,
)
from .linalg import (
    fidelity,
    matrix_from_json,
    matrix_to_json,
    random_target_matrix,
    svd_factorize,
    unitarity_residual,
)
from .nodes import (
    LOSSLESS,
    SILICON_PASSIVES,
    LossModel,
    db_to_field,
    node_loss_model,
    voa_transfer,
    voa_transfer_at,
)
from .clements import (
    ClementsDevice,
    ClementsMesh,
    apply_common_deviation,
    apply_mesh,
    build_svd_clements,
    clements_decompose,
    evaluate_svd_clements,
    svd_architecture_stats,
    svd_insertion_loss,
    with_loss,
)
from .crossbar import (
    XbarDevice,
    XbarTopology,
    build_topology,
    build_xbar,
    design_splitters,
    evaluate_xbar,
    passive_loss_db,
    realized_matrix,
    restoration_matrix,
    transmission_matrix,
    uniform_splitters,
    weights_with_common_deviation,
    xbar_insertion_loss,
)
from .montecarlo import (
    ARCH_SVD_CLEMENTS,
    ARCH_XBAR,
    FidelityReport,
    SweepConfig,
    insertion_loss_sweep,
    loss_fidelity_sweep,
    phase_fidelity_sweep,
)

__version__ = "0.1.0"

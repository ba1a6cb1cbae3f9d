"""The paper's qualitative claims about the two architectures, on small configs."""

import json

import numpy as np
import pytest

from crossmesh import (
    ARCH_SVD_CLEMENTS,
    LOSSLESS,
    SweepConfig,
    build_svd_clements,
    loss_fidelity_sweep,
    svd_architecture_stats,
    svd_insertion_loss,
)
from crossmesh.cli import run_experiment
from crossmesh.montecarlo import target_matrix


def test_svd_loss_fidelity_falls_with_node_loss_and_size():
    """Extends ``test_zero_sigma_and_balanced_crossbar_are_exact``, which only checks fidelity < 1.

    The mean over seeded targets is 1 without node loss, and falls strictly
    as IL_node grows at each n and as n grows at each IL_node > 0.
    """
    sizes, grid = (3, 6, 12), (0.0, 0.5, 1.0, 2.0)
    cfg = SweepConfig(architectures=(ARCH_SVD_CLEMENTS,), n_values=sizes, il_node_grid=grid,
                      n_matrices=4, master_seed=17)
    reports = loss_fidelity_sweep(cfg)
    assert [(r.n, r.sweep_value) for r in reports] == [(n, il) for n in sizes for il in grid]
    mean = np.reshape([r.fidelity_mean for r in reports], (len(sizes), len(grid)))
    assert np.abs(mean[:, 0] - 1.0).max() <= 1e-12
    assert (np.diff(mean, axis=1) < 0.0).all(), mean
    assert (np.diff(mean[:, 1:], axis=0) < 0.0).all(), mean


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16])
def test_svd_insertion_loss_slopes_are_the_path_depths(n):
    """Extends ``TestInsertionLoss::test_linear_slope_in_node_loss`` from n = 8 to odd and even n.

    The total IL along the best and worst paths grows linearly in IL_node,
    with slope the depth ``svd_architecture_stats`` gives; the worst path
    crosses every layer of both meshes, 2n + 1 cells for n >= 3.
    """
    stats = svd_architecture_stats(n)
    grid = np.linspace(0.0, 2.0, 21)
    for case in ("best", "worst"):
        ils = [svd_insertion_loss(n, x, case) for x in grid]
        slopes = np.diff(ils) / np.diff(grid)
        assert np.max(np.abs(slopes - stats[f"{case}_depth"])) < 1e-9, case
    assert stats["best_depth"] <= stats["worst_depth"] == (2 * n + 1 if n >= 3 else 3)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_programming_steps(n, capsys):
    """The crossbar is programmed in one step, the SVD mesh in one step per cell: n(n-1)/2."""
    assert run_experiment(["stats", "--n", str(n)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["xbar"]["programming_steps"] == 1
    assert stats[ARCH_SVD_CLEMENTS]["programming_steps"] == n * (n - 1) // 2
    v, _sigma_theta, _sigma_phi, u = build_svd_clements(target_matrix(17, n, 0), LOSSLESS).parts()
    assert v.theta.shape == u.theta.shape == (n * (n - 1) // 2,)

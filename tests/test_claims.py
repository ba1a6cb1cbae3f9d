"""The paper's qualitative claims about the two architectures, on small configs."""

import json

import numpy as np
import pytest

from crossmesh import (
    ARCH_SVD_CLEMENTS,
    ARCH_XBAR,
    LOSSLESS,
    LossModel,
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
    cfg = SweepConfig(architectures=(ARCH_SVD_CLEMENTS,), n_values=sizes, n_matrices=4, master_seed=17)
    reports = loss_fidelity_sweep(cfg, grid)
    assert [(r.n, r.sweep_value) for r in reports] == [(n, il) for n in sizes for il in grid]
    mean = np.reshape([r.fidelity_mean for r in reports], (len(sizes), len(grid)))
    assert np.abs(mean[:, 0] - 1.0).max() <= 1e-12
    assert (np.diff(mean, axis=1) < 0.0).all(), mean
    assert (np.diff(mean[:, 1:], axis=0) < 0.0).all(), mean


def test_passive_losses_leave_loss_induced_fidelity_unchanged():
    """Loss-balanced couplers restore the crossbar's loss-induced fidelity under any passive metrics.

    ``node_loss_model`` keeps only the passives' il_xi, il_x and alpha,
    which no SVD cell reads, so the SVD reports are equal bit for bit; the
    crossbar's couplers are designed from them, and its means stay 1.
    """
    cfg, grid = SweepConfig(n_values=(4, 7), n_matrices=3, master_seed=11), (0.0, 0.5, 1.0)
    lossy = LossModel(il_coup_db=0.5, il_ps_db=0.3, il_xi_db=0.9, il_x_db=0.4, alpha_db=1.0)
    default = loss_fidelity_sweep(cfg, grid)
    passive = loss_fidelity_sweep(cfg, grid, passives=lossy)
    svd = [[r for r in reports if r.architecture == ARCH_SVD_CLEMENTS] for reports in (default, passive)]
    assert svd[0] == svd[1]
    assert min(r.fidelity_mean for r in svd[0]) < 0.99  # IL_node itself does act on the SVD rows
    for r in default + passive:
        if r.architecture == ARCH_XBAR:
            assert abs(r.fidelity_mean - 1.0) <= 1e-15, r


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

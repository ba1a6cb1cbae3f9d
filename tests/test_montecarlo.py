import numpy as np
import pytest

from crossmesh import (
    ARCH_SVD_CLEMENTS,
    ARCH_XBAR,
    LOSSLESS,
    SweepConfig,
    apply_common_deviation,
    build_svd_clements,
    evaluate_svd_clements,
    fidelity,
    loss_fidelity_sweep,
    phase_fidelity_sweep,
)
from crossmesh.montecarlo import _phase_chunk, _trial_deviation_pair, target_matrix
from oracles import svd_device_layer_product

PHASE_CFG = SweepConfig(
    n_values=(3, 4),
    sigma_grid=(0.0, 0.05, 0.2),
    n_matrices=3,
    n_phase_trials=5,
    master_seed=17,
)
LOSS_CFG = SweepConfig(
    n_values=(3, 4),
    il_node_grid=(0.0, 0.5, 1.5),
    n_matrices=3,
    master_seed=17,
)


def test_workers_do_not_change_reports():
    for sweep, cfg in ((phase_fidelity_sweep, PHASE_CFG), (loss_fidelity_sweep, LOSS_CFG)):
        serial = sweep(cfg, workers=1)
        parallel = sweep(cfg, workers=2)
        assert serial == parallel
        assert len(serial) == 2 * 2 * 3


def test_batched_trials_match_layer_product_oracle():
    seed, n, sigmas, trials = 5, 4, (0.0, 0.05, 0.2), 6
    got = _phase_chunk((seed, ARCH_SVD_CLEMENTS, n, sigmas, trials, 0, 2))
    assert got.shape == (2, 3, 6)
    for m_idx in range(2):
        y = target_matrix(seed, n, m_idx)
        device = build_svd_clements(y, LOSSLESS)
        for s_idx, sigma in enumerate(sigmas):
            for t_idx in range(trials):
                dth, dph = _trial_deviation_pair(
                    seed, ARCH_SVD_CLEMENTS, n, s_idx, m_idx, t_idx, sigma
                )
                shaken = apply_common_deviation(device, dth, dph)
                expected = fidelity(svd_device_layer_product(shaken), y)
                assert abs(got[m_idx, s_idx, t_idx] - expected) <= 1e-12


@pytest.mark.parametrize("n", [4, 7, 64])
def test_batch_size_does_not_change_trials(n):
    # The sweep evaluates sigma = 0 once and the other trials in batches of
    # up to _BATCH_ENTRIES // n^2 (16 at n = 64, so 17 trials split there);
    # batches of 1 and of 3 trials give the same bits.
    seed, sigmas, trials = 3, (0.0, 0.1), 17
    full = _phase_chunk((seed, ARCH_SVD_CLEMENTS, n, sigmas, trials, 0, 1))[0]
    y = target_matrix(seed, n, 0)
    device = build_svd_clements(y, LOSSLESS)
    for s_idx, sigma in enumerate(sigmas):
        deviations = np.array([
            _trial_deviation_pair(seed, ARCH_SVD_CLEMENTS, n, s_idx, 0, t_idx, sigma)
            for t_idx in range(trials)
        ])
        for size in (1, 3):
            got = [
                fidelity(t, y)
                for first in range(0, trials, size)
                for t in evaluate_svd_clements(device, deviations[first : first + size].T)
            ]
            assert got == full[s_idx].tolist()


def test_zero_sigma_and_balanced_crossbar_are_exact():
    for r in phase_fidelity_sweep(PHASE_CFG):
        assert r.n_samples == 15
        if r.sweep_value == 0.0:
            assert abs(r.fidelity_mean - 1.0) <= 1e-12
            assert r.fidelity_std <= 1e-12
        else:
            assert r.fidelity_mean < 1.0
    for r in loss_fidelity_sweep(LOSS_CFG):
        if r.architecture == ARCH_XBAR:
            assert abs(r.fidelity_mean - 1.0) <= 1e-12
        elif r.sweep_value > 0.0:
            assert r.fidelity_mean < 1.0

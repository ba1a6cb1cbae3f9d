import math
import re

import numpy as np
import pytest

from crossmesh import (
    DegenerateDeviceError,
    DimensionError,
    DomainError,
    LOSSLESS,
    LossModel,
    SILICON_PASSIVES,
    SweepConfig,
    build_topology,
    build_xbar,
    design_splitters,
    evaluate_xbar,
    fidelity,
    loss_fidelity_sweep,
    node_loss_model,
    passive_loss,
    realized_matrix,
    restoration_matrix,
    svd_insertion_loss,
    transmission_matrix,
    uniform_splitters,
    weights_with_common_deviation,
    with_loss,
    xbar_insertion_loss,
)
from crossmesh import montecarlo
from crossmesh.crossbar import XbarDevice, common_deviation_fidelity, device_from_json, device_to_json
from crossmesh.montecarlo import target_matrix
from oracles import balanced_xbar_insertion_loss_db, column_transmissions, xbar_column_sums


class TestTopology:
    @pytest.mark.parametrize(
        "n,n_f,m_fwd,recomb",
        [(2, 2, 0, 0), (3, 4, 1, 1), (4, 4, 1, 1), (5, 8, 1, 3),
         (8, 8, 1, 3), (9, 16, 2, 7), (16, 16, 2, 7), (33, 64, 4, 31)],
    )
    def test_counts(self, n, n_f, m_fwd, recomb):
        top = build_topology(n, n)
        assert (top.n_f, top.m_fwd, top.recomb_crossings) == (n_f, m_fwd, recomb)
        assert top.n <= top.n_f < 2 * top.n

    def test_recomb_matches_stage_sum(self):
        # 1 + sum_{s=2}^{log2(Nf)-1} 2^{s-1} for Nf >= 8
        for n_f in (8, 16, 32, 64):
            top = build_topology(n_f, n_f)
            stages = 1 + sum(2 ** (s - 1) for s in range(2, int(math.log2(n_f))))
            assert top.recomb_crossings == stages == n_f // 2 - 1

    def test_padding_penalty_bound(self):
        for n in range(2, 65):
            top = build_topology(n, n)
            penalty = 20.0 * math.log10(top.n_f / n)
            assert 0.0 <= penalty < 6.021

    def test_validation(self):
        with pytest.raises(DomainError):
            build_topology(1, 4)
        with pytest.raises(DomainError):
            build_topology(4, 0)


class TestSplitters:
    def test_lossless_equal_split(self):
        xi, t = design_splitters(build_topology(4, 4), LOSSLESS)
        assert np.allclose(xi**2, [0.25, 1 / 3, 0.5, 1.0], atol=1e-15)
        assert np.allclose(xi[:-1] ** 2 + t**2, 1.0, atol=1e-15)

    def test_nf4_base_case_is_half(self):
        # crossing exponent (N_f/2 - 1) - m_fwd vanishes, any l_x
        for il_x in (0.0, 0.02, 1.0):
            loss = LossModel(il_x_db=il_x, il_xi_db=0.0)
            xi, _ = design_splitters(build_topology(4, 4), loss)
            assert abs(xi[-2] ** 2 - 0.5) < 1e-15

    @pytest.mark.parametrize("n_f", [2, 4, 8, 16])
    @pytest.mark.parametrize("m", [2, 3, 7, 16])
    def test_balanced_transmissions(self, n_f, m):
        top = build_topology(n_f, m)
        loss = node_loss_model(1.3)
        xi, t = design_splitters(top, loss)
        device = XbarDevice(
            topology=top, weights=np.ones((n_f, m)), xi=xi, t=t, loss=loss, balanced=True
        )
        p = column_transmissions(device)  # independent per-column product oracle
        spread = (p.max() - p.min()) / p[0]
        assert spread < 1e-12

    def test_uniform_splitters(self):
        xi, t = uniform_splitters(build_topology(4, 4))
        assert np.allclose(xi[:-1], 1 / math.sqrt(2)) and xi[-1] == 1.0
        assert np.allclose(t, 1 / math.sqrt(2))


class TestPassiveLoss:
    def test_lossless_unity(self):
        top = build_topology(8, 8)
        assert np.all(passive_loss(top, LOSSLESS) == 1.0)

    def test_first_column_budget(self):
        top = build_topology(4, 4)
        loss = LossModel(il_coup_db=0.06, il_xi_db=0.1, il_x_db=0.02)
        db = -20.0 * math.log10(passive_loss(top, loss)[0])
        assert abs(db - (4 * 0.06 + 0.1 + 1 * 0.02)) < 1e-12

    def test_last_column_branch(self):
        # the final column is one coupler and (recomb - m_fwd) crossings
        # cheaper than the previous column extended by one coupler pass
        top = build_topology(8, 8)
        loss = SILICON_PASSIVES
        l_c = passive_loss(top, loss)
        actual = l_c[7]
        extended = l_c[6] * loss.l_xi
        delta_db = -20.0 * math.log10(actual) - (-20.0 * math.log10(extended))
        expected = -(0.1 + (top.recomb_crossings - top.m_fwd) * 0.02)
        assert abs(delta_db - expected) < 1e-12


class TestTransmissionMatrix:
    def test_lossless_balanced_4x4(self):
        device = build_xbar(np.ones((4, 4)), LOSSLESS, "balanced")
        p = transmission_matrix(device)
        assert np.allclose(p, 1 / 8, atol=1e-15)

    def test_alpha_common_factor(self):
        base = build_xbar(np.ones((4, 4)), LOSSLESS, "balanced")
        mod = build_xbar(np.ones((4, 4)), LossModel(alpha_db=3.0), "balanced")
        ratio = transmission_matrix(mod) / transmission_matrix(base)
        assert np.allclose(ratio, 10 ** (-3 / 20), atol=1e-15)

    def test_uniform_mode_column_ratios(self):
        loss = node_loss_model(1.0)
        device = build_xbar(np.ones((8, 8)), loss, "uniform")
        p = transmission_matrix(device)
        top = device.topology
        expected = (1 / math.sqrt(2)) * loss.l_xi * loss.l_x**top.m_fwd
        for c in range(1, top.m - 1):
            assert abs(p[c] / p[c - 1] - expected) < 1e-12
        # matches the direct product oracle everywhere, including column M
        assert np.allclose(p, column_transmissions(device), atol=1e-15)


class TestEvaluate:
    def test_all_ones_lossless(self):
        device = build_xbar(np.ones((4, 4)), LOSSLESS, "balanced")
        out = evaluate_xbar(device, np.ones(4))
        assert np.allclose(out, 0.5, atol=1e-14)
        assert np.allclose(np.abs(out) ** 2, 1 / 4, atol=1e-14)

    def test_single_nonzero_weight(self):
        y = np.zeros((4, 4), dtype=complex)
        y[2, 1] = 0.8j
        device = build_xbar(y, node_loss_model(0.5), "balanced")
        x = np.zeros(4, dtype=complex)
        x[2] = 1.0
        out = evaluate_xbar(device, x)
        p = transmission_matrix(device)
        assert out[1] == p[1] * device.weights[2, 1]
        assert np.all(out[[0, 2, 3]] == 0.0)

    def test_matches_column_sum_oracle(self):
        rng = np.random.default_rng(8)
        y = target_matrix(17, 8, 0)
        device = build_xbar(y, node_loss_model(0.7), "balanced")
        for _ in range(5):
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            x /= np.max(np.abs(x))
            out = evaluate_xbar(device, x)
            assert np.max(np.abs(out - xbar_column_sums(device, x))) < 1e-15

    def test_validation(self):
        device = build_xbar(np.ones((4, 4)), LOSSLESS, "balanced")
        with pytest.raises(DimensionError):
            evaluate_xbar(device, np.ones(3))
        with pytest.raises(DomainError):
            evaluate_xbar(device, 1.5 * np.ones(4))


class TestInsertionLoss:
    def test_lossless_square_power_of_two(self):
        for n in (2, 4, 8, 16):
            il = xbar_insertion_loss(build_topology(n, n), LOSSLESS)
            assert abs(il - 10 * math.log10(n)) < 1e-9

    def test_padded_lossless(self):
        il = xbar_insertion_loss(build_topology(5, 8), LOSSLESS)
        assert abs(il - (10 * math.log10(8) + 20 * math.log10(8 / 5))) < 1e-12
        il_square = xbar_insertion_loss(build_topology(5, 5), LOSSLESS)
        assert abs(il_square - (10 * math.log10(5) + 20 * math.log10(8 / 5))) < 1e-12

    @pytest.mark.parametrize(
        "n,m",
        [(2, 2), (4, 4), (5, 5), (8, 8), (16, 16), (5, 8), (3, 2), (8, 3), (9, 4)],
        ids=["2", "4", "5", "8", "16", "5x8", "3x2", "8x3", "9x4"],
    )
    def test_formula_equals_simulation(self, n, m):
        loss = node_loss_model(1.37)
        il = xbar_insertion_loss(build_topology(n, m), loss)
        device = build_xbar(np.ones((n, m)), loss, "balanced")
        out = evaluate_xbar(device, np.ones(n))
        il_sim = -10.0 * np.log10(np.abs(out) ** 2)
        assert np.max(np.abs(il_sim - il)) < 1e-9

    def test_node_loss_override_equals_simulation(self):
        # the override swaps the cell term only: simulate a device whose
        # phase shifters carry the rest of the 2.4 dB node loss
        loss = node_loss_model(1.37)
        il = xbar_insertion_loss(build_topology(9, 4), loss, il_node_db=2.4)
        ps_db = (2.4 - 2.0 * loss.il_coup_db) / 2.0
        sim_loss = LossModel(il_coup_db=loss.il_coup_db, il_ps_db=ps_db,
                             il_xi_db=loss.il_xi_db, il_x_db=loss.il_x_db)
        assert abs(sim_loss.il_node_db - 2.4) < 1e-12
        device = build_xbar(np.ones((9, 4)), sim_loss, "balanced")
        il_sim = -20.0 * np.log10(np.abs(evaluate_xbar(device, np.ones(9))))
        assert np.max(np.abs(il_sim - il)) < 1e-9

    def test_metric_anchors(self):
        assert 8.3 <= xbar_insertion_loss(build_topology(4, 4), SILICON_PASSIVES, il_node_db=2.0) <= 8.7
        assert 11.7 <= xbar_insertion_loss(build_topology(8, 8), SILICON_PASSIVES, il_node_db=2.0) <= 12.3

    def test_linear_slope_in_node_loss(self):
        top = build_topology(8, 8)
        grid = np.linspace(0.0, 2.0, 21)
        ils = [xbar_insertion_loss(top, SILICON_PASSIVES, il_node_db=x) for x in grid]
        slopes = np.diff(ils) / np.diff(grid)
        assert np.max(np.abs(slopes - 1.0)) < 1e-9
        # versus the mesh architecture's path-count slopes
        best = [svd_insertion_loss(8, x, "best") for x in grid]
        worst = [svd_insertion_loss(8, x, "worst") for x in grid]
        assert abs((best[1] - best[0]) / (grid[1] - grid[0]) - 9.0) < 1e-9
        assert abs((worst[1] - worst[0]) / (grid[1] - grid[0]) - 17.0) < 1e-9

    def test_single_column_rejected(self):
        with pytest.raises(DomainError):
            xbar_insertion_loss(build_topology(4, 1), LOSSLESS)

    def test_negative_node_loss_rejected(self):
        with pytest.raises(DomainError, match="il_node_db must be >= 0"):
            xbar_insertion_loss(build_topology(4, 4), SILICON_PASSIVES, il_node_db=-1.0)

    @pytest.mark.parametrize("n", [4, 64, 1024, 9017])
    def test_matches_log_domain_oracle(self, n):
        # 9017 is the largest n whose xi_1^2 is a normal double with the silicon passives.
        top = build_topology(n, n)
        expected = balanced_xbar_insertion_loss_db(top, SILICON_PASSIVES, 1.0)
        assert abs(xbar_insertion_loss(top, SILICON_PASSIVES, il_node_db=1.0) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("n, quantity", [(9018, "xi_1^2"), (16384, "xi_1^2"), (20000, "L_c")])
    def test_underflow_is_a_domain_error(self, n, quantity):
        # Past n = 9017 xi_1^2 is subnormal and loses its precision: n = 16384
        # would read 3390.9 dB, where the log-domain oracle gives 5746.7 dB.
        # At n = 20000 the last columns' L_c are 0.0.
        message = f"crossbar coupler design at n={n}: .*{re.escape(quantity)} underflows"
        top = build_topology(n, n)
        with pytest.raises(DomainError, match=message):
            design_splitters(top, SILICON_PASSIVES)
        with pytest.raises(DomainError, match=message):
            xbar_insertion_loss(top, SILICON_PASSIVES, il_node_db=0.0)

    @pytest.mark.parametrize("loss, quantity", [(LossModel(il_xi_db=2000.0), "xi_1^2"),
                                                (LossModel(il_x_db=7000.0), "L_c")],
                             ids=["xi", "L_c"])
    def test_underflow_reaches_build_and_loss_sweep(self, monkeypatch, loss, quantity):
        message = f"crossbar coupler design at n=4: .*{re.escape(quantity)} underflows"
        with pytest.raises(DomainError, match=message):
            build_xbar(np.ones((4, 4)), loss)
        # The loss sweep checks the coupler design before it draws any target.
        monkeypatch.setattr(montecarlo, "target_matrix", lambda *args: pytest.fail("a target was drawn"))
        cfg = SweepConfig(architectures=("xbar",), n_values=(4,), n_matrices=1)
        with pytest.raises(DomainError, match=message):
            loss_fidelity_sweep(cfg, (0.0,), passives=loss)

    def test_loss_sweep_checks_the_design_its_devices_get(self):
        # node_loss_model replaces the passives' coupler loss, so passives
        # whose own 2000 dB couplers underflow L_c still build and sweep.
        passives = LossModel(il_coup_db=2000.0)
        with pytest.raises(DomainError, match="L_c underflows"):
            design_splitters(build_topology(4, 4), passives)
        cfg = SweepConfig(architectures=("xbar",), n_values=(4,), n_matrices=1)
        reports = loss_fidelity_sweep(cfg, (0.0, 1.0), passives=passives)
        assert [r.fidelity_mean for r in reports] == pytest.approx([1.0, 1.0], abs=1e-12)


class TestRestoration:
    def test_balanced_is_scalar(self):
        device = build_xbar(target_matrix(23, 6, 0), node_loss_model(1.1), "balanced")
        r = restoration_matrix(device)
        p = transmission_matrix(device)
        assert np.allclose(r, np.eye(6) / p[0], atol=1e-12)

    def test_uniform_ratios_reproduce_two_branch_form(self):
        loss = node_loss_model(0.9)
        device = build_xbar(np.ones((4, 3)), loss, "uniform")
        p = column_transmissions(device)
        top = device.topology
        t1 = 1 / math.sqrt(2)
        assert abs(p[1] / p[0] - t1 * loss.l_xi * loss.l_x**top.m_fwd) < 1e-15
        last = t1 / (1 / math.sqrt(2)) * loss.l_x ** (top.m_fwd - (top.n_f // 2 - 1))
        assert abs(p[2] / p[1] - last) < 1e-15
        r = np.diag(restoration_matrix(device))
        assert np.allclose(r, 1.0 / p, atol=1e-12)

    def test_restoration_reaches_unit_fidelity(self):
        rng = np.random.default_rng(9)
        for i in range(50):
            n = int(rng.integers(2, 9))
            y = target_matrix(29, n, i)
            loss = node_loss_model(float(rng.uniform(0, 2)))
            device = build_xbar(y.T, loss, "uniform")
            restored = restoration_matrix(device) @ realized_matrix(device)
            assert fidelity(restored, y) > 1 - 1e-10

    def test_degenerate_rejected(self):
        top = build_topology(4, 4)
        xi, t = design_splitters(top, LOSSLESS)
        xi = xi.copy()
        xi[0] = 0.0
        device = XbarDevice(topology=top, weights=np.ones((4, 4)), xi=xi, t=t,
                            loss=LOSSLESS, balanced=False)
        with pytest.raises(DegenerateDeviceError):
            restoration_matrix(device)


class TestBuild:
    def test_identity_weights(self):
        device = build_xbar(np.eye(4), LOSSLESS, "balanced")
        assert np.allclose(device.weights, np.eye(4), atol=1e-15)

    def test_peak_normalization(self):
        y = 3.0 * target_matrix(31, 4, 0)
        device = build_xbar(y, LOSSLESS, "balanced")
        assert abs(np.max(np.abs(device.weights)) - 1.0) < 1e-12

    def test_matrix_form_oracle(self):
        rng = np.random.default_rng(10)
        y = target_matrix(37, 4, 0)
        device = build_xbar(y, node_loss_model(0.4), "balanced")
        p = transmission_matrix(device)
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x /= np.max(np.abs(x))
            expected = (p[:, None] * device.weights.T) @ x
            assert np.max(np.abs(evaluate_xbar(device, x) - expected)) < 1e-15

    def test_rectangular_targets(self):
        device = build_xbar(np.ones((4, 7)), LOSSLESS, "balanced")
        assert device.topology.m == 7
        out = evaluate_xbar(device, np.ones(4))
        assert out.shape == (7,)
        spread = np.max(np.abs(out)) - np.min(np.abs(out))
        assert spread < 1e-14

    def test_validation(self):
        with pytest.raises(DomainError):
            build_xbar(np.zeros((3, 3)), LOSSLESS)
        with pytest.raises(DomainError):
            build_xbar(np.ones((3, 3)), LOSSLESS, "diagonal")


class TestLossBalancedFidelity:
    def test_unity_for_random_pairs(self):
        rng = np.random.default_rng(41)
        for i in range(40):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(2, 10))
            y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            loss = LossModel(
                il_coup_db=float(rng.uniform(0, 0.5)),
                il_ps_db=float(rng.uniform(0, 1.0)),
                il_xi_db=float(rng.uniform(0, 0.5)),
                il_x_db=float(rng.uniform(0, 0.2)),
                alpha_db=float(rng.uniform(0, 3.0)),
            )
            device = build_xbar(y, loss, "balanced")
            assert fidelity(realized_matrix(device), device.weights.T) > 1 - 1e-10


class TestPerturbedWeights:
    def test_sigma_zero_copy(self):
        device = build_xbar(target_matrix(43, 4, 0), LOSSLESS, "balanced")
        for zero in (0.0, np.zeros((4, 4))):
            w = weights_with_common_deviation(device, zero)
            assert np.array_equal(w, device.weights)
            assert w is not device.weights

    def test_draw_accounting_row_major(self):
        # independent per-cell errors: one (d_theta, d_phi) draw per cell, row-major
        device = build_xbar(target_matrix(43, 3, 1), LOSSLESS, "balanced")
        draws = np.random.default_rng(77).normal(0.0, 0.15, size=(9, 2))
        w = weights_with_common_deviation(device, draws[:, 0].reshape(3, 3))
        theta = 2.0 * np.arcsin(np.clip(np.abs(device.weights), 0, 1))
        expected = np.sin((theta + draws[:, 0].reshape(3, 3)) / 2.0) * np.exp(
            1j * (np.angle(device.weights) + draws[:, 0].reshape(3, 3) / 2.0)
        )
        assert np.array_equal(w, expected)

    def test_single_cell_locality(self):
        device = build_xbar(target_matrix(47, 5, 0), node_loss_model(0.6), "balanced")
        base = realized_matrix(device)
        w = device.weights.copy()
        r, c = 2, 1
        theta = 2.0 * math.asin(min(1.0, abs(w[r, c])))
        dt, dp = 0.17, -0.4  # the phi deviation lands on the unconnected arm
        w[r, c] = math.sin((theta + dt) / 2.0) * np.exp(1j * (np.angle(w[r, c]) + dt / 2.0))
        shifted = realized_matrix(device, w)
        diff = np.abs(shifted - base)
        assert diff[c, r] > 1e-3
        diff[c, r] = 0.0
        assert np.max(diff) == 0.0

    def test_common_deviation(self):
        device = build_xbar(target_matrix(53, 4, 0), LOSSLESS, "balanced")
        w = weights_with_common_deviation(device, 0.2)
        theta = 2.0 * np.arcsin(np.clip(np.abs(device.weights), 0, 1))
        expected = np.sin((theta + 0.2) / 2.0) * np.exp(
            1j * (np.angle(device.weights) + 0.1)
        )
        assert np.array_equal(w, expected)
        assert np.array_equal(weights_with_common_deviation(device, 0.0), device.weights)

    def test_zero_batch_keeps_batch_axis(self):
        device = build_xbar(target_matrix(43, 4, 0)[:, :3], LOSSLESS, "balanced")
        w = weights_with_common_deviation(device, np.zeros((4, 1, 1)))
        assert w.shape == (4, 4, 3)
        assert all(np.array_equal(row, device.weights) for row in w)
        w[0, 0, 0] = 7.0
        assert device.weights[0, 0] != 7.0

    def test_batch_matches_single_trials(self):
        device = build_xbar(target_matrix(61, 5, 0)[:, :4], node_loss_model(0.3), "balanced")
        dtheta = np.random.default_rng(5).normal(0.0, 0.2, size=7)
        batch = weights_with_common_deviation(device, dtheta[:, None, None])
        realized = realized_matrix(device, batch)
        assert batch.shape == (7, 5, 4) and realized.shape == (7, 4, 5)
        for k, d in enumerate(dtheta.tolist()):
            w = weights_with_common_deviation(device, d)
            assert np.array_equal(batch[k], w)
            assert np.array_equal(realized[k], realized_matrix(device, w))


class TestCommonDeviationFidelity:
    DTHETA = np.array([0.0, 1e-3, -1e-3, 0.3, -0.3, math.pi, -math.pi])

    @staticmethod
    def per_trial(device, y, dtheta):
        """The general route: perturbed weights, realized matrix, fidelity, one trial at a time."""
        with np.errstate(invalid="ignore"):  # a non-finite deviation must reach fidelity's check
            return np.array([
                fidelity(realized_matrix(device, weights_with_common_deviation(device, d)), y)
                for d in dtheta.tolist()
            ])

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    @pytest.mark.parametrize("mode", ["balanced", "uniform"])
    @pytest.mark.parametrize("loss", [LOSSLESS, node_loss_model(0.6)], ids=["lossless", "lossy"])
    def test_matches_per_trial_route(self, n, mode, loss):
        y = target_matrix(71, n, 0)
        device = build_xbar(y.T, loss, mode)
        # The programmed target and an unrelated one, so fidelities fall below 1.
        for target in (y, target_matrix(71, n, 1)):
            got = common_deviation_fidelity(device, target, self.DTHETA)
            assert got.shape == self.DTHETA.shape
            assert np.max(np.abs(got - self.per_trial(device, target, self.DTHETA))) <= 1e-14

    def test_non_square_device(self):
        # N = 5 inputs, M = 3 columns: the operator, and so y, is 3 x 5.
        device = build_xbar(target_matrix(73, 5, 0)[:, :3], node_loss_model(0.4), "uniform")
        y = target_matrix(73, 5, 1)[:3]
        got = common_deviation_fidelity(device, y, self.DTHETA)
        assert np.max(np.abs(got - self.per_trial(device, y, self.DTHETA))) <= 1e-14

    def test_slices_give_the_same_bits(self):
        y = target_matrix(79, 16, 0)
        device = build_xbar(y.T, LOSSLESS, "balanced")
        dtheta = np.random.default_rng(3).normal(0.0, 0.2, size=17)
        whole = common_deviation_fidelity(device, y, dtheta).tolist()
        for size in (1, 3):
            parts = [common_deviation_fidelity(device, y, dtheta[k : k + size]) for k in range(0, 17, size)]
            assert np.concatenate(parts).tolist() == whole

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_deviation_rejected(self, bad):
        y = target_matrix(83, 4, 0)
        device = build_xbar(y.T, LOSSLESS, "balanced")
        with pytest.raises(DomainError):
            common_deviation_fidelity(device, y, np.array([0.1, bad]))
        with pytest.raises(DomainError):  # the per-trial route rejects it too
            self.per_trial(device, y, np.array([bad]))

    def test_bad_target_rejected(self):
        device = build_xbar(target_matrix(83, 4, 0).T, LOSSLESS, "balanced")
        with pytest.raises(DomainError, match="zero matrix"):
            common_deviation_fidelity(device, np.zeros((4, 4)), np.array([0.1]))
        with pytest.raises(DimensionError):
            common_deviation_fidelity(device, np.ones((4, 3)), np.array([0.1]))


class TestDeviceCache:
    def test_replace_recomputes_column_factors(self):
        # Nothing is cached on the device: a with_loss copy evaluates with its own loss.
        device = build_xbar(target_matrix(67, 4, 0), LOSSLESS, "uniform")
        lossy = with_loss(device, node_loss_model(1.0))
        p, lossy_p = transmission_matrix(device), transmission_matrix(lossy)
        assert not np.array_equal(lossy_p, p)
        assert np.array_equal(realized_matrix(device), p[:, None] * device.weights.T)
        assert np.array_equal(realized_matrix(lossy), lossy_p[:, None] * device.weights.T)


class TestDeviceJson:
    def test_round_trip(self):
        device = build_xbar(target_matrix(59, 5, 2), node_loss_model(0.8), "balanced")
        again = device_from_json(device_to_json(device))
        assert again.topology == device.topology
        assert again.loss == device.loss
        assert np.array_equal(again.weights, device.weights)
        x = np.full(5, 0.5 + 0.1j)
        assert np.max(np.abs(evaluate_xbar(again, x) - evaluate_xbar(device, x))) < 1e-15

    def test_wrong_arch_rejected(self):
        with pytest.raises(DomainError):
            device_from_json({"arch": "svd-clements"})
        with pytest.raises(DomainError):
            device_from_json([{"arch": "xbar"}])

    @pytest.mark.parametrize("key", ["xi", "t"])
    def test_truncated_splitters_rejected(self, key):
        dump = device_to_json(build_xbar(target_matrix(59, 4, 0), LOSSLESS, "balanced"))
        dump[key] = dump[key][:-1]
        with pytest.raises(DimensionError):
            device_from_json(dump)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.pop("t"),
            lambda d: d.pop("n"),
            lambda d: d.update(m="4"),
            lambda d: d.update(weights=[[1.0]]),
            lambda d: d["weights"]["im"][0].__setitem__(0, None),
            lambda d: d.update(xi=["x"] * 4),
            lambda d: d["loss"].update(il_coup_db="x"),
            lambda d: d.update(loss="lossless"),
            lambda d: d["weights"]["re"][1].__setitem__(2, 1.5),
            lambda d: d.update(n=4.0),
            lambda d: d.update(m=4.5),
            lambda d: d.update(n_f=4.0),
            lambda d: d.update(n_f=8),
            lambda d: d["weights"]["re"][0].__setitem__(1, "0.5"),
            lambda d: d["t"].__setitem__(0, True),
            lambda d: d["xi"].__setitem__(0, 10**400),
            lambda d: d.update(xi=[[x] for x in d["xi"]]),
        ],
        ids=["missing-t", "missing-n", "string-m", "weights-not-object", "null-weight",
             "string-xi", "string-loss", "loss-not-object", "weight-above-one", "float-n",
             "fractional-m", "float-n_f", "n_f-disagrees-with-n", "string-weight", "bool-t", "huge-int-xi", "nested-xi"],
    )
    def test_invalid_dump_rejected(self, corrupt):
        dump = device_to_json(build_xbar(target_matrix(59, 4, 0), LOSSLESS, "balanced"))
        corrupt(dump)
        with pytest.raises(DomainError):
            device_from_json(dump)

    @pytest.mark.parametrize(
        "xi, t",
        [([5.0, 1.0], [-3.0]), ([-0.6, 1.0], [0.8]), ([0.5, 1.0], [0.5]), ([0.6, 0.9], [0.8]),
         ([0.6, 1.0], [0.8 + 1e-11])],
        ids=["amplifying", "negative-xi", "lossy", "last-xi-below-one", "sum-off-by-1e-11"],
    )
    def test_couplers_must_be_lossless_splitters(self, xi, t):
        dump = device_to_json(build_xbar(np.array([[1.0, 0.5], [0.25, -0.75]]), LOSSLESS, "uniform"))
        device_from_json({**dump, "xi": [0.6, 1.0], "t": [0.8]})  # a 36:64 splitter is fine
        with pytest.raises(DomainError):
            device_from_json({**dump, "xi": xi, "t": t})

    @pytest.mark.parametrize("mode", ["balanced", "uniform"])
    @pytest.mark.parametrize(
        "loss", [LOSSLESS, SILICON_PASSIVES, LossModel(il_coup_db=0.5, il_xi_db=1.0, il_x_db=0.5)],
        ids=["lossless", "silicon", "lossy"],
    )
    def test_every_compiled_dump_loads(self, mode, loss):
        # What `compile` writes, for square and rectangular weights at n = 2..64.
        # JSON text keeps every float (repr round-trips), so the dict stands for it.
        rng = np.random.default_rng(3)
        for n in range(2, 65):
            for m in sorted({1, 2, n, 2 * n - 1}):
                device = build_xbar(rng.uniform(-1.0, 1.0, (n, m)), loss, mode)
                again = device_from_json(device_to_json(device))
                assert np.array_equal(again.xi, device.xi) and np.array_equal(again.t, device.t)

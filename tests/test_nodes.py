import math

import numpy as np
import pytest

from crossmesh import (
    ClementsMesh,
    DomainError,
    LOSSLESS,
    LossModel,
    SILICON_PASSIVES,
    SweepConfig,
    apply_common_deviation,
    apply_mesh,
    build_svd_clements,
    build_xbar,
    evaluate_svd_clements,
    node_loss_model,
    phase_fidelity_sweep,
    realized_matrix,
    transmission_matrix,
    voa_transfer,
    voa_transfer_at,
    with_loss,
)
from crossmesh.clements import _device
from crossmesh.crossbar import device_from_json as xbar_device_from_json
from crossmesh.crossbar import device_to_json as xbar_device_to_json
from crossmesh.montecarlo import target_matrix
from crossmesh.nodes import cell_entries, mzi_entries
from oracles import mzi_product


def lossy_cell(theta, phi, loss):
    """One lossy cell as the 2-port mesh that holds it."""
    mesh = ClementsMesh(n=2, theta=np.array([theta]), phi=np.array([phi]), output_phases=np.zeros(2))
    return apply_mesh(np.eye(2), mesh, node_field=loss.t_node)


def mzi_matrix(theta, phi):
    """Lossless cell matrix from its entries."""
    m11, m12, m21, m22 = mzi_entries(theta, phi)
    return np.array([[m11, m12], [m21, m22]])


class TestLossModel:
    def test_field_coefficients(self):
        loss = LossModel(il_coup_db=0.06, il_ps_db=0.94, il_xi_db=0.1, il_x_db=0.02, alpha_db=3.0)
        assert abs(loss.l_coup - 10 ** (-0.06 / 20)) < 1e-15
        assert abs(loss.k - 10 ** (-0.94 / 20)) < 1e-15
        assert abs(loss.alpha - 10 ** (-3.0 / 20)) < 1e-15

    def test_node_consistency(self):
        loss = LossModel(il_coup_db=0.06, il_ps_db=0.94)
        il_node_db = 2 * (loss.il_coup_db + loss.il_ps_db)
        assert abs(il_node_db - 2.0) < 1e-12
        assert abs(loss.t_node - 10 ** (-il_node_db / 20)) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            LossModel(il_coup_db=-0.1)

    def test_json_round_trip(self):
        loss = SILICON_PASSIVES
        assert LossModel.from_json(loss.to_json()) == loss
        assert LossModel.from_json({}) == LOSSLESS

    @pytest.mark.parametrize("obj", [{"il_coup": 3.0}, {"il_coup_db": 0.1, "comment": "x"}],
                             ids=["typo", "extra-key"])
    def test_unknown_keys_rejected(self, obj):
        with pytest.raises(DomainError, match="keys from"):
            LossModel.from_json(obj)


class TestNodeLossModel:
    def test_standard_split(self):
        lm = node_loss_model(2.0)
        assert lm.il_coup_db == 0.06
        assert abs(2 * (lm.il_coup_db + lm.il_ps_db) - 2.0) < 1e-12
        assert lm.il_xi_db == SILICON_PASSIVES.il_xi_db

    def test_below_threshold(self):
        lm = node_loss_model(0.08)
        assert lm.il_ps_db == 0.0
        assert abs(lm.il_coup_db - 0.04) < 1e-15
        assert abs(2 * (lm.il_coup_db + lm.il_ps_db) - 0.08) < 1e-12

    def test_zero(self):
        lm = node_loss_model(0.0)
        assert lm.t_node == 1.0

    def test_negative(self):
        with pytest.raises(DomainError):
            node_loss_model(-0.5)


class TestNodeTransfer:
    def test_bar_state(self):
        m = mzi_matrix(math.pi, 0.0)
        assert abs(abs(m[0, 0]) - 1.0) < 1e-12
        assert abs(abs(m[1, 1]) - 1.0) < 1e-12
        assert abs(m[0, 1]) < 1e-12 and abs(m[1, 0]) < 1e-12

    def test_cross_state(self):
        m = mzi_matrix(0.0, 0.0)
        assert abs(abs(m[0, 1]) - 1.0) < 1e-12
        assert abs(abs(m[1, 0]) - 1.0) < 1e-12
        assert abs(m[0, 0]) < 1e-12 and abs(m[1, 1]) < 1e-12

    def test_matches_four_matrix_product(self):
        rng = np.random.default_rng(11)
        loss = node_loss_model(2.0)
        for _ in range(50):
            theta, phi = rng.uniform(0, 2 * np.pi, 2)
            m = lossy_cell(theta, phi, loss)
            oracle = loss.t_node * mzi_product(theta, phi)
            assert np.max(np.abs(m - oracle)) < 1e-12
            gram = m.conj().T @ m
            assert np.max(np.abs(gram - 10 ** (-0.2) * np.eye(2))) < 1e-12

    def test_lossless_unitary(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            theta, phi = rng.uniform(0, 2 * np.pi, 2)
            m = mzi_matrix(theta, phi)
            assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12

    def test_scalar_loss_never_mixes(self):
        loss = node_loss_model(1.3)
        rng = np.random.default_rng(13)
        for _ in range(100):
            theta, phi = rng.uniform(0, 2 * np.pi, 2)
            m = lossy_cell(theta, phi, loss)
            gram = m.conj().T @ m
            assert np.max(np.abs(gram - loss.t_node**2 * np.eye(2))) < 1e-14

    def test_phi_factors_as_input_phase(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            theta, phi = rng.uniform(0, 2 * np.pi, 2)
            m = mzi_matrix(theta, phi)
            m0 = mzi_matrix(theta, 0.0)
            assert np.max(np.abs(m - m0 @ np.diag([np.exp(1j * phi), 1.0]))) < 1e-12


class TestCellEntries:
    ANGLES = np.random.default_rng(16).uniform(0, 2 * np.pi, (2, 4, 5))  # (K, m) thetas and phis

    @pytest.mark.parametrize("field", [1.0, node_loss_model(0.7).t_node], ids=["lossless", "lossy"])
    def test_matches_four_matrix_product(self, field):
        thetas, phis = self.ANGLES
        entries = cell_entries(thetas, phis, field)
        assert all(e.shape == (4, 5) for e in entries)
        for k, m in np.ndindex(thetas.shape):
            cell = np.array([e[k, m] for e in entries]).reshape(2, 2)
            oracle = field * mzi_product(thetas[k, m], phis[k, m])
            assert np.max(np.abs(cell - oracle)) < 1e-15

    def test_matches_scalar_cell_off_bar(self):
        thetas, phis = self.ANGLES
        entries = cell_entries(thetas, phis)
        for k, m in np.ndindex(thetas.shape):
            scalar = mzi_entries(thetas[k, m], phis[k, m])
            assert max(abs(e[k, m] - x) for e, x in zip(entries, scalar)) < 1e-15


class TestVoaTransfer:
    def test_full_transmission(self):
        transfer, theta = voa_transfer(1.0)
        assert abs(abs(transfer) - 1.0) < 1e-12
        assert abs(theta - math.pi) < 1e-12

    def test_full_extinction(self):
        transfer, theta = voa_transfer(0.0)
        assert transfer == 0.0
        assert theta == 0.0

    def test_half_amplitude_with_loss(self):
        # programmed lossless; the lossy cell at that angle transfers T_node * a
        loss = node_loss_model(1.0)
        transfer, theta = voa_transfer(0.5)
        assert abs(abs(transfer) - 0.5) < 1e-12
        lossy = voa_transfer_at(theta, loss)
        assert abs(abs(lossy) - 10 ** (-0.05) * 0.5) < 1e-12
        # reading the connected port of the full cell gives the same value
        connected = lossy_cell(theta, 0.0, loss)[1, 1]
        assert abs(lossy - connected) < 1e-15

    def test_monotone_in_amplitude(self):
        loss = node_loss_model(0.7)
        amps = np.linspace(0.0, 1.0, 25)
        mags = [abs(voa_transfer_at(voa_transfer(a)[1], loss)) for a in amps]
        assert all(m1 < m2 for m1, m2 in zip(mags, mags[1:]))

    def test_phi_never_reaches_through_path(self):
        assert abs(voa_transfer_at(1.1) - mzi_matrix(1.1, 2.2)[1, 1]) < 1e-15
        # the attenuator column's phi shifters leave the device transfer unchanged
        device = build_svd_clements(target_matrix(3, 4, 0), node_loss_model(0.4))
        v, sigma_theta, _sigma_phi, u = device.parts()
        shifted = _device(v, sigma_theta, np.array([2.2, 0.3, 5.0, 1.0]), u, device.loss)
        assert np.array_equal(evaluate_svd_clements(shifted), evaluate_svd_clements(device))

    def test_array_of_angles(self):
        # one call over an array equals the per-cell transfers, and each is
        # the (2, 2) entry of the batched cell whatever its phi
        loss = node_loss_model(0.5)
        thetas, phis = np.random.default_rng(15).uniform(0, 2 * np.pi, (2, 3, 7))
        column = voa_transfer_at(thetas, loss)
        assert column.shape == (3, 7)
        assert column.tobytes() == cell_entries(thetas, phis, loss.t_node)[3].tobytes()
        for theta, value in zip(thetas.flat, column.flat):
            assert value == voa_transfer_at(theta, loss)
            assert abs(value - loss.t_node * mzi_product(theta, 0.0)[1, 1]) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            voa_transfer(1.5)
        with pytest.raises(DomainError):
            voa_transfer(-0.1)


class TestXbarNodeTransfer:
    # A crossbar weight cell transfers T_node * w * e^{i phi}; the device
    # applies it as entry (c, r) = p_c * w[r, c] of its realized matrix.

    def cell_entries(self, weights, loss):
        device = build_xbar(weights, loss, "balanced")
        return realized_matrix(device).T / transmission_matrix(with_loss(device, LOSSLESS))

    def test_transparency(self):
        w = np.ones((4, 4))
        assert np.allclose(self.cell_entries(w, LOSSLESS), 1.0, rtol=0, atol=1e-15)

    def test_direct_value(self):
        w = np.ones((2, 3), dtype=complex)
        w[1, 2] = 0.7j
        assert abs(self.cell_entries(w, LOSSLESS)[1, 2] - 0.7j) < 1e-12

    def test_with_loss(self):
        # phase-shifter loss changes T_node only, not the splitters
        w = np.ones((3, 3))
        entries = self.cell_entries(w, LossModel(il_ps_db=1.0))
        assert np.allclose(entries, 10 ** (-0.1), rtol=0, atol=1e-12)

    def test_out_of_range(self):
        dump = xbar_device_to_json(build_xbar(np.ones((2, 2)), LOSSLESS))
        dump["weights"]["re"][0][1] = 1.2
        with pytest.raises(DomainError):
            xbar_device_from_json(dump)


class TestPerturbPhases:
    # Per-cell deviations go through the device's one shift function.

    def device(self):
        return build_svd_clements(target_matrix(1, 2, 0), LOSSLESS)  # 4 cells

    def phases(self, device):
        return device.theta, device.phi

    def test_sigma_zero_is_identity(self):
        device = self.device()
        shifted = apply_common_deviation(device, np.zeros(4), np.zeros(4))
        for before, after in zip(self.phases(device), self.phases(shifted)):
            assert np.array_equal(before, after)

    def test_reproducible(self):
        device = self.device()
        a, b = (
            apply_common_deviation(device, *np.random.default_rng(42).normal(0.0, 0.1, (4, 2)).T)
            for _ in range(2)
        )
        for pa, pb, p0 in zip(self.phases(a), self.phases(b), self.phases(device)):
            assert np.array_equal(pa, pb)
            assert not np.array_equal(pa, p0)

    def test_sample_std(self):
        # 25 000 devices of 4 cells in one batch: 100 000 wrapped shifts
        device = self.device()
        draws = np.random.default_rng(7).normal(0.0, 0.1, (25_000, 4))
        theta = self.phases(apply_common_deviation(device, draws, 0.0))[0]
        deltas = (theta - self.phases(device)[0] + math.pi) % (2 * math.pi) - math.pi
        assert theta.shape == (25_000, 4)
        assert 0.099 < float(np.std(deltas)) < 0.101

    def test_draw_order_theta_first(self):
        device = self.device()
        draws = np.random.default_rng(5).normal(0.0, 0.2, (4, 2))
        theta, phi = self.phases(apply_common_deviation(device, draws[:, 0], draws[:, 1]))
        theta0, phi0 = self.phases(device)
        assert theta[0] == (theta0[0] + np.random.default_rng(5).normal(0.0, 0.2)) % (2 * math.pi)
        assert np.array_equal(phi, np.mod(phi0 + draws[:, 1], 2 * math.pi))

    def test_negative_sigma(self):
        with pytest.raises(DomainError):
            phase_fidelity_sweep(SweepConfig(n_values=(3,)), (-0.1,))


def test_vectorized_normal_matches_scalar_sequence():
    # device-level perturbation draws arrays; must equal per-cell scalar draws
    a = np.random.default_rng(123).normal(0.0, 0.3, size=(7, 2))
    rng = np.random.default_rng(123)
    b = np.array([[rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)] for _ in range(7)])
    assert np.array_equal(a, b)

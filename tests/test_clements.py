import math
from collections import defaultdict

import numpy as np
import pytest

from crossmesh import (
    DimensionError,
    DomainError,
    LOSSLESS,
    apply_common_deviation,
    apply_mesh,
    build_svd_clements,
    clements_decompose,
    evaluate_svd_clements,
    fidelity,
    node_loss_model,
    svd_architecture_stats,
    svd_insertion_loss,
    with_loss,
)
from crossmesh.clements import device_from_json, device_to_json
from crossmesh.montecarlo import target_matrix
from oracles import haar_unitary_qr, mesh_layer_product, svd_device_layer_product


def mesh_transfer(mesh):
    """Full transfer matrix of a mesh (identity propagated through it)."""
    return apply_mesh(np.eye(mesh.n), mesh)


class TestDecompose:
    def test_two_port(self):
        rng = np.random.default_rng(0)
        u = haar_unitary_qr(2, rng)
        mesh = clements_decompose(u)
        assert mesh.theta.shape == mesh.phi.shape == (1,)
        assert np.max(np.abs(mesh_transfer(mesh) - u)) < 1e-12

    def test_identity_is_all_bar(self):
        mesh = clements_decompose(np.eye(4))
        assert np.all(np.abs(mesh.theta - math.pi) < 1e-12)
        assert np.max(np.abs(mesh_transfer(mesh) - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("n", list(range(2, 17)))
    def test_round_trip(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(8):
            u = haar_unitary_qr(n, rng)
            mesh = clements_decompose(u)
            assert mesh.theta.shape == mesh.phi.shape == (n * (n - 1) // 2,)
            assert mesh.depth <= n
            assert np.max(np.abs(mesh_transfer(mesh) - u)) < 1e-9

    def test_round_trip_large(self):
        rng = np.random.default_rng(31)
        u = haar_unitary_qr(32, rng)
        mesh = clements_decompose(u)
        assert np.max(np.abs(mesh_transfer(mesh) - u)) < 1e-9

    def test_rectangular_layering(self):
        # alternating odd/even nearest-neighbour columns, listed layer-major
        for n in (4, 5, 6, 8):
            dump = device_to_json(build_svd_clements(target_matrix(n, n, 0), LOSSLESS))
            for key in ("v_dagger", "u"):
                cells = [(nd["layer"], nd["row"]) for nd in dump[key]]
                assert cells == sorted(cells)
                assert len(cells) == n * (n - 1) // 2
                layers = defaultdict(list)
                for layer, row in cells:
                    layers[layer].append(row)
                assert max(layers) <= n
                for layer, rows in layers.items():
                    parity = (layer - 1) % 2
                    assert all(r % 2 == parity for r in rows)
                    assert len(set(rows)) == len(rows)

    @pytest.mark.parametrize("n", [17, 33, 64])
    def test_layout_at_larger_sizes(self, n):
        # the cells land on the rectangular layout the oracle derives from n
        mesh = clements_decompose(haar_unitary_qr(n, np.random.default_rng(500 + n)))
        assert mesh.depth == n
        assert np.max(np.abs(mesh_transfer(mesh) - mesh_layer_product(mesh))) < 1e-12

    def test_matches_layer_product_oracle(self):
        u = haar_unitary_qr(6, np.random.default_rng(77))
        mesh = clements_decompose(u)
        assert np.max(np.abs(mesh_transfer(mesh) - mesh_layer_product(mesh))) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(DomainError) as err:
            clements_decompose(np.eye(3) * 1.5)
        assert "residual" in str(err.value)


class TestBuildEvaluate:
    def test_identity_compile(self):
        device = build_svd_clements(np.eye(4), LOSSLESS)
        y = evaluate_svd_clements(device)
        scale = y[0, 0]
        assert scale.real > 0 and abs(scale.imag) < 1e-12
        assert np.max(np.abs(y / scale - np.eye(4))) < 1e-12

    def test_diagonal_target_amplitudes(self):
        device = build_svd_clements(np.diag([1.0, 0.5]), LOSSLESS)
        amps = np.sin(device.sigma_theta / 2.0)
        assert abs(amps[0] - 1.0) < 1e-12
        assert abs(amps[1] - 0.5) < 1e-12
        y = evaluate_svd_clements(device)
        assert fidelity(y, np.diag([1.0, 0.5])) > 1 - 1e-12

    def test_lossless_random_targets(self):
        for n in range(2, 13, 2):
            for seed in range(5):
                target = target_matrix(3, n, seed)
                device = build_svd_clements(target, LOSSLESS)
                assert fidelity(evaluate_svd_clements(device), target) > 1 - 1e-9

    def test_device_counts(self):
        device = build_svd_clements(target_matrix(4, 6, 0), LOSSLESS)
        cells = device.v_dagger_mesh.theta.size + device.sigma_theta.size + device.u_mesh.theta.size
        assert cells == 36
        assert device.programming_steps == 15

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError):
            build_svd_clements(np.zeros((3, 3)), LOSSLESS)

    def test_lossy_identity_diagonal_device(self):
        # equal singular values keep Y_exp diagonal; ports cross unequal cell
        # counts, so the diagonal carries the path-loss spread of the mesh
        loss = node_loss_model(2.0)
        device = build_svd_clements(np.eye(4), loss)
        y = evaluate_svd_clements(device)
        off = y - np.diag(np.diag(y))
        assert np.max(np.abs(off)) < 1e-12
        t = loss.t_node
        mags = np.abs(np.diag(y)) * 2.0  # undo the 1/sqrt(N) split
        assert np.allclose(sorted(mags), sorted([t**9, t**9, t**5, t**5]), atol=1e-12)
        expected_f = (1 + t**4) ** 2 / (2 * (1 + t**8))
        assert abs(fidelity(y, np.eye(4)) - expected_f) < 1e-12

    def test_matches_brute_force_propagator(self):
        loss = node_loss_model(0.5)
        target = target_matrix(9, 8, 0)
        device = build_svd_clements(target, loss)
        y = evaluate_svd_clements(device)
        oracle = svd_device_layer_product(device)
        assert np.max(np.abs(y - oracle)) < 1e-12
        assert fidelity(y, target) < 1.0

    def test_loss_monotonicity(self):
        target = target_matrix(11, 6, 0)
        device = build_svd_clements(target, LOSSLESS)
        grid = np.linspace(0.0, 2.0, 9)
        fs = [
            fidelity(evaluate_svd_clements(with_loss(device, node_loss_model(il))), target)
            for il in grid
        ]
        assert all(f2 <= f1 + 1e-12 for f1, f2 in zip(fs, fs[1:]))

    def test_path_loss_band(self):
        # no entry exceeds the best-case path transmittivity; the identity
        # device attains both band edges exactly
        loss = node_loss_model(1.0)
        n = 6
        t2 = loss.t_node**2
        hi = (1 / n) * t2 ** (2 * (n // 2) + 1)
        lo = (1 / n) * t2 ** (2 * n + 1)
        for seed in range(10):
            device = build_svd_clements(target_matrix(13, n, seed), loss)
            powers = np.abs(evaluate_svd_clements(device)) ** 2
            assert np.max(powers) <= hi * (1 + 1e-9)
        ident = build_svd_clements(np.eye(n), loss)
        diag_powers = np.abs(np.diag(evaluate_svd_clements(ident))) ** 2
        assert abs(np.max(diag_powers) - hi) < 1e-15
        assert abs(np.min(diag_powers) - lo) < 1e-15


class TestPerturbation:
    def test_sigma_zero_identity(self):
        device = build_svd_clements(target_matrix(0, 4, 0), LOSSLESS)
        assert apply_common_deviation(device, 0.0, 0.0) is device
        zeros = apply_common_deviation(device, np.zeros(16), np.zeros(16))
        assert np.array_equal(evaluate_svd_clements(zeros), evaluate_svd_clements(device))

    def test_perturb_deterministic(self):
        device = build_svd_clements(target_matrix(0, 4, 0), LOSSLESS)
        a, b = (
            apply_common_deviation(device, *np.random.default_rng(9).normal(0.0, 0.1, (16, 2)).T)
            for _ in range(2)
        )
        ya, yb = evaluate_svd_clements(a), evaluate_svd_clements(b)
        assert np.array_equal(ya, yb)
        assert not np.array_equal(ya, evaluate_svd_clements(device))

    def test_perturb_matches_per_cell_draws(self):
        # independent per-cell errors: one (n^2, 2) draw, columns theta and phi
        device = build_svd_clements(target_matrix(0, 4, 0), LOSSLESS)
        draws = np.random.default_rng(21).normal(0.0, 0.2, (16, 2))
        shaken = apply_common_deviation(device, draws[:, 0], draws[:, 1])
        rng = np.random.default_rng(21)

        def cells(d):
            # v_dagger cells layer-major, attenuators by port, u cells layer-major
            return zip(
                np.concatenate((d.v_dagger_mesh.theta, d.sigma_theta, d.u_mesh.theta)),
                np.concatenate((d.v_dagger_mesh.phi, d.sigma_phi, d.u_mesh.phi)),
            )

        assert len(list(cells(shaken))) == 16  # N^2 cells, two draws each
        for (theta, phi), (new_theta, new_phi) in zip(cells(device), cells(shaken)):
            dt = rng.normal(0.0, 0.2)
            dp = rng.normal(0.0, 0.2)
            assert new_theta == (theta + dt) % (2 * math.pi)
            assert new_phi == (phi + dp) % (2 * math.pi)

    def test_common_deviation_shifts_every_cell(self):
        device = build_svd_clements(target_matrix(0, 5, 1), LOSSLESS)
        shaken = apply_common_deviation(device, 0.3, -0.2)
        for before, after in (
            (device.v_dagger_mesh, shaken.v_dagger_mesh), (device.u_mesh, shaken.u_mesh),
        ):
            assert np.all(np.abs(after.theta - (before.theta + 0.3) % (2 * math.pi)) < 1e-12)
            assert np.all(np.abs(after.phi - (before.phi - 0.2) % (2 * math.pi)) < 1e-12)
        assert np.all(np.abs(shaken.sigma_theta - (device.sigma_theta + 0.3) % (2 * math.pi)) < 1e-12)
        assert np.array_equal(device.v_dagger_mesh.output_phases, shaken.v_dagger_mesh.output_phases)
        assert fidelity(evaluate_svd_clements(shaken), evaluate_svd_clements(device)) < 1.0

    def test_batched_deviations_match_single_trials(self):
        # one batched call equals K scalar evaluations bit for bit
        device = build_svd_clements(target_matrix(0, 6, 2), node_loss_model(0.3))
        rng = np.random.default_rng(4)
        dtheta, dphi = rng.normal(0.0, 0.1, 5), rng.normal(0.0, 0.1, 5)
        batch = evaluate_svd_clements(device, (dtheta, dphi))
        assert batch.shape == (5, 6, 6)
        for k in range(5):
            single = evaluate_svd_clements(apply_common_deviation(device, dtheta[k], dphi[k]))
            assert np.array_equal(batch[k], single)
        with pytest.raises(DimensionError):
            evaluate_svd_clements(device, (dtheta, dphi[:4]))


class TestClosedForms:
    @pytest.mark.parametrize(
        "n,il,case,expected",
        [
            (4, 2.0, "best", 16.02), (4, 2.0, "worst", 24.02),
            (8, 2.0, "best", 27.03), (8, 2.0, "worst", 43.03),
        ],
    )
    def test_paper_metric_anchors(self, n, il, case, expected):
        assert abs(svd_insertion_loss(n, il, case) - expected) <= 0.01

    def test_lossless_leaves_split_only(self):
        for case in ("best", "worst"):
            assert abs(svd_insertion_loss(6, 0.0, case) - 10 * math.log10(6)) < 5e-3

    def test_stats(self):
        assert svd_architecture_stats(6) == {
            "nodes": 36, "best_depth": 7, "worst_depth": 13, "programming_steps": 15,
        }
        # n = 2 is a single MZI per mesh: every path crosses 3 cells
        assert svd_architecture_stats(2) == {
            "nodes": 4, "best_depth": 3, "worst_depth": 3, "programming_steps": 1,
        }
        stats20 = svd_architecture_stats(20)
        assert stats20["nodes"] == 400 and stats20["programming_steps"] == 190

    @pytest.mark.parametrize("n", range(2, 17))
    def test_identity_columns_hit_best_and_worst(self, n):
        # a bar-state device: each column's loss is its port's path depth
        device = build_svd_clements(np.eye(n), node_loss_model(1.0))
        column_db = -10 * np.log10(np.sum(np.abs(evaluate_svd_clements(device)) ** 2, axis=0))
        assert abs(column_db.min() - svd_insertion_loss(n, 1.0, "best")) < 1e-9
        assert abs(column_db.max() - svd_insertion_loss(n, 1.0, "worst")) < 1e-9

    @pytest.mark.parametrize("n", range(2, 17))
    def test_random_columns_lie_between_best_and_worst(self, n):
        stats = svd_architecture_stats(n)
        for m in range(5):
            device = build_svd_clements(target_matrix(3, n, m), LOSSLESS)
            lossless = np.sum(np.abs(evaluate_svd_clements(device)) ** 2, axis=0)
            lossy = evaluate_svd_clements(with_loss(device, node_loss_model(1.0)))
            extra_db = 10 * np.log10(lossless / np.sum(np.abs(lossy) ** 2, axis=0))
            assert np.all(extra_db >= stats["best_depth"] - 1e-9)
            assert np.all(extra_db <= stats["worst_depth"] + 1e-9)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            svd_insertion_loss(1, 0.0, "best")
        with pytest.raises(DomainError):
            svd_insertion_loss(4, -1.0, "best")
        with pytest.raises(DomainError):
            svd_insertion_loss(4, 1.0, "median")


class TestDeviceJson:
    def test_round_trip(self):
        device = build_svd_clements(target_matrix(2, 5, 3), node_loss_model(0.8))
        again = device_from_json(device_to_json(device))
        assert again.loss == device.loss
        assert again.programming_steps == device.programming_steps
        ya, yb = evaluate_svd_clements(device), evaluate_svd_clements(again)
        assert np.max(np.abs(ya - yb)) < 1e-15

    def test_wrong_arch_rejected(self):
        with pytest.raises(DomainError):
            device_from_json({"arch": "xbar"})

    def test_cell_order_in_dump_is_irrelevant(self):
        # dumps listing cells in propagation order (or any order) still load
        device = build_svd_clements(target_matrix(2, 5, 4), LOSSLESS)
        dump = device_to_json(device)
        dump["u"] = dump["u"][::-1]
        dump["v_dagger"] = dump["v_dagger"][1:] + dump["v_dagger"][:1]
        again = device_from_json(dump)
        assert np.array_equal(evaluate_svd_clements(again), evaluate_svd_clements(device))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.update(u=d["u"][:2]),
            lambda d: d["u"][0].update(row=7),
            lambda d: d["u"][1].update(layer=d["u"][0]["layer"], row=d["u"][0]["row"]),
            lambda d: d.update(sigma=d["sigma"][:3]),
            lambda d: d.update(v_dagger_output_phases=d["v_dagger_output_phases"][:3]),
            lambda d: d["v_dagger"][0].pop("theta"),
            lambda d: d["v_dagger"][0].update(phi="0.5"),
            lambda d: d["sigma"][0].update(theta=float("nan")),
            lambda d: d.pop("loss"),
            lambda d: d["loss"].update(il_coup_db="x"),
            lambda d: d.update(n=1),
            lambda d: d.pop("programming_steps"),
            lambda d: d.update(programming_steps="6"),
            lambda d: d.update(programming_steps=7),
            lambda d: d.update(loss=[0.1]),
        ],
        ids=["truncated-u", "row-off-layout", "cell-twice", "truncated-sigma",
             "truncated-phases", "missing-theta", "string-phi", "nan-sigma",
             "missing-loss", "bad-loss", "n-too-small", "missing-steps",
             "string-steps", "wrong-steps", "loss-not-object"],
    )
    def test_invalid_dump_rejected(self, corrupt):
        dump = device_to_json(build_svd_clements(target_matrix(2, 4, 1), LOSSLESS))
        corrupt(dump)
        with pytest.raises(DomainError):
            device_from_json(dump)

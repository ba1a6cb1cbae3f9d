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
from crossmesh.clements import _mesh_to_json, device_from_json, device_to_json
from crossmesh.montecarlo import target_matrix
from oracles import haar_unitary_qr, mesh_layer_product, svd_device_layer_product, svd_path_depths


def mesh_transfer(mesh):
    """Full transfer matrix of a mesh (identity propagated through it)."""
    return apply_mesh(np.eye(mesh.n), mesh)


def dumped_depth(mesh):
    """Layer count of a mesh: the largest ``layer`` of its cells in a device dump."""
    return max(cell["layer"] for cell in _mesh_to_json(mesh)[0])


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
    def test_identity_mesh_is_exactly_bar(self, n):
        # Every entry the elimination nulls is exactly zero, so every cell is
        # an exact bar cell; an inexact one would let ~1e-16 leaks through.
        mesh = clements_decompose(np.eye(n))
        assert np.all(mesh.theta == math.pi)
        # apply_mesh itself evaluates cos(pi/2) ~ 6e-17 on each bar layer,
        # so its error grows with n (1.04e-15 at n = 15).
        assert np.max(np.abs(mesh_transfer(mesh) - np.eye(n))) <= 2e-15

    @pytest.mark.parametrize("n", list(range(2, 17)))
    def test_round_trip(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(8):
            u = haar_unitary_qr(n, rng)
            mesh = clements_decompose(u)
            assert mesh.theta.shape == mesh.phi.shape == (n * (n - 1) // 2,)
            assert dumped_depth(mesh) <= n
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
        assert dumped_depth(mesh) == n
        assert np.max(np.abs(mesh_transfer(mesh) - mesh_layer_product(mesh))) < 1e-12

    def test_matches_layer_product_oracle(self):
        u = haar_unitary_qr(6, np.random.default_rng(77))
        mesh = clements_decompose(u)
        assert np.max(np.abs(mesh_transfer(mesh) - mesh_layer_product(mesh))) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(DomainError) as err:
            clements_decompose(np.eye(3) * 1.5)
        assert "residual" in str(err.value)


class TestStacks:
    """Stacked compiles and loss-batched evaluations match single calls bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_stacked_decompose_matches_single_calls(self, n, batch):
        rng = np.random.default_rng(900 + n)
        mats = [haar_unitary_qr(n, rng) for _ in range(batch)]
        if batch > 1:
            mats[1] = np.eye(n)
        stacked = clements_decompose(np.stack(mats))
        assert stacked.theta.shape == stacked.phi.shape == (batch, n * (n - 1) // 2)
        assert stacked.output_phases.shape == (batch, n)
        for k, u in enumerate(mats):
            single = clements_decompose(u)
            for name in ("theta", "phi", "output_phases"):
                assert np.array_equal(getattr(stacked, name)[k], getattr(single, name)), (k, name)
        # The stacked mesh evaluates as a batch too, output phase screens included.
        assert np.max(np.abs(mesh_transfer(stacked) - np.stack(mats))) < 1e-9

    def test_stacked_build_keeps_batch_axes(self):
        targets = np.stack([[target_matrix(6, 5, 3 * i + j) for j in range(3)] for i in range(2)])
        targets[1, 2] = np.eye(5)
        stacked = build_svd_clements(targets, LOSSLESS)
        _v, sigma_theta, _sigma_phi, u = stacked.parts()
        assert sigma_theta.shape == (2, 3, 5)
        assert u.theta.shape == (2, 3, 10)
        assert stacked.theta.shape == stacked.phi.shape == (2, 3, 25)
        assert stacked.output_phases.shape == (2, 3, 2, 5)
        for i in range(2):
            for j in range(3):
                single, got = build_svd_clements(targets[i, j], LOSSLESS), stacked[i, j]
                # the n^2 cells and both meshes' output phase screens
                for name in ("theta", "phi", "output_phases"):
                    assert np.array_equal(getattr(got, name), getattr(single, name)), (i, j, name)

    def test_zero_matrix_in_a_stack_rejected(self):
        with pytest.raises(DomainError, match="zero matrix"):
            build_svd_clements(np.stack([np.eye(3), np.zeros((3, 3))]), LOSSLESS)

    def test_non_unitary_matrix_in_a_stack_rejected(self):
        with pytest.raises(DomainError, match="residual"):
            clements_decompose(np.stack([np.eye(3), np.eye(3) * 1.5]))

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_loss_batch_matches_single_evaluations(self, n):
        models = [node_loss_model(il) for il in (0.0, 0.35, 1.0, 2.5)]
        device = build_svd_clements(target_matrix(8, n, 0), LOSSLESS)
        batch = evaluate_svd_clements(device, losses=models)
        assert batch.shape == (len(models), n, n)
        for k, model in enumerate(models):
            assert np.array_equal(batch[k], evaluate_svd_clements(with_loss(device, model)))


class TestBuildEvaluate:
    def test_identity_compile(self):
        device = build_svd_clements(np.eye(4), LOSSLESS)
        y = evaluate_svd_clements(device)
        scale = y[0, 0]
        assert scale.real > 0 and abs(scale.imag) < 1e-12
        assert np.max(np.abs(y / scale - np.eye(4))) < 1e-12

    def test_diagonal_target_amplitudes(self):
        device = build_svd_clements(np.diag([1.0, 0.5]), LOSSLESS)
        amps = np.sin(device.parts()[1] / 2.0)
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
        v, sigma_theta, _sigma_phi, u = device.parts()
        cells = v.theta.size + sigma_theta.size + u.theta.size
        assert cells == device.theta.size == device.phi.size == 36
        assert device.programming_steps == 15

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError):
            build_svd_clements(np.zeros((3, 3)), LOSSLESS)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1, 1)], ids=["single", "stack"])
    def test_one_port_rejected(self, shape):
        # device_from_json refuses n < 2, so compiling one would write a dump nothing loads
        with pytest.raises(DomainError, match="n must be >= 2, got 1"):
            build_svd_clements(np.full(shape, 0.5), LOSSLESS)

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
        shifted = apply_common_deviation(device, 0.0, 0.0)
        assert np.array_equal(shifted.theta, device.theta) and np.array_equal(shifted.phi, device.phi)
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
            return zip(d.theta, d.phi)

        assert len(list(cells(shaken))) == 16  # N^2 cells, two draws each
        for (theta, phi), (new_theta, new_phi) in zip(cells(device), cells(shaken)):
            dt = rng.normal(0.0, 0.2)
            dp = rng.normal(0.0, 0.2)
            assert new_theta == (theta + dt) % (2 * math.pi)
            assert new_phi == (phi + dp) % (2 * math.pi)

    def test_common_deviation_shifts_every_cell(self):
        device = build_svd_clements(target_matrix(0, 5, 1), LOSSLESS)
        shaken = apply_common_deviation(device, 0.3, -0.2)
        # all n^2 cells: both meshes and the attenuator column
        assert np.all(np.abs(shaken.theta - (device.theta + 0.3) % (2 * math.pi)) < 1e-12)
        assert np.all(np.abs(shaken.phi - (device.phi - 0.2) % (2 * math.pi)) < 1e-12)
        # both output phase screens
        assert np.array_equal(device.output_phases, shaken.output_phases)
        assert fidelity(evaluate_svd_clements(shaken), evaluate_svd_clements(device)) < 1.0

    def test_batched_deviations_match_single_trials(self):
        # one batched call equals K scalar evaluations bit for bit
        device = build_svd_clements(target_matrix(0, 6, 2), node_loss_model(0.3))
        rng = np.random.default_rng(4)
        dtheta, dphi = rng.normal(0.0, 0.1, 5), rng.normal(0.0, 0.1, 5)
        batch = evaluate_svd_clements(apply_common_deviation(device, dtheta[:, None], dphi[:, None]))
        assert batch.shape == (5, 6, 6)
        for k in range(5):
            single = evaluate_svd_clements(apply_common_deviation(device, dtheta[k], dphi[k]))
            assert np.array_equal(batch[k], single)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_batch_of_per_cell_draws_matches_single_trials(self, n):
        # K trials of independent per-cell errors evaluate as one batch of devices
        device = build_svd_clements(target_matrix(1, n, 4), node_loss_model(0.3))
        dtheta, dphi = np.random.default_rng(n).normal(0.0, 0.1, (2, 4, n * n))
        batch = evaluate_svd_clements(apply_common_deviation(device, dtheta, dphi))
        assert batch.shape == (4, n, n)
        for k in range(4):
            single = apply_common_deviation(device, dtheta[k], dphi[k])
            assert np.array_equal(batch[k], evaluate_svd_clements(single))
            assert np.max(np.abs(batch[k] - svd_device_layer_product(single))) < 1e-12

    def test_losses_refuse_a_batch_of_devices(self):
        # (loss k, trial k) pairs would mix the two batch axes, so a batch is refused
        device = build_svd_clements(target_matrix(0, 4, 0), LOSSLESS)
        batch = apply_common_deviation(device, np.array([[0.1], [0.2]]), np.zeros((2, 1)))
        with pytest.raises(DimensionError):
            evaluate_svd_clements(batch, losses=[node_loss_model(0.0), node_loss_model(1.0)])


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

    def test_depths_match_port_by_port_count(self):
        for n in range(2, 301):
            stats = svd_architecture_stats(n)
            assert (stats["best_depth"], stats["worst_depth"]) == svd_path_depths(n), n

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
        "corrupt, error",
        [
            (lambda d: d.update(u=d["u"][:2]), DomainError),
            (lambda d: d["u"][0].update(row=7), DomainError),
            (lambda d: d["u"][1].update(layer=d["u"][0]["layer"], row=d["u"][0]["row"]), DomainError),
            (lambda d: d.update(sigma=d["sigma"][:3]), DomainError),
            (lambda d: d.update(v_dagger_output_phases=d["v_dagger_output_phases"][:3]), DimensionError),
            (lambda d: d["v_dagger"][0].pop("theta"), DomainError),
            (lambda d: d["v_dagger"][0].update(phi="0.5"), DomainError),
            (lambda d: d["sigma"][0].update(theta=float("nan")), DomainError),
            (lambda d: d.pop("loss"), DomainError),
            (lambda d: d["loss"].update(il_coup_db="x"), DomainError),
            (lambda d: d.update(n=1), DomainError),
            (lambda d: d.pop("programming_steps"), DomainError),
            (lambda d: d.update(programming_steps="6"), DomainError),
            (lambda d: d.update(programming_steps=7), DomainError),
            (lambda d: d.update(loss=[0.1]), DomainError),
            (lambda d: d["u"][0].update(row=float(d["u"][0]["row"])), DomainError),
            (lambda d: d["v_dagger"][0].update(layer=float(d["v_dagger"][0]["layer"])), DomainError),
            (lambda d: d.update(programming_steps=6.0), DomainError),
        ],
        ids=["truncated-u", "row-off-layout", "cell-twice", "truncated-sigma",
             "truncated-phases", "missing-theta", "string-phi", "nan-sigma",
             "missing-loss", "bad-loss", "n-too-small", "missing-steps",
             "string-steps", "wrong-steps", "loss-not-object", "float-row",
             "float-layer", "float-steps"],
    )
    def test_invalid_dump_rejected(self, corrupt, error):
        # A number list of the wrong length is a shape error, as in every JSON input.
        dump = device_to_json(build_svd_clements(target_matrix(2, 4, 1), LOSSLESS))
        corrupt(dump)
        with pytest.raises(error):
            device_from_json(dump)

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossmesh import (
    LOSSLESS,
    DomainError,
    LossModel,
    SweepConfig,
    build_svd_clements,
    build_xbar,
    insertion_loss_sweep,
    loss_fidelity_sweep,
    montecarlo,
    phase_fidelity_sweep,
)
from crossmesh.cli import _csv_text, run_experiment
from crossmesh.clements import device_to_json as svd_device_to_json
from crossmesh.crossbar import device_to_json as xbar_device_to_json
from crossmesh.montecarlo import target_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*args, module="crossmesh"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["crossmesh", "crossmesh.cli"])
    def test_stats_prints_json(self, module):
        done = run_module("stats", "--n", "4", module=module)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["svd-clements"]["nodes"] == 16

    def test_no_subcommand_is_a_usage_error(self):
        done = run_module()
        assert done.returncode == 1
        assert "error" in done.stderr


class TestConfigErrors:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--matrices", "0"],
            ["--n", "1"],
            ["--sigma=-0.1"],
            ["--trials", "0"],
            ["--threads", "0"],
            ["--threads", "-3"],
        ],
        ids=["matrices-0", "n-1", "negative-sigma", "trials-0", "threads-0", "threads-negative"],
    )
    def test_phase_sweep_exits_1(self, tmp_path, flags):
        out = tmp_path / "out.csv"
        argv = ["fidelity-phase", "--n", "3", "--sigma", "0", "--matrices", "1",
                "--trials", "1", "--out", str(out)]
        assert run_experiment(argv + flags) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--n", "1"], ["--threads", "0"]], ids=["n-1", "threads-0"])
    def test_loss_sweep_exits_1(self, tmp_path, flags):
        argv = ["fidelity-loss", "--n", "3", "--node-loss", "0", "--matrices", "1",
                "--out", str(tmp_path / "out.csv")]
        assert run_experiment(argv + flags) == 1


class TestFlagsNothingReads:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity-phase", "--n", "3", "--sigma", "0", "--matrices", "1", "--trials", "1",
             "--loss", "x"],
            ["fig3", "--n", "3", "--node-loss", "0", "--seed", "5"],
        ],
        ids=["phase-loss", "fig3-seed"],
    )
    def test_is_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run_experiment(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("flags", [["--n", "1"], ["--n", "4", "--m", "0"]], ids=["n-1", "m-0"])
def test_stats_size_error_exits_1(capsys, flags):
    assert run_experiment(["stats"] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_outputs_follow_the_umask(tmp_path):
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    old = os.umask(0o022)
    try:
        assert run_experiment(["fig3", "--n", "3", "--node-loss", "0,1", "--out", str(out),
                               "--svg", str(svg)]) == 0
    finally:
        os.umask(old)
    for path in (out, svg, tmp_path / "out.csv.manifest.json"):
        assert path.stat().st_mode & 0o777 == 0o644


class TestNonFiniteGrids:
    @pytest.mark.parametrize(
        "command",
        [
            ["fidelity-phase", "--matrices", "1", "--trials", "1", "--sigma", "nan"],
            ["fidelity-phase", "--matrices", "1", "--trials", "1", "--sigma", "inf"],
            ["fidelity-phase", "--matrices", "1", "--trials", "1", "--sigma", "0:nan:0.1"],
            ["fidelity-phase", "--matrices", "1", "--trials", "1", "--sigma", "0:inf:0.1"],
            ["fidelity-loss", "--matrices", "1", "--node-loss", "nan"],
            ["fidelity-loss", "--matrices", "1", "--node-loss", "inf"],
            ["fig3", "--node-loss", "nan"],
        ],
        ids=["sigma-nan", "sigma-inf", "sigma-range-nan", "sigma-range-inf",
             "node-loss-nan", "node-loss-inf", "fig3-node-loss-nan"],
    )
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        assert run_experiment(command + ["--n", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestCorruptDumps:
    def eval_dump(self, tmp_path, dump, n):
        device = tmp_path / "device.json"
        device.write_text(json.dumps(dump))
        vector = tmp_path / "x.json"
        vector.write_text(json.dumps({"re": [1.0] * n, "im": [0.0] * n}))
        return run_experiment(["eval", "--device", str(device), "--input", str(vector),
                               "--out", str(tmp_path / "y.json")])

    def svd_dump(self):
        return svd_device_to_json(build_svd_clements(target_matrix(1, 4, 0), LOSSLESS))

    def test_valid_dump_evaluates(self, tmp_path):
        assert self.eval_dump(tmp_path, self.svd_dump(), 4) == 0

    def test_truncated_mesh(self, tmp_path):
        dump = self.svd_dump()
        dump["u"] = dump["u"][:2]
        assert self.eval_dump(tmp_path, dump, 4) == 2

    def test_row_off_the_layout(self, tmp_path):
        dump = self.svd_dump()
        dump["u"][0]["row"] = 7
        assert self.eval_dump(tmp_path, dump, 4) == 2

    def test_truncated_attenuator_column(self, tmp_path):
        dump = self.svd_dump()
        dump["sigma"] = dump["sigma"][:2]
        assert self.eval_dump(tmp_path, dump, 4) == 2

    def xbar_dump(self):
        return xbar_device_to_json(build_xbar(target_matrix(1, 4, 0), LOSSLESS, "balanced"))

    def test_truncated_xbar_xi(self, tmp_path):
        dump = self.xbar_dump()
        dump["xi"] = dump["xi"][:-1]
        assert self.eval_dump(tmp_path, dump, 4) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [lambda d: d.pop("t"), lambda d: d["loss"].update(il_coup_db="x")],
        ids=["xbar-missing-t", "xbar-string-loss"],
    )
    def test_malformed_xbar_dump_is_a_one_line_error(self, tmp_path, capsys, corrupt):
        dump = self.xbar_dump()
        corrupt(dump)
        assert self.eval_dump(tmp_path, dump, 4) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_object_dump_is_a_one_line_error(self, tmp_path, capsys):
        assert self.eval_dump(tmp_path, [1, 2], 4) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_loss_file_is_a_config_error(tmp_path, capsys):
    loss = tmp_path / "loss.json"
    loss.write_text(json.dumps({"il_coup_db": "x"}))
    argv = ["fidelity-loss", "--n", "3", "--node-loss", "0", "--matrices", "1",
            "--loss", str(loss), "--out", str(tmp_path / "out.csv")]
    assert run_experiment(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


class TestParallelSweeps:
    LOSS = ["fidelity-loss", "--n", "3,4", "--node-loss", "0,0.5", "--matrices", "3", "--seed", "5"]
    PHASE = ["fidelity-phase", "--n", "3", "--sigma", "0,0.1", "--matrices", "2", "--trials", "2"]

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)

    @pytest.mark.parametrize("command", [LOSS, PHASE], ids=["loss", "phase"])
    def test_manifest_says_what_ran_it(self, tmp_path, command):
        csv = {}
        for threads in (1, 2):
            out = tmp_path / f"{threads}.csv"
            assert run_experiment(command + ["--threads", str(threads), "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{threads}.csv.manifest.json").read_text())
            assert manifest["workers_used"] == threads
            assert manifest["python"] == platform.python_version()
            assert manifest["numpy"] == np.__version__
            assert manifest["cpus_usable"] == 2
            csv[threads] = out.read_bytes()
        assert csv[1] == csv[2]

    def test_worker_failure_names_the_point(self, tmp_path, capsys, monkeypatch):
        # The patched builder reaches the workers through fork.
        bad = montecarlo.target_matrix(5, 4, 2)
        build = montecarlo.build_svd_clements

        def failing_build(y, loss):
            if np.array_equal(y, bad):
                raise DomainError("injected failure")
            return build(y, loss)

        monkeypatch.setattr(montecarlo, "build_svd_clements", failing_build)
        argv = self.LOSS + ["--threads", "2", "--out", str(tmp_path / "out.csv")]
        assert run_experiment(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: loss sweep failed at arch=svd-clements, n=4, matrix=2: injected failure\n"
        )
        assert not (tmp_path / "out.csv").exists()


MANIFEST_KEYS = {"command", "config", "master_seed", "version", "duration_seconds", "outputs",
                 "workers_used", "python", "numpy", "cpus_usable"}
FIDELITY_HEADER = ["arch", "n", "{grid}", "fidelity_mean", "fidelity_std", "n_samples", "seed"]


def report_rows(reports):
    return [(r.architecture, r.n, r.sweep_value, r.fidelity_mean, r.fidelity_std, r.n_samples,
             r.master_seed) for r in reports]


def legend(svg: str) -> list[str]:
    """Series labels of a chart, in drawing order."""
    assert svg.count("<polyline ") == len(re.findall(r'<text x="[\d.]+" y="[\d.]+">', svg))
    return re.findall(r'<text x="[\d.]+" y="[\d.]+">([^<]*)</text>', svg)


class TestExperimentOutputs:
    """What each experiment command writes: CSV rows, chart series and manifest."""

    def run(self, tmp_path, argv):
        out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
        assert run_experiment(argv + ["--out", str(out), "--svg", str(svg)]) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(out), str(svg)]
        return out.read_text(), svg.read_text(), manifest

    def test_fig3(self, tmp_path):
        csv, svg, manifest = self.run(tmp_path, ["fig3", "--n", "3,4", "--node-loss", "0:1:0.5"])
        cfg = SweepConfig(n_values=(3, 4), il_node_grid=(0.0, 0.5, 1.0))
        assert csv == _csv_text(["arch", "case", "n", "il_node_db", "il_total_db"],
                                insertion_loss_sweep(cfg))
        assert legend(svg) == ["xbar/balanced N=3", "xbar/balanced N=4",
                               "svd-clements/best N=3", "svd-clements/best N=4",
                               "svd-clements/worst N=3", "svd-clements/worst N=4"]
        assert set(manifest) == MANIFEST_KEYS - {"master_seed"}  # closed form: no seed
        assert manifest["command"] == "fig3"
        assert manifest["workers_used"] == 1
        assert manifest["config"] == {
            "arch": ["xbar", "svd-clements"],
            "n_values": [3, 4],
            "il_node_grid": [0.0, 0.5, 1.0],
            "loss": cfg.passive_losses.to_json(),
        }

    def test_fidelity_loss(self, tmp_path):
        loss = LossModel(il_coup_db=0.1, il_xi_db=0.2)
        loss_file = tmp_path / "loss.json"
        loss_file.write_text(json.dumps(loss.to_json()))
        csv, svg, manifest = self.run(tmp_path, [
            "fidelity-loss", "--n", "3,4", "--node-loss", "0,0.5", "--matrices", "2",
            "--seed", "5", "--loss", str(loss_file),
        ])
        cfg = SweepConfig(n_values=(3, 4), il_node_grid=(0.0, 0.5), n_matrices=2,
                          passive_losses=loss, master_seed=5)
        header = [c.format(grid="il_node_db") for c in FIDELITY_HEADER]
        assert csv == _csv_text(header, report_rows(loss_fidelity_sweep(cfg)))
        assert legend(svg) == ["xbar N=3", "xbar N=4", "svd-clements N=3", "svd-clements N=4"]
        assert set(manifest) == MANIFEST_KEYS
        assert (manifest["command"], manifest["master_seed"]) == ("fidelity-loss", 5)
        assert manifest["workers_used"] == 1
        assert manifest["config"] == {
            "arch": ["xbar", "svd-clements"],
            "n_values": [3, 4],
            "il_node_grid": [0.0, 0.5],
            "n_matrices": 2,
            "loss": loss.to_json(),
            "threads": 1,
        }

    def test_fidelity_phase(self, tmp_path):
        csv, svg, manifest = self.run(tmp_path, [
            "fidelity-phase", "--arch", "svd-clements,xbar", "--n", "3", "--sigma", "0:0.1:0.05",
            "--matrices", "2", "--trials", "3", "--seed", "9",
        ])
        cfg = SweepConfig(architectures=("svd-clements", "xbar"), n_values=(3,),
                          sigma_grid=(0.0, 0.05, 0.1), n_matrices=2, n_phase_trials=3,
                          master_seed=9)
        header = [c.format(grid="sigma_rad") for c in FIDELITY_HEADER]
        assert csv == _csv_text(header, report_rows(phase_fidelity_sweep(cfg)))
        assert legend(svg) == ["svd-clements N=3", "xbar N=3"]
        assert set(manifest) == MANIFEST_KEYS
        assert (manifest["command"], manifest["master_seed"]) == ("fidelity-phase", 9)
        assert manifest["workers_used"] == 1
        assert manifest["config"] == {
            "arch": ["svd-clements", "xbar"],
            "n_values": [3],
            "sigma_grid": [0.0, 0.05, 0.1],
            "n_matrices": 2,
            "n_phase_trials": 3,
            "threads": 1,
        }

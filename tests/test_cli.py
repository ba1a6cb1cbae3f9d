import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossmesh import LOSSLESS, DomainError, build_svd_clements, build_xbar, montecarlo
from crossmesh.cli import run_experiment
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

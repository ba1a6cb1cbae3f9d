import gc
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from crossmesh import (
    LOSSLESS,
    SILICON_PASSIVES,
    DomainError,
    LossModel,
    SweepConfig,
    build_svd_clements,
    build_topology,
    build_xbar,
    insertion_loss_sweep,
    loss_fidelity_sweep,
    matrix_to_json,
    montecarlo,
    phase_fidelity_sweep,
)
from crossmesh import cli
from crossmesh.cli import _csv_text, run_experiment
from crossmesh.clements import device_to_json as svd_device_to_json
from crossmesh.crossbar import device_to_json as xbar_device_to_json
from crossmesh.linalg import vector_from_json, vector_to_json
from crossmesh.montecarlo import target_matrix
from oracles import balanced_xbar_insertion_loss_db

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


class TestGcPolicy:
    @pytest.mark.parametrize("argv, code", [(["stats", "--n", "2"], 0), (["stats"], 1)],
                             ids=["stats", "usage-error"])
    def test_console_entry_freezes_the_heap_before_the_command(self, monkeypatch, argv, code):
        events = []
        run = cli.run_experiment
        monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(cli, "run_experiment", lambda: events.append("run") or run())
        monkeypatch.setattr(sys, "argv", ["crossmesh"] + argv)
        with pytest.raises(SystemExit) as exited:
            cli.console_entry()
        assert exited.value.code == code
        assert events == ["freeze", "run"]

    def test_run_experiment_leaves_the_gc_alone(self, tmp_path):
        # Tests and bench/trace_run.py call it in-process; a freeze there would
        # keep the host's cyclic garbage alive for good.
        state = (gc.isenabled(), gc.get_freeze_count())
        argv = ["fidelity-phase", "--arch", "xbar", "--n", "3", "--sigma", "0,0.1", "--matrices", "2",
                "--trials", "2", "--out", str(tmp_path / "out.csv")]
        assert run_experiment(argv) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == state


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
            ["--arch", "xbar,xbar"],
            ["--n", "3,3"],
            ["--sigma", "0:1e300:1e-300"],
            ["--sigma", "0.1,0.1"],
            ["--sigma", "0.1:0.10000000000000002:1e-18"],
        ],
        ids=["matrices-0", "n-1", "negative-sigma", "trials-0", "threads-0", "threads-negative",
             "arch-repeated", "n-repeated", "sigma-range-overflow", "sigma-repeated",
             "sigma-range-below-resolution"],
    )
    def test_phase_sweep_exits_1(self, tmp_path, capsys, flags):
        out = tmp_path / "out.csv"
        argv = ["fidelity-phase", "--n", "3", "--sigma", "0", "--matrices", "1",
                "--trials", "1", "--out", str(out)]
        assert run_experiment(argv + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--n", "1"], ["--threads", "0"], ["--arch", "xbar,xbar"], ["--n", "3,3"],
         ["--node-loss", "0.5,0.5"]],
        ids=["n-1", "threads-0", "arch-repeated", "n-repeated", "node-loss-repeated"],
    )
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
            ["fig3", "--n", "3", "--node-loss", "0", "--matrices", "2"],
            ["fig3", "--n", "3", "--node-loss", "0", "--threads", "2"],
            ["fig3", "--n", "3", "--node-loss", "0", "--trials", "2"],
            ["fidelity-loss", "--n", "3", "--node-loss", "0", "--matrices", "1", "--trials", "2"],
        ],
        ids=["phase-loss", "fig3-seed", "fig3-matrices", "fig3-threads", "fig3-trials", "loss-trials"],
    )
    def test_is_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run_experiment(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def test_fig3_repeated_node_loss_exits_1(tmp_path, capsys):
    # one CSV row per (arch, case, n, il_node_db) key, so a repeated value would duplicate rows
    out = tmp_path / "out.csv"
    assert run_experiment(["fig3", "--n", "4", "--node-loss", "0.5,0.5", "--out", str(out)]) == 1
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


def test_outputs_are_written_without_os_umask(tmp_path, monkeypatch):
    # The umask is process-wide: setting it even briefly gives files other threads create meanwhile its value.
    out, umask = tmp_path / "out.csv", os.umask

    def refuse(mask):
        raise AssertionError("os.umask called")

    old = umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", refuse)
        assert run_experiment(["fig3", "--n", "3", "--node-loss", "0,1", "--out", str(out)]) == 0
    finally:
        umask(old)
    for path in (out, tmp_path / "out.csv.manifest.json"):
        assert path.stat().st_mode & 0o777 == 0o666 & ~0o027
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.manifest.json"]


@pytest.mark.parametrize("collision", ["csv", "manifest"])
@pytest.mark.parametrize(
    "command",
    [
        ["fig3", "--n", "3", "--node-loss", "0,1"],
        ["fidelity-phase", "--arch", "xbar", "--n", "3", "--sigma", "0:0.1:0.05", "--matrices", "2",
         "--trials", "3"],
    ],
    ids=["fig3", "fidelity-phase"],
)
def test_svg_onto_the_csv_or_its_manifest_exits_1(tmp_path, capsys, command, collision):
    # The CSV path is spelled differently, so the check must compare real paths.
    svg = f"{tmp_path}/./a.csv" if collision == "csv" else str(tmp_path / "a.csv.manifest.json")
    assert run_experiment(command + ["--out", str(tmp_path / "a.csv"), "--svg", svg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


SWEEP_COMMANDS = pytest.mark.parametrize(
    "command,sweep",
    [
        (["fig3", "--n", "4", "--node-loss", "0:1:0.5"], "insertion_loss_sweep"),
        (["fidelity-phase", "--arch", "svd-clements", "--n", "16", "--sigma", "0:0.1:0.05",
          "--matrices", "3", "--trials", "10"], "phase_fidelity_sweep"),
    ],
    ids=["fig3", "fidelity-phase"],
)


def no_work(*args, **kwargs):
    raise AssertionError("the sweep ran")


@pytest.mark.parametrize("flag", ["--out", "--svg"])
@SWEEP_COMMANDS
def test_missing_output_directory_exits_3_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, sweep, flag):
    monkeypatch.setattr(cli, sweep, no_work)
    paths = {"--out": str(tmp_path / "f.csv"), "--svg": str(tmp_path / "f.svg")}
    paths[flag] = str(tmp_path / "nodir" / "f.out")
    assert run_experiment(command + [arg for item in paths.items() for arg in item]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and paths[flag] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output", ["--out", "--svg", "manifest"])
@SWEEP_COMMANDS
def test_output_path_that_is_a_directory_exits_3_before_any_work(tmp_path, capsys, monkeypatch,
                                                                 command, sweep, output):
    monkeypatch.setattr(cli, sweep, no_work)
    paths = {"--out": str(tmp_path / "f.csv"), "--svg": str(tmp_path / "f.svg")}
    directory = paths["--out"] + ".manifest.json" if output == "manifest" else paths[output]
    os.mkdir(directory)
    assert run_experiment(command + [arg for item in paths.items() for arg in item]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and directory in err
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(directory)]
    assert os.listdir(directory) == []


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
    def eval_dump(self, tmp_path, dump, n, vector_json=None):
        device = tmp_path / "device.json"
        device.write_text(json.dumps(dump))
        vector = tmp_path / "x.json"
        vector.write_text(json.dumps(vector_json or {"re": [1.0] * n, "im": [0.0] * n}))
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

    @pytest.mark.parametrize("n", [4.0, "4", True, None], ids=["float", "string", "bool", "missing"])
    def test_svd_n_must_be_a_json_integer(self, tmp_path, capsys, n):
        dump = self.svd_dump()
        del dump["n"]
        if n is not None:
            dump["n"] = n
        assert self.eval_dump(tmp_path, dump, 4) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "vector",
        [{"n": 5, "re": [1.0] * 4, "im": [0.0] * 4}, {"n": 4.0, "re": [1.0] * 4, "im": [0.0] * 4}],
        ids=["n-not-entry-count", "float-n"],
    )
    def test_bad_vector_file_is_a_one_line_error(self, tmp_path, capsys, vector):
        assert self.eval_dump(tmp_path, self.svd_dump(), 4, vector) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_input_of_the_wrong_length_is_a_one_line_error(self, tmp_path, capsys):
        assert self.eval_dump(tmp_path, self.svd_dump(), 3) == 2
        assert capsys.readouterr().err == "error: input length 3 does not match device size 4\n"

    def test_vector_file_may_give_its_length(self, tmp_path):
        vector = {"n": 4, "re": [1.0] * 4, "im": [0.0] * 4}
        assert self.eval_dump(tmp_path, self.svd_dump(), 4, vector) == 0

    def xbar_dump(self):
        return xbar_device_to_json(build_xbar(target_matrix(1, 4, 0), LOSSLESS, "balanced"))

    def test_truncated_xbar_xi(self, tmp_path):
        dump = self.xbar_dump()
        dump["xi"] = dump["xi"][:-1]
        assert self.eval_dump(tmp_path, dump, 4) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [lambda d: d.pop("t"), lambda d: d["loss"].update(il_coup_db="x"),
         lambda d: d.update(n=4.0), lambda d: d.update(m=4.5), lambda d: d.update(n_f="4"),
         lambda d: d.update(mode="bogus"), lambda d: d.update(xi=[5.0, 1.0, 1.0, 1.0], t=[-3.0, 0.0, 0.0])],
        ids=["xbar-missing-t", "xbar-string-loss", "xbar-float-n", "xbar-fractional-m",
             "xbar-string-n_f", "xbar-unknown-mode", "xbar-amplifying-couplers"],
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


def test_deeply_nested_json_is_a_one_line_error(tmp_path, capsys):
    matrix = tmp_path / "deep.json"
    matrix.write_text("[" * 100000)
    out = tmp_path / "device.json"
    assert run_experiment(["compile", "--arch", "xbar", "--matrix", str(matrix), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


class TestCompileEval:
    A = np.array([[1.0, 0.5j, 0.0], [0.2, -0.3, 0.9], [0.1j, 0.4, -0.6 + 0.2j]])
    X = np.array([0.3, -0.5j, 0.8])

    def compile(self, tmp_path, a, *flags):
        matrix, loss = tmp_path / "a.json", tmp_path / "loss.json"
        matrix.write_text(json.dumps(matrix_to_json(a)))
        loss.write_text(json.dumps(LOSSLESS.to_json()))
        return run_experiment(["compile", "--matrix", str(matrix), "--loss", str(loss),
                               "--out", str(tmp_path / "device.json"), *flags])

    def eval(self, tmp_path, x):
        vector, out = tmp_path / "x.json", tmp_path / "y.json"
        vector.write_text(json.dumps(vector_to_json(x)))
        assert run_experiment(["eval", "--device", str(tmp_path / "device.json"),
                               "--input", str(vector), "--out", str(out)]) == 0
        return vector_from_json(json.loads(out.read_text()))

    @pytest.mark.parametrize(
        "arch, rows, cols",
        [("xbar", 3, 3), ("svd-clements", 3, 3), ("xbar", 2, 3)],
        ids=["xbar-3x3", "svd-clements-3x3", "xbar-2x3"],
    )
    def test_eval_applies_the_compiled_matrix(self, tmp_path, arch, rows, cols):
        # A is not symmetric, so A x and A^T x differ.
        a, x = self.A[:rows, :cols], self.X[:cols]
        assert self.compile(tmp_path, a, "--arch", arch) == 0
        y, expected = self.eval(tmp_path, x), a @ x
        scale = np.vdot(expected, y) / np.vdot(expected, expected)
        assert abs(scale) > 0.0
        assert np.max(np.abs(y - scale * expected)) <= 1e-12 * np.max(np.abs(y))

    def test_one_port_svd_compile_exits_2(self, tmp_path, capsys):
        # eval cannot load an n = 1 svd-clements dump, so compile must not write one
        assert self.compile(tmp_path, np.array([[0.5]]), "--arch", "svd-clements") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "device.json").exists()

    def test_mode_is_rejected_for_svd_clements(self, tmp_path, capsys):
        assert self.compile(tmp_path, self.A, "--arch", "svd-clements", "--mode", "uniform") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "device.json").exists()

    @pytest.mark.parametrize("corrupt", [dict(rows="3"), dict(cols=3.9), dict(rows=True)],
                             ids=["string-rows", "fractional-cols", "bool-rows"])
    def test_matrix_sizes_must_be_json_integers(self, tmp_path, capsys, corrupt):
        matrix = tmp_path / "bad.json"
        matrix.write_text(json.dumps({**matrix_to_json(self.A), **corrupt}))
        argv = ["compile", "--arch", "xbar", "--matrix", str(matrix), "--out", str(tmp_path / "d.json")]
        assert run_experiment(argv) == 2
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


def test_loss_file_with_an_unknown_key_is_a_config_error(tmp_path, capsys):
    # "il_coup" is a typo for "il_coup_db"; read leniently it would run lossless.
    loss = tmp_path / "loss.json"
    loss.write_text(json.dumps({"il_coup": 3.0}))
    argv = ["fidelity-loss", "--n", "3", "--node-loss", "0", "--matrices", "1",
            "--loss", str(loss), "--out", str(tmp_path / "out.csv")]
    assert run_experiment(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'il_coup':" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv, loss", [
    (["fidelity-loss", "--n", "20000", "--matrices", "1"], None),
    (["fidelity-loss", "--n", "4", "--matrices", "1"], {"il_xi_db": 2000.0}),
], ids=["fidelity-loss-n-20000", "fidelity-loss-2000-dB-couplers"])
def test_crossbar_design_underflow_exits_2(tmp_path, capsys, argv, loss):
    # A coupler design beyond double precision is a numerical failure: exit 2, one line, nothing written.
    out = tmp_path / "out.csv"
    argv = argv + ["--arch", "xbar", "--node-loss", "0", "--out", str(out)]
    if loss is not None:
        (tmp_path / "loss.json").write_text(json.dumps(loss))
        argv += ["--loss", str(tmp_path / "loss.json")]
    assert run_experiment(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "underflows" in err
    assert list(tmp_path.iterdir()) == ([] if loss is None else [tmp_path / "loss.json"])


def test_fig3_crossbar_has_no_size_limit(tmp_path):
    # The closed-form IL needs no coupler design, so it answers past n = 9017.
    out = tmp_path / "out.csv"
    assert run_experiment(["fig3", "--arch", "xbar", "--n", "9018,16384,20000", "--node-loss", "0",
                           "--out", str(out)]) == 0
    totals = [float(line.split(",")[4]) for line in out.read_text().splitlines()[1:]]
    assert [round(total, 1) for total in totals] == [3247.5, 5746.7, 7544.1]
    for n, total in zip((9018, 16384, 20000), totals):
        expected = balanced_xbar_insertion_loss_db(build_topology(n, n), SILICON_PASSIVES, 0.0)
        assert abs(total - expected) <= 1e-12 * expected


@pytest.mark.parametrize("svg", [False, True], ids=["csv", "csv-and-svg"])
def test_non_finite_insertion_loss_exits_2(tmp_path, capsys, svg):
    # The SVD path depth times 1e308 dB overflows to inf: exit 2, one line, nothing written.
    argv = ["fig3", "--n", "4", "--node-loss", "1e308", "--out", str(tmp_path / "f.csv")]
    assert run_experiment(argv + (["--svg", str(tmp_path / "f.svg")] if svg else [])) == 2
    err = capsys.readouterr().err
    assert err == "error: insertion loss at arch=svd-clements, n=4, il_node_db=1e+308 is not finite\n"
    assert list(tmp_path.iterdir()) == []


def test_chart_failure_writes_nothing(tmp_path, capsys):
    # Every total is finite, but the padded y axis passes the largest double.
    argv = ["fig3", "--arch", "xbar", "--n", "4", "--node-loss", "0,1.75e308",
            "--out", str(tmp_path / "f.csv"), "--svg", str(tmp_path / "f.svg")]
    assert run_experiment(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot chart ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_chart_of_huge_finite_values_stays_in_the_plot(tmp_path):
    # pw * (x - x_lo) alone would overflow at x = 1e307.
    svg = tmp_path / "h.svg"
    assert run_experiment(["fig3", "--arch", "svd-clements", "--n", "4", "--node-loss", "0,1e307",
                           "--out", str(tmp_path / "h.csv"), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert "inf" not in text and "nan" not in text
    coords = [float(v) for points in re.findall(r'points="([^"]*)"', text) for v in re.split("[ ,]", points)]
    assert len(coords) == 8 and all(40.0 <= v <= 560.0 for v in coords)


def test_infeasible_crossbar_size_fails_before_any_target_is_drawn(tmp_path, capsys, monkeypatch):
    # An n = 20000 target alone would take 6.4 GB.
    monkeypatch.setattr(montecarlo, "target_matrix", lambda *args: pytest.fail("a target was drawn"))
    out = tmp_path / "out.csv"
    argv = ["fidelity-loss", "--arch", "xbar,svd-clements", "--n", "4,20000", "--node-loss", "0",
            "--matrices", "1", "--out", str(out)]
    assert run_experiment(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "underflows" in err
    assert not out.exists()


class TestJsonNumbers:
    """Every JSON input takes JSON numbers only: finite ints and floats, never strings, booleans or null.

    A bad number in a matrix, vector or device dump exits 2; in a loss file,
    1.  Either way the command prints one error line and writes nothing.
    """

    A = np.array([[1.0, 0.5], [0.25, -0.75]])

    def write(self, tmp_path, edit=lambda objs: None):
        """Write a valid file of each input, after ``edit``; return their paths by name."""
        objs = {
            "matrix": matrix_to_json(self.A),
            "vector": vector_to_json(np.array([0.25 + 0.5j, 0.0])),  # 1 in re[1] stays in range
            "xbar": xbar_device_to_json(build_xbar(self.A, LOSSLESS, "balanced")),
            "svd": svd_device_to_json(build_svd_clements(self.A, LOSSLESS)),
            "loss": LOSSLESS.to_json(),
        }
        edit(objs)
        paths = {name: tmp_path / f"{name}.json" for name in objs}
        for name, obj in objs.items():
            paths[name].write_text(json.dumps(obj))
        return paths

    # (input, where its bad number goes, command, exit code)
    CASES = {
        "matrix-file": ("matrix", lambda o, bad: o["re"][0].__setitem__(1, bad),
                        ["compile", "--arch", "xbar", "--matrix", "{matrix}"], 2),
        "vector-file": ("vector", lambda o, bad: o["re"].__setitem__(1, bad),
                        ["eval", "--device", "{xbar}", "--input", "{vector}"], 2),
        "xbar-dump": ("xbar", lambda o, bad: o["weights"]["re"][1].__setitem__(0, bad),
                      ["eval", "--device", "{xbar}", "--input", "{vector}"], 2),
        "svd-dump": ("svd", lambda o, bad: o["u_output_phases"].__setitem__(0, bad),
                     ["eval", "--device", "{svd}", "--input", "{vector}"], 2),
        "loss-file": ("loss", lambda o, bad: o.__setitem__("il_coup_db", bad),
                      ["compile", "--arch", "svd-clements", "--matrix", "{matrix}", "--loss", "{loss}"], 1),
    }

    @pytest.mark.parametrize("bad", ["1", True, None, int("9" * 400)], ids=["string", "bool", "null", "huge-int"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bad_number_is_a_one_line_error(self, tmp_path, capsys, case, bad):
        name, corrupt, argv, code = self.CASES[case]
        paths = self.write(tmp_path, lambda objs: corrupt(objs[name], bad))
        out = tmp_path / "out.json"
        argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
        assert run_experiment(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_each_command_runs_on_valid_files(self, tmp_path):
        paths = self.write(tmp_path)
        for name, _, argv, _ in self.CASES.values():
            argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out.json")]
            assert run_experiment(argv) == 0, name


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

    def test_manifest_counts_the_cpus_the_pool_was_sized_by(self, tmp_path, monkeypatch):
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 3)
        out = tmp_path / "out.csv"
        assert run_experiment(self.LOSS + ["--threads", "3", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert (manifest["workers_used"], manifest["cpus_usable"]) == (3, 3)

    def test_worker_failure_names_the_point(self, tmp_path, capsys, monkeypatch):
        # The patched builder reaches the workers through fork.  It fails any
        # stack that holds the bad target, as a stacked build would.
        bad = montecarlo.target_matrix(5, 4, 2)
        build = montecarlo.build_svd_clements

        def failing_build(y, loss):
            if any(np.array_equal(m, bad) for m in np.reshape(y, (-1,) + np.shape(y)[-2:])):
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

    def test_failed_stacked_build_names_the_matrix(self, tmp_path, capsys, monkeypatch):
        # Matrices 0..2 are one build block; the zero target fails the stacked
        # build, and the one-at-a-time rebuild names it.
        draw = montecarlo.target_matrix
        monkeypatch.setattr(
            montecarlo, "target_matrix",
            lambda seed, n, index: np.zeros((n, n)) if index == 2 else draw(seed, n, index),
        )
        out = tmp_path / "out.csv"
        argv = ["fidelity-loss", "--arch", "svd-clements", "--n", "3", "--node-loss", "0",
                "--matrices", "3", "--threads", "1", "--out", str(out)]
        assert run_experiment(argv) == 2
        assert capsys.readouterr().err == (
            "error: loss sweep failed at arch=svd-clements, n=3, matrix=2: "
            "cannot compile the zero matrix\n"
        )
        assert not out.exists()


def test_duration_survives_a_wall_clock_step(tmp_path, monkeypatch):
    # The wall clock steps back an hour mid-sweep, as NTP or a resumed VM may step it.
    sweep = cli.phase_fidelity_sweep

    def stepped_sweep(cfg, sigma_grid, **settings):
        reports = sweep(cfg, sigma_grid, **settings)
        wall = time.time
        monkeypatch.setattr(time, "time", lambda: wall() - 3600.0)
        return reports

    monkeypatch.setattr(cli, "phase_fidelity_sweep", stepped_sweep)
    assert run_experiment(TestParallelSweeps.PHASE + ["--out", str(tmp_path / "out.csv")]) == 0
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert 0.0 <= manifest["duration_seconds"] < 600.0


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
        cfg = SweepConfig(n_values=(3, 4))
        assert csv == _csv_text(["arch", "case", "n", "il_node_db", "il_total_db"],
                                insertion_loss_sweep(cfg, (0.0, 0.5, 1.0), passives=SILICON_PASSIVES))
        assert legend(svg) == ["xbar/balanced N=3", "xbar/balanced N=4",
                               "svd-clements/best N=3", "svd-clements/best N=4",
                               "svd-clements/worst N=3", "svd-clements/worst N=4"]
        assert set(manifest) == MANIFEST_KEYS - {"master_seed"}  # closed form: no seed
        assert manifest["command"] == "fig3"
        assert manifest["workers_used"] == 1
        assert list(manifest["config"].items()) == [
            ("arch", ["xbar", "svd-clements"]),
            ("n_values", [3, 4]),
            ("il_node_grid", [0.0, 0.5, 1.0]),
            ("loss", SILICON_PASSIVES.to_json()),
        ]

    def test_fidelity_loss(self, tmp_path):
        loss = LossModel(il_coup_db=0.1, il_xi_db=0.2)
        loss_file = tmp_path / "loss.json"
        loss_file.write_text(json.dumps(loss.to_json()))
        csv, svg, manifest = self.run(tmp_path, [
            "fidelity-loss", "--n", "3,4", "--node-loss", "0,0.5", "--matrices", "2",
            "--seed", "5", "--loss", str(loss_file),
        ])
        cfg = SweepConfig(n_values=(3, 4), n_matrices=2, master_seed=5)
        header = [c.format(grid="il_node_db") for c in FIDELITY_HEADER]
        assert csv == _csv_text(header, report_rows(loss_fidelity_sweep(cfg, (0.0, 0.5), passives=loss)))
        assert legend(svg) == ["xbar N=3", "xbar N=4", "svd-clements N=3", "svd-clements N=4"]
        assert set(manifest) == MANIFEST_KEYS
        assert (manifest["command"], manifest["master_seed"]) == ("fidelity-loss", 5)
        assert manifest["workers_used"] == 1
        assert list(manifest["config"].items()) == [
            ("arch", ["xbar", "svd-clements"]),
            ("n_values", [3, 4]),
            ("il_node_grid", [0.0, 0.5]),
            ("n_matrices", 2),
            ("loss", loss.to_json()),
            ("threads", 1),
        ]

    def test_fidelity_phase(self, tmp_path):
        csv, svg, manifest = self.run(tmp_path, [
            "fidelity-phase", "--arch", "svd-clements,xbar", "--n", "3", "--sigma", "0:0.1:0.05",
            "--matrices", "2", "--trials", "3", "--seed", "9",
        ])
        cfg = SweepConfig(architectures=("svd-clements", "xbar"), n_values=(3,), n_matrices=2, master_seed=9)
        header = [c.format(grid="sigma_rad") for c in FIDELITY_HEADER]
        assert csv == _csv_text(header, report_rows(phase_fidelity_sweep(cfg, (0.0, 0.05, 0.1), trials=3)))
        assert legend(svg) == ["svd-clements N=3", "xbar N=3"]
        assert set(manifest) == MANIFEST_KEYS
        assert (manifest["command"], manifest["master_seed"]) == ("fidelity-phase", 9)
        assert manifest["workers_used"] == 1
        assert list(manifest["config"].items()) == [
            ("arch", ["svd-clements", "xbar"]),
            ("n_values", [3]),
            ("sigma_grid", [0.0, 0.05, 0.1]),
            ("n_matrices", 2),
            ("n_phase_trials", 3),
            ("threads", 1),
        ]

import functools
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crossmesh import (
    ARCH_SVD_CLEMENTS,
    ARCH_XBAR,
    ConfigError,
    LOSSLESS,
    SweepConfig,
    SweepError,
    apply_common_deviation,
    build_svd_clements,
    build_xbar,
    evaluate_svd_clements,
    fidelity,
    insertion_loss_sweep,
    loss_fidelity_sweep,
    phase_fidelity_sweep,
    realized_matrix,
)
from crossmesh import montecarlo
from crossmesh.crossbar import common_deviation_fidelity
from crossmesh.montecarlo import _phase_chunk, _phase_deviations, target_matrix
from oracles import svd_device_layer_product, trial_deviation_pair, xbar_column_sums

PHASE_CFG = SweepConfig(n_values=(3, 4), n_matrices=3, master_seed=17)
PHASE_GRID = (0.0, 0.05, 0.2)
PHASE_TRIALS = 5
LOSS_CFG = SweepConfig(n_values=(3, 4), n_matrices=3, master_seed=17)
LOSS_GRID = (0.0, 0.5, 1.5)


def phase_task(seed, arch, n, sigmas, trials, lo, hi):
    """``_phase_chunk``'s arguments: grid, trial count and pool task ``(cfg, arch, n, lo, hi)`` (matrices lo..hi-1)."""
    cfg = SweepConfig(n_values=(n,), master_seed=seed)
    return sigmas, trials, (cfg, arch, n, lo, hi)


def test_workers_do_not_change_reports(monkeypatch):
    # Five matrices per point: every (arch, n) point's chunks share one pool
    # and spread unevenly over 2 or 3 workers.
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 3)
    phase_sweep = functools.partial(phase_fidelity_sweep, trials=PHASE_TRIALS)
    for sweep, cfg, grid in ((phase_sweep, PHASE_CFG, PHASE_GRID), (loss_fidelity_sweep, LOSS_CFG, LOSS_GRID)):
        cfg = replace(cfg, n_matrices=5)
        serial = sweep(cfg, grid, workers=1)
        assert len(serial) == 2 * 2 * 3
        for workers in (2, 3):
            assert montecarlo.pool_size(cfg, workers) == workers
            assert sweep(cfg, grid, workers=workers) == serial, workers


@pytest.mark.parametrize("entries", [1, 2 * 3 * 3 * 2], ids=["one-matrix-blocks", "two-matrix-blocks"])
def test_build_blocks_do_not_change_reports(monkeypatch, entries):
    # Five matrices per point, chunked for 1, 2 or 3 workers, each chunk's
    # SVD devices built in blocks of _BATCH_ENTRIES // (2 n^2) matrices (at
    # least one): every split gives the reports of one block per chunk.
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 3)
    cfg = replace(LOSS_CFG, n_matrices=5)
    reference = loss_fidelity_sweep(cfg, LOSS_GRID, workers=1)
    monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", entries)
    for workers, chunks in ((1, [(0, 5)]), (2, [(0, 3), (3, 5)]), (3, [(0, 2), (2, 4), (4, 5)])):
        assert montecarlo._chunks(5, workers) == chunks
        assert loss_fidelity_sweep(cfg, LOSS_GRID, workers=workers) == reference, workers


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children forked from this process while the test runs."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.mark.parametrize(
    "workers, cpus, n_matrices, expected",
    [(64, 8, 2, 2), (3, 2, 5, 2), (4, 8, 5, 4), (2, 1, 5, None), (1, 8, 5, None)],
    ids=["capped-by-tasks", "capped-by-cpus", "as-asked", "one-cpu-serial", "one-worker-serial"],
)
def test_pool_never_exceeds_tasks_or_cpus(monkeypatch, forked, workers, cpus, n_matrices, expected):
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: cpus)
    cfg = SweepConfig(architectures=(ARCH_XBAR,), n_values=(3,), n_matrices=n_matrices)
    reports = loss_fidelity_sweep(cfg, (0.0,), workers=workers)
    assert [r.fidelity_mean for r in reports] == [pytest.approx(1.0, abs=1e-12)]
    assert len(forked) == (expected or 0)
    assert montecarlo.pool_size(cfg, workers) == (expected or 1)


def test_chunks_cut_min_matrices_workers_even_pieces():
    # A contiguous cover of 0..total-1, larger chunks first.
    for total in (1, 2, 3, 4, 5, 6, 9, 10, 17, 500):
        for workers in (1, 2, 3, 4, 6, 7, 64):
            chunks = montecarlo._chunks(total, workers)
            assert len(chunks) == min(total, workers), (total, workers)
            assert [lo for lo, _hi in chunks] == [0] + [hi for _lo, hi in chunks[:-1]]
            assert chunks[-1][1] == total
            sizes = [hi - lo for lo, hi in chunks]
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1, (total, workers)


def test_children_take_points_in_turn_when_matrices_are_fewer_than_workers(monkeypatch, forked):
    # One matrix per point and three workers: four one-matrix tasks, child 0 runs two of them.
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 3)
    cfg = replace(LOSS_CFG, n_matrices=1)
    serial = loss_fidelity_sweep(cfg, LOSS_GRID, workers=1)
    assert loss_fidelity_sweep(cfg, LOSS_GRID, workers=3) == serial
    assert len(forked) == montecarlo.pool_size(cfg, 3) == 3


def test_sweeps_run_serially_off_linux(monkeypatch, forked):
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    cfg = replace(LOSS_CFG, n_matrices=2)
    reference = loss_fidelity_sweep(cfg, LOSS_GRID, workers=1)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert montecarlo.pool_size(cfg, 2) == 1
    assert loss_fidelity_sweep(cfg, LOSS_GRID, workers=2) == reference
    assert forked == []


def _report_blas_threads(task):
    get, _set = montecarlo._openblas_threads()
    lo, hi = task[-2:]
    return np.full((hi - lo, 1), get())


def _fail_on_matrix_1(task):
    lo, hi = task[-2:]
    if lo <= 1 < hi:
        raise ValueError("matrix 1 fails")
    return np.zeros((hi - lo, 1))


class TestOneBlasThreadPerWorker:
    @pytest.fixture(autouse=True)
    def blas(self, monkeypatch):
        functions = montecarlo._openblas_threads()
        if functions is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
        return functions

    CFG = SweepConfig(n_values=(3,), n_matrices=4)

    def test_workers_run_one_blas_thread_and_parent_is_restored(self, blas):
        get, _set = blas
        before = get()
        per_point = montecarlo._run_sweep(_report_blas_threads, self.CFG, workers=2)
        assert [arch for arch, _n, _values in per_point] == [ARCH_XBAR, ARCH_SVD_CLEMENTS]
        for _arch, _n, values in per_point:
            assert values.tolist() == [[1]] * 4
        assert get() == before

    def test_serial_sweep_runs_one_blas_thread_and_parent_is_restored(self, blas):
        get, set_ = blas
        before = get()
        set_(2)
        try:
            per_point = montecarlo._run_sweep(_report_blas_threads, self.CFG, workers=1)
            for _arch, _n, values in per_point:
                assert values.tolist() == [[1]] * 4
            assert get() == 2
            with pytest.raises(ValueError, match="matrix 1 fails"):
                montecarlo._run_sweep(_fail_on_matrix_1, self.CFG, workers=1)
            assert get() == 2
        finally:
            set_(before)

    def test_parent_is_restored_when_a_worker_raises(self, blas):
        get, set_ = blas
        before = get()
        set_(2)
        try:
            with pytest.raises(ValueError, match="matrix 1 fails"):
                montecarlo._run_sweep(_fail_on_matrix_1, self.CFG, workers=2)
            assert get() == 2
        finally:
            set_(before)


class _Unbuildable(Exception):
    """Pickles, but its class cannot be rebuilt from the pickled args."""

    def __init__(self, message, detail):
        super().__init__(message)


def _raise_unbuildable(task):
    raise _Unbuildable("no rebuild", "detail")


def _raise_unpicklable(task):
    raise ValueError(lambda: "a lambda does not pickle")


def _return_unpicklable(task):
    return np.array([[lambda: "a lambda does not pickle"]], dtype=object)


def _fail_unless_first_task(task):
    _cfg, arch, _n, lo, _hi = task
    if (arch, lo) != (ARCH_XBAR, 0):
        raise ValueError(f"{arch} from matrix {lo} fails")
    return np.zeros((2, 1))


def _touch_task_file(directory, task):
    _cfg, arch, _n, lo, hi = task
    (directory / f"{arch}-{lo}").touch()
    return np.zeros((hi - lo, 1))


def _sleep_after_first_chunk(task):
    lo, hi = task[-2:]
    if lo > 0:
        time.sleep(60)
    return np.zeros((hi - lo, 1))


class TestForkedChildren:
    CFG = SweepConfig(n_values=(3,), n_matrices=4)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_child_outlives_a_failed_sweep(self, forked):
        blas = montecarlo._openblas_threads()
        before = blas[0]() if blas else None
        with pytest.raises(ValueError, match="matrix 1 fails"):
            montecarlo._run_sweep(_fail_on_matrix_1, self.CFG, workers=2)
        assert len(forked) == 2
        self.assert_no_child_left()
        assert (blas[0]() if blas else None) == before

    def test_first_failed_task_in_task_order_is_raised(self):
        # Tasks: xbar 0..1, xbar 2..3, svd 0..1, svd 2..3.  Child 0 fails on
        # its second task (svd), child 1 on its first (xbar 2..3), which comes first.
        with pytest.raises(ValueError, match="^xbar from matrix 2 fails$"):
            montecarlo._run_sweep(_fail_unless_first_task, self.CFG, workers=2)
        self.assert_no_child_left()

    def test_children_still_running_are_killed_when_the_parent_fails(self, monkeypatch):
        # Child 1 sleeps for a minute; the parent fails on child 0's results and must not wait for it.
        parent, loads = os.getpid(), pickle.loads

        def failing_loads(data, **kwargs):
            if os.getpid() == parent:
                raise OSError("parent fails")
            return loads(data, **kwargs)

        monkeypatch.setattr(pickle, "loads", failing_loads)
        started = time.monotonic()
        with pytest.raises(OSError, match="parent fails"):
            montecarlo._run_sweep(_sleep_after_first_chunk, self.CFG, workers=2)
        assert time.monotonic() - started < 30
        self.assert_no_child_left()

    def test_a_child_whose_parent_died_runs_no_task(self, tmp_path):
        # The recorded parent, -1, is not the child's parent: it exits 1 at once, sending nothing.
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                share = [(self.CFG, ARCH_XBAR, 3, 0, 2)]
                montecarlo._run_share(functools.partial(_touch_task_file, tmp_path), share, write, -1)
            finally:
                os._exit(99)
        os.close(write)
        with open(read, "rb") as pipe:
            payload = pipe.read()
        assert (payload, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])) == (b"", 1)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("worker, what", [
        (_raise_unbuildable, "exception cannot be pickled: _Unbuildable"),
        (_raise_unpicklable, "exception cannot be pickled: ValueError"),
        (_return_unpicklable, "results cannot be pickled: \\[array"),
    ], ids=["unbuildable-exception", "unpicklable-exception", "unpicklable-results"])
    def test_what_cannot_be_pickled_is_a_sweep_error(self, worker, what):
        with pytest.raises(SweepError, match=f"a sweep worker's {what}"):
            montecarlo._run_sweep(worker, self.CFG, workers=2)
        self.assert_no_child_left()


def test_batched_trials_match_layer_product_oracle():
    seed, n, sigmas, trials = 5, 4, (0.0, 0.05, 0.2), 6
    got = _phase_chunk(*phase_task(seed, ARCH_SVD_CLEMENTS, n, sigmas, trials, 0, 2))
    assert got.shape == (2, 3, 6)
    for m_idx in range(2):
        y = target_matrix(seed, n, m_idx)
        device = build_svd_clements(y, LOSSLESS)
        for s_idx, sigma in enumerate(sigmas):
            for t_idx in range(trials):
                dth, dph = trial_deviation_pair(
                    seed, ARCH_SVD_CLEMENTS, n, s_idx, m_idx, t_idx, sigma
                )
                shaken = apply_common_deviation(device, dth, dph)
                expected = fidelity(svd_device_layer_product(shaken), y)
                assert abs(got[m_idx, s_idx, t_idx] - expected) <= 1e-12


def test_crossbar_trials_match_column_sum_oracle():
    # Per trial: detune every cell's amplitude angle by the shared d_theta
    # entry by entry, then read the realized matrix column by column off the
    # literal per-column sums.
    seed, n, sigmas, trials = 5, 4, (0.0, 0.05, 0.2), 6
    got = _phase_chunk(*phase_task(seed, ARCH_XBAR, n, sigmas, trials, 0, 2))
    assert got.shape == (2, 3, 6)
    for m_idx in range(2):
        y = target_matrix(seed, n, m_idx)
        device = build_xbar(y.T, LOSSLESS, "balanced")
        for s_idx, sigma in enumerate(sigmas):
            for t_idx in range(trials):
                dth, _ = trial_deviation_pair(seed, ARCH_XBAR, n, s_idx, m_idx, t_idx, sigma)
                w = np.array([
                    [math.sin(math.asin(min(1.0, abs(v))) + dth / 2.0)
                     * complex(math.cos(np.angle(v) + dth / 2.0), math.sin(np.angle(v) + dth / 2.0))
                     for v in row]
                    for row in device.weights
                ])
                shaken = replace(device, weights=w)
                realized = np.column_stack([xbar_column_sums(shaken, x) for x in np.eye(n)])
                expected = fidelity(realized, y)
                assert abs(got[m_idx, s_idx, t_idx] - expected) <= 1e-12
        assert np.all(got[m_idx, 0] == got[m_idx, 0, 0])


@pytest.mark.parametrize("n", [4, 7, 64])
def test_batch_size_does_not_change_trials(n):
    # The sweep scores all of a matrix's crossbar trials, sigma = 0 included,
    # in one closed-form call; the SVD device evaluates sigma = 0 once and
    # the other trials in batches of up to _TRIAL_ENTRIES // n^2 (4 at
    # n = 64, so the 17 trials at sigma = 0.1 split there).  Batches of 1
    # and of 3 trials, each scored alone, give the same bits.
    seed, sigmas, trials = 3, (0.0, 0.1), 17
    y = target_matrix(seed, n, 0)
    svd, xbar = build_svd_clements(y, LOSSLESS), build_xbar(y.T, LOSSLESS, "balanced")
    scorers = {
        ARCH_SVD_CLEMENTS: lambda deviations: [
            fidelity(t, y)
            for t in evaluate_svd_clements(apply_common_deviation(svd, deviations[:, :1], deviations[:, 1:]))
        ],
        ARCH_XBAR: lambda deviations: common_deviation_fidelity(xbar, y, deviations[:, 0]).tolist(),
    }
    for arch, score in scorers.items():
        full = _phase_chunk(*phase_task(seed, arch, n, sigmas, trials, 0, 1))[0]
        for s_idx, sigma in enumerate(sigmas):
            deviations = np.array([
                trial_deviation_pair(seed, arch, n, s_idx, 0, t_idx, sigma)
                for t_idx in range(trials)
            ])
            for size in (1, 3):
                got = [
                    f
                    for first in range(0, trials, size)
                    for f in score(deviations[first : first + size])
                ]
                assert got == full[s_idx].tolist(), arch


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**130],
                         ids=["zero", "one-word", "two-words", "three-words", "five-words"])
def test_phase_deviations_match_trial_rng_bit_for_bit(seed):
    # Seeds of one to five uint32 words (five: more than the pool's four,
    # so none is padded), sizes of one and two words, the largest matrix
    # index, grids that start, end or repeat with 0, and a sigma so small
    # that sigma * z underflows to a signed zero.
    grids = [(0.0, 0.05, 0.0, 0.2, 0.0), (0.3, 0.0, 0.0, 5e-324), (0.0, 0.0), (0.1,)]
    for arch in (ARCH_XBAR, ARCH_SVD_CLEMENTS):
        for n in (2, 64, 2**32 - 1, 2**32, 2**33):
            for m_idx in (0, 2**32 - 1):
                for grid in grids:
                    cfg = SweepConfig(n_values=(n,), master_seed=seed)
                    expected = np.zeros((len(grid), 3, 2))
                    for s_idx, sigma in enumerate(grid):
                        if sigma != 0.0:
                            expected[s_idx] = [
                                trial_deviation_pair(seed, arch, n, s_idx, m_idx, t_idx, sigma)
                                for t_idx in range(3)
                            ]
                    got = _phase_deviations(cfg, grid, 3, arch, n, m_idx)
                    assert got.tobytes() == expected.tobytes(), (arch, n, m_idx, grid)


def test_no_sweep_draws_from_trial_rng(monkeypatch):
    reference = phase_fidelity_sweep(PHASE_CFG, PHASE_GRID, trials=PHASE_TRIALS)

    def refuse(*args):
        raise AssertionError("trial_rng called")

    monkeypatch.setattr(montecarlo, "trial_rng", refuse)
    assert phase_fidelity_sweep(PHASE_CFG, PHASE_GRID, trials=PHASE_TRIALS) == reference


@pytest.fixture
def checked_settings(monkeypatch):
    """Checks ``SweepConfig(n_values=(3,), **fields)`` and a phase sweep of it with ``trials``; runs no task."""
    monkeypatch.setattr(montecarlo, "_run_sweep", lambda worker, cfg, workers: [])

    def check(trials=1, **fields):
        phase_fidelity_sweep(SweepConfig(**{"n_values": (3,), **fields}), (0.0,), trials=trials)

    return check


@pytest.mark.parametrize("field", ["n_matrices", "trials"])
def test_indices_must_fit_one_seed_word(checked_settings, field):
    checked_settings(**{field: 2**32 - 1})
    with pytest.raises(ConfigError, match=field):
        checked_settings(**{field: 2**32})


@pytest.mark.parametrize("kwargs", [
    {"n_values": (2.7,)}, {"n_values": (True,)}, {"n_values": (np.bool_(True),)}, {"n_values": ("3",)},
    {"master_seed": True}, {"master_seed": 1.5}, {"master_seed": np.float64(2.0)},
    {"n_matrices": 1.5}, {"n_matrices": False}, {"trials": 2.5}, {"trials": None},
])
def test_integer_fields_refuse_non_integers(checked_settings, kwargs):
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        checked_settings(**kwargs)


@pytest.mark.parametrize("workers", [1.5, "2", True, None, 0], ids=["float", "string", "bool", "none", "zero"])
def test_worker_count_must_be_a_positive_integer(workers):
    cfg = SweepConfig(architectures=(ARCH_XBAR,), n_values=(3,), n_matrices=1)
    with pytest.raises(ConfigError, match="workers"):
        montecarlo.pool_size(cfg, workers)
    with pytest.raises(ConfigError, match="workers"):
        phase_fidelity_sweep(cfg, (0.0,), trials=1, workers=workers)
    assert montecarlo.pool_size(cfg, np.int64(1)) == 1


def test_integer_fields_take_numpy_ints_as_python_ints(monkeypatch):
    cfg = SweepConfig(n_values=(np.int64(3),), n_matrices=np.uint32(4), master_seed=np.uint64(2**64 - 1))
    assert (cfg.n_values, cfg.n_matrices, cfg.master_seed) == ((3,), 4, 2**64 - 1)
    assert all(type(v) is int for v in (*cfg.n_values, cfg.n_matrices, cfg.master_seed))
    # The phase sweep hands its chunks the trial count as a Python int.
    seen = []
    monkeypatch.setattr(montecarlo, "_run_sweep", lambda worker, cfg, workers: seen.append(worker.args[1]) or [])
    phase_fidelity_sweep(cfg, (0.0,), trials=np.int8(5))
    assert seen == [5] and type(seen[0]) is int


def fresh_env(env=None) -> dict:
    """``env`` (default ours) with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ if env is None else env)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_process(code: str, env=None, cwd=None) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter with ``env`` (default ours) and this checkout's src."""
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(env), cwd=cwd, capture_output=True,
                          text=True, timeout=60)


def run_fresh(code: str, env=None, cwd=None) -> str:
    """Stdout of ``fresh_process(code, env, cwd)``, which must exit 0."""
    done = fresh_process(code, env, cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "user-set"])
def test_import_defaults_openblas_to_one_thread(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        "import os, crossmesh\n"
        "from crossmesh.montecarlo import _openblas_threads\n"
        "threads = _openblas_threads()\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], threads[0]() if threads else 'none')\n"
    )
    variable, threads = run_fresh(code, env).split()
    assert variable == (preset or "1")
    if preset is None:
        assert threads in ("1", "none")


def tiny_phase_sweep(threads: int) -> list[str]:
    return ["fidelity-phase", "--arch", "xbar,svd-clements", "--n", "3", "--sigma", "0,0.1", "--matrices", "2",
            "--trials", "2", "--out", "out.csv", "--threads", str(threads)]


def test_no_sweep_loads_the_pool_stack(tmp_path):
    code = (
        "import sys\n"
        "from crossmesh import montecarlo\n"
        "from crossmesh.cli import run_experiment\n"
        "montecarlo.usable_cpus = lambda: 2\n"
        "stack = ('concurrent.futures', 'multiprocessing')\n"
        "assert run_experiment(['stats', '--n', '2']) == 0\n"
        "print(sorted(m for m in stack if m in sys.modules))\n"
        "for threads in (1, 2):\n"
        f"    assert run_experiment({tiny_phase_sweep(1)[:-1]!r} + [str(threads)]) == 0\n"
        "    print(sorted(m for m in stack if m in sys.modules))\n"
    )
    assert run_fresh(code, cwd=tmp_path).splitlines()[-3:] == ["[]"] * 3
    assert json.loads((tmp_path / "out.csv.manifest.json").read_text())["workers_used"] == 2


@pytest.mark.skipif(montecarlo.usable_cpus() < 2, reason="a pool needs two usable CPUs")
def test_parent_loads_numpy_random_before_the_pool_forks(tmp_path):
    # Printed by the parent after each fork: two children, each line once.
    code = (
        "import os, sys\n"
        "fork = os.fork\n"
        "def recording_fork():\n"
        "    loaded = 'numpy.random' in sys.modules\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        print(loaded)\n"
        "    return pid\n"
        "os.fork = recording_fork\n"
        "from crossmesh.cli import run_experiment\n"
        f"assert run_experiment({tiny_phase_sweep(2)!r}) == 0\n"
    )
    assert run_fresh(code, cwd=tmp_path).split() == ["True", "True"]


def test_killed_worker_exits_2_with_one_error_line(tmp_path):
    # The second child kills itself on its first task; the CLI writes nothing.
    code = (
        "import os, signal, sys\n"
        "from crossmesh import cli, montecarlo\n"
        "montecarlo.usable_cpus = lambda: 2\n"
        "chunk = montecarlo._loss_chunk\n"
        "def killed(*args):\n"
        "    if args[-1][3] > 0:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return chunk(*args)\n"
        "montecarlo._loss_chunk = killed\n"
        "sys.argv = ['crossmesh', 'fidelity-loss', '--n', '3,4', '--node-loss', '0,0.5', '--matrices', '5',"
        " '--threads', '2', '--out', 'out.csv']\n"
        "cli.console_entry()\n"
    )
    done = fresh_process(code, cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: sweep worker 1 (matrices 3..4) was killed by signal {signal.SIGKILL:d} before sending its results\n"
    assert list(tmp_path.iterdir()) == []


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie (a container's pid 1 may never reap an orphan)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _sleeping_sweep(threads: int) -> str:
    """A CLI loss sweep whose every task marks that it runs with a file ``ready-<pid>``, then sleeps for a minute.

    The dispositions are those of a CLI started from a shell, whatever the test runner ignores.
    """
    return (
        "import os, signal, sys, time\n"
        "signal.signal(signal.SIGHUP, signal.SIG_DFL)\n"
        "signal.signal(signal.SIGTERM, signal.SIG_DFL)\n"
        "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "from crossmesh import cli, montecarlo\n"
        "montecarlo.usable_cpus = lambda: 2\n"
        "def ready(*args):\n"
        "    open(f'ready-{os.getpid()}', 'w').close()\n"
        "    time.sleep(60)\n"
        "montecarlo._loss_chunk = ready\n"
        "sys.argv = ['crossmesh', 'fidelity-loss', '--n', '3,4', '--node-loss', '0,0.5', '--matrices', '5',"
        f" '--threads', '{threads}', '--out', 'out.csv', '--svg', 'out.svg']\n"
        "cli.console_entry()\n"
    )


def _ready(where: Path) -> list[int]:
    """The pids of the processes of a ``_sleeping_sweep`` run in ``where`` that have marked themselves."""
    return [int(path.name.split("-")[1]) for path in where.glob("ready-*")]


def _wait_ready(parent: subprocess.Popen, where: Path, count: int) -> list[int]:
    """``_ready(where)`` once ``count`` processes of ``parent``'s sleeping sweep have marked themselves."""
    started = time.monotonic()
    while len(_ready(where)) < count:
        assert parent.poll() is None and time.monotonic() - started < 30, "the workers did not start"
        time.sleep(0.01)
    return _ready(where)


@pytest.mark.skipif(sys.platform != "linux", reason="sweeps fork only on Linux")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL, signal.SIGHUP, signal.SIGINT],
                         ids=lambda sig: sig.name)
def test_no_worker_outlives_a_signalled_parent(tmp_path, sig):
    parent = subprocess.Popen([sys.executable, "-c", _sleeping_sweep(2)], env=fresh_env(), cwd=tmp_path,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        children = _wait_ready(parent, tmp_path, 2)
        os.kill(parent.pid, sig)
        signalled = time.monotonic()
        while any(map(_running, children)) and time.monotonic() - signalled < 1:
            time.sleep(0.01)
        assert [pid for pid in children if _running(pid)] == []
        parent.wait(timeout=10)
    finally:
        for pid in filter(_running, _ready(tmp_path)):
            os.kill(pid, signal.SIGKILL)
        parent.kill()
        parent.wait()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(f"ready-{pid}" for pid in children)


@pytest.mark.skipif(sys.platform != "linux", reason="sweeps fork only on Linux")
@pytest.mark.parametrize("group", [False, True], ids=["parent", "process-group"])
@pytest.mark.parametrize("threads", [1, 2], ids=["serial", "threads-2"])
def test_ctrl_c_ends_the_cli_with_one_line(tmp_path, threads, group):
    # SIGINT to the CLI alone, or to its whole process group as a terminal's Ctrl-C sends it.
    parent = subprocess.Popen([sys.executable, "-c", _sleeping_sweep(threads)], env=fresh_env(), cwd=tmp_path,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        ready = _wait_ready(parent, tmp_path, threads)
        if group:
            os.killpg(parent.pid, signal.SIGINT)
        else:
            os.kill(parent.pid, signal.SIGINT)
        out, err = parent.communicate(timeout=10)
    finally:
        for pid in filter(_running, _ready(tmp_path)):
            if pid != parent.pid:
                os.kill(pid, signal.SIGKILL)
        parent.kill()
        parent.wait()
    assert (parent.returncode, out, err) == (130, "", "error: interrupted\n")
    # The serial sweep runs its task in the CLI itself; each forked worker has ended.
    workers = [pid for pid in ready if pid != parent.pid]
    assert len(workers) == (0 if threads == 1 else threads)
    assert [pid for pid in workers if _running(pid)] == []
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(f"ready-{pid}" for pid in ready)


def test_a_forked_sweep_repeats_no_output_and_keeps_the_sigterm_disposition():
    # "before" is still buffered when the children fork; only the parent may write it.
    code = (
        "import signal, sys\n"
        "from crossmesh import SweepConfig, loss_fidelity_sweep, montecarlo\n"
        "montecarlo.usable_cpus = lambda: 2\n"
        "cfg = SweepConfig(n_values=(3,), n_matrices=2)\n"
        "assert montecarlo.pool_size(cfg, 2) == 2\n"
        "disposition = signal.getsignal(signal.SIGTERM)\n"
        "sys.stdout.write('before')\n"
        "loss_fidelity_sweep(cfg, (0.0, 0.5), workers=2)\n"
        "assert signal.getsignal(signal.SIGTERM) == disposition\n"
        "print('|after')\n"
    )
    assert run_fresh(code) == "before|after\n"


def test_workers_forked_by_the_cli_inherit_the_frozen_heap(tmp_path):
    # The checking wrapper reaches the workers through fork; a failed assertion fails the sweep.
    code = (
        "import gc, sys\n"
        "from crossmesh import cli, montecarlo\n"
        "montecarlo.usable_cpus = lambda: 2\n"
        "chunk = montecarlo._loss_chunk\n"
        "def checked(*args):\n"
        "    assert gc.get_freeze_count() > 0, 'worker heap is not frozen'\n"
        "    return chunk(*args)\n"
        "montecarlo._loss_chunk = checked\n"
        "sys.argv = ['crossmesh', 'fidelity-loss', '--n', '3,4', '--node-loss', '0,0.5', '--matrices', '2',"
        " '--threads', '2', '--out', 'out.csv']\n"
        "cli.console_entry()\n"
    )
    run_fresh(code, cwd=tmp_path)
    assert json.loads((tmp_path / "out.csv.manifest.json").read_text())["workers_used"] == 2


def test_svd_batches_spanning_sigma_rows_do_not_change_trials(monkeypatch):
    # Batches of 3 trials cut across the two perturbed rows (5 trials each);
    # every trial still equals the unbatched run and the one-trial route.
    seed, n, sigmas, trials = 13, 4, (0.05, 0.0, 0.2), 5
    task = phase_task(seed, ARCH_SVD_CLEMENTS, n, sigmas, trials, 0, 2)
    reference = _phase_chunk(*task)
    monkeypatch.setattr(montecarlo, "_TRIAL_ENTRIES", 3 * n * n)
    got = _phase_chunk(*task)
    assert got.tolist() == reference.tolist()
    for m_idx in range(2):
        y = target_matrix(seed, n, m_idx)
        device = build_svd_clements(y, LOSSLESS)
        for s_idx, sigma in enumerate(sigmas):
            for t_idx in range(trials):
                if sigma == 0.0:
                    expected = fidelity(evaluate_svd_clements(device), y)
                else:
                    dth, dph = trial_deviation_pair(
                        seed, ARCH_SVD_CLEMENTS, n, s_idx, m_idx, t_idx, sigma
                    )
                    one = apply_common_deviation(device, np.full((1, 1), dth), np.full((1, 1), dph))
                    expected = fidelity(evaluate_svd_clements(one)[0], y)
                assert got[m_idx, s_idx, t_idx] == expected


def test_trial_batches_and_build_blocks_keep_their_own_budgets(monkeypatch):
    # At n = 64 a phase sweep evaluates its perturbed trials in batches of at
    # most _TRIAL_ENTRIES // n^2 devices, while a loss sweep still builds its
    # 6 matrices in one stack of _BATCH_ENTRIES // (2 n^2).
    evaluated, built = [], []

    def evaluate(device, **kwargs):
        evaluated.append(device.theta.shape[:-1])
        return evaluate_svd_clements(device, **kwargs)

    def build(y, loss):
        built.append(np.shape(y))
        return build_svd_clements(y, loss)

    monkeypatch.setattr(montecarlo, "evaluate_svd_clements", evaluate)
    monkeypatch.setattr(montecarlo, "build_svd_clements", build)
    n, trials = 64, 20
    cfg = SweepConfig(architectures=(ARCH_SVD_CLEMENTS,), n_values=(n,), n_matrices=1)
    phase_fidelity_sweep(cfg, (0.0, 0.1), trials=trials)
    batch = montecarlo._TRIAL_ENTRIES // (n * n)
    assert evaluated == [()] + [(min(batch, trials - first),) for first in range(0, trials, batch)]
    assert batch < montecarlo._BATCH_ENTRIES // (n * n)
    built.clear()
    loss_fidelity_sweep(replace(cfg, n_matrices=6), (0.0, 1.0))
    assert built == [(6, n, n)]


def test_crossbar_scores_each_matrix_in_one_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2].shape)
        return common_deviation_fidelity(*args)

    monkeypatch.setattr(montecarlo, "common_deviation_fidelity", counted)
    seed, n, sigmas, trials = 13, 4, (0.05, 0.0, 0.2), 5
    got = _phase_chunk(*phase_task(seed, ARCH_XBAR, n, sigmas, trials, 0, 3))
    assert calls == [(3, 5)] * 3
    for m_idx in range(3):
        y = target_matrix(seed, n, m_idx)
        unperturbed = fidelity(realized_matrix(build_xbar(y.T, LOSSLESS, "balanced")), y)
        assert got[m_idx, 1].tolist() == [unperturbed] * trials


@pytest.mark.parametrize("sigmas, unperturbed_calls", [((0.05, 0.2), 0), ((0.05, 0.0, 0.0), 2)])
def test_unperturbed_svd_evaluated_once_per_matrix_if_grid_has_zero(monkeypatch, sigmas, unperturbed_calls):
    seen = []

    def recorded(device, **kwargs):
        seen.append(device.theta.ndim == 1)  # a single device, not a batch of trials
        return evaluate_svd_clements(device, **kwargs)

    monkeypatch.setattr(montecarlo, "evaluate_svd_clements", recorded)
    _phase_chunk(*phase_task(13, ARCH_SVD_CLEMENTS, 4, sigmas, 5, 0, 2))
    assert sum(seen) == unperturbed_calls
    assert len(seen) > unperturbed_calls


@pytest.mark.parametrize("sweep", [phase_fidelity_sweep, loss_fidelity_sweep, insertion_loss_sweep],
                         ids=["sigma_grid", "il_node_grid", "insertion-loss"])
@pytest.mark.parametrize(
    "grid",
    [(0.0, math.nan), (0.0, math.inf), (0.0, -math.inf), (0.0, -0.1), (), (0.1, 0.0, 0.1)],
    ids=["nan", "inf", "-inf", "-0.1", "empty", "repeated"],
)
def test_grid_values_must_be_finite_and_non_negative(monkeypatch, sweep, grid):
    # Also non-empty and free of repeats: points are seeded by grid index and
    # keyed by value, so (0.1, 0.0, 0.1) would give two different rows keyed 0.1.
    def no_work(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(montecarlo, "_run_sweep", no_work)
    with pytest.raises(ConfigError, match="grid must be non-empty, finite, >= 0 and free of repeats"):
        sweep(SweepConfig(n_values=(3,)), grid)


def test_zero_sigma_and_balanced_crossbar_are_exact():
    for r in phase_fidelity_sweep(PHASE_CFG, PHASE_GRID, trials=PHASE_TRIALS):
        assert r.n_samples == 15
        if r.sweep_value == 0.0:
            assert abs(r.fidelity_mean - 1.0) <= 1e-12
            assert r.fidelity_std <= 1e-12
        else:
            assert r.fidelity_mean < 1.0
    for r in loss_fidelity_sweep(LOSS_CFG, LOSS_GRID):
        if r.architecture == ARCH_XBAR:
            assert abs(r.fidelity_mean - 1.0) <= 1e-12
        elif r.sweep_value > 0.0:
            assert r.fidelity_mean < 1.0

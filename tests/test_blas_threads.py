"""The solver runs on one BLAS thread, so its bits do not depend on the pool.

decompose holds numpy's OpenBLAS at one thread while it runs and restores
the caller's count on the way out.  The subprocess tests set the pool size
with OPENBLAS_NUM_THREADS, which OpenBLAS reads once at load time.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from nfsar import cli_io, core_model, imaging, suppression
from nfsar.suppression import SolverConfig, decompose

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "perfbench" / "configs"
POOL_SIZES = ("1", "2", "4")  # 4 is more threads than the 2 cores CI runners have


@pytest.fixture
def blas_threads():
    """The thread-count getter and setter; the count is put back after the test."""
    get_threads, set_threads = suppression._blas_thread_calls()
    threads = get_threads()
    if threads == 0:
        pytest.skip("numpy's BLAS exports no known thread-count symbol")
    set_threads(2)  # a caller's count other than the solver's
    yield get_threads, set_threads
    set_threads(threads)


def problem(seed=41):
    rng = np.random.default_rng(seed)
    i = rng.standard_normal((24, 60)) + 1j * rng.standard_normal((24, 60))
    i[:, :] += 3.0 * np.outer(rng.standard_normal(24), np.ones(60))
    return i, SolverConfig(max_iter=60)


def recording_calls(monkeypatch, get_threads):
    """Record the pool size that update_target and default_params run on."""
    seen = []
    for name in ("update_target", "default_params"):
        def recording(*args, _original=getattr(suppression, name)):
            seen.append(get_threads())
            return _original(*args)

        monkeypatch.setattr(suppression, name, recording)
    return seen


class TestThreadCount:
    def test_solver_runs_on_one_thread_and_the_count_is_restored(self, blas_threads, monkeypatch):
        get_threads, _ = blas_threads
        before = get_threads()
        seen = recording_calls(monkeypatch, get_threads)
        decompose(*problem())
        assert len(seen) > 2 and set(seen) == {1}
        assert get_threads() == before

    def test_count_is_restored_when_a_step_raises(self, blas_threads, monkeypatch):
        get_threads, _ = blas_threads
        before = get_threads()

        def failing(*args):
            raise RuntimeError("step failed")

        monkeypatch.setattr(suppression, "update_target", failing)
        with pytest.raises(RuntimeError, match="^step failed$"):
            decompose(*problem())
        assert get_threads() == before

    def test_without_the_symbols_nothing_is_set_and_the_result_is_the_same(self, blas_threads, monkeypatch):
        get_threads, set_threads = blas_threads
        set_threads(1)  # both runs then compute on the pool the solver uses
        ref = decompose(*problem())
        monkeypatch.setattr(suppression.ctypes, "CDLL", lambda path: object())  # a BLAS without them
        suppression._numpy_blas.cache_clear()
        suppression._blas_thread_calls.cache_clear()
        try:
            res = decompose(*problem())
            set_threads(2)
            caller = get_threads()
            seen = recording_calls(monkeypatch, get_threads)
            decompose(*problem())
        finally:
            monkeypatch.undo()
            suppression._numpy_blas.cache_clear()
            suppression._blas_thread_calls.cache_clear()
        assert res.target.tobytes() == ref.target.tobytes()
        assert res.interference.tobytes() == ref.interference.tobytes()
        assert res.objective_trace == ref.objective_trace
        assert seen and set(seen) == {caller} and get_threads() == caller

    def test_overlapping_calls_from_threads_share_one_limit(self, blas_threads, monkeypatch):
        get_threads, _ = blas_threads
        before = get_threads()
        ref = decompose(*problem())
        seen = recording_calls(monkeypatch, get_threads)
        results, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=lambda: results.extend(decompose(*problem()) for _ in range(3)))
                       for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and len(results) == 12
        assert set(seen) == {1} and get_threads() == before
        assert all(r.target.tobytes() == ref.target.tobytes() for r in results)


def test_numpy_s_own_openblas_serves_the_svt_without_eigh(monkeypatch):
    """Where numpy ships its scipy_openblas, the SVT must find zheevr there and use it.

    Without it the solver falls back to a full eigh at every step, which gives
    the right result slower; a numpy whose OpenBLAS renames the symbol fails here.
    """
    get_threads, _ = suppression._blas_thread_calls()
    if not getattr(get_threads, "__name__", "").startswith("scipy_openblas"):
        pytest.skip("numpy's BLAS exports no scipy_openblas thread-count symbol")
    assert suppression._lapacke_zheevr() is not None
    cfg = dataclasses.replace(cli_io.load_config(CONFIGS / "pipeline2d.json"), seed=1)
    echo = core_model.synthesize_echo(cfg.radar, cfg.aperture, cfg.scene, seed=cfg.seed)
    profiles = imaging.range_compress(core_model.apply_saturation(echo, cfg.saturation), cfg.oversample)
    image = imaging.backproject_2d(profiles, cfg.grid)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: calls.append(1) or eigh(*args, **kwargs))
    res = decompose(image.values, cfg.solver)
    assert res.converged and res.iterations_run > 1 and calls == []


def run_under_pools(args, out_dirs=None):
    """Run python with args under each pool size at once; their stdouts."""
    procs = []
    for k, threads in enumerate(POOL_SIZES):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
        extra = [str(out_dirs[k])] if out_dirs else []
        procs.append(subprocess.Popen([sys.executable, *args, *extra], env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True))
    outputs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (_, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
    return [out for out, _ in outputs]


def test_pipeline_files_are_the_same_bytes_under_any_pool(tmp_path):
    outs = [tmp_path / f"threads{t}" for t in POOL_SIZES]
    args = ["-m", "nfsar.cli_io", "pipeline", "--config", str(CONFIGS / "pipeline2d.json"), "--seed", "1", "--out"]
    run_under_pools(args, outs)
    names = sorted(p.name for p in outs[0].iterdir() if p.is_file())
    assert {"decomposition.json", "objective_trace.csv", "manifest.json"} <= set(names)
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir() if p.is_file()) == names
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), f"{out.name}/{name}"


VOLUME3D = """
import dataclasses, hashlib, json, sys
from nfsar import cli_io, core_model, imaging, suppression
cfg = dataclasses.replace(cli_io.load_config(sys.argv[1]), seed=1)
echo = core_model.synthesize_echo(cfg.radar, cfg.aperture, cfg.scene, seed=cfg.seed)
profiles = imaging.range_compress(core_model.apply_saturation(echo, cfg.saturation), cfg.oversample)
x, c, results = suppression.decompose_image(imaging.backproject_3d(profiles, cfg.grid), cfg.solver)
print(json.dumps({
    "target": hashlib.sha256(x.values.tobytes()).hexdigest(),
    "interference": hashlib.sha256(c.values.tobytes()).hexdigest(),
    "traces": [r.objective_trace for r in results],
    "residual_norms": [r.residual_norm for r in results],
}))
"""


def test_volume3d_decomposition_is_the_same_bits_under_any_pool():
    records = [json.loads(out) for out in run_under_pools(["-c", VOLUME3D, str(CONFIGS / "volume3d.json")])]
    assert records[0]["traces"] and all(r == records[0] for r in records[1:])

"""One BLAS thread per job: the pin, its restore, and the bytes it fixes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn.layers import Linear, Sequential, Tanh
from repro.nn.trainer import Trainer, TrainingConfig
from repro.runtime.engine import run_scoped
from repro.runtime.executor import Task, run_tasks
from repro.utils import blas

SRC = Path(__file__).resolve().parents[2] / "src"


def _count():
    """OpenBLAS's thread count; ``None`` without OpenBLAS."""
    api = blas._openblas()
    return None if api is None else api[0]()


needs_openblas = pytest.mark.skipif(
    _count() is None, reason="numpy is not linked against OpenBLAS"
)


def _pinned_at(count):
    get, set_ = blas._openblas()
    before = get()
    set_(count)
    yield
    set_(before)


@pytest.fixture
def two_threads():
    """OpenBLAS at 2 threads for the test (even on a 1-core host)."""
    yield from _pinned_at(2)


@pytest.fixture
def one_thread():
    yield from _pinned_at(1)


@pytest.fixture
def setter_calls(monkeypatch):
    """Record every getter and setter call :func:`one_blas_thread` makes."""
    get, set_ = blas._openblas()
    calls = []

    def spy_get():
        calls.append("get")
        return get()

    def spy_set(count):
        calls.append(("set", count))
        set_(count)

    monkeypatch.setattr(blas, "_openblas", lambda: (spy_get, spy_set))
    return calls


def _tiny_fit(validation_metric=None, inputs=None):
    rng = np.random.default_rng(0)
    model = Sequential([Linear(6, 3, rng=1), Tanh(), Linear(3, 6, rng=2)])
    x = rng.standard_normal((12, 6)) if inputs is None else inputs
    config = TrainingConfig(epochs=1, batch_size=4, seed=0)
    trainer = Trainer(model, config=config, validation_metric=validation_metric)
    if validation_metric is None:
        return trainer.fit(x, x)
    return trainer.fit(x, x, x, x)


def _probe_metric(seen):
    def metric(model, inputs, targets):
        seen.append(_count())
        return 0.0

    return metric


def _worker_pin_probe(params):
    """In a pool worker: the count, and the setter calls a fit makes."""
    lookup = blas._openblas
    get, set_ = lookup()
    calls = []
    blas._openblas = lambda: (get, lambda count: calls.append(count) or set_(count))
    try:
        seen = []
        _tiny_fit(_probe_metric(seen))
        with blas.one_blas_thread():
            seen.append(get())
    finally:
        blas._openblas = lookup
    return {"count": get(), "seen": seen, "setter_calls": calls}


@needs_openblas
class TestOneBlasThread:
    def test_pins_and_restores_around_a_job(self, two_threads):
        seen = []

        def body(plan):
            seen.append(_count())
            return "done"

        assert run_scoped("probe", False, None, body) == "done"
        assert seen == [1]
        assert _count() == 2

    def test_restores_after_a_job_raises(self, two_threads):
        def body(plan):
            raise KeyError("boom")

        with pytest.raises(KeyError):
            run_scoped("probe", False, None, body)
        assert _count() == 2

    def test_pins_and_restores_around_fit(self, two_threads):
        seen = []
        _tiny_fit(_probe_metric(seen))
        assert seen == [1]
        assert _count() == 2

    def test_restores_after_fit_raises(self, two_threads):
        with pytest.raises(TrainingError):
            _tiny_fit(inputs=np.zeros((0, 6)))
        assert _count() == 2

    def test_nested_blocks_touch_nothing(self, two_threads, setter_calls):
        with blas.one_blas_thread():
            outer = list(setter_calls)
            with blas.one_blas_thread():
                _tiny_fit()
            assert setter_calls == outer
        assert setter_calls == ["get", ("set", 1), ("set", 2)]

    def test_count_already_one_is_left_alone(self, one_thread, setter_calls):
        with blas.one_blas_thread():
            _tiny_fit()
        assert setter_calls == ["get"]
        assert blas._openblas()[0]() == 1

    def test_forked_workers_of_a_pinned_job_never_call_the_setter(self, two_threads):
        tasks = [Task(task_id=f"t{i}", fn=_worker_pin_probe, params={}) for i in range(4)]
        with blas.one_blas_thread():
            results = run_tasks(tasks, n_workers=2)
        assert _count() == 2
        for result in results.values():
            assert result == {"count": 1, "seen": [1, 1], "setter_calls": []}


    def test_concurrent_jobs_share_one_pin(self, two_threads):
        """Eight threads on a 2-core host enter and leave the pin at once."""
        seen = []
        errors = []

        def job():
            try:
                for _ in range(200):
                    with blas.one_blas_thread():
                        seen.append(_count())
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=job) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert seen == [1] * 1600
        assert _count() == 2


#: Trains perfbench ``campaign-16sta`` seed 6's D5 K=1/4 ladder entry at
#: 1 and 2 workers and prints both weight digests.  Its weights moved
#: with the BLAS thread count before jobs were pinned to one thread.
_D5_SCRIPT = textwrap.dedent(
    """
    import dataclasses, json

    from repro.config import Fidelity
    from repro.core.network import NetworkCampaign
    from repro.core.zoo_builder import train_zoo
    from repro.runtime import get_campaign
    from repro.runtime.tasks import clear_memos

    seed = 6
    fidelity = Fidelity(
        name="perfbench-campaign-16sta", n_samples=96, n_sessions=2,
        epochs=4, ber_samples=12, ofdm_symbols=1,
    )
    spec = get_campaign(
        "network-scale", fidelity=fidelity, n_stas=16, n_rounds=40,
        gamma_scale=10.0,
    )
    offset = 1000 * seed
    stas = tuple(
        {
            **sta,
            "seed": sta["seed"] + offset,
            "dataset": {**sta["dataset"], "seed": sta["dataset"]["seed"] + offset},
            "scheme": {**sta["scheme"], "train_seed": seed},
        }
        for sta in spec.stas
    )
    grid = NetworkCampaign(dataclasses.replace(spec, stas=stas))._training_grid()
    (entry,) = [
        e for e in grid.entries if e["label"].startswith("D5 ") and "K=0.25 " in e["label"]
    ]
    grid = dataclasses.replace(grid, entries=(entry,))
    digests = {}
    for workers in (1, 2):
        clear_memos()
        digests[workers] = train_zoo(grid, n_workers=workers).entries[0]["state_sha256"]
    print(json.dumps(digests))
    """
)


def test_trained_weights_ignore_the_blas_thread_setting():
    """One digest at 1 and 2 BLAS threads, at 1 and 2 workers."""
    digests = set()
    for threads in ("1", "2"):
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_RUNTIME_")
        }
        env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _D5_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.update(json.loads(proc.stdout.splitlines()[-1]).values())
    assert len(digests) == 1, digests

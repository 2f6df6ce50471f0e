"""REP-THREAD-ESCAPE's callback trigger: inferred callback-shared races.

The acceptance fixture mirrors the runtime's PR 8 ``_SWEPT_ROOTS`` race:
a once-per-process sweep set mutated from a completion callback.  The
rule must re-detect it from inference alone — no lock declaration, no
module list — and go quiet when the lock is restored.
"""

from __future__ import annotations

PKG = {"app/__init__.py": ""}

# The executor registers a done-callback; the callback stores results
# through the cache, whose first write sweeps crash leftovers exactly
# once per process — bookkept in a module-level set.
EXECUTOR = """\
    from concurrent.futures import ThreadPoolExecutor

    from app.cache import put


    class Runner:
        def __init__(self):
            self.pool = ThreadPoolExecutor(2)

        def _on_done(self, future):
            put("root", future.result())

        def submit(self, task):
            future = self.pool.submit(task)
            future.add_done_callback(self._on_done)
            return future
"""

CACHE_UNLOCKED = """\
    _SWEPT_ROOTS = set()


    def _sweep(root):
        return 0


    def sweep_once(root):
        if root in _SWEPT_ROOTS:
            return 0
        _SWEPT_ROOTS.add(root)
        return _sweep(root)


    def put(root, value):
        sweep_once(root)
        return value
"""

CACHE_LOCKED = """\
    import threading

    _SWEPT_ROOTS = set()
    _SWEPT_LOCK = threading.Lock()


    def _sweep(root):
        return 0


    def sweep_once(root):
        with _SWEPT_LOCK:
            if root in _SWEPT_ROOTS:
                return 0
            _SWEPT_ROOTS.add(root)
        return _sweep(root)


    def put(root, value):
        sweep_once(root)
        return value
"""


class TestSweptRootsRace:
    def test_unlocked_sweep_set_is_detected_by_inference(self, lint):
        files = dict(PKG)
        files["app/executor.py"] = EXECUTOR
        files["app/cache.py"] = CACHE_UNLOCKED
        # note: NO lock in cache.py — the sharing is inferred from the
        # add_done_callback registration alone
        result = lint(files, "REP-THREAD-ESCAPE")
        assert len(result.active) == 1
        finding = result.active[0]
        assert finding.module == "app.cache"
        assert "_SWEPT_ROOTS" in finding.message
        assert "callback thread" in finding.message
        assert finding.chain[0] == "app.executor.Runner._on_done"
        assert finding.chain[-1] == "app.cache.sweep_once"

    def test_restoring_the_lock_silences_it(self, lint):
        files = dict(PKG)
        files["app/executor.py"] = EXECUTOR
        files["app/cache.py"] = CACHE_LOCKED
        result = lint(files, "REP-THREAD-ESCAPE")
        assert result.active == []


class TestSeedInference:
    def test_thread_target_seeds_callback_shared(self, lint):
        files = dict(PKG)
        files["app/spin.py"] = """\
            import threading

            _EVENTS = []


            def watcher():
                _EVENTS.append("tick")


            def start():
                thread = threading.Thread(target=watcher, daemon=True)
                thread.start()
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert len(result.active) == 1
        assert "_EVENTS" in result.active[0].message

    def test_partial_wrapped_callback_resolves(self, lint):
        files = dict(PKG)
        files["app/spin.py"] = """\
            import functools

            _SEEN = {}


            def handler(tag, future):
                _SEEN[tag] = future


            def wire(future):
                future.add_done_callback(functools.partial(handler, "x"))
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert len(result.active) == 1
        assert "_SEEN" in result.active[0].message

    def test_self_attr_mutation_on_callback_path(self, lint):
        files = dict(PKG)
        files["app/spin.py"] = """\
            class Tracker:
                def __init__(self):
                    self.done = []

                def _on_done(self, future):
                    self.done.append(future)

                def wire(self, future):
                    future.add_done_callback(self._on_done)
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert len(result.active) == 1
        assert "'self.done'" in result.active[0].message

    def test_worker_submitted_function_is_not_callback_shared(self, lint):
        # pool.submit targets are not callback seeds: a process pool
        # runs them in their own interpreter, with their own globals
        files = dict(PKG)
        files["app/spin.py"] = """\
            _CACHE = {}


            def job(key):
                _CACHE[key] = 1
                return key


            def start(pool, key):
                return pool.submit(job, key)
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert result.active == []

    def test_coordinator_only_mutation_is_clean(self, lint):
        files = dict(PKG)
        files["app/spin.py"] = """\
            _STATE = {}


            def tick():
                _STATE["n"] = _STATE.get("n", 0) + 1
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert result.active == []


class TestBothTriggers:
    def test_callback_mutation_in_a_lock_module_is_reported_once(self, lint):
        # the module declares a lock AND the handler runs on a callback
        # thread: one finding, carrying the callback chain
        files = dict(PKG)
        files["app/state.py"] = """\
            import threading

            _STATE = {}
            _LOCK = threading.Lock()


            def handler(future):
                _STATE["last"] = future


            def wire(future):
                future.add_done_callback(handler)
        """
        result = lint(files, "REP-THREAD-ESCAPE")
        assert len(result.active) == 1
        finding = result.active[0]
        assert finding.line == 8
        assert "callback thread" in finding.message
        assert finding.chain == ("app.state.handler",)

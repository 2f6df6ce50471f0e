"""The package root: lazy re-exports and what each entry point imports.

``import repro`` loads none of its sub-packages; each name in
``__all__`` is imported on first access.  The import-state tests run in
fresh interpreters, because this test process has long since imported
NumPy and scipy.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
    )


class TestLazyRoot:
    def test_names_are_the_defining_modules_objects(self):
        for module, names in repro._EXPORTS.items():
            for name in names:
                expected = getattr(importlib.import_module(module), name)
                assert getattr(repro, name) is expected, name

    def test_all_lists_every_export_once(self):
        assert repro.__all__[0] == "__version__"
        assert sorted(repro.__all__[1:]) == sorted(repro._ORIGIN)
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_fresh_import_loads_nothing_and_lists_all(self):
        proc = run_python(
            """
            import sys
            import repro
            assert set(repro.__all__) <= set(dir(repro))
            loaded = sorted(m for m in sys.modules if m.startswith("repro."))
            assert loaded == [], loaded
            repro.SMOKE
            loaded = sorted(m for m in sys.modules if m.startswith("repro."))
            assert loaded == ["repro.config", "repro.errors"], loaded
            """
        )
        assert proc.returncode == 0, proc.stderr

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        for name in repro.__all__:
            assert namespace[name] is getattr(repro, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(repro, "no_such_name")
        assert not hasattr(repro, "no_such_name")
        with pytest.raises(ImportError):
            exec("from repro import no_such_name", {})


def test_lint_and_obs_import_no_numpy():
    # The CI lint job installs no NumPy: its linter and trace tools must
    # not pull in the numeric stack through the package root.
    proc = run_python(
        """
        import sys
        import repro.lint, repro.obs
        heavy = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
        assert not heavy, heavy
        """
    )
    assert proc.returncode == 0, proc.stderr


def test_runtime_needs_no_scipy():
    proc = run_python(
        """
        import importlib.abc
        import sys


        class RefuseScipy(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"scipy is not a runtime dependency: {name}")
                return None


        sys.meta_path.insert(0, RefuseScipy())

        import repro

        for name in repro.__all__:
            getattr(repro, name)

        from repro import E2, SMOKE, build_dataset, dataset_spec
        from repro.channels.sampler import CsiSampler
        from repro.phy.ofdm import band_plan
        from repro.sounding.aging import temporal_correlation

        dataset = build_dataset(dataset_spec("D1"), fidelity=SMOKE, seed=0)
        assert dataset.n_samples > 0
        assert E2.shadowing_sigma_db > 0
        sampler = CsiSampler(
            env=E2, n_users=2, n_rx=1, n_tx=2, band=band_plan(20), rng=0
        )
        batches = sampler.collect_session(300)
        assert all(batch.csi.size for batch in batches)
        assert 0.0 < temporal_correlation(5.0, 0.01) < 1.0
        assert "scipy" not in sys.modules
        """
    )
    assert proc.returncode == 0, proc.stderr

"""Tests for parallel zoo training through the runtime engine.

The PR's acceptance properties live here at smoke scale: a training
grid executes through ``repro.runtime`` with bit-identical
manifests/weights for any worker count, and a warm checkpoint store
rebuilds the zoo with zero training epochs executed (asserted through
both builder statistics and the ``@profiled`` trainer timers).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import SMOKE
from repro.core.zoo_builder import (
    checkpoint_spec,
    plan_training_grid,
    train_zoo,
)
from repro.errors import ConfigurationError
from repro.nn.serialize import state_dict, state_digest
from repro.obs import metrics
from repro.runtime import (
    CheckpointStore,
    TrainingGrid,
    fidelity_to_dict,
    get_training_grid,
    training_grid_names,
    zoo_entry,
)


def _grid(entries, name="unit-zoo"):
    return TrainingGrid(
        name=name,
        title="zoo builder unit grid",
        fidelity=fidelity_to_dict(SMOKE),
        entries=tuple(entries),
    )


@pytest.fixture(scope="module")
def grid():
    return _grid(
        (
            zoo_entry("D1 K=1/16", "D1", compression=1 / 16, ber_samples=6),
            zoo_entry("D1 K=1/8", "D1", compression=1 / 8, ber_samples=6),
        )
    )


@pytest.fixture(scope="module")
def cold_result(grid):
    return train_zoo(grid, n_workers=1)


class TestGridSpec:
    def test_registered_presets(self):
        names = training_grid_names()
        for preset in ("compression-ladder", "table2-architectures", "cross-env"):
            assert preset in names

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            get_training_grid("no-such-grid")

    def test_presets_build_valid_grids(self):
        ladder = get_training_grid("compression-ladder")
        assert ladder.n_entries == 3
        table2 = get_training_grid("table2-architectures")
        assert [e["model"]["widths"] for e in table2.entries] == [
            [224, 28, 28, 224],
            [224, 896, 1792, 896, 224],
            [224, 896, 896, 448, 448, 224],
        ]
        cross = get_training_grid("cross-env")
        # 2 configs x 2 bandwidths x 2 envs x 1 compression.
        assert cross.n_entries == 8

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError, match="duplicate label"):
            _grid(
                (
                    zoo_entry("same", "D1", compression=1 / 8),
                    zoo_entry("same", "D1", compression=1 / 4),
                )
            )
        with pytest.raises(ConfigurationError, match="no entries"):
            _grid(())
        bad = dict(zoo_entry("x", "D1"))
        bad["model"] = {**bad["model"], "widths": None, "compression": None}
        with pytest.raises(ConfigurationError, match="widths or compression"):
            _grid((bad,))

    def test_checkpoint_keys_ignore_labels_and_notes(self, grid):
        relabelled = _grid(
            (
                {**grid.entries[0], "label": "renamed", "notes": "other words"},
                grid.entries[1],
            ),
            name="unit-zoo-relabelled",
        )
        original = plan_training_grid(grid, version="v0")
        renamed = plan_training_grid(relabelled, version="v0")
        assert [e.key for e in original] == [e.key for e in renamed]

    def test_compression_and_explicit_widths_share_a_key(self, grid):
        explicit = _grid(
            (
                zoo_entry(
                    "explicit",
                    "D1",
                    widths=(224, 14, 14, 224),
                    ber_samples=6,
                ),
            ),
            name="unit-zoo-explicit",
        )
        sugar = plan_training_grid(grid, version="v0")[0]  # K=1/16 -> 14
        resolved = plan_training_grid(explicit, version="v0")[0]
        assert sugar.key == resolved.key

    def test_tasks_carry_their_resolved_spec_inline(self, grid):
        planned = plan_training_grid(grid, version="v0", n_workers=2)
        for row in planned:
            assert row.task.params is row.spec
            # Plain data, whatever the worker count: the task function
            # receives the spec itself, pickled or not.
            assert json.loads(json.dumps(row.task.params)) == row.spec

    def test_checkpoint_spec_hashes_training_recipe(self, grid):
        spec = plan_training_grid(grid, version="v0")[0].spec
        hashable = checkpoint_spec(spec)
        assert hashable["train"]["epochs"] == SMOKE.epochs
        assert hashable["train"]["optimizer"] == "adam"
        assert "name" not in hashable["fidelity"]
        assert "label" not in hashable and "notes" not in hashable


class TestZooBuild:
    def test_cold_build_trains_everything(self, grid, cold_result):
        assert cold_result.n_entries == 2
        assert cold_result.n_trained == 2 and cold_result.n_cached == 0
        assert cold_result.labels() == ["D1 K=1/16", "D1 K=1/8"]
        zoo = cold_result.zoo()
        assert len(zoo) == 2
        config = zoo.configurations()[0]
        # Most compressed first, as the BOP heuristic expects.
        assert [e.model.bottleneck_dim for e in zoo.candidates(config)] == [
            14,
            28,
        ]
        for row in cold_result.entries:
            assert 0.0 <= row["measured_ber"] <= 1.0
            assert row["history"]["n_epochs"] == SMOKE.epochs
            assert not row["cached"]

    def test_worker_count_does_not_change_a_byte(self, grid, cold_result, tmp_path):
        pooled = train_zoo(grid, n_workers=4)
        assert json.dumps(
            cold_result.to_dict(), sort_keys=True
        ) == json.dumps(pooled.to_dict(), sort_keys=True)
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        cold_result.zoo().save(str(serial_dir))
        pooled.zoo().save(str(pooled_dir))
        serial_files = sorted(p.name for p in serial_dir.iterdir())
        assert serial_files == sorted(p.name for p in pooled_dir.iterdir())
        for name in serial_files:  # manifest JSON and every .npz weight file
            assert (serial_dir / name).read_bytes() == (
                pooled_dir / name
            ).read_bytes(), name

    def test_warm_store_trains_zero_epochs(self, grid, cold_result, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        cold = train_zoo(grid, store=store, n_workers=1)
        assert cold.n_trained == 2 and len(store) == 2
        base = metrics.snapshot()
        warm = train_zoo(grid, store=store, n_workers=1)
        assert warm.n_trained == 0 and warm.n_cached == 2
        assert all(row["cached"] for row in warm.entries)
        # Zero training epochs (and zero fits) ran: the profiled
        # trainer timers did not move.
        timers = metrics.since(base)["timers"]
        assert "trainer.fit" not in timers
        assert "trainer.epoch" not in timers
        # The manifest (keys, weights digests, measured BERs) is
        # byte-identical to the cold build's.
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )
        warm_dir = tmp_path / "warm-zoo"
        cold_dir = tmp_path / "cold-zoo"
        warm.zoo().save(str(warm_dir))
        cold.zoo().save(str(cold_dir))
        for path in sorted(cold_dir.iterdir()):
            assert path.read_bytes() == (warm_dir / path.name).read_bytes()

    def test_loaded_models_hold_exactly_the_checkpointed_weights(
        self, grid, tmp_path
    ):
        # The manifest's state_sha256 digests the checkpoint state, not
        # the model, so only the model's own digest shows that every
        # parameter was built from the checkpointed weights.
        store = CheckpointStore(tmp_path / "ckpt")
        cold = train_zoo(grid, store=store, n_workers=1)
        warm = train_zoo(
            grid, store=CheckpointStore(tmp_path / "ckpt"), n_workers=1
        )
        assert warm.n_cached == 2
        for build in (cold, warm):
            for row in build.entries:
                model = build.entry(row["label"]).model
                assert state_digest(state_dict(model)) == row["state_sha256"]
        rng = np.random.default_rng(3)
        for label in warm.labels():
            warm_model = warm.entry(label).model
            cold_model = cold.entry(label).model
            inputs = rng.standard_normal((5, warm_model.input_dim))
            assert (
                warm_model.forward(inputs).tobytes()
                == cold_model.forward(inputs).tobytes()
            )
            # Its own writable copy, not a view of the record buffer.
            for param in warm_model.parameters():
                assert param.data.flags.writeable
                assert param.data.flags.owndata

    def test_interrupted_build_resumes(self, grid, tmp_path):
        # Checkpoints persist as each training finishes, so a build that
        # dies midway retrains only the missing entries.
        import repro.runtime.tasks as tasks_module

        store = CheckpointStore(tmp_path / "ckpt")
        original = tasks_module.train_zoo_entry
        calls = {"n": 0}

        def dies_on_second(params):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("simulated crash")
            return original(params)

        tasks_module.train_zoo_entry = dies_on_second
        try:
            with pytest.raises(Exception, match="simulated crash"):
                train_zoo(grid, store=store, n_workers=1)
        finally:
            tasks_module.train_zoo_entry = original
        assert len(store) == 1
        resumed = train_zoo(grid, store=store, n_workers=1)
        assert resumed.n_cached == 1 and resumed.n_trained == 1

    def test_health_sections_are_executor_and_checkpoints(self, cold_result):
        assert sorted(cold_result.health) == ["checkpoints", "executor"]
        assert set(cold_result.to_dict(include_health=True)) == set(
            cold_result.to_dict()
        ) | {"health"}

    def test_entry_lookup(self, cold_result):
        entry = cold_result.entry("D1 K=1/8")
        assert entry.model.bottleneck_dim == 28
        assert entry.quantizer_bits == 16
        with pytest.raises(ConfigurationError):
            cold_result.entry("missing")

    def test_manifest_is_deterministic_json(self, grid, cold_result, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        cold_result.write_json(path_a)
        train_zoo(grid, n_workers=1).write_json(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        payload = json.loads(path_a.read_text())
        assert payload["schema_version"] == 1
        assert [e["label"] for e in payload["entries"]] == cold_result.labels()
        for row in payload["entries"]:
            assert "cached" not in row  # transient, never in the artifact
            assert len(row["state_sha256"]) == 64
        assert "wall_s" not in payload

    def test_colliding_grid_needs_label_subset(self, tmp_path):
        # Two models with the same (configuration, architecture) — a
        # seed study — cannot share one deployment zoo; a label subset
        # splits them.
        seeds = _grid(
            (
                zoo_entry(
                    "seed 0", "D1", compression=1 / 16, train_seed=0,
                    ber_samples=6,
                ),
                zoo_entry(
                    "seed 1", "D1", compression=1 / 16, train_seed=1,
                    ber_samples=6,
                ),
            ),
            name="unit-zoo-seeds",
        )
        result = train_zoo(seeds, n_workers=1)
        with pytest.raises(ConfigurationError, match="already has a model"):
            result.zoo()
        assert len(result.zoo(["seed 0"])) == 1
        assert len(result.zoo(["seed 1"])) == 1
        # Different seeds, different weights.
        rows = {row["label"]: row for row in result.entries}
        assert rows["seed 0"]["state_sha256"] != rows["seed 1"]["state_sha256"]

    def test_zoo_drives_a_network_session(self, cold_result, smoke_dataset_2x2):
        from repro.core.session import NetworkSession

        report = NetworkSession(
            smoke_dataset_2x2,
            zoo=cold_result.zoo(),
            samples_per_round=4,
            seed=2,
        ).run(2)
        assert report.n_rounds == 2
        assert all(r.scheme != "802.11" for r in report.rounds)

    def test_train_zoo_accepts_preset_names(self, tmp_path):
        with pytest.raises(ConfigurationError):
            train_zoo("no-such-grid")
        # Overrides only make sense for named presets.
        with pytest.raises(ConfigurationError, match="named grids"):
            train_zoo(
                _grid((zoo_entry("x", "D1"),), name="unit-zoo-override"),
                fidelity=SMOKE,
            )

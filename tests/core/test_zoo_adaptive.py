"""Tests for the model zoo and the runtime QoS selection/adaptation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import (
    AdaptiveCompressionController,
    QosProfile,
    select_model,
)
from repro.core.costs import StaCostModel
from repro.core.model import SplitBeamNet, three_layer_widths
from repro.core.zoo import ModelZoo, NetworkConfiguration, ZooEntry
from repro.errors import ConfigurationError, DatasetError


CONFIG = NetworkConfiguration(n_tx=2, n_rx=1, bandwidth_mhz=20)


def make_entry(
    compression: float,
    ber: float,
    config: NetworkConfiguration = CONFIG,
    quantizer_bits: int | None = 16,
    seed: int = 0,
) -> ZooEntry:
    widths = three_layer_widths(config.input_dim, compression)
    return ZooEntry(
        config=config,
        model=SplitBeamNet(widths, rng=seed),
        quantizer_bits=quantizer_bits,
        measured_ber=ber,
    )


def ladder(bers: dict[float, float]) -> list[ZooEntry]:
    """Entries for K -> BER pairs."""
    return [make_entry(k, ber) for k, ber in bers.items()]


class TestNetworkConfiguration:
    def test_input_dim(self):
        # 2 * Nt * Nr * S = 2 * 2 * 1 * 56 = 224 (Table II's 20 MHz D).
        assert CONFIG.input_dim == 224

    def test_label_roundtrip(self):
        assert NetworkConfiguration.from_label(CONFIG.label()) == CONFIG

    def test_malformed_label(self):
        with pytest.raises(ConfigurationError):
            NetworkConfiguration.from_label("2by1at20")

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            NetworkConfiguration(n_tx=2, n_rx=1, bandwidth_mhz=30)

    def test_invalid_antennas(self):
        with pytest.raises(ConfigurationError):
            NetworkConfiguration(n_tx=0, n_rx=1, bandwidth_mhz=20)


class TestZooEntry:
    def test_model_dim_validated_against_config(self):
        wrong = NetworkConfiguration(n_tx=3, n_rx=1, bandwidth_mhz=20)
        model_for_2x1 = SplitBeamNet(three_layer_widths(CONFIG.input_dim, 1 / 8))
        with pytest.raises(ConfigurationError):
            ZooEntry(
                config=wrong,
                model=model_for_2x1,
                quantizer_bits=16,
                measured_ber=0.01,
            )

    def test_cost_properties(self):
        entry = make_entry(1 / 8, 0.01)
        assert entry.compression == pytest.approx(1 / 8, abs=0.01)
        assert entry.head_flops == 2 * 224 * 28
        assert entry.feedback_bits == 28 * 16

    def test_feedback_bits_without_quantizer(self):
        entry = make_entry(1 / 8, 0.01, quantizer_bits=None)
        assert entry.feedback_bits == 28 * 16  # 16-bit default convention

    def test_ber_range_validated(self):
        with pytest.raises(ConfigurationError):
            make_entry(1 / 8, 1.5)


class TestModelZoo:
    def test_register_and_candidates_sorted(self):
        zoo = ModelZoo()
        for k in (1 / 4, 1 / 32, 1 / 8):
            zoo.register(make_entry(k, 0.01))
        compressions = [e.compression for e in zoo.candidates(CONFIG)]
        assert compressions == sorted(compressions)
        assert len(zoo) == 3

    def test_duplicate_architecture_rejected(self):
        zoo = ModelZoo()
        zoo.register(make_entry(1 / 8, 0.01))
        with pytest.raises(ConfigurationError):
            zoo.register(make_entry(1 / 8, 0.02))

    def test_on_ndp_returns_least_compressed(self):
        zoo = ModelZoo()
        for k in (1 / 32, 1 / 4):
            zoo.register(make_entry(k, 0.01))
        assert zoo.on_ndp(CONFIG).compression == pytest.approx(1 / 4, abs=0.01)

    def test_on_ndp_unknown_config_raises(self):
        zoo = ModelZoo()
        with pytest.raises(ConfigurationError):
            zoo.on_ndp(CONFIG)

    def test_contains_and_configurations(self):
        zoo = ModelZoo()
        assert CONFIG not in zoo
        zoo.register(make_entry(1 / 8, 0.01))
        assert CONFIG in zoo
        assert zoo.configurations() == [CONFIG]

    def test_save_load_roundtrip(self, tmp_path):
        zoo = ModelZoo()
        zoo.register(make_entry(1 / 8, 0.013, seed=1))
        zoo.register(make_entry(1 / 4, 0.007, seed=2))
        zoo.save(str(tmp_path))
        loaded = ModelZoo.load(str(tmp_path))
        assert len(loaded) == 2
        original = zoo.candidates(CONFIG)[0]
        restored = loaded.candidates(CONFIG)[0]
        assert restored.measured_ber == original.measured_ber
        assert restored.model.widths == original.model.widths
        # Weights restored bit-exactly: same forward output.
        x = np.random.default_rng(0).standard_normal((3, CONFIG.input_dim))
        np.testing.assert_allclose(
            restored.model.forward(x), original.model.forward(x)
        )

    def test_load_builds_models_without_an_init_draw(self, tmp_path, monkeypatch):
        from repro.nn import init

        zoo = ModelZoo()
        zoo.register(make_entry(1 / 8, 0.013, seed=1))
        zoo.register(make_entry(1 / 4, 0.007, seed=2))
        zoo.save(str(tmp_path))

        def no_draw(*args, **kwargs):
            raise AssertionError("ModelZoo.load drew initial weights")

        monkeypatch.setattr(init, "glorot_uniform", no_draw)
        # Linear looks its initializer up in this table, not the module.
        for name in list(init._INITIALIZERS):
            monkeypatch.setitem(init._INITIALIZERS, name, no_draw)
        loaded = ModelZoo.load(str(tmp_path))
        x = np.random.default_rng(0).standard_normal((3, CONFIG.input_dim))
        for original, restored in zip(
            zoo.candidates(CONFIG), loaded.candidates(CONFIG)
        ):
            assert restored.model.widths == original.model.widths
            assert (
                restored.model.forward(x).tobytes()
                == original.model.forward(x).tobytes()
            )

    def test_load_rejects_widths_the_archive_does_not_hold(self, tmp_path):
        import json

        zoo = ModelZoo()
        zoo.register(make_entry(1 / 8, 0.013, seed=1))
        zoo.save(str(tmp_path))
        manifest_path = tmp_path / "zoo_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        widths = manifest["entries"][0]["widths"]
        manifest["entries"][0]["widths"] = [widths[0], widths[1] + 1, *widths[2:]]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="widths"):
            ModelZoo.load(str(tmp_path))

    def test_save_removes_unreferenced_npz(self, tmp_path):
        # Saving a shrunk/re-keyed zoo over an old directory must not
        # leave orphaned weight files behind the new manifest.
        big = ModelZoo()
        big.register(make_entry(1 / 8, 0.013, seed=1))
        big.register(make_entry(1 / 4, 0.007, seed=2))
        big.save(str(tmp_path))
        npz_before = {p.name for p in tmp_path.glob("*.npz")}
        assert len(npz_before) == 2

        small = ModelZoo()
        small.register(make_entry(1 / 8, 0.02, seed=3))
        small.save(str(tmp_path))
        npz_after = {p.name for p in tmp_path.glob("*.npz")}
        assert len(npz_after) == 1
        # Round trip: the reloaded zoo is exactly the new one, and the
        # old K=1/4 weights are gone from disk.
        loaded = ModelZoo.load(str(tmp_path))
        assert len(loaded) == 1
        assert loaded.candidates(CONFIG)[0].measured_ber == 0.02
        assert not (npz_after - {p.name for p in tmp_path.glob("*.npz")})

    def test_save_keeps_unrelated_files(self, tmp_path):
        # Only weights the previous manifest referenced are cleaned;
        # unrelated files — even .npz ones the zoo never wrote — survive.
        readme = tmp_path / "README.txt"
        readme.write_text("not a weight file")
        foreign = tmp_path / "my_experiment.npz"
        foreign.write_bytes(b"someone else's arrays")
        old = ModelZoo()
        old.register(make_entry(1 / 4, 0.01, seed=4))
        old.save(str(tmp_path))
        new = ModelZoo()
        new.register(make_entry(1 / 8, 0.01))
        new.save(str(tmp_path))
        assert readme.exists()
        assert foreign.exists()
        # ... while the superseded zoo weight file is gone.
        assert len(list(tmp_path.glob("*.npz"))) == 2  # foreign + new model

    def test_save_interrupted_cleanup_keeps_zoo_loadable(
        self, tmp_path, monkeypatch
    ):
        # The new manifest commits before superseded weights are
        # removed, so a crash during the cleanup never strands a
        # manifest that references missing files.
        old = ModelZoo()
        old.register(make_entry(1 / 4, 0.01, seed=4))
        old.save(str(tmp_path))
        new = ModelZoo()
        new.register(make_entry(1 / 8, 0.02))

        def exploding_remove(path):
            raise OSError("simulated crash during orphan cleanup")

        monkeypatch.setattr("repro.core.zoo.os.remove", exploding_remove)
        with pytest.raises(OSError, match="simulated crash"):
            new.save(str(tmp_path))
        monkeypatch.undo()
        loaded = ModelZoo.load(str(tmp_path))
        assert len(loaded) == 1
        assert loaded.candidates(CONFIG)[0].measured_ber == 0.02

    def test_save_crash_before_manifest_keeps_old_zoo_intact(
        self, tmp_path, monkeypatch
    ):
        # Retrained weights get content-addressed (new) filenames, so a
        # crash before the new manifest commits leaves the OLD manifest
        # paired with the OLD weights — never old metadata over new
        # parameters.
        old = ModelZoo()
        old.register(make_entry(1 / 8, 0.01, seed=1))
        old.save(str(tmp_path))
        retrained = ModelZoo()
        retrained.register(make_entry(1 / 8, 0.02, seed=2))

        def exploding_dump(*args, **kwargs):
            raise OSError("simulated crash before manifest commit")

        monkeypatch.setattr("repro.core.zoo.json.dump", exploding_dump)
        with pytest.raises(OSError, match="simulated crash"):
            retrained.save(str(tmp_path))
        monkeypatch.undo()
        loaded = ModelZoo.load(str(tmp_path))
        restored = loaded.candidates(CONFIG)[0]
        assert restored.measured_ber == 0.01  # the OLD zoo, consistently
        x = np.random.default_rng(0).standard_normal((2, CONFIG.input_dim))
        np.testing.assert_allclose(
            restored.model.forward(x),
            old.candidates(CONFIG)[0].model.forward(x),
        )

    def test_save_sweeps_aged_crash_leftovers(self, tmp_path):
        # A crash mid-save strands '<weights>.npz.tmp.<pid>.npz' /
        # 'zoo_manifest.json.tmp.<pid>' files; the next save removes
        # them once aged (young ones might belong to a concurrent
        # save), leaving unrelated tmp files alone.
        import os
        import time

        stale_weight = tmp_path / (
            "2x1_20MHz_224-28-28-224_0123456789ab.npz.tmp.4242.npz"
        )
        stale_weight.write_bytes(b"torn")
        stale_manifest = tmp_path / "zoo_manifest.json.tmp.4242"
        stale_manifest.write_text("{torn")
        fresh = tmp_path / (
            "2x1_20MHz_224-14-14-224_ba9876543210.npz.tmp.4243.npz"
        )
        fresh.write_bytes(b"in flight")
        unrelated = tmp_path / "notes.txt.tmp.4242"
        unrelated.write_text("not ours")
        old = time.time() - 7200.0
        for path in (stale_weight, stale_manifest, unrelated):
            os.utime(path, (old, old))

        zoo = ModelZoo()
        zoo.register(make_entry(1 / 8, 0.01))
        zoo.save(str(tmp_path))
        assert not stale_weight.exists()
        assert not stale_manifest.exists()
        assert fresh.exists()  # young: possibly a concurrent save
        assert unrelated.exists()  # not the zoo's naming

    def test_save_writes_weights_atomically(self, tmp_path):
        # Re-saving over the same directory reuses filenames; weights go
        # through tmp+rename (no in-place truncation) and leave no
        # write-temp residue behind.
        zoo = ModelZoo()
        zoo.register(make_entry(1 / 8, 0.01, seed=1))
        zoo.save(str(tmp_path))
        again = ModelZoo()
        again.register(make_entry(1 / 8, 0.02, seed=2))
        again.save(str(tmp_path))
        assert not list(tmp_path.glob("*.tmp.*"))
        loaded = ModelZoo.load(str(tmp_path))
        assert loaded.candidates(CONFIG)[0].measured_ber == 0.02

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            ModelZoo.load(str(tmp_path))


class TestQosProfile:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QosProfile(max_ber=0.0)
        with pytest.raises(ConfigurationError):
            QosProfile(max_delay_s=0.0)
        with pytest.raises(ConfigurationError):
            QosProfile(mu=1.0)


class TestSelectModel:
    def make_zoo(self) -> ModelZoo:
        zoo = ModelZoo()
        # BER rises as compression tightens, like Fig. 9.
        for k, ber in [(1 / 32, 0.08), (1 / 16, 0.04), (1 / 8, 0.02), (1 / 4, 0.01)]:
            zoo.register(make_entry(k, ber))
        return zoo

    def test_picks_cheapest_feasible(self):
        zoo = self.make_zoo()
        outcome = select_model(zoo, CONFIG, QosProfile(max_ber=0.05))
        assert outcome.selected is not None
        # K=1/16 (BER 0.04) satisfies gamma=0.05 and costs least.
        assert outcome.selected.compression == pytest.approx(1 / 16, abs=0.01)
        assert not outcome.fell_back

    def test_tight_ber_forces_bigger_bottleneck(self):
        zoo = self.make_zoo()
        outcome = select_model(zoo, CONFIG, QosProfile(max_ber=0.015))
        assert outcome.selected.compression == pytest.approx(1 / 4, abs=0.01)
        assert len(outcome.rejected) == 3

    def test_impossible_ber_falls_back(self):
        zoo = self.make_zoo()
        outcome = select_model(zoo, CONFIG, QosProfile(max_ber=0.001))
        assert outcome.fell_back
        assert "fall back" in outcome.explain()

    def test_delay_constraint_excludes_slow_models(self):
        zoo = self.make_zoo()
        # A cost model so slow nothing meets a 10 ms budget.
        glacial = StaCostModel(sta_flops_per_s=1e3, ap_flops_per_s=1e3)
        outcome = select_model(
            zoo, CONFIG, QosProfile(max_ber=0.5), cost_model=glacial
        )
        assert outcome.fell_back
        assert all("delay" in reason for _, reason in outcome.rejected)

    def test_mu_shifts_choice_documented_in_explain(self):
        zoo = self.make_zoo()
        outcome = select_model(zoo, CONFIG, QosProfile(max_ber=0.05, mu=0.9))
        assert "selected" in outcome.explain()

    def test_empty_config_falls_back(self):
        outcome = select_model(ModelZoo(), CONFIG, QosProfile())
        assert outcome.fell_back

    def test_ber_boundary_exactly_gamma_is_feasible(self):
        # Eq. (7c) is "<= gamma": a model measuring exactly the ceiling
        # must not be rejected.
        zoo = ModelZoo()
        zoo.register(make_entry(1 / 8, 0.05))
        outcome = select_model(zoo, CONFIG, QosProfile(max_ber=0.05))
        assert not outcome.fell_back
        assert outcome.rejected == []

    def test_delay_boundary_exactly_tau_is_feasible(self):
        # Eq. (7d) is "<= tau", mirroring the BER boundary: a model
        # whose end-to-end delay lands exactly on the deadline is
        # feasible, not rejected.
        zoo = ModelZoo()
        entry = make_entry(1 / 8, 0.01)
        zoo.register(entry)
        costs = StaCostModel()
        exact = costs.end_to_end_delay_s(
            entry.head_flops, entry.tail_flops, entry.feedback_bits
        )
        outcome = select_model(
            zoo,
            CONFIG,
            QosProfile(max_ber=0.05, max_delay_s=exact),
            cost_model=costs,
        )
        assert not outcome.fell_back
        assert outcome.rejected == []
        # ... while any deadline strictly below it still rejects.
        tighter = select_model(
            zoo,
            CONFIG,
            QosProfile(max_ber=0.05, max_delay_s=exact * (1 - 1e-9)),
            cost_model=costs,
        )
        assert tighter.fell_back
        assert all("delay" in reason for _, reason in tighter.rejected)


class TestAdaptiveController:
    def make_controller(self, **kwargs) -> AdaptiveCompressionController:
        entries = ladder({1 / 32: 0.08, 1 / 8: 0.02, 1 / 4: 0.01})
        return AdaptiveCompressionController(
            entries, QosProfile(max_ber=0.05), **kwargs
        )

    def test_starts_safest(self):
        controller = self.make_controller()
        assert controller.current.compression == pytest.approx(1 / 4, abs=0.01)

    def test_initial_entry_sets_the_starting_rung(self):
        entries = ladder({1 / 32: 0.08, 1 / 8: 0.02, 1 / 4: 0.01})
        controller = AdaptiveCompressionController(
            entries, QosProfile(max_ber=0.05), initial=entries[1]
        )
        assert controller.current is entries[1]
        # Adaptation still walks the full ladder from there.
        controller.observe(0.2)
        assert controller.current.compression == pytest.approx(1 / 4, abs=0.01)

    def test_initial_entry_must_be_a_candidate(self):
        entries = ladder({1 / 8: 0.02, 1 / 4: 0.01})
        stranger = make_entry(1 / 16, 0.03)
        with pytest.raises(ConfigurationError, match="candidates"):
            AdaptiveCompressionController(
                entries, QosProfile(), initial=stranger
            )

    def test_steps_up_after_patience_good_rounds(self):
        controller = self.make_controller(patience=3)
        for _ in range(2):
            controller.observe(0.001)
            assert controller.current.compression == pytest.approx(1 / 4, abs=0.01)
        controller.observe(0.001)
        # Third consecutive good round: move to the next rung (K=1/8).
        assert controller.current.compression == pytest.approx(1 / 8, abs=0.01)

    def test_steps_down_immediately_on_violation(self):
        controller = self.make_controller(patience=1)
        controller.observe(0.001)  # step up to K=1/8
        assert controller.current.compression == pytest.approx(1 / 8, abs=0.01)
        controller.observe(0.2)  # violation: back off at once
        assert controller.current.compression == pytest.approx(1 / 4, abs=0.01)

    def test_saturates_at_ladder_ends(self):
        controller = self.make_controller(patience=1)
        for _ in range(10):
            controller.observe(0.0)
        assert controller.current.compression == pytest.approx(1 / 32, abs=0.01)
        for _ in range(10):
            controller.observe(0.5)
        assert controller.current.compression == pytest.approx(1 / 4, abs=0.01)

    def test_moderate_ber_resets_streak(self):
        controller = self.make_controller(patience=2)
        controller.observe(0.001)
        controller.observe(0.04)  # inside [margin*γ, γ]: hold, reset streak
        controller.observe(0.001)
        assert controller.current.compression == pytest.approx(1 / 4, abs=0.01)

    def test_history_records_actions(self):
        controller = self.make_controller(patience=1)
        controller.observe(0.001)
        controller.observe(0.2)
        actions = [a for _, a in controller.history]
        assert actions == ["step-up", "step-down"]

    def test_violation_at_safest_rung_recorded_as_saturated(self):
        # A BER violation with no safer rung left is a hard QoS
        # failure; history must distinguish it from an in-band hold so
        # campaign post-mortems can count it.
        controller = self.make_controller()
        controller.observe(0.2)  # starts at the safest rung
        assert controller.history == [(0.2, "saturated")]
        assert controller.saturated_count == 1
        # An in-band measurement is still a plain hold.
        controller.observe(0.04)
        assert controller.history[-1] == (0.04, "hold")
        assert controller.saturated_count == 1

    def test_saturated_repeats_while_violating(self):
        controller = self.make_controller()
        for _ in range(3):
            controller.observe(0.5)
        assert [a for _, a in controller.history] == ["saturated"] * 3
        assert controller.saturated_count == 3

    def test_resumed_controller_steps_like_the_original(self):
        # A chain task resumes a controller from state() over the
        # source's ladder; mid-streak, it must take every later step
        # the original takes.
        controller = self.make_controller(patience=3, step_up_margin=0.4)
        for ber in (0.001, 0.001, 0.001, 0.01):  # step up, then streak 1
            controller.observe(ber)
        resumed = AdaptiveCompressionController.resume(
            controller.ladder, controller.state()
        )
        assert resumed.current is controller.current
        assert resumed.history == []
        for ber in (0.01, 0.001, 0.2, 0.03, 0.001, 0.001, 0.001):
            controller.observe(ber)
            resumed.observe(ber)
            assert resumed.current is controller.current
        assert resumed.history == controller.history[-7:]

    def test_airtime_savings_grow_with_compression(self):
        controller = self.make_controller(patience=1)
        assert controller.airtime_savings == 0.0
        controller.observe(0.0)
        assert controller.airtime_savings > 0.0

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            AdaptiveCompressionController([], QosProfile())
        entries = ladder({1 / 8: 0.01})
        with pytest.raises(ConfigurationError):
            AdaptiveCompressionController(entries, QosProfile(), patience=0)
        with pytest.raises(ConfigurationError):
            AdaptiveCompressionController(
                entries, QosProfile(), step_up_margin=1.0
            )

    def test_invalid_observation(self):
        controller = self.make_controller()
        with pytest.raises(ConfigurationError):
            controller.observe(-0.1)

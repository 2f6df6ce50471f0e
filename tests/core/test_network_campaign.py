"""Tests for the heterogeneous multi-STA network campaign."""

from __future__ import annotations

import importlib.util
import json
import pickle
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro.config import SMOKE
from repro.core import network as network_mod
from repro.core.network import (
    NetworkCampaign,
    campaign_round_spec,
    run_campaign,
)
from repro.core.session import dot11_round_scheme
from repro.datasets import build_dataset, dataset_spec
from repro.errors import ConfigurationError
from repro.obs import metrics
from repro.phy.link import LinkConfig
from repro.runtime import (
    CheckpointStore,
    NetworkCampaignSpec,
    ResultCache,
    RetryPolicy,
    get_campaign,
    mobility_episode,
    parse_plan,
    sta_profile,
)
from repro.runtime.hashing import code_version, task_key
from repro.runtime.tasks import (
    campaign_round_indices,
    clear_memos,
    get_dataset,
    network_dot11,
    network_round,
)

SMOKE_FIDELITY = asdict(SMOKE)

N_STAS = 16
N_ROUNDS = 3


def sixteen_sta_spec() -> NetworkCampaignSpec:
    """The acceptance workload: 16 STAs, heterogeneous in every axis.

    Two bandwidths (D1 @ 20 MHz, D5 @ 40 MHz), SplitBeam ladders and
    802.11 baselines, one STA whose γ no trained model can meet (the
    802.11 fallback path), three device tiers, three Doppler spreads,
    and a mid-campaign mobility burst.
    """
    tiers = ({"sta_flops_per_s": 0.5e9}, {}, {"sta_flops_per_s": 8e9})
    stas = []
    for i in range(N_STAS):
        dataset_id = "D1" if i % 2 == 0 else "D5"
        if i % 4 == 3:
            stas.append(
                sta_profile(
                    f"sta{i:03d}",
                    dataset_id,
                    scheme="dot11",
                    cost=tiers[i % 3],
                    doppler_hz=(0.0, 2.0, 6.0)[i % 3],
                    samples_per_round=2,
                    seed=i,
                )
            )
            continue
        stas.append(
            sta_profile(
                f"sta{i:03d}",
                dataset_id,
                compressions=(1 / 16, 1 / 8) if dataset_id == "D1" else (1 / 8,),
                # SMOKE-fidelity models are rough; γ=0.5 keeps them
                # selectable except for the deliberately impossible STA.
                max_ber=1e-9 if i == 5 else 0.5,
                mu=0.2 + 0.05 * i,
                cost=tiers[i % 3],
                doppler_hz=(0.0, 2.0, 6.0)[i % 3],
                samples_per_round=2,
                seed=i,
            )
        )
    return NetworkCampaignSpec(
        name="test-16sta",
        title="16 heterogeneous STAs",
        fidelity=SMOKE_FIDELITY,
        stas=tuple(stas),
        n_rounds=N_ROUNDS,
        episodes=(
            mobility_episode(0),
            mobility_episode(2, doppler_scale=25.0, snr_offset_db=-6.0),
        ),
    )


@pytest.fixture(scope="module")
def campaign_runs(tmp_path_factory):
    """Cold 1-worker, cold 4-worker, and warm re-runs of the 16-STA spec."""
    root = tmp_path_factory.mktemp("campaign")
    spec = sixteen_sta_spec()
    store = CheckpointStore(root / "store")
    cache_serial = ResultCache(root / "cache-serial")
    cache_pool = ResultCache(root / "cache-pool")

    clear_memos()
    cold_serial = NetworkCampaign(
        spec, cache=cache_serial, store=store, n_workers=1
    ).run()
    clear_memos()
    cold_pool = NetworkCampaign(
        spec, cache=cache_pool, store=store, n_workers=4
    ).run()
    clear_memos()
    base = metrics.snapshot()
    warm = NetworkCampaign(
        spec, cache=cache_serial, store=store, n_workers=1
    ).run()
    warm_profiles = set(metrics.since(base)["timers"])
    return {
        "spec": spec,
        "store": store,
        "cold_serial": cold_serial,
        "cold_pool": cold_pool,
        "warm": warm,
        "warm_profiles": warm_profiles,
    }


class TestDeterminism:
    def test_worker_count_does_not_change_a_byte(self, campaign_runs):
        serial = json.dumps(
            campaign_runs["cold_serial"].to_dict(), sort_keys=True
        )
        pooled = json.dumps(
            campaign_runs["cold_pool"].to_dict(), sort_keys=True
        )
        assert serial == pooled

    def test_warm_rerun_is_byte_identical(self, campaign_runs):
        cold = json.dumps(
            campaign_runs["cold_serial"].to_dict(), sort_keys=True
        )
        warm = json.dumps(campaign_runs["warm"].to_dict(), sort_keys=True)
        assert cold == warm

    def test_warm_rerun_executes_zero_link_simulations(self, campaign_runs):
        warm = campaign_runs["warm"]
        assert warm.n_executed_rounds == 0
        assert warm.n_cached_rounds == N_STAS * N_ROUNDS
        assert warm.zoo_trained == 0
        # The @profiled timers confirm no link simulator ran — and no
        # CSI dataset was even sampled (rounds replay from the store;
        # datasets build lazily only for rounds that execute).
        assert "link.measure_ber" not in campaign_runs["warm_profiles"]
        assert "sampler.collect_session" not in campaign_runs["warm_profiles"]

    def test_cold_runs_executed_everything(self, campaign_runs):
        cold = campaign_runs["cold_serial"]
        assert cold.n_executed_rounds == N_STAS * N_ROUNDS
        assert cold.n_cached_rounds == 0
        assert cold.zoo_trained == 3  # D1 K=1/16, D1 K=1/8, D5 K=1/8

    def test_second_cold_run_loads_zoo_from_store(self, campaign_runs):
        assert campaign_runs["cold_pool"].zoo_trained == 0
        assert campaign_runs["cold_pool"].zoo_cached == 3


def collect_session_calls(base: dict) -> int:
    """Channel-sampling calls timed since ``base`` (workers merged)."""
    timer = metrics.since(base)["timers"].get("sampler.collect_session")
    return timer["calls"] if timer else 0


class TestDatasetBuilds:
    """A cold campaign builds each dataset recipe it needs exactly once.

    Training tasks and the rounds read one per-process memo, and the zoo
    pool forks after the coordinator has built the datasets, so neither
    the serial run nor the pooled one samples a recipe twice.
    """

    @staticmethod
    def _spec() -> NetworkCampaignSpec:
        return NetworkCampaignSpec(
            name="build-count",
            title="one build per recipe",
            fidelity=SMOKE_FIDELITY,
            stas=(
                sta_profile(
                    "sb-d1",
                    "D1",
                    compressions=(1 / 8,),
                    max_ber=0.5,
                    samples_per_round=2,
                    seed=0,
                ),
                sta_profile(
                    "sb-d5",
                    "D5",
                    compressions=(1 / 8,),
                    max_ber=0.5,
                    samples_per_round=2,
                    seed=1,
                ),
                sta_profile(
                    "bl-d1", "D1", scheme="dot11", samples_per_round=2, seed=2
                ),
                # A recipe no ladder trains on: only its rounds need it.
                sta_profile(
                    "bl-d5",
                    "D5",
                    dataset_seed=8,
                    scheme="dot11",
                    samples_per_round=2,
                    seed=3,
                ),
            ),
            n_rounds=2,
        )

    @pytest.fixture(scope="class")
    def one_build_each(self):
        """collect_session calls of building every recipe once."""
        recipes = {
            tuple(sorted(sta["dataset"].items())): sta["dataset"]
            for sta in self._spec().stas
        }
        clear_memos()
        base = metrics.snapshot()
        for recipe in recipes.values():
            build_dataset(
                dataset_spec(recipe["id"]),
                fidelity=SMOKE,
                reset_interval=recipe["reset_interval"],
                seed=recipe["seed"],
            )
        return collect_session_calls(base)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_cold_campaign_builds_each_recipe_once(
        self, one_build_each, n_workers, tmp_path
    ):
        # A fresh checkpoint store: at 2 workers the zoo trains in the
        # pool, whose workers would otherwise build their own datasets.
        clear_memos()
        base = metrics.snapshot()
        result = NetworkCampaign(
            self._spec(),
            cache=ResultCache(tmp_path / "cache"),
            store=CheckpointStore(tmp_path / "store"),
            n_workers=n_workers,
        ).run()
        assert result.zoo_trained == 2
        assert result.n_executed_rounds == 8
        assert collect_session_calls(base) == one_build_each


class TestHeterogeneity:
    def test_modes_cover_all_three_paths(self, campaign_runs):
        modes = campaign_runs["cold_serial"].summary["modes"]
        assert modes["splitbeam"] >= 8
        assert modes["802.11"] == 4  # every fourth STA
        assert modes["802.11-fallback"] == 1  # the γ=1e-9 STA

    def test_fallback_sta_records_selection_and_uses_dot11(
        self, campaign_runs
    ):
        row = campaign_runs["cold_serial"].sta("sta005")
        assert row["mode"] == "802.11-fallback"
        assert row["selection"]["selected"] is None
        assert row["selection"]["rejected"]  # every rung explained
        assert all(r["scheme"] == "802.11" for r in row["rounds"])
        assert all(r["action"] == "n/a" for r in row["rounds"])

    def test_splitbeam_sta_deploys_its_ladder(self, campaign_runs):
        row = campaign_runs["cold_serial"].sta("sta000")
        assert row["mode"] == "splitbeam"
        assert row["selection"]["selected"] is not None
        assert all(r["scheme"] != "802.11" for r in row["rounds"])
        # SplitBeam reports are far smaller than the 802.11 BMR.
        dot11_row = campaign_runs["cold_serial"].sta("sta003")
        assert (
            row["summary"]["mean_feedback_bits"]
            < dot11_row["summary"]["mean_feedback_bits"]
        )

    def test_round_zero_deploys_the_selected_model(self, campaign_runs):
        # The Fig. 1 flow: the Eq. (7) winner is what the STA deploys;
        # the controller adapts *from* it rather than from an unvetted
        # safest rung that selection may have rejected on delay.
        for row in campaign_runs["cold_serial"].stas:
            if row["mode"] == "splitbeam":
                assert (
                    row["rounds"][0]["scheme"]
                    == row["selection"]["selected"]
                )

    def test_mobility_burst_degrades_operating_snr(self, campaign_runs):
        # sta001 (2 Hz Doppler): the round-2 episode scales Doppler by
        # 25x and subtracts 6 dB, so its effective SNR must collapse.
        row = campaign_runs["cold_serial"].sta("sta001")
        calm = row["rounds"][0]["effective_snr_db"]
        burst = row["rounds"][2]["effective_snr_db"]
        assert burst < calm - 6.0

    def test_static_sta_unaffected_by_doppler_scaling(self, campaign_runs):
        # sta000 has zero Doppler: scaling 0 by 25 is still 0, so only
        # the -6 dB offset moves its operating point.
        row = campaign_runs["cold_serial"].sta("sta000")
        calm = row["rounds"][0]["effective_snr_db"]
        burst = row["rounds"][2]["effective_snr_db"]
        assert burst == pytest.approx(calm - 6.0, abs=0.2)

    def test_every_sta_reports_every_round(self, campaign_runs):
        for row in campaign_runs["cold_serial"].stas:
            assert [r["round"] for r in row["rounds"]] == list(range(N_ROUNDS))


class TestAggregation:
    def test_round_rows_sum_sta_feedback_bits(self, campaign_runs):
        result = campaign_runs["cold_serial"]
        for round_row in result.rounds:
            expected = sum(
                row["rounds"][round_row["round"]]["feedback_bits"]
                for row in result.stas
            )
            assert round_row["feedback_bits_total"] == expected

    def test_occupancy_ratio_at_least_occupancy(self, campaign_runs):
        for round_row in campaign_runs["cold_serial"].rounds:
            assert round_row["occupancy_ratio"] >= round_row["occupancy"]
            assert 0.0 < round_row["occupancy"] <= 1.0

    def test_infeasible_rounds_report_zero_goodput(self, campaign_runs):
        for round_row in campaign_runs["cold_serial"].rounds:
            if not round_row["feasible"]:
                assert round_row["goodput_bps"] == 0.0
            else:
                assert round_row["goodput_bps"] > 0.0

    def test_summary_counts_are_consistent(self, campaign_runs):
        result = campaign_runs["cold_serial"]
        assert result.summary["n_stas"] == N_STAS
        assert result.summary["n_rounds"] == N_ROUNDS
        assert sum(result.summary["modes"].values()) == N_STAS
        assert result.summary["hard_qos_failures"] == sum(
            row["summary"]["saturated"] for row in result.stas
        )

    def test_sixteen_stas_tax_the_interval(self, campaign_runs):
        # 16 STAs' sounding within 10 ms eats a substantial airtime
        # fraction even with compressed reports (~26% here) — the
        # paper's scaling argument in campaign form.
        assert campaign_runs["cold_serial"].summary["max_occupancy_ratio"] > 0.2

    def test_manifest_round_trips_through_json(self, campaign_runs, tmp_path):
        path = tmp_path / "manifest.json"
        campaign_runs["cold_serial"].write_json(path)
        payload = json.loads(path.read_text())
        assert payload == campaign_runs["cold_serial"].to_dict()

    def test_unknown_sta_rejected(self, campaign_runs):
        with pytest.raises(ConfigurationError):
            campaign_runs["cold_serial"].sta("nope")


class TestCacheSemantics:
    def test_longer_campaign_reuses_shorter_prefix(self, tmp_path):
        # Round keys exclude n_rounds, so extending a campaign re-uses
        # every cached round and only the new tail executes.
        def spec(n_rounds):
            return NetworkCampaignSpec(
                name="prefix-test",
                title="prefix",
                fidelity=SMOKE_FIDELITY,
                stas=(
                    sta_profile(
                        "a",
                        "D1",
                        compressions=(1 / 8,),
                        max_ber=0.5,
                        samples_per_round=2,
                        seed=0,
                    ),
                    sta_profile(
                        "b", "D1", scheme="dot11", samples_per_round=2, seed=1
                    ),
                ),
                n_rounds=n_rounds,
            )

        cache = ResultCache(tmp_path / "cache")
        store = CheckpointStore(tmp_path / "store")
        clear_memos()
        short = NetworkCampaign(spec(2), cache=cache, store=store).run()
        assert short.n_executed_rounds == 4
        longer = NetworkCampaign(spec(3), cache=cache, store=store).run()
        assert longer.n_cached_rounds == 4
        assert longer.n_executed_rounds == 2
        # The shared prefix is bit-identical between the two runs.
        for name in ("a", "b"):
            assert longer.sta(name)["rounds"][:2] == short.sta(name)["rounds"]

    def test_round_spec_excludes_cosmetic_names(self):
        spec = sixteen_sta_spec()
        payload = campaign_round_spec(spec, spec.stas[0], 1)
        assert "name" not in payload["sta"]
        assert "name" not in payload["campaign"]["fidelity"]
        assert payload["round"] == 1
        # Canonically JSON-able (the cache-key requirement).
        json.dumps(payload, sort_keys=True)

    def test_round_spec_ignores_future_episodes(self):
        # A round's measurement never consults episodes that start
        # later, so neither may its cache key: a campaign whose episode
        # schedule shifted with its length (e.g. mobility-episodes
        # placing its burst at n_rounds // 3) still shares the calm
        # prefix with the shorter run.
        def spec(episodes):
            return NetworkCampaignSpec(
                name="episode-key",
                title="x",
                fidelity=SMOKE_FIDELITY,
                stas=(sta_profile("a", "D1"),),
                n_rounds=8,
                episodes=episodes,
            )

        short = spec((mobility_episode(0), mobility_episode(4, doppler_scale=9.0)))
        longer = spec((mobility_episode(0), mobility_episode(5, doppler_scale=9.0)))
        for round_index in range(4):  # before either burst: shared keys
            assert campaign_round_spec(
                short, short.stas[0], round_index
            ) == campaign_round_spec(longer, longer.stas[0], round_index)
        # From the earlier burst onward the environments diverge.
        assert campaign_round_spec(
            short, short.stas[0], 4
        ) != campaign_round_spec(longer, longer.stas[0], 4)


class TestSpecValidation:
    def test_duplicate_sta_names_rejected(self):
        sta = sta_profile("dup", "D1")
        with pytest.raises(ConfigurationError, match="duplicate"):
            NetworkCampaignSpec(
                name="x",
                title="x",
                fidelity=SMOKE_FIDELITY,
                stas=(sta, dict(sta)),
                n_rounds=1,
            )

    def test_unordered_episodes_rejected(self):
        with pytest.raises(ConfigurationError, match="ordered"):
            NetworkCampaignSpec(
                name="x",
                title="x",
                fidelity=SMOKE_FIDELITY,
                stas=(sta_profile("a", "D1"),),
                n_rounds=2,
                episodes=(mobility_episode(1), mobility_episode(0)),
            )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="scheme"):
            sta_profile("a", "D1", scheme="carrier-pigeon")

    def test_empty_ladder_rejected(self):
        with pytest.raises(ConfigurationError, match="compression"):
            sta_profile("a", "D1", compressions=())

    def test_no_stas_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkCampaignSpec(
                name="x",
                title="x",
                fidelity=SMOKE_FIDELITY,
                stas=(),
                n_rounds=1,
            )

    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkCampaignSpec(
                name="x",
                title="x",
                fidelity=SMOKE_FIDELITY,
                stas=(sta_profile("a", "D1"),),
                n_rounds=0,
            )

    def test_override_kwargs_require_named_campaign(self):
        spec = NetworkCampaignSpec(
            name="x",
            title="x",
            fidelity=SMOKE_FIDELITY,
            stas=(sta_profile("a", "D1"),),
            n_rounds=1,
        )
        with pytest.raises(ConfigurationError, match="named campaigns"):
            run_campaign(spec, n_stas=4)


class TestChaosCampaign:
    """The robustness acceptance gate: chaos costs retries, never bytes."""

    @pytest.fixture(scope="class")
    def chaos_run(self, campaign_runs, tmp_path_factory):
        # One worker hard-crash and a scheduling delay on SplitBeam
        # chains, a first-attempt error on 50% of chains and on every
        # 802.11 STA's task, and torn writes on half the cache entries —
        # all seeded, all recoverable within the default retry budget.
        plan = parse_plan(
            "crash,sta004/rounds-*,count=1;"
            "error,*/rounds-*,rate=0.5,count=1;"
            "error,*/dot11-*,count=1;"
            "delay,sta002/rounds-*,count=1,delay_s=0.01;"
            "torn,cache:*,rate=0.5"
        )
        cache = ResultCache(tmp_path_factory.mktemp("chaos") / "cache")
        clear_memos()
        result = NetworkCampaign(
            campaign_runs["spec"],
            cache=cache,
            store=campaign_runs["store"],
            n_workers=2,
            faults=plan,
        ).run()
        return {"result": result, "cache": cache, "plan": plan}

    def test_plan_errors_chains_and_802_11_tasks(self, chaos_run):
        # Every STA ran one task from round 0, its id naming its kind.
        errors = [r for r in chaos_run["plan"].rules if r.kind == "error"]
        for prefix, chained in (("rounds", True), ("dot11", False)):
            ids = [
                f"{row['name']}/{prefix}-0000-{N_ROUNDS - 1:04d}"
                for row in chaos_run["result"].stas
                if (row["mode"] == "splitbeam") == chained
            ]
            assert ids
            assert any(rule.selects(t) for rule in errors for t in ids)

    def test_chaotic_run_is_byte_identical_to_clean(
        self, campaign_runs, chaos_run
    ):
        clean = json.dumps(
            campaign_runs["cold_serial"].to_dict(), sort_keys=True
        )
        chaotic = json.dumps(
            chaos_run["result"].to_dict(), sort_keys=True
        )
        assert chaotic == clean

    def test_chaos_is_visible_in_health_not_manifest(self, chaos_run):
        result = chaos_run["result"]
        executor = result.health["executor"]
        assert executor["worker_crashes"] >= 1
        assert executor["pool_rebuilds"] >= 1
        assert executor["task_errors"] >= 1
        assert executor["injected_faults"] >= 1
        assert executor["serial_fallbacks"] == 0
        assert executor["failed"] == []
        assert "health" not in result.to_dict()
        assert (
            result.to_dict(include_health=True)["health"] == result.health
        )

    def test_health_sections_are_executor_cache_and_zoo(self, chaos_run):
        result = chaos_run["result"]
        assert sorted(result.health) == ["cache", "executor", "zoo"]
        assert set(result.to_dict(include_health=True)) == set(
            result.to_dict()
        ) | {"health"}

    def test_warm_rerun_quarantines_torn_entries_and_matches(
        self, campaign_runs, chaos_run
    ):
        # The chaotic run committed torn cache entries. A warm, fault-
        # free re-run must quarantine them, recompute those rounds, and
        # still produce the clean bytes.
        clear_memos()
        warm = NetworkCampaign(
            campaign_runs["spec"],
            cache=chaos_run["cache"],
            store=campaign_runs["store"],
            n_workers=1,
        ).run()
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            campaign_runs["cold_serial"].to_dict(), sort_keys=True
        )
        assert warm.health["cache"]["quarantined"] >= 1
        # Every quarantined entry forces a recompute; chained STAs also
        # recompute the tail of rounds behind a torn one.
        assert warm.n_executed_rounds >= warm.health["cache"]["quarantined"]
        assert (
            warm.n_executed_rounds + warm.n_cached_rounds
            == N_STAS * N_ROUNDS
        )


class TestGracefulDegradation:
    """A STA whose chain exhausts retries degrades alone."""

    def _spec(self):
        return NetworkCampaignSpec(
            name="degrade-test",
            title="degradation",
            fidelity=SMOKE_FIDELITY,
            stas=(
                sta_profile(
                    "a",
                    "D1",
                    compressions=(1 / 8,),
                    max_ber=0.5,
                    samples_per_round=2,
                    seed=0,
                ),
                sta_profile(
                    "b", "D1", scheme="dot11", samples_per_round=2, seed=1
                ),
            ),
            n_rounds=3,
        )

    @pytest.fixture(scope="class")
    def degraded_runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("degrade")
        spec = self._spec()
        store = CheckpointStore(root / "store")
        clear_memos()
        clean = NetworkCampaign(
            spec, cache=ResultCache(root / "cache-clean"), store=store
        ).run()
        # A 1-round campaign stores round 0, so STA "a" (chained,
        # splitbeam) resumes with the chain over rounds 1-2.  That chain
        # fails beyond the retry budget: its first round is reported
        # failed, and round 2 behind it skipped.
        cache = ResultCache(root / "cache-chaos")
        NetworkCampaign(replace(spec, n_rounds=1), cache=cache, store=store).run()
        plan = parse_plan("error,a/rounds-0001-0002,count=99")
        clear_memos()
        degraded = NetworkCampaign(
            spec,
            cache=cache,
            store=store,
            policy=RetryPolicy(retries=1, backoff_s=0.0),
            faults=plan,
        ).run()
        return {
            "spec": spec,
            "store": store,
            "cache": cache,
            "clean": clean,
            "degraded": degraded,
        }

    def test_campaign_completes_with_partial_coverage(self, degraded_runs):
        result = degraded_runs["degraded"]
        assert result.summary["degraded_stas"] == ["a"]
        assert result.summary["partial_coverage"] is True
        assert degraded_runs["clean"].summary["degraded_stas"] == []
        assert degraded_runs["clean"].summary["partial_coverage"] is False

    def test_degraded_sta_reports_failed_and_skipped_rounds(
        self, degraded_runs
    ):
        row = degraded_runs["degraded"].sta("a")
        assert [r["round"] for r in row["rounds"]] == [0]
        assert row["degraded"]["n_reported"] == 1
        assert [f["round"] for f in row["degraded"]["failed_rounds"]] == [1]
        assert "InjectedFaultError" in (
            row["degraded"]["failed_rounds"][0]["error"]
        )
        assert row["degraded"]["skipped_rounds"] == [2]

    def test_healthy_sta_is_untouched(self, degraded_runs):
        assert degraded_runs["degraded"].sta("b") == degraded_runs[
            "clean"
        ].sta("b")

    def test_accounting_reflects_completed_rounds_only(self, degraded_runs):
        result = degraded_runs["degraded"]
        # Both STAs' round 0 replay; b's rounds 1-2 execute, a's chain
        # over rounds 1-2 fails as one task.
        assert result.n_cached_rounds == 2
        assert result.n_executed_rounds == 2
        executor = result.health["executor"]
        assert [row["task"] for row in executor["failed"]] == [
            "a/rounds-0001-0002"
        ]

    def test_rerun_resumes_only_the_failed_chain(self, degraded_runs):
        # Every task that finished stored its rounds, so a fault-free
        # re-run executes just the failed chain's two rounds.
        clear_memos()
        rerun = NetworkCampaign(
            degraded_runs["spec"],
            cache=degraded_runs["cache"],
            store=degraded_runs["store"],
        ).run()
        assert rerun.n_cached_rounds == 4
        assert rerun.n_executed_rounds == 2
        assert rerun.to_dict() == degraded_runs["clean"].to_dict()

    @pytest.fixture(scope="class")
    def dot11_degraded(self, degraded_runs, tmp_path_factory):
        # The 802.11 twin: round 0 is stored, then STA "b"'s task over
        # rounds 1-2 fails beyond the retry budget.
        spec, store = degraded_runs["spec"], degraded_runs["store"]
        cache = ResultCache(tmp_path_factory.mktemp("degrade-dot11") / "c")
        NetworkCampaign(replace(spec, n_rounds=1), cache=cache, store=store).run()
        clear_memos()
        degraded = NetworkCampaign(
            spec,
            cache=cache,
            store=store,
            policy=RetryPolicy(retries=1, backoff_s=0.0),
            faults=parse_plan("error,b/dot11-*,count=99"),
        ).run()
        return {"cache": cache, "degraded": degraded}

    def test_failed_dot11_task_reports_first_round_failed_rest_skipped(
        self, degraded_runs, dot11_degraded
    ):
        result = dot11_degraded["degraded"]
        assert result.summary["degraded_stas"] == ["b"]
        row = result.sta("b")
        assert [r["round"] for r in row["rounds"]] == [0]
        assert [f["round"] for f in row["degraded"]["failed_rounds"]] == [1]
        assert "InjectedFaultError" in (
            row["degraded"]["failed_rounds"][0]["error"]
        )
        assert row["degraded"]["skipped_rounds"] == [2]
        assert [r["task"] for r in result.health["executor"]["failed"]] == [
            "b/dot11-0001-0002"
        ]
        assert result.sta("a") == degraded_runs["clean"].sta("a")

    def test_rerun_resumes_only_the_failed_dot11_task(
        self, degraded_runs, dot11_degraded, monkeypatch
    ):
        submitted = TestChainDispatch._spy(monkeypatch)
        clear_memos()
        rerun = NetworkCampaign(
            degraded_runs["spec"],
            cache=dot11_degraded["cache"],
            store=degraded_runs["store"],
        ).run()
        assert submitted == ["b/dot11-0001-0002"]
        assert rerun.n_cached_rounds == 4
        assert rerun.n_executed_rounds == 2
        assert rerun.to_dict() == degraded_runs["clean"].to_dict()

    def test_aggregates_cover_reporting_stas_only(self, degraded_runs):
        result = degraded_runs["degraded"]
        # Rounds 1 and 2 aggregate over STA "b" alone.
        by_round = {row["round"]: row for row in result.rounds}
        assert set(by_round) == {0, 1, 2}
        b_rounds = {r["round"]: r for r in result.sta("b")["rounds"]}
        for idx in (1, 2):
            assert (
                by_round[idx]["feedback_bits_total"]
                == b_rounds[idx]["feedback_bits"]
            )

    def test_degraded_manifest_round_trips_through_json(
        self, degraded_runs, tmp_path
    ):
        path = tmp_path / "degraded.json"
        degraded_runs["degraded"].write_json(path)
        assert json.loads(path.read_text()) == degraded_runs[
            "degraded"
        ].to_dict()


class TestDeadlineAccounting:
    """``deadline_misses`` counts reported rounds only.

    STA "a" deploys the 1/16 rung (the 1/8 rung misses τ and is
    rejected by selection).  A deep blockage makes round 0's BER exceed
    γ, so the controller steps down to the 1/8 rung for round 1 — a
    round that misses τ when it reports, and must not count when its
    chain fails.
    """

    #: τ between the SMOKE D1 rungs' reporting delays (1/16: ~55 µs,
    #: 1/8: ~75 µs at the default device tier); γ between the 1/16
    #: rung's training-time BER (~0.30) and round 0's (~0.46).
    QOS = {"max_ber": 0.35, "max_delay_s": 65e-6}

    def _spec(self, n_rounds: int = 3):
        return NetworkCampaignSpec(
            name="deadline-test",
            title="deadline accounting",
            fidelity=SMOKE_FIDELITY,
            stas=(
                sta_profile(
                    "a",
                    "D1",
                    compressions=(1 / 16, 1 / 8),
                    samples_per_round=2,
                    seed=0,
                    **self.QOS,
                ),
            ),
            n_rounds=n_rounds,
            episodes=(mobility_episode(0, snr_offset_db=-30.0),),
        )

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("deadline")
        store = CheckpointStore(root / "store")
        clear_memos()
        clean = NetworkCampaign(
            self._spec(), cache=ResultCache(root / "cache-clean"), store=store
        ).run()
        cache = ResultCache(root / "cache-chaos")
        NetworkCampaign(self._spec(1), cache=cache, store=store).run()
        degraded = NetworkCampaign(
            self._spec(),
            cache=cache,
            store=store,
            policy=RetryPolicy(retries=0, backoff_s=0.0),
            # STA a's task that starts at round 1: its chain over 1-2.
            faults=parse_plan("error,a/round*-0001*,count=99"),
        ).run()
        return {"clean": clean, "degraded": degraded}

    def test_reported_step_down_misses_the_deadline(self, runs):
        row = runs["clean"].sta("a")
        assert row["selection"]["selected"] == row["rounds"][0]["scheme"]
        assert row["rounds"][0]["action"] == "step-down"
        assert row["rounds"][1]["scheme"] != row["rounds"][0]["scheme"]
        assert row["summary"]["deadline_misses"] == 2  # rounds 1 and 2

    def test_failed_round_does_not_count(self, runs):
        result = runs["degraded"]
        row = result.sta("a")
        assert [r["round"] for r in row["rounds"]] == [0]
        assert [f["round"] for f in row["degraded"]["failed_rounds"]] == [1]
        assert row["degraded"]["skipped_rounds"] == [2]
        assert row["summary"]["deadline_misses"] == 0
        assert result.summary["deadline_misses"] == 0


class TestChainDispatch:
    """Each STA's pending rounds travel as one task.

    A SplitBeam STA's as a chain (``<sta>/rounds-<first>-<last>``), an
    802.11 STA's as one pass (``<sta>/dot11-<first>-<last>``).
    """

    @staticmethod
    def _spy(monkeypatch) -> "list[str]":
        submitted: "list[str]" = []
        run_tasks = network_mod.run_tasks

        def spy(tasks, **kwargs):
            submitted.extend(task.task_id for task in tasks)
            return run_tasks(tasks, **kwargs)

        monkeypatch.setattr(network_mod, "run_tasks", spy)
        return submitted

    def test_cold_campaign_submits_one_task_per_chain(
        self, campaign_runs, monkeypatch, tmp_path
    ):
        submitted = self._spy(monkeypatch)
        clear_memos()
        result = NetworkCampaign(
            campaign_runs["spec"],
            cache=ResultCache(tmp_path / "cache"),
            store=campaign_runs["store"],
            n_workers=1,
        ).run()
        last = N_ROUNDS - 1
        expected = [
            f"{row['name']}/rounds-0000-{last:04d}"
            if row["mode"] == "splitbeam"
            else f"{row['name']}/dot11-0000-{last:04d}"
            for row in result.stas
        ]
        assert sorted(submitted) == sorted(expected)
        assert result.n_executed_rounds == N_STAS * N_ROUNDS
        assert result.to_dict() == campaign_runs["cold_serial"].to_dict()

    def test_chain_tasks_carry_their_ladder_inline(
        self, campaign_runs, monkeypatch, tmp_path
    ):
        submitted: "list" = []
        run_tasks = network_mod.run_tasks

        def spy(tasks, **kwargs):
            submitted.extend(tasks)
            return run_tasks(tasks, **kwargs)

        monkeypatch.setattr(network_mod, "run_tasks", spy)
        clear_memos()
        result = NetworkCampaign(
            campaign_runs["spec"],
            cache=ResultCache(tmp_path / "cache"),
            store=campaign_runs["store"],
            n_workers=1,
        ).run()
        chains = [t for t in submitted if t.fn == network_mod.CHAIN_FN]
        assert len(chains) == sum(
            row["mode"] == "splitbeam" for row in result.stas
        )
        for task in chains:
            row = result.sta(task.task_id.split("/")[0])
            labels = [entry.model.label() for entry in task.params["ladder"]]
            assert row["selection"]["selected"] in labels
            # The models themselves, not a reference a worker resolves:
            # they survive the pickling a pool message applies.
            shipped = pickle.loads(pickle.dumps(task.params))
            assert [e.model.label() for e in shipped["ladder"]] == labels

    def test_pooled_campaign_leaves_the_temp_dir_empty(
        self, campaign_runs, monkeypatch, tmp_path
    ):
        # Task parameters travel in the pool's messages, so a run writes
        # nothing outside its cache and checkpoint store.
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)
        clear_memos()
        result = NetworkCampaign(
            campaign_runs["spec"],
            cache=ResultCache(tmp_path / "cache"),
            store=campaign_runs["store"],
            n_workers=2,
        ).run()
        assert tempfile.gettempdir() == str(scratch)
        assert result.to_dict() == campaign_runs["cold_serial"].to_dict()
        assert list(scratch.iterdir()) == []

    def test_extended_campaign_resumes_each_chain(self, monkeypatch, tmp_path):
        # A blockage at round 0 steps STA "a" down from the selected 1/16
        # rung to its middle 1/8 rung inside the cached prefix, so the
        # resumed chain must start from the controller's post-prefix
        # state: neither the selection nor the safest 1/4 rung.
        def spec(n_rounds):
            return NetworkCampaignSpec(
                name="resume-test",
                title="resume",
                fidelity=SMOKE_FIDELITY,
                stas=(
                    sta_profile(
                        "a",
                        "D1",
                        compressions=(1 / 16, 1 / 8, 1 / 4),
                        max_ber=0.4,
                        samples_per_round=2,
                        seed=0,
                    ),
                    sta_profile(
                        "b", "D1", scheme="dot11", samples_per_round=2, seed=1
                    ),
                ),
                n_rounds=n_rounds,
                episodes=(
                    mobility_episode(0, snr_offset_db=-30.0),
                    mobility_episode(1),
                ),
            )

        store = CheckpointStore(tmp_path / "store")
        cache = ResultCache(tmp_path / "cache")
        clear_memos()
        short = NetworkCampaign(spec(2), cache=cache, store=store).run()
        prefix = short.sta("a")["rounds"]
        assert prefix[0]["scheme"] == short.sta("a")["selection"]["selected"]
        assert prefix[0]["action"] == "step-down"
        assert prefix[1]["scheme"] != prefix[0]["scheme"]
        submitted = self._spy(monkeypatch)
        resumed = NetworkCampaign(spec(4), cache=cache, store=store).run()
        assert submitted == ["a/rounds-0002-0003", "b/dot11-0002-0003"]
        assert resumed.n_cached_rounds == 4
        cold = NetworkCampaign(
            spec(4), cache=ResultCache(tmp_path / "cold"), store=store
        ).run()
        assert resumed.to_dict() == cold.to_dict()
        assert {r["scheme"] for r in resumed.sta("a")["rounds"][1:]} == {
            prefix[1]["scheme"]
        }


    def test_dot11_rounds_with_gaps_run_as_one_task(
        self, monkeypatch, tmp_path
    ):
        # STA b's cache holds rounds 0 and 2 of 4: one task runs exactly
        # the missing rounds 1 and 3.
        spec = NetworkCampaignSpec(
            name="gap-test",
            title="gaps",
            fidelity=SMOKE_FIDELITY,
            stas=(
                sta_profile(
                    "b", "D1", scheme="dot11", samples_per_round=2, seed=1
                ),
            ),
            n_rounds=4,
        )
        clear_memos()
        cold_cache = ResultCache(tmp_path / "cold")
        cold = NetworkCampaign(spec, cache=cold_cache).run()
        cache = ResultCache(tmp_path / "gaps")
        for round_index in (0, 2):
            round_spec = campaign_round_spec(spec, spec.stas[0], round_index)
            key = task_key(
                round_spec, code_version(), kind=network_mod.CAMPAIGN_ROUND_KIND
            )
            cache.put(key, round_spec, cold_cache.get(key))
        submitted: "list" = []
        run_tasks = network_mod.run_tasks

        def spy(tasks, **kwargs):
            submitted.extend(tasks)
            return run_tasks(tasks, **kwargs)

        monkeypatch.setattr(network_mod, "run_tasks", spy)
        resumed = NetworkCampaign(spec, cache=cache).run()
        assert [task.task_id for task in submitted] == ["b/dot11-0001-0003"]
        assert submitted[0].params["rounds"] == [1, 3]
        assert resumed.n_cached_rounds == 2
        assert resumed.n_executed_rounds == 2
        assert resumed.to_dict() == cold.to_dict()


class TestDot11Pass:
    """An 802.11 STA's task keeps every round's bits (``==``, not approx).

    40 rounds of 4 samples at 40 and 80 MHz make batches past the size
    (144 samples at 114 tones, 68 at 242) where numpy splits the noise
    calibration's per-sample sums differently, so a pass that
    calibrated its whole batch at once would move the last bit of some
    rounds.  The rounds have gaps, as an 802.11 STA's pending rounds
    may.
    """

    @pytest.mark.parametrize(
        "dataset_id,link",
        [
            ("D5", {}),
            ("D10", {}),
            ("D5", {"precoder": "rzf"}),
            ("D10", {"precoder": "rzf"}),
            ("D5", {"use_coding": True}),
        ],
    )
    def test_each_round_equals_network_round_alone(self, dataset_id, link):
        rng = np.random.default_rng([int(dataset_id[1:]), len(link)])
        profile = sta_profile(
            "x", dataset_id, scheme="dot11", samples_per_round=4, seed=3
        )
        rounds = sorted(int(r) for r in rng.choice(60, 40, replace=False))
        links = [
            LinkConfig(
                **link,
                snr_db=float(rng.uniform(0.0, 30.0)),
                seed=int(rng.integers(1, 2**31 - 1)),
            )
            for _ in rounds
        ]
        batched = network_dot11(
            {
                "profile": profile,
                "fidelity": SMOKE_FIDELITY,
                "rounds": rounds,
                "links": links,
            }
        )
        dataset = get_dataset(profile["dataset"], SMOKE_FIDELITY)
        assert len(batched) == len(rounds)
        for round_index, round_link, measured in zip(rounds, links, batched):
            indices = campaign_round_indices(dataset, profile, round_index)
            assert indices.size == 4
            alone = network_round(
                {
                    "channels": dataset.link_channels(indices),
                    "link_config": round_link,
                    "scheme": dot11_round_scheme(dataset, indices),
                }
            )
            assert measured == alone, round_index


class TestChaosPlanExample:
    """``examples/network_campaign.py``'s ``--chaos`` plan on the CI smoke."""

    @staticmethod
    def _example():
        path = (
            Path(__file__).resolve().parents[2]
            / "examples"
            / "network_campaign.py"
        )
        spec = importlib.util.spec_from_file_location("campaign_example", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_plan_crashes_chains_only_and_errors_an_802_11_task(self):
        # The smoke: --fidelity smoke --stas 6 --rounds 3 --gamma-scale 10.
        spec = get_campaign(
            "network-scale", fidelity=SMOKE, n_stas=6, n_rounds=3, gamma_scale=10
        )
        dot11 = [
            f"{sta['name']}/dot11-0000-0002"
            for sta in spec.stas
            if sta["scheme"]["kind"] == "dot11"
        ]
        chains = [
            f"{sta['name']}/rounds-0000-0002"
            for sta in spec.stas
            if sta["scheme"]["kind"] == "splitbeam"
        ]
        assert dot11 and chains
        plan = parse_plan(self._example().CHAOS_PLAN)
        crashes = [r for r in plan.rules if r.kind == "crash"]
        errors = [r for r in plan.rules if r.kind == "error"]
        # A crash can only come from a chain, so an observed crash proves
        # the plan reached one.
        assert any(rule.selects(t) for rule in crashes for t in chains)
        assert not any(rule.selects(t) for rule in crashes for t in dot11)
        assert any(rule.selects(t) for rule in errors for t in dot11)


class TestPresetExecution:
    def test_heterogeneous_qos_preset_runs_by_name(self, tmp_path):
        clear_memos()
        result = run_campaign(
            "heterogeneous-qos",
            fidelity=SMOKE,
            cache=ResultCache(tmp_path / "cache"),
            store=CheckpointStore(tmp_path / "store"),
            n_stas=3,
            n_rounds=2,
        )
        assert result.campaign == "heterogeneous-qos"
        assert result.summary["n_stas"] == 3
        # The strictest-γ STA cannot be served by SMOKE-grade models.
        assert result.summary["modes"].get("802.11-fallback", 0) >= 1
        assert result.n_executed_rounds == 6

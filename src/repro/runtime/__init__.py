"""``repro.runtime``: parallel experiment orchestration.

The figure benchmarks, sweeps, and session campaigns all expand to grids
of *pure, seeded* measurement tasks.  This package turns those grids
into explicit plans and executes them with reuse:

- :mod:`repro.runtime.spec` — declarative :class:`Scenario` specs
  (dataset, scheme, link grids) expressed as plain JSON-able mappings;
- :mod:`repro.runtime.registry` — named scenario presets covering the
  paper's figures plus new workloads (160 MHz, mobility, multi-user
  scaling, cross-environment matrices);
- :mod:`repro.runtime.planner` — expands a scenario into a wave of
  independent tasks with stable content-addressed keys;
- :mod:`repro.runtime.executor` — runs a wave of independent tasks on
  a worker pool (with a deterministic in-process fallback); results are
  bit-identical to serial execution because every task is a pure
  function of its parameters, which travel inline with it;
- :mod:`repro.runtime.cache` — content-addressed result store keyed by
  (task spec, code version) so re-runs and overlapping scenarios skip
  completed points;
- :mod:`repro.runtime.store` — the crash-safe packed segment store
  underneath the result cache and checkpoint store: CRC-framed records
  in bounded append-only segments, an atomic index snapshot, recovery
  scans, compaction, and cross-process locking;
- :mod:`repro.runtime.faults` — deterministic, seeded fault injection
  (task errors, worker crashes, delays, torn store writes) for testing
  the executor's retries, pool rebuilds, and store quarantine;
- :mod:`repro.runtime.engine` — the :class:`ExperimentEngine` tying
  planner, executor, and cache together.

See ``docs/runtime.md`` for the scenario format, cache layout, worker
model, and determinism guarantees.
"""

from repro.runtime.cache import ResultCache, default_cache_root
from repro.runtime.checkpoints import (
    Checkpoint,
    CheckpointStore,
    default_checkpoint_root,
)
from repro.runtime.engine import EngineRun, ExperimentEngine
from repro.runtime.executor import (
    RetryPolicy,
    RunHealth,
    Task,
    TaskExecutionError,
    resolve_worker_count,
    run_tasks,
)
from repro.runtime.faults import (
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    active_plan,
    install,
    parse_plan,
)
from repro.runtime.hashing import (
    canonical_json,
    code_version,
    state_digest,
    task_key,
)
from repro.runtime.planner import PlannedTask, plan_scenario
from repro.runtime.store import SegmentStore, StoreHealth
from repro.runtime.registry import (
    campaign_names,
    get_campaign,
    get_scenario,
    get_training_grid,
    register_campaign,
    register_scenario,
    register_training_grid,
    scenario_names,
    training_grid_names,
)
from repro.runtime.spec import (
    NetworkCampaignSpec,
    Scenario,
    TrainingGrid,
    dot11,
    fidelity_from_dict,
    fidelity_to_dict,
    grid,
    ideal,
    lbscifi,
    mobility_episode,
    point,
    splitbeam,
    sta_profile,
    zoo_entry,
)

__all__ = [
    "Scenario",
    "TrainingGrid",
    "NetworkCampaignSpec",
    "point",
    "zoo_entry",
    "sta_profile",
    "mobility_episode",
    "grid",
    "dot11",
    "ideal",
    "lbscifi",
    "splitbeam",
    "fidelity_to_dict",
    "fidelity_from_dict",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "register_training_grid",
    "get_training_grid",
    "training_grid_names",
    "register_campaign",
    "get_campaign",
    "campaign_names",
    "PlannedTask",
    "plan_scenario",
    "Task",
    "TaskExecutionError",
    "RetryPolicy",
    "RunHealth",
    "run_tasks",
    "resolve_worker_count",
    "FaultPlan",
    "FaultRule",
    "InjectedFaultError",
    "parse_plan",
    "install",
    "active_plan",
    "StoreHealth",
    "SegmentStore",
    "ResultCache",
    "default_cache_root",
    "Checkpoint",
    "CheckpointStore",
    "default_checkpoint_root",
    "canonical_json",
    "code_version",
    "state_digest",
    "task_key",
    "EngineRun",
    "ExperimentEngine",
]

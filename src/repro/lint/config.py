"""Configuration for the determinism & concurrency linter.

:class:`LintConfig` describes the project layout: task-root modules,
the sanctioned env module, shipped classes, key functions and task
constructors.  Fixture tests set its fields to point the analyzer at
synthetic projects without touching the defaults the CLI enforces on
the real tree.  The module-level constants below are the rules' fixed
vocabularies (nondeterministic calls, cosmetic keys, lock-name hints,
callback registrations, unordered sources); the rules read them
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fully-qualified external calls that are nondeterministic per se:
#: wall clocks, entropy sources, and process identity.
NONDET_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getpid",
        "os.getppid",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.choice",
    }
)

#: Module prefixes whose *module-level* functions draw from hidden
#: global RNG state.  Seeded constructors are explicitly allowed.
NONDET_PREFIXES = ("numpy.random.", "random.")

#: Names under the nondet prefixes that are deterministic when seeded
#: (constructing a generator is fine; drawing from the global one is not).
NONDET_PREFIX_ALLOWED = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.BitGenerator",
        "random.Random",
    }
)

#: Builtins whose value depends on process identity or PYTHONHASHSEED.
NONDET_BUILTINS = frozenset({"id", "hash"})

#: Dict keys that are cosmetic/display-only and must never feed a
#: content address (REP-HASH-INPUT).
COSMETIC_KEYS = frozenset(
    {"name", "label", "title", "description", "display_name", "comment", "note"}
)

#: Attribute-name conventions marking per-instance transient caches
#: that ``__getstate__`` must strip before a class ships over IPC.
TRANSIENT_PREFIXES = ("_cached", "_cache", "_scratch", "_memo", "_tmp")
TRANSIENT_EXACT = frozenset({"_mask"})

#: Substrings identifying a lock-ish name (case-insensitive).
LOCK_NAME_HINTS = ("lock", "mutex", "guard")

#: Method attributes registering a completion callback that will run on
#: an executor/coordinator thread (thread-escape seed discovery).
CALLBACK_REGISTER_ATTRS = frozenset({"add_done_callback"})

#: Constructors that spawn a coordinator-side thread around a callable.
THREAD_FACTORIES = frozenset({"threading.Thread", "threading.Timer"})

#: External calls producing an iteration order that varies run to run
#: (filesystem enumeration); iterating them while accumulating floats
#: is the REP-REDUCTION-ORDER bug family.
UNORDERED_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Method attributes with the same property (``Path.iterdir``).
UNORDERED_ATTRS = frozenset({"iterdir", "glob", "rglob"})

#: Order-independent accumulators (exact float summation).
ORDER_SAFE_CALLS = frozenset({"math.fsum"})


@dataclass
class LintConfig:
    """The project layout the rules consult."""

    #: Modules whose ``__all__`` functions are the task roots REP-NONDET
    #: walks the call graph from.
    task_root_modules: tuple[str, ...] = ("repro.runtime.tasks",)

    #: Explicit extra root functions (fully qualified), mainly for tests.
    task_root_functions: tuple[str, ...] = ()

    #: The only modules allowed to touch ``os.environ`` (REP-ENV-READ).
    sanctioned_env_modules: tuple[str, ...] = ("repro.runtime.knobs",)

    #: Base classes whose subclasses cross IPC inline, by pickle
    #: (REP-GETSTATE-CACHE walks project subclasses of these).
    shipped_bases: tuple[str, ...] = (
        "repro.nn.module.Module",
        "repro.nn.module.Parameter",
    )

    #: Additional shipped classes that do not subclass a shipped base.
    shipped_classes: tuple[str, ...] = (
        "repro.standard.quantization.BottleneckQuantizer",
    )

    #: Functions whose first argument is hashed into a content address
    #: (REP-HASH-INPUT inspects their spec arguments; REP-KEY-COVERAGE
    #: anchors root/key-builder binding inference on their call sites).
    key_functions: tuple[str, ...] = (
        "repro.runtime.hashing.task_key",
        "repro.runtime.hashing.canonical_json",
    )

    #: Task-constructor classes: a function that calls ``task_key`` and
    #: builds one of these with ``fn=<"module:function">`` in the same
    #: body binds that task root to the key-spec builder
    #: (REP-KEY-COVERAGE inference).
    task_constructors: tuple[str, ...] = ("repro.runtime.executor.Task",)

    #: Explicit (task_root_fq, key_builder_fq) bindings for roots the
    #: planner-site inference cannot see; an empty builder means the
    #: spec is hashed as-is.  Mainly for fixtures.
    key_bindings: tuple[tuple[str, str], ...] = ()

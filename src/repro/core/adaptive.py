"""Runtime model selection against QoS constraints (Fig. 1, Sec. IV-B).

The BOP (Eq. (7)) is solved *offline* by training a ladder of models at
different compression levels; what remains at run time is a selection
problem: given the announced network configuration, the application's
BER ceiling γ and delay budget τ, and the device's cost model, pick the
cheapest trained model that satisfies both constraints — or report that
none does, in which case the STA falls back to the 802.11 path.

Two layers:

- :func:`select_model` — the one-shot constrained choice (Eq. (7a)
  objective under the (7c)/(7d) constraints);
- :class:`AdaptiveCompressionController` — a run-time hysteresis
  controller that walks the compression ladder as *measured* BER drifts
  away from the training-time estimate (e.g. when the propagation
  environment changes), re-creating the paper's "heterogeneous devices
  and a wide range of performance requirements" scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.core.costs import StaCostModel
from repro.core.zoo import ModelZoo, NetworkConfiguration, ZooEntry

__all__ = [
    "QosProfile",
    "SelectionOutcome",
    "select_model",
    "AdaptiveCompressionController",
]


@dataclass(frozen=True)
class QosProfile:
    """Application requirements: the γ/τ/µ knobs of Eq. (7).

    ``mu`` weights STA overhead against feedback airtime in the
    objective — resource-constrained devices use mu close to 1, dense
    dynamic environments use mu close to 0 (Sec. IV-B discussion).
    """

    max_ber: float = 0.05
    max_delay_s: float = 10e-3
    mu: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.max_ber <= 1.0:
            raise ConfigurationError("max_ber must be in (0, 1]")
        if self.max_delay_s <= 0:
            raise ConfigurationError("max_delay_s must be positive")
        if not 0.0 < self.mu < 1.0:
            raise ConfigurationError("mu must be in (0, 1) per Eq. (7b)")


@dataclass
class SelectionOutcome:
    """Result of one selection pass over a configuration's candidates."""

    selected: ZooEntry | None
    rejected: list[tuple[ZooEntry, str]] = field(default_factory=list)

    @property
    def fell_back(self) -> bool:
        """True when no trained model satisfied the constraints."""
        return self.selected is None

    def explain(self) -> str:
        """Human-readable account of the decision."""
        lines = []
        for entry, reason in self.rejected:
            lines.append(f"rejected {entry.model.label()}: {reason}")
        if self.selected is None:
            lines.append("no feasible model -> fall back to 802.11 feedback")
        else:
            lines.append(f"selected {self.selected.model.label()}")
        return "\n".join(lines)


def select_model(
    zoo: ModelZoo,
    config: NetworkConfiguration,
    qos: QosProfile,
    cost_model: StaCostModel | None = None,
) -> SelectionOutcome:
    """Pick the cheapest feasible model for one configuration.

    Feasibility follows Eq. (7c)/(7d): the entry's measured BER must not
    exceed ``qos.max_ber`` and its end-to-end reporting delay (head
    compute + feedback airtime + tail compute, from ``cost_model``) must
    stay under ``qos.max_delay_s``.  Among feasible entries the Eq. (7a)
    objective ``mu * L^H + (1 - mu) * T^A`` picks the winner.
    """
    costs = cost_model or StaCostModel()
    best: ZooEntry | None = None
    best_objective = float("inf")
    rejected: list[tuple[ZooEntry, str]] = []
    for entry in zoo.candidates(config):
        if entry.measured_ber > qos.max_ber:
            rejected.append(
                (entry, f"BER {entry.measured_ber:.4f} > γ={qos.max_ber:.4f}")
            )
            continue
        delay = costs.end_to_end_delay_s(
            entry.head_flops, entry.tail_flops, entry.feedback_bits
        )
        # Eq. (7d) is an inequality budget (delay <= tau), mirroring the
        # (7c) BER check above: a model that lands exactly on the
        # deadline is feasible.
        if delay > qos.max_delay_s:
            rejected.append(
                (entry, f"delay {delay * 1e3:.3f} ms > τ={qos.max_delay_s * 1e3:.3f} ms")
            )
            continue
        objective = costs.bop_objective(
            entry.head_flops,
            entry.tail_flops,
            entry.feedback_bits,
            mu=qos.mu,
        )
        if objective < best_objective:
            best, best_objective = entry, objective
    return SelectionOutcome(selected=best, rejected=rejected)


class AdaptiveCompressionController:
    """Hysteresis controller walking the compression ladder at run time.

    The zoo's training-time BER estimates can go stale when the channel
    statistics drift (the paper's cross-environment experiments measure
    exactly that gap).  This controller reacts to *measured* BER:

    - a single observation above ``qos.max_ber`` steps **down** the
      ladder (less compression, more accuracy) immediately;
    - ``patience`` consecutive observations below
      ``step_up_margin * qos.max_ber`` step **up** (more compression).

    The asymmetry (fast back-off, slow ramp-up) is the classic
    congestion-control shape: violating the application's BER ceiling is
    costly, wasting some airtime is not.
    """

    def __init__(
        self,
        candidates: list[ZooEntry],
        qos: QosProfile,
        patience: int = 3,
        step_up_margin: float = 0.5,
        initial: "ZooEntry | None" = None,
    ) -> None:
        if not candidates:
            raise ConfigurationError("controller needs at least one candidate")
        if patience < 1:
            raise ConfigurationError("patience must be >= 1")
        if not 0.0 < step_up_margin < 1.0:
            raise ConfigurationError("step_up_margin must be in (0, 1)")
        # Most compressed first, like the zoo's buckets.
        self.ladder = sorted(candidates, key=lambda e: e.compression)
        self.qos = qos
        self.patience = patience
        self.step_up_margin = step_up_margin
        # Start at the most accurate (least compressed) rung unless the
        # caller already ran the Eq. (7) selection — then deploy its
        # choice and adapt from there.
        self._index = len(self.ladder) - 1
        if initial is not None:
            for index, entry in enumerate(self.ladder):
                if entry is initial:
                    self._index = index
                    break
            else:
                raise ConfigurationError(
                    "initial model must be one of the candidates"
                )
        self._good_streak = 0
        self.history: list[tuple[float, str]] = []

    @property
    def current(self) -> ZooEntry:
        """The model currently in use."""
        return self.ladder[self._index]

    def state(self) -> dict:
        """Everything :meth:`observe` reads apart from the ladder.

        With :attr:`ladder`, :meth:`resume` rebuilds a controller that
        steps exactly like this one — a few scalars to ship where a deep
        copy would drag the models along.
        """
        return {
            "qos": self.qos,
            "patience": self.patience,
            "step_up_margin": self.step_up_margin,
            "index": self._index,
            "good_streak": self._good_streak,
        }

    @classmethod
    def resume(
        cls, ladder: "list[ZooEntry]", state: dict
    ) -> "AdaptiveCompressionController":
        """A controller at ``state`` (see :meth:`state`) over ``ladder``.

        ``ladder`` is the source controller's (already sorted)
        :attr:`ladder`; the history starts empty.
        """
        controller = cls(
            ladder,
            state["qos"],
            patience=state["patience"],
            step_up_margin=state["step_up_margin"],
        )
        controller._index = state["index"]
        controller._good_streak = state["good_streak"]
        return controller

    def observe(self, measured_ber: float) -> ZooEntry:
        """Feed one BER measurement; returns the (possibly new) model."""
        if not 0.0 <= measured_ber <= 1.0:
            raise ConfigurationError("measured_ber must be in [0, 1]")
        action = "hold"
        if measured_ber > self.qos.max_ber:
            if self._index < len(self.ladder) - 1:
                self._index += 1
                action = "step-down"
            else:
                # Already at the safest rung with γ still violated: a
                # hard QoS failure, not an in-band hold — campaign
                # post-mortems count these separately.
                action = "saturated"
            self._good_streak = 0
        elif measured_ber < self.step_up_margin * self.qos.max_ber:
            self._good_streak += 1
            if self._good_streak >= self.patience and self._index > 0:
                self._index -= 1
                self._good_streak = 0
                action = "step-up"
        else:
            self._good_streak = 0
        self.history.append((measured_ber, action))
        return self.current

    @property
    def saturated_count(self) -> int:
        """Rounds where γ was violated with no safer rung left."""
        return sum(1 for _, action in self.history if action == "saturated")

    @property
    def airtime_savings(self) -> float:
        """Feedback-bit saving of the current rung vs the safest rung."""
        safest = self.ladder[-1].feedback_bits
        if safest == 0:
            return 0.0
        return 1.0 - self.current.feedback_bits / safest

"""Fidelity presets scaling experiment cost.

The paper's settings (10,000 samples per dataset, 40 training epochs)
are hours of laptop compute across all experiments; ``FAST`` keeps every
pipeline identical but shrinks sample counts so the benchmark suite
finishes in minutes.

Two regimes matter (see ``docs/conventions.md``, § Fidelity presets):

- **single-environment** (``FAST``/``PAPER``): the paper's own protocol —
  train and test splits come from the same collection campaign, whose
  samples are temporally correlated.  A small ``reset_interval`` is not
  needed; models reach BERs close to 802.11.
- **transfer** (``TRANSFER``): cross-environment evaluation needs the
  model to learn the channel-to-beamforming *map* rather than the
  campaign's channel manifold, which requires more independent channel
  realizations (small ``reset_interval``), more samples, and more
  epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["Fidelity", "PAPER", "FAST", "TRANSFER", "SMOKE", "fidelity"]


@dataclass(frozen=True)
class Fidelity:
    """Knobs that trade reproduction fidelity for runtime."""

    name: str
    n_samples: int  # CSI samples per dataset
    n_sessions: int  # measurement sessions per dataset
    epochs: int  # training epochs
    ber_samples: int  # CSI samples used per BER measurement
    ofdm_symbols: int  # OFDM symbols per BER frame
    reset_interval: int = 40  # packets between channel re-randomization

    def __post_init__(self) -> None:
        for field_name in (
            "n_samples",
            "n_sessions",
            "epochs",
            "ber_samples",
            "reset_interval",
        ):
            if getattr(self, field_name) < 1:
                raise ConfigurationError(f"{field_name} must be >= 1")


#: The paper's settings (Sec. IV-D, V-B).
PAPER = Fidelity(
    name="paper",
    n_samples=10_000,
    n_sessions=20,
    epochs=40,
    ber_samples=400,
    ofdm_symbols=2,
    reset_interval=25,
)

#: Default for benchmarks: same pipelines, laptop-scale runtime.  Keeps
#: the paper's 40 training epochs (they dominate final BER) and shrinks
#: only the dataset and BER-measurement sizes.
FAST = Fidelity(
    name="fast",
    n_samples=600,
    n_sessions=6,
    epochs=40,
    ber_samples=60,
    ofdm_symbols=1,
    reset_interval=40,
)

#: Cross-environment experiments: high channel-realization diversity so
#: the trained map generalizes beyond its own collection campaign.
TRANSFER = Fidelity(
    name="transfer",
    n_samples=3000,
    n_sessions=8,
    epochs=80,
    ber_samples=60,
    ofdm_symbols=1,
    reset_interval=8,
)

#: Minimal preset for unit tests.
SMOKE = Fidelity(
    name="smoke",
    n_samples=96,
    n_sessions=2,
    epochs=4,
    ber_samples=12,
    ofdm_symbols=1,
    reset_interval=40,
)

_PRESETS = {p.name: p for p in (PAPER, FAST, TRANSFER, SMOKE)}


def fidelity(name: str) -> Fidelity:
    """Look up a preset by name (``paper``, ``fast``, ``transfer``, ``smoke``)."""
    try:
        return _PRESETS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown fidelity {name!r}; options: {sorted(_PRESETS)}"
        ) from None

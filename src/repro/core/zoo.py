"""Trained-model registry: the deployment half of Fig. 1.

The paper's deployment story (Sec. IV-D): "SplitBeam is trained offline
for various network configurations and does not require retraining.  The
STAs select the proper trained DNN according to the network configuration
information acquired from the NDP preamble."  This module is that
catalog: a :class:`ModelZoo` maps a :class:`NetworkConfiguration` (what
the NDP preamble announces) to the trained models available for it, one
per compression level, each carrying the measured BER and cost numbers
the runtime selector (``repro.core.adaptive``) needs.

Zoos persist to a directory of ``.npz`` weight files plus a JSON
manifest, so an AP can ship one artifact to heterogeneous STAs.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass
from functools import partial

from repro.errors import ConfigurationError, DatasetError
from repro.core.costs import splitbeam_feedback_bits, splitbeam_head_flops
from repro.core.model import SplitBeamNet
from repro.core.training import TrainedSplitBeam
from repro.nn.serialize import (
    model_from_state,
    read_state,
    save_state,
    state_dict,
    state_digest,
)
from repro.phy.ofdm import band_plan

__all__ = ["NetworkConfiguration", "ZooEntry", "ModelZoo"]

_MANIFEST_NAME = "zoo_manifest.json"

#: The zoo's own content-addressed weight filenames, e.g.
#: ``2x1_20MHz_224-28-28-224_0f3a9c21bd5e.npz`` — save() only ever
#: cleans files matching this (or referenced by a manifest it wrote),
#: never unrelated ``.npz`` artifacts.
_WEIGHT_FILE_RE = re.compile(
    r"^\d+x\d+_\d+MHz_\d+(?:-\d+)+_[0-9a-f]{12}\.npz$"
)


@dataclass(frozen=True)
class NetworkConfiguration:
    """The MIMO/band configuration announced in the NDP preamble.

    This is the lookup key a STA uses to pick its trained DNN: antenna
    counts and channel width determine the model's input dimension, so a
    model trained for one configuration cannot serve another.
    """

    n_tx: int
    n_rx: int
    bandwidth_mhz: int

    def __post_init__(self) -> None:
        if self.n_tx < 1 or self.n_rx < 1:
            raise ConfigurationError("antenna counts must be >= 1")
        band_plan(self.bandwidth_mhz)  # validates the bandwidth

    @property
    def n_subcarriers(self) -> int:
        return band_plan(self.bandwidth_mhz).n_subcarriers

    @property
    def input_dim(self) -> int:
        """Flattened real CSI dimension ``2 * Nt * Nr * S``."""
        return 2 * self.n_tx * self.n_rx * self.n_subcarriers

    def label(self) -> str:
        return f"{self.n_tx}x{self.n_rx}@{self.bandwidth_mhz}MHz"

    @classmethod
    def from_label(cls, label: str) -> "NetworkConfiguration":
        """Parse a :meth:`label` string back into a configuration."""
        try:
            antennas, band = label.split("@")
            n_tx, n_rx = antennas.split("x")
            bandwidth = band.removesuffix("MHz")
            return cls(int(n_tx), int(n_rx), int(bandwidth))
        except (ValueError, AttributeError):
            raise ConfigurationError(
                f"malformed configuration label {label!r}; "
                "expected e.g. '2x1@20MHz'"
            ) from None


@dataclass
class ZooEntry:
    """One trained model plus the numbers the runtime selector needs."""

    config: NetworkConfiguration
    model: SplitBeamNet
    quantizer_bits: int | None
    measured_ber: float
    notes: str = ""

    def __post_init__(self) -> None:
        if self.model.input_dim != self.config.input_dim:
            raise ConfigurationError(
                f"model input dim {self.model.input_dim} does not match "
                f"configuration {self.config.label()} "
                f"(expects {self.config.input_dim})"
            )
        if not 0.0 <= self.measured_ber <= 1.0:
            raise ConfigurationError("measured_ber must be in [0, 1]")

    @property
    def compression(self) -> float:
        return self.model.compression

    @property
    def head_flops(self) -> float:
        return splitbeam_head_flops(self.model)

    @property
    def tail_flops(self) -> float:
        return 2.0 * self.model.tail_macs()

    @property
    def feedback_bits(self) -> int:
        bits = 16 if self.quantizer_bits is None else self.quantizer_bits
        return splitbeam_feedback_bits(
            self.model.bottleneck_dim, bits_per_element=bits
        )

    def key(self) -> str:
        return f"{self.config.label()}/{self.model.label()}"


class ModelZoo:
    """All trained SplitBeam models an AP distributes to its STAs.

    Entries are grouped by :class:`NetworkConfiguration`; within one
    configuration they are sorted most-compressed-first, the order the
    BOP heuristic (Sec. IV-C) probes them in.
    """

    def __init__(self) -> None:
        self._entries: dict[NetworkConfiguration, list[ZooEntry]] = {}

    # -- registration -----------------------------------------------------------

    def register(self, entry: ZooEntry) -> None:
        """Add one entry; rejects duplicate (config, architecture) pairs."""
        bucket = self._entries.setdefault(entry.config, [])
        if any(e.model.label() == entry.model.label() for e in bucket):
            raise ConfigurationError(
                f"zoo already has a model {entry.model.label()} for "
                f"{entry.config.label()}"
            )
        bucket.append(entry)
        bucket.sort(key=lambda e: e.compression)

    def register_trained(
        self,
        trained: TrainedSplitBeam,
        measured_ber: float | None = None,
        notes: str = "",
    ) -> ZooEntry:
        """Register a :class:`TrainedSplitBeam` straight from training.

        ``measured_ber`` defaults to a fresh test-split measurement.
        """
        spec = trained.dataset.spec
        config = NetworkConfiguration(
            n_tx=spec.n_tx, n_rx=spec.n_rx, bandwidth_mhz=spec.bandwidth_mhz
        )
        if measured_ber is None:
            measured_ber = trained.test_ber().ber
        entry = ZooEntry(
            config=config,
            model=trained.model,
            quantizer_bits=(
                trained.quantizer.bits if trained.quantizer is not None else None
            ),
            measured_ber=float(measured_ber),
            notes=notes,
        )
        self.register(entry)
        return entry

    # -- lookup -----------------------------------------------------------------

    def configurations(self) -> list[NetworkConfiguration]:
        """All configurations with at least one model."""
        return sorted(
            self._entries, key=lambda c: (c.n_tx, c.n_rx, c.bandwidth_mhz)
        )

    def candidates(self, config: NetworkConfiguration) -> list[ZooEntry]:
        """Models for one configuration, most compressed first."""
        return list(self._entries.get(config, []))

    def on_ndp(self, config: NetworkConfiguration) -> ZooEntry:
        """STA-side lookup when an NDP announces ``config``.

        Returns the *least* compressed (most accurate) model as the safe
        default; the adaptive controller refines from there.  Raises
        :class:`ConfigurationError` when the zoo has nothing for the
        announced configuration (the STA then falls back to 802.11).
        """
        bucket = self.candidates(config)
        if not bucket:
            raise ConfigurationError(
                f"no trained model for configuration {config.label()}; "
                "fall back to the 802.11 feedback path"
            )
        return bucket[-1]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())

    def __contains__(self, config: NetworkConfiguration) -> bool:
        return config in self._entries and bool(self._entries[config])

    # -- persistence -----------------------------------------------------------

    def save(self, directory: str) -> None:
        """Write all weights (npz) plus a JSON manifest to ``directory``.

        Weight filenames are content-addressed (they embed a digest of
        the parameters), so re-saving a retrained zoo writes *new*
        files and the manifest/weights pairing stays consistent at
        every crash point: before the manifest commits, the old
        manifest still references the old (untouched) files; after, the
        new one references the new files.  Files the previous manifest
        referenced but the new one no longer does are removed last, so
        a shrunk or re-keyed zoo never leaves orphaned weights —
        unrelated ``.npz`` artifacts the zoo never wrote are left
        alone.
        """
        os.makedirs(directory, exist_ok=True)
        previous = self._manifest_weights(directory)
        manifest: list[dict] = []
        for config, bucket in self._entries.items():
            for entry in bucket:
                digest = state_digest(state_dict(entry.model))
                filename = (
                    f"{config.label().replace('@', '_')}_"
                    f"{entry.model.label()}_{digest[:12]}.npz"
                )
                # Atomic per-file write; identical weights re-save to
                # the same (byte-identical) name, retrained ones to a
                # fresh name, never truncating a referenced file.
                tmp = os.path.join(
                    directory, f"{filename}.tmp.{os.getpid()}.npz"
                )
                save_state(entry.model, tmp)
                os.replace(tmp, os.path.join(directory, filename))
                manifest.append(
                    {
                        "config": asdict(config),
                        "widths": entry.model.widths,
                        "activation": entry.model.activation_name,
                        "quantizer_bits": entry.quantizer_bits,
                        "measured_ber": entry.measured_ber,
                        "notes": entry.notes,
                        "weights": filename,
                    }
                )
        # Commit the new manifest (atomically) before removing orphans:
        # at every crash point the manifest on disk references exactly
        # the (content-addressed) weights it was written against, so
        # :meth:`load` never breaks and never pairs old metadata with
        # new weights.
        manifest_path = os.path.join(directory, _MANIFEST_NAME)
        tmp_manifest = f"{manifest_path}.tmp.{os.getpid()}"
        with open(tmp_manifest, "w") as fh:
            json.dump({"version": 1, "entries": manifest}, fh, indent=2)
        os.replace(tmp_manifest, manifest_path)
        # Cleanup scope: files the previous manifest referenced, plus
        # zoo-pattern weight files a crash between an earlier manifest
        # commit and its cleanup may have left unreferenced.
        leaked = {
            name
            for name in os.listdir(directory)
            if _WEIGHT_FILE_RE.match(name)
        }
        referenced = {item["weights"] for item in manifest}
        for name in (previous | leaked) - referenced:
            path = os.path.join(directory, name)
            if os.path.exists(path):
                os.remove(path)
        self._sweep_save_leftovers(directory)

    @staticmethod
    def _sweep_save_leftovers(directory: str, min_age_s: float = 3600.0) -> None:
        """Remove aged ``*.tmp.*`` residue of crashed earlier saves.

        Scoped to the zoo's own temp naming (weight-pattern or manifest
        prefixes only) and to files older than ``min_age_s``, so a
        concurrent save's in-flight files and unrelated artifacts are
        never touched.
        """
        import time

        now = time.time()
        for name in os.listdir(directory):
            if ".tmp." not in name:
                continue
            base = name.split(".tmp.")[0]
            if base != _MANIFEST_NAME and not _WEIGHT_FILE_RE.match(base):
                continue
            path = os.path.join(directory, name)
            try:
                if now - os.path.getmtime(path) >= min_age_s:
                    os.remove(path)
            except OSError:
                pass  # vanished under us or unreadable: leave it

    @staticmethod
    def _manifest_weights(directory: str) -> "set[str]":
        """Weight filenames the manifest already in ``directory`` references."""
        manifest_path = os.path.join(directory, _MANIFEST_NAME)
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            return {
                str(item["weights"])
                for item in manifest.get("entries", [])
                if "weights" in item
            }
        except (OSError, ValueError, TypeError, AttributeError):
            return set()

    @classmethod
    def load(cls, directory: str) -> "ModelZoo":
        """Rebuild a zoo saved by :meth:`save`."""
        manifest_path = os.path.join(directory, _MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise DatasetError(f"no zoo manifest at {manifest_path}")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if manifest.get("version") != 1:
            raise DatasetError(
                f"unsupported zoo manifest version {manifest.get('version')!r}"
            )
        zoo = cls()
        for item in manifest["entries"]:
            config = NetworkConfiguration(**item["config"])
            # Built around the archive's arrays, so no init draw for them
            # to overwrite; the widths follow from the arrays' shapes.
            model = model_from_state(
                partial(
                    SplitBeamNet.from_parameters, activation=item["activation"]
                ),
                read_state(os.path.join(directory, item["weights"])),
            )
            if model.widths != list(item["widths"]):
                raise DatasetError(
                    f"{item['weights']} holds widths {model.widths}, but the "
                    f"manifest lists {item['widths']}"
                )
            zoo.register(
                ZooEntry(
                    config=config,
                    model=model,
                    quantizer_bits=item["quantizer_bits"],
                    measured_ber=item["measured_ber"],
                    notes=item.get("notes", ""),
                )
            )
        return zoo

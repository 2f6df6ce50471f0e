"""Zoo training demo: parallel grids, checkpoints, and warm rebuilds.

Builds the Fig. 1 ``ModelZoo`` — "SplitBeam is trained offline for
various network configurations" — through ``repro.runtime`` twice, to
show the two multipliers the zoo builder adds on top of the trainer:

- the first build trains every (configuration x compression) entry of
  the grid, optionally on worker processes (weights are bit-identical
  to serial training);
- the second build loads every model from the content-addressed
  checkpoint store and trains for zero epochs.

Run:  python examples/zoo_training.py
      REPRO_RUNTIME_WORKERS=4 python examples/zoo_training.py
      python examples/zoo_training.py --fidelity smoke   # CI-sized
"""

import argparse
import shutil
import tempfile

from repro import fidelity as fidelity_preset
from repro.core.zoo_builder import train_zoo
from repro.nn.serialize import state_dict, state_digest
from repro.runtime import CheckpointStore
from repro.utils.tables import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fidelity",
        default="fast",
        help="fidelity preset (smoke keeps the demo to a couple of seconds)",
    )
    parser.add_argument(
        "--compressions",
        default="1/8,1/4",
        help="comma-separated compression ladder, e.g. '1/16,1/8,1/4'",
    )
    args = parser.parse_args()
    fidelity = fidelity_preset(args.fidelity)

    def parse_compression(text: str) -> float:
        try:
            if "/" in text:
                numerator, denominator = text.split("/")
                return float(numerator) / float(denominator)
            return float(text)
        except (ValueError, ZeroDivisionError):
            parser.error(f"bad compression {text!r}; expected e.g. 1/8 or 0.125")

    compressions = tuple(
        parse_compression(k) for k in args.compressions.split(",")
    )

    root = tempfile.mkdtemp(prefix="repro-zoo-ckpt-")
    try:
        demo(fidelity, compressions, CheckpointStore(root))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def demo(fidelity, compressions, store: CheckpointStore) -> None:
    print(
        f"Building the 'compression-ladder' grid on D1 "
        f"({len(compressions)} models, fidelity={fidelity.name}) ..."
    )
    cold = train_zoo(
        "compression-ladder",
        fidelity=fidelity,
        compressions=compressions,
        store=store,
    )
    print(
        f"cold build: trained {cold.n_trained}/{cold.n_entries} entries "
        f"with {cold.n_workers} worker(s) in {cold.wall_s:.2f} s"
    )

    warm = train_zoo(
        "compression-ladder",
        fidelity=fidelity,
        compressions=compressions,
        store=store,
    )
    print(
        f"warm build: trained {warm.n_trained}/{warm.n_entries} entries "
        f"(all {warm.n_cached} loaded from {store.root}) in {warm.wall_s:.2f} s"
    )
    assert warm.n_trained == 0, "warm rebuild must not spend an epoch"
    assert warm.to_dict() == cold.to_dict(), "warm manifest differs from cold"
    for row in warm.entries:
        model = warm.entry(row["label"]).model
        assert state_digest(state_dict(model)) == row["state_sha256"], (
            f"{row['label']}: the loaded model does not hold its checkpoint"
        )

    zoo = warm.zoo()
    rows = [
        [
            row["label"],
            warm.entry(row["label"]).model.label(),
            row["measured_ber"],
            warm.entry(row["label"]).feedback_bits,
            "checkpoint" if row["cached"] else "trained",
        ]
        for row in warm.entries
    ]
    print()
    print(
        render_table(
            ["entry", "architecture", "measured BER", "fb bits", "source"],
            rows,
            title=warm.title,
        )
    )
    config = zoo.configurations()[0]
    print(
        f"\nThe zoo serves {len(zoo)} models for {config.label()}; an AP "
        "ships it to STAs with zoo.save(dir), and a NetworkSession deploys "
        "it directly (see examples/network_session.py).  Checkpoint keys "
        "hash the dataset spec, architecture, training recipe, and source "
        "digest, so any library edit retrains while a grid tweak retrains "
        "only what changed (docs/runtime.md)."
    )


if __name__ == "__main__":
    main()

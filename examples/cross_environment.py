"""Cross-environment generalization (paper Fig. 13).

Trains SplitBeam (K = 1/8) on environment E1 and tests on E2's data —
and vice versa — for a 2x2 network at 20 MHz.  The paper's observation:
cross-environment BER stays close to the single-environment BER, and
models trained in the *richer* environment (E2) generalize better.

Uses the TRANSFER fidelity preset: generalizing across campaigns needs
the model to learn the channel-to-beamforming map itself, which takes
more independent channel realizations than the single-environment
protocol (see docs/conventions.md, § Fidelity presets).  Expect a few
minutes of runtime.

Run:  python examples/cross_environment.py
"""

from repro import (
    TRANSFER,
    LinkConfig,
    SplitBeamFeedback,
    build_dataset,
    dataset_spec,
    train_splitbeam,
)
from repro.core.pipeline import evaluate_scheme
from repro.utils.tables import render_table


def main() -> None:
    # D1 = 2x2 @ 20 MHz in E1; D3 = same configuration in E2 (Table I).
    print("Building datasets D1 (E1) and D3 (E2) ...")
    ds_e1 = build_dataset(dataset_spec("D1"), fidelity=TRANSFER, seed=7)
    ds_e2 = build_dataset(dataset_spec("D3"), fidelity=TRANSFER, seed=8)
    link = LinkConfig(snr_db=20.0)

    print("Training one model per environment (K = 1/8) ...")
    model_e1 = SplitBeamFeedback(
        train_splitbeam(ds_e1, compression=1 / 8, fidelity=TRANSFER, seed=0)
    )
    model_e2 = SplitBeamFeedback(
        train_splitbeam(ds_e2, compression=1 / 8, fidelity=TRANSFER, seed=0)
    )

    rows = []
    for label, scheme, train_ds, test_ds in (
        ("E1 -> E1 (single-env)", model_e1, ds_e1, None),
        ("E1 -> E2 (cross-env)", model_e1, ds_e1, ds_e2),
        ("E2 -> E2 (single-env)", model_e2, ds_e2, None),
        ("E2 -> E1 (cross-env)", model_e2, ds_e2, ds_e1),
    ):
        evaluation = evaluate_scheme(
            scheme, train_ds, link_config=link, eval_dataset=test_ds
        )
        rows.append([label, evaluation.ber])
    print()
    print(
        render_table(
            ["protocol (train -> test)", "BER"],
            rows,
            title="Cross-environment test, 2x2 @ 20 MHz, K = 1/8",
        )
    )
    print(
        "\nExpected shape (paper Fig. 13): cross-environment BER close to "
        "single-environment; E2-trained models transfer better because E2 "
        "has the more complex propagation profile."
    )


if __name__ == "__main__":
    main()

"""Mini-batch training loop with validation-based checkpointing.

Implements the recipe of Sec. IV-D: shuffled mini-batches (default batch
size 16), a fixed number of epochs (default 40), learning rate 1e-3
decayed by 10x after epochs 20 and 30, and per-epoch evaluation on the
validation split with the best parameters retained.  The validation
metric is pluggable — the paper checkpoints on achieved BER; a
validation-loss metric is the cheap default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import TrainingError
from repro.nn.losses import Loss, NormalizedL1Loss
from repro.nn.module import Module
from repro.nn.optim import Adam, Optimizer, SGD
from repro.nn.schedulers import LRScheduler, MultiStepLR
from repro.nn.serialize import load_state_dict, state_dict
from repro.obs.metrics import profiled
from repro.utils.blas import one_blas_thread
from repro.utils.rng import as_generator

__all__ = ["TrainingConfig", "TrainingHistory", "Trainer"]

ValidationMetric = Callable[[Module, np.ndarray, np.ndarray], float]


@dataclass
class TrainingConfig:
    """Hyper-parameters for a training run (paper defaults)."""

    epochs: int = 40
    batch_size: int = 16
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # "adam" for experimental data, "sgd" for synthetic
    momentum: float = 0.9  # used by SGD only
    weight_decay: float = 0.0
    lr_milestones: tuple[int, ...] = (20, 30)
    lr_gamma: float = 0.1
    shuffle: bool = True
    seed: int = 0
    verbose: bool = False
    #: Global-norm gradient clipping; None disables.  Plain SGD on the
    #: wide 160 MHz models diverges without it (the Eq. (8) loss sums
    #: over thousands of output features).
    max_grad_norm: float | None = 5.0
    #: Stop after this many epochs without validation improvement; None
    #: runs the full schedule (the paper's fixed-epoch recipe).
    early_stop_patience: int | None = None

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise TrainingError("epochs must be positive")
        if self.batch_size <= 0:
            raise TrainingError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise TrainingError(f"unknown optimizer {self.optimizer!r}")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise TrainingError("max_grad_norm must be positive or None")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise TrainingError("early_stop_patience must be >= 1 or None")


@dataclass
class TrainingHistory:
    """Per-epoch records of a training run."""

    train_loss: list[float] = field(default_factory=list)
    val_metric: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_metric: float = float("inf")
    stopped_early: bool = False

    def __len__(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Trains a model on (inputs, targets) with validation checkpointing.

    Parameters
    ----------
    model:
        Any :class:`~repro.nn.module.Module` mapping 2-D batches to 2-D
        batches.
    loss:
        Training loss (default: the paper's :class:`NormalizedL1Loss`).
    config:
        Training hyper-parameters.
    validation_metric:
        ``f(model, val_inputs, val_targets) -> float`` (lower is
        better).  Defaults to validation loss.  The paper's BER-based
        checkpointing is provided by
        :func:`repro.core.training.ber_validation_metric`.
    """

    def __init__(
        self,
        model: Module,
        loss: Loss | None = None,
        config: TrainingConfig | None = None,
        validation_metric: ValidationMetric | None = None,
    ) -> None:
        self.model = model
        self.loss = loss if loss is not None else NormalizedL1Loss()
        self.config = config or TrainingConfig()
        self.validation_metric = validation_metric or self._validation_loss
        # Per-fit shuffled-epoch buffers (see _run_epoch).
        self._epoch_buffers: "tuple[np.ndarray, np.ndarray] | None" = None

    # -- public API -----------------------------------------------------------

    @profiled("trainer.fit")
    @one_blas_thread()
    def fit(
        self,
        train_inputs: np.ndarray,
        train_targets: np.ndarray,
        val_inputs: np.ndarray | None = None,
        val_targets: np.ndarray | None = None,
    ) -> TrainingHistory:
        """Train and (when a validation split is given) restore the best
        parameters observed on the validation metric.

        Trains at one BLAS thread (:func:`~repro.utils.blas.one_blas_thread`;
        a no-op inside a job, which already holds it), so the weights do
        not depend on the core count or the BLAS thread setting.
        """
        train_inputs = np.asarray(train_inputs, dtype=np.float64)
        train_targets = np.asarray(train_targets, dtype=np.float64)
        if train_inputs.shape[0] != train_targets.shape[0]:
            raise TrainingError(
                f"input/target sample counts differ: "
                f"{train_inputs.shape[0]} vs {train_targets.shape[0]}"
            )
        if train_inputs.shape[0] == 0:
            raise TrainingError("empty training set")
        if (val_inputs is None) != (val_targets is None):
            # A half-provided split used to silently disable validation
            # (and with it best-checkpoint restoration) — a recipe for
            # quietly shipping last-epoch weights.  Fail loudly instead.
            raise TrainingError(
                "val_inputs and val_targets must be provided together "
                "(or both omitted to train without validation)"
            )
        has_validation = val_inputs is not None and val_targets is not None
        if has_validation:
            val_inputs = np.asarray(val_inputs, dtype=np.float64)
            val_targets = np.asarray(val_targets, dtype=np.float64)
            if val_inputs.shape[0] != val_targets.shape[0]:
                raise TrainingError(
                    f"validation input/target sample counts differ: "
                    f"{val_inputs.shape[0]} vs {val_targets.shape[0]}"
                )

        optimizer = self._build_optimizer()
        scheduler = self._build_scheduler(optimizer)
        rng = as_generator(self.config.seed)
        history = TrainingHistory()
        best_state: dict[str, np.ndarray] | None = None
        self._epoch_buffers = None  # fresh per fit; shapes may change
        last_epoch = self.config.epochs - 1

        for epoch in range(self.config.epochs):
            epoch_loss = self._run_epoch(
                train_inputs, train_targets, optimizer, rng
            )
            history.train_loss.append(epoch_loss)
            history.learning_rate.append(optimizer.lr)
            scheduler.step()

            if has_validation:
                self.model.eval()
                metric = float(
                    self.validation_metric(self.model, val_inputs, val_targets)
                )
                self.model.train()
                history.val_metric.append(metric)
                if metric < history.best_val_metric:
                    history.best_val_metric = metric
                    history.best_epoch = epoch
                    # The model keeps a best last epoch's weights, so
                    # they need no copy, and no restore below.  (An
                    # improving epoch never stops early, so only the
                    # last scheduled epoch can end the fit this way.)
                    best_state = (
                        None if epoch == last_epoch else state_dict(self.model)
                    )
            if self.config.verbose:  # pragma: no cover - console output
                val_text = (
                    f" val={history.val_metric[-1]:.5f}" if has_validation else ""
                )
                print(f"epoch {epoch + 1}: loss={epoch_loss:.5f}{val_text}")

            patience = self.config.early_stop_patience
            if (
                has_validation
                and patience is not None
                and epoch - history.best_epoch >= patience
            ):
                history.stopped_early = True
                break

        self._epoch_buffers = None  # release the shuffle scratch
        if best_state is not None:
            load_state_dict(self.model, best_state)
        self.model.eval()
        return history

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Run the model in eval mode (no dropout)."""
        was_training = self.model.training
        self.model.eval()
        out = self.model.forward(np.asarray(inputs, dtype=np.float64))
        if was_training:
            self.model.train()
        return out

    # -- internals --------------------------------------------------------------

    @profiled("trainer.epoch")
    def _run_epoch(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        optimizer: Optimizer,
        rng: np.random.Generator,
    ) -> float:
        """One pass over shuffled mini-batches.

        The shuffle gathers into preallocated epoch buffers (built
        lazily on the first shuffled epoch, reused for the rest of the
        fit), so each mini-batch is a zero-copy contiguous view instead
        of a fancy-indexed copy — identical values, identical trained
        weights, no per-batch allocation.
        """
        count = inputs.shape[0]
        if self.config.shuffle:
            order = rng.permutation(count)
            if self._epoch_buffers is None:
                self._epoch_buffers = (
                    np.empty_like(inputs),
                    np.empty_like(targets),
                )
            epoch_in, epoch_target = self._epoch_buffers
            np.take(inputs, order, axis=0, out=epoch_in)
            np.take(targets, order, axis=0, out=epoch_target)
        else:
            epoch_in, epoch_target = inputs, targets
        total = 0.0
        for start in range(0, count, self.config.batch_size):
            stop = min(start + self.config.batch_size, count)
            batch_in = epoch_in[start:stop]
            batch_target = epoch_target[start:stop]
            optimizer.zero_grad()
            prediction = self.model.forward(batch_in)
            # Losses reduce to a per-sample mean, so the epoch loss must
            # weight each batch by its sample count — otherwise a ragged
            # final batch (e.g. 1 sample at batch size 16) counts 16x.
            total += self.loss.forward(prediction, batch_target) * (stop - start)
            self.model.backward(self.loss.backward())
            optimizer.step(max_norm=self.config.max_grad_norm)
        return total / count

    def _build_optimizer(self) -> Optimizer:
        params = list(self.model.parameters())
        if self.config.optimizer == "adam":
            return Adam(
                params,
                lr=self.config.learning_rate,
                weight_decay=self.config.weight_decay,
            )
        return SGD(
            params,
            lr=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )

    def _build_scheduler(self, optimizer: Optimizer) -> LRScheduler:
        return MultiStepLR(
            optimizer,
            milestones=self.config.lr_milestones,
            gamma=self.config.lr_gamma,
        )

    def _validation_loss(
        self, model: Module, inputs: np.ndarray, targets: np.ndarray
    ) -> float:
        prediction = model.forward(np.asarray(inputs, dtype=np.float64))
        return self.loss.forward(prediction, np.asarray(targets, dtype=np.float64))

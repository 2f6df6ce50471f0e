"""Frozen pre-vectorization implementations of the hot paths.

These are verbatim copies of the per-sample / per-tone / per-packet
loops the library shipped with before the vectorization pass.  They are
kept for two jobs:

- **equivalence**: the test suite asserts the vectorized paths in
  ``repro.standard.givens``, ``repro.standard.cbf``,
  ``repro.phy.link``, ``repro.channels.sampler``, and
  ``repro.datasets.preprocess`` reproduce these outputs (bit-exactly
  where the wire format or RNG stream pins the result);
- **speedup tracking**: ``benchmarks/bench_perf_hotpaths.py`` times
  each stage against its reference twin and records the ratio in
  ``BENCH_hotpaths.json``.

Do not "optimize" this module — its value is that it never changes.
(The link-simulation reference lives on the simulator itself as
:meth:`repro.phy.link.LinkSimulator.measure_ber_reference`, because it
shares the simulator's internal helpers.  It inherits one deliberate
change relative to the pre-vectorization release: singular vectors are
pinned to the standard's canonical phase gauge, which relabels the
noise realization of seed-pinned BER values without changing the
algorithm or the statistics.)

The training-stack references (:class:`ReferenceConv1d`,
:class:`ReferenceSGD`, :class:`ReferenceAdam`,
:class:`ReferenceTrainer`) freeze the pre-vectorization NN loops.  The
block-swept optimizers, the clip, the two-thread ``Sequential``
backward and the trainer's batch pipeline replay the reference
arithmetic element-for-element, so trained weights
are asserted *bit-identical*; the im2col convolution's forward is likewise
bit-identical, while its backward contracts each gradient in one GEMM —
a floating-point reduction-order change, so conv gradients (and
therefore trained conv-model weights) match the reference to
rounding rather than bit-for-bit, exactly like the phase-gauge note
above: same algorithm, same statistics, relabelled low bits.
"""

from __future__ import annotations

import numpy as np

from repro.channels.doppler import ShadowingProcess
from repro.channels.sampler import CsiBatch, CsiSampler
from repro.channels.tgac import TgacChannel
from repro.errors import ConfigurationError, DatasetError, ShapeError
from repro.phy.noise import awgn
from repro.standard.cbf import (
    CbfReport,
    MimoControl,
    _delta_to_code,
    _interleave_order,
    _snr_to_code,
    _DELTA_SNR_BITS,
    grouped_tone_indices,
)
from repro.standard.givens import GivensAngles, angle_counts
from repro.utils.bits import BitReader, BitWriter
from repro.utils.rng import spawn

__all__ = [
    "reference_givens_decompose",
    "reference_givens_reconstruct",
    "reference_encode_cbf",
    "reference_decode_cbf",
    "reference_collect_session",
    "reference_moving_median",
    "ReferenceConv1d",
    "ReferenceSGD",
    "ReferenceAdam",
    "ReferenceLinear",
    "ReferenceTanh",
    "ReferenceSigmoid",
    "ReferenceNormalizedL1Loss",
    "ReferenceTrainer",
    "pin_reference_nn",
    "reference_clip_gradients",
]


def reference_givens_decompose(bf: np.ndarray) -> GivensAngles:
    """Seed ``givens_decompose``: full-matrix rotations, per-row copies."""
    omega = np.asarray(bf, dtype=np.complex128).copy()
    if omega.ndim < 2:
        raise ShapeError("expected (..., Nt, Nss) beamforming matrices")
    n_tx, n_streams = omega.shape[-2:]
    if n_tx < n_streams:
        raise ShapeError(f"Nt={n_tx} must be >= Nss={n_streams}")
    batch_shape = omega.shape[:-2]

    last_phase = np.exp(-1j * np.angle(omega[..., -1:, :]))
    omega = omega * last_phase

    m = min(n_streams, n_tx - 1)
    phis: list[np.ndarray] = []
    psis: list[np.ndarray] = []
    for t in range(1, m + 1):
        column = omega[..., t - 1 : n_tx - 1, t - 1]
        phi_t = np.angle(column)
        phis.append(phi_t)
        rotation = np.ones(batch_shape + (n_tx, 1), dtype=np.complex128)
        rotation[..., t - 1 : n_tx - 1, 0] = np.exp(-1j * phi_t)
        omega = omega * rotation
        for ell in range(t + 1, n_tx + 1):
            top = omega[..., t - 1, t - 1].real
            low = omega[..., ell - 1, t - 1].real
            radius = np.hypot(top, low)
            safe = np.maximum(radius, 1e-300)
            cos_psi = np.clip(top / safe, -1.0, 1.0)
            psi_lt = np.arccos(cos_psi)
            psis.append(psi_lt)
            sin_psi = np.sin(psi_lt)
            row_t = omega[..., t - 1, :].copy()
            row_l = omega[..., ell - 1, :].copy()
            omega[..., t - 1, :] = (
                cos_psi[..., None] * row_t + sin_psi[..., None] * row_l
            )
            omega[..., ell - 1, :] = (
                -sin_psi[..., None] * row_t + cos_psi[..., None] * row_l
            )

    n_phi, n_psi = angle_counts(n_tx, n_streams)
    phi = (
        np.concatenate([p.reshape(batch_shape + (-1,)) for p in phis], axis=-1)
        if phis
        else np.zeros(batch_shape + (0,))
    )
    psi = (
        np.stack(psis, axis=-1).reshape(batch_shape + (-1,))
        if psis
        else np.zeros(batch_shape + (0,))
    )
    if phi.shape[-1] != n_phi or psi.shape[-1] != n_psi:
        raise ShapeError("internal angle-count mismatch")
    return GivensAngles(phi=phi, psi=psi, n_tx=n_tx, n_streams=n_streams)


def reference_givens_reconstruct(angles: GivensAngles) -> np.ndarray:
    """Seed ``givens_reconstruct``: full-matrix rotation products."""
    n_tx, n_streams = angles.n_tx, angles.n_streams
    phi, psi = np.asarray(angles.phi), np.asarray(angles.psi)
    batch_shape = phi.shape[:-1]
    m = min(n_streams, n_tx - 1)

    result = np.zeros(batch_shape + (n_tx, n_streams), dtype=np.complex128)
    result[...] = np.eye(n_tx, n_streams, dtype=np.complex128)

    phi_index = phi.shape[-1]
    psi_index = psi.shape[-1]
    for t in range(m, 0, -1):
        n_psi_t = n_tx - t
        psi_block = psi[..., psi_index - n_psi_t : psi_index]
        psi_index -= n_psi_t
        for ell in range(n_tx, t, -1):
            psi_lt = psi_block[..., ell - t - 1]
            cos_psi = np.cos(psi_lt)[..., None]
            sin_psi = np.sin(psi_lt)[..., None]
            row_t = result[..., t - 1, :].copy()
            row_l = result[..., ell - 1, :].copy()
            result[..., t - 1, :] = cos_psi * row_t - sin_psi * row_l
            result[..., ell - 1, :] = sin_psi * row_t + cos_psi * row_l
        n_phi_t = n_tx - t
        phi_block = phi[..., phi_index - n_phi_t : phi_index]
        phi_index -= n_phi_t
        rotation = np.ones(batch_shape + (n_tx, 1), dtype=np.complex128)
        rotation[..., t - 1 : n_tx - 1, 0] = np.exp(1j * phi_block)
        result = result * rotation
    if phi_index != 0 or psi_index != 0:
        raise ShapeError("angle arrays inconsistent with (n_tx, n_streams)")
    return result


def reference_encode_cbf(
    bf: np.ndarray,
    control: MimoControl,
    snr_db: "np.ndarray | float" = 30.0,
    mu_delta_db: np.ndarray | None = None,
) -> bytes:
    """Seed ``encode_cbf``: one ``BitWriter.write`` per angle field."""
    bf = np.asarray(bf, dtype=np.complex128)
    expected = (control.n_subcarriers, control.n_rows, control.n_columns)
    if bf.shape != expected:
        raise ShapeError(f"bf shape {bf.shape} != expected {expected}")

    tones = grouped_tone_indices(control.n_subcarriers, control.grouping)
    angles = reference_givens_decompose(bf[tones])
    quantizer = control.quantizer
    phi_codes = quantizer.quantize_phi(angles.phi)
    psi_codes = quantizer.quantize_psi(angles.psi)

    snr = np.broadcast_to(
        np.atleast_1d(np.asarray(snr_db, dtype=np.float64)),
        (control.n_columns,),
    )

    writer = BitWriter()
    control.pack(writer)
    writer.write_array(_snr_to_code(snr), 8)
    order, _ = _interleave_order(control.n_rows, control.n_columns)
    for tone in range(tones.size):
        for kind, idx in order:
            if kind == "phi":
                writer.write(int(phi_codes[tone, idx]), quantizer.b_phi)
            else:
                writer.write(int(psi_codes[tone, idx]), quantizer.b_psi)
    if mu_delta_db is not None:
        mu_delta_db = np.asarray(mu_delta_db, dtype=np.float64)
        if mu_delta_db.shape != (control.n_subcarriers, control.n_columns):
            raise ShapeError("bad mu_delta_db shape")
        writer.write_array(_delta_to_code(mu_delta_db), _DELTA_SNR_BITS)
    return writer.getvalue()


def reference_decode_cbf(
    data: bytes, expect_mu_exclusive: bool | None = None
) -> CbfReport:
    """Seed ``decode_cbf``: one ``BitReader.read`` per angle field."""
    reader = BitReader(data)
    control = MimoControl.unpack(reader)
    snr_codes = reader.read_array(control.n_columns, 8)

    n_phi, n_psi = angle_counts(control.n_rows, control.n_columns)
    quantizer = control.quantizer
    tones = grouped_tone_indices(control.n_subcarriers, control.grouping)
    phi_codes = np.zeros((tones.size, n_phi), dtype=np.int64)
    psi_codes = np.zeros((tones.size, n_psi), dtype=np.int64)
    order, _ = _interleave_order(control.n_rows, control.n_columns)
    for tone in range(tones.size):
        for kind, idx in order:
            if kind == "phi":
                phi_codes[tone, idx] = reader.read(quantizer.b_phi)
            else:
                psi_codes[tone, idx] = reader.read(quantizer.b_psi)

    mu_codes: np.ndarray | None = None
    mu_bits = control.n_subcarriers * control.n_columns * _DELTA_SNR_BITS
    if expect_mu_exclusive is None:
        expect_mu_exclusive = reader.bits_remaining >= mu_bits
    if expect_mu_exclusive:
        mu_codes = reader.read_array(
            control.n_subcarriers * control.n_columns, _DELTA_SNR_BITS
        ).reshape(control.n_subcarriers, control.n_columns)
    return CbfReport(
        control=control,
        snr_codes=snr_codes,
        phi_codes=phi_codes,
        psi_codes=psi_codes,
        mu_delta_codes=mu_codes,
    )


def reference_collect_session(
    sampler: CsiSampler, n_packets: int
) -> "list[CsiBatch]":
    """Seed ``CsiSampler.collect_session``: one Python step per packet.

    Consumes ``sampler.rng`` for spawn/placement/drops exactly like both
    the seed and vectorized paths, so the drop pattern (and therefore
    the sequence numbers) match the vectorized output for equal seeds.
    Per-user channel draws differ in order, so CSI values are only
    statistically — not numerically — comparable.
    """
    if n_packets < 1:
        raise ConfigurationError("n_packets must be >= 1")
    user_rngs = spawn(sampler.rng, sampler.n_users)
    offsets = sampler.env.location_offsets_deg()
    replace = sampler.n_users > offsets.size
    chosen = sampler.rng.choice(offsets, size=sampler.n_users, replace=replace)
    channels = [
        TgacChannel(
            sampler.env.profile,
            n_rx=sampler.n_rx,
            n_tx=sampler.n_tx,
            band=sampler.band,
            doppler_hz=sampler.env.doppler_hz,
            sample_interval_s=sampler.dt_s,
            angle_offset_deg=float(chosen[i]),
            rician_k_db=sampler.env.rician_k_db,
            rng=user_rngs[i],
        )
        for i in range(sampler.n_users)
    ]
    shadowing = [
        ShadowingProcess(
            sigma_db=sampler.env.shadowing_sigma_db,
            coherence_s=sampler.env.shadowing_coherence_s,
            dt_s=sampler.dt_s,
            rng=user_rngs[i],
        )
        for i in range(sampler.n_users)
    ]

    collected: list[list[np.ndarray]] = [[] for _ in range(sampler.n_users)]
    sequences: list[list[int]] = [[] for _ in range(sampler.n_users)]
    for seq in range(n_packets):
        for i in range(sampler.n_users):
            response = channels[i].step() * shadowing[i].step()
            if sampler.rng.random() < sampler.env.packet_drop_rate:
                continue
            if sampler.env.csi_noise_snr_db is not None:
                signal_power = float(np.mean(np.abs(response) ** 2))
                power = signal_power / (
                    10.0 ** (sampler.env.csi_noise_snr_db / 10.0)
                )
                response = response + awgn(
                    response.shape, power=power, rng=user_rngs[i]
                )
            collected[i].append(response)
            sequences[i].append(seq)

    batches = []
    for i in range(sampler.n_users):
        if not collected[i]:
            raise ConfigurationError("a user received no packets")
        batches.append(
            CsiBatch(
                csi=np.stack(collected[i]),
                sequence=np.asarray(sequences[i], dtype=np.int64),
            )
        )
    return batches


def reference_moving_median(csi: np.ndarray, window: int = 10) -> np.ndarray:
    """Seed ``moving_median``: two ``np.median`` calls per time step."""
    if window < 1:
        raise DatasetError("window must be >= 1")
    csi = np.asarray(csi, dtype=np.complex128)
    if window == 1 or csi.shape[0] == 1:
        return csi.copy()
    n = csi.shape[0]
    out = np.empty_like(csi)
    for t in range(n):
        start = max(0, t - window + 1)
        block = csi[start : t + 1]
        out[t] = np.median(block.real, axis=0) + 1j * np.median(block.imag, axis=0)
    return out


# -- frozen NN training stack (pre-vectorization loops) ------------------------


from repro.nn.conv import Conv1d as _Conv1d
from repro.nn.layers import (
    Linear as _Linear,
    Sequential as _Sequential,
    Sigmoid as _Sigmoid,
    Tanh as _Tanh,
)
from repro.nn.losses import NormalizedL1Loss as _NormalizedL1Loss
from repro.nn.trainer import Trainer as _Trainer


class ReferenceConv1d(_Conv1d):
    """Seed ``Conv1d``: per-kernel-position unfold/fold loops.

    A drop-in twin (same constructor, same parameters) whose forward
    stacks ``k`` shifted copies per call and whose backward scatters the
    input gradient position by position — the implementation the im2col
    layer replaced.  The vectorized forward is bit-identical to this;
    the vectorized backward matches to reduction-order rounding (see
    the module docstring).
    """

    def _reference_unfold(self, inputs: np.ndarray) -> np.ndarray:
        """``(batch, C_in, L)`` -> ``(batch, L, C_in * k)`` patch matrix."""
        batch, channels, length = inputs.shape
        pad = self.kernel_size // 2
        padded = np.pad(inputs, ((0, 0), (0, 0), (pad, pad)))
        patches = np.stack(
            [padded[:, :, i : i + length] for i in range(self.kernel_size)],
            axis=3,
        )  # (batch, C_in, L, k)
        return patches.transpose(0, 2, 1, 3).reshape(
            batch, length, channels * self.kernel_size
        )

    def _reference_fold_input_grad(
        self, grad_columns: np.ndarray, shape: "tuple[int, int, int]"
    ) -> np.ndarray:
        """Scatter ``(batch, L, C_in * k)`` gradients back onto the input."""
        batch, channels, length = shape
        pad = self.kernel_size // 2
        grads = grad_columns.reshape(
            batch, length, channels, self.kernel_size
        ).transpose(0, 2, 1, 3)  # (batch, C_in, L, k)
        padded = np.zeros((batch, channels, length + 2 * pad))
        for i in range(self.kernel_size):
            padded[:, :, i : i + length] += grads[:, :, :, i]
        return padded[:, :, pad : pad + length]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3 or inputs.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv1d expected (batch, {self.in_channels}, L), "
                f"got {inputs.shape}"
            )
        columns = self._reference_unfold(inputs)  # (batch, L, C_in*k)
        self._cached_columns = columns
        self._cached_shape = inputs.shape
        kernel = self.weight.data.reshape(self.out_channels, -1)
        out = columns @ kernel.T  # (batch, L, C_out)
        if self.bias is not None:
            out = out + self.bias.data
        return out.transpose(0, 2, 1)  # (batch, C_out, L)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cached_columns is None or self._cached_shape is None:
            raise ShapeError("backward called before forward on Conv1d")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, _, length = self._cached_shape
        if grad_output.shape != (batch, self.out_channels, length):
            raise ShapeError(
                f"Conv1d gradient shape {grad_output.shape} != "
                f"{(batch, self.out_channels, length)}"
            )
        grad_cols_out = grad_output.transpose(0, 2, 1)  # (batch, L, C_out)
        kernel = self.weight.data.reshape(self.out_channels, -1)

        # Parameter gradients: sum over batch and positions.
        grad_kernel = np.einsum(
            "blo,blf->of", grad_cols_out, self._cached_columns
        )
        self.weight.grad += grad_kernel.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_cols_out.sum(axis=(0, 1))

        grad_columns = grad_cols_out @ kernel  # (batch, L, C_in*k)
        return self._reference_fold_input_grad(grad_columns, self._cached_shape)


class ReferenceLinear(_Linear):
    """Seed ``Linear.forward``: allocate-per-op instead of fused matmul."""

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = self._as_batch(inputs)
        if inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"Linear expected {self.in_features} features, "
                f"got {inputs.shape[1]}"
            )
        self._cached_input = inputs
        out = inputs @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out


class ReferenceSequential(_Sequential):
    """Seed ``Sequential.backward``: every layer's backward in turn, on one thread."""

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


class ReferenceTanh(_Tanh):
    """Seed ``Tanh``: backward re-evaluates tanh instead of reusing it."""

    def _dfn_from(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._dfn(x)


class ReferenceSigmoid(_Sigmoid):
    """Seed ``Sigmoid``: backward re-evaluates the forward expression."""

    def _dfn_from(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._dfn(x)


class ReferenceNormalizedL1Loss(_NormalizedL1Loss):
    """Seed Eq. (8) loss: backward recomputes the floored denominator."""

    def _value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        batch = prediction.shape[0] if prediction.ndim > 1 else 1
        err = (prediction - target) ** 2 / self._denominator(target)
        return float(np.sum(err) / batch)

    def _grad(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        batch = prediction.shape[0] if prediction.ndim > 1 else 1
        return 2.0 * (prediction - target) / self._denominator(target) / batch


_REFERENCE_LAYERS = {
    _Conv1d: ReferenceConv1d,
    _Linear: ReferenceLinear,
    _Sequential: ReferenceSequential,
    _Tanh: ReferenceTanh,
    _Sigmoid: ReferenceSigmoid,
}


def pin_reference_nn(module) -> None:
    """Re-class every layer of ``module`` to its frozen reference twin.

    The reference layers store nothing beyond what the live classes
    already carry, so swapping ``__class__`` on a freshly built model
    yields the pre-vectorization implementation with the very same
    parameters — the benchmarks use this to time reference-pinned
    models.  Layers whose arithmetic never changed (ReLU, LeakyReLU,
    Dropout, Flatten, Reshape) are left alone; a ``Sequential`` keeps
    its serial backward, so a pinned model starts no helper thread.
    """
    for sub in module.modules():
        twin = _REFERENCE_LAYERS.get(type(sub))
        if twin is not None:
            sub.__class__ = twin



class _ReferenceOptimizer:
    """Seed ``Optimizer`` base: no packing, per-parameter ``zero_grad``."""

    def __init__(self, parameters, lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ConfigurationError("optimizer received no parameters")
        if lr <= 0:
            raise ConfigurationError(
                f"learning rate must be positive, got {lr}"
            )
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class ReferenceSGD(_ReferenceOptimizer):
    """Seed ``SGD.step``: one Python iteration per parameter."""

    def __init__(self, parameters, lr=1e-3, momentum=0.0, weight_decay=0.0):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(
                f"momentum must be in [0, 1), got {momentum}"
            )
        if weight_decay < 0:
            raise ConfigurationError("weight_decay must be >= 0")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data -= self.lr * update


class ReferenceAdam(_ReferenceOptimizer):
    """Seed ``Adam.step``: one Python iteration per parameter."""

    def __init__(
        self,
        parameters,
        lr=1e-3,
        betas=(0.9, 0.999),
        eps=1e-8,
        weight_decay=0.0,
    ):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ConfigurationError("eps must be positive")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_clip_gradients(model, limit: "float | None") -> None:
    """Seed ``Trainer._clip_gradients``: per-parameter norm loop."""
    if limit is None:
        return
    total = 0.0
    params = list(model.parameters())
    for param in params:
        total += float(np.sum(param.grad**2))
    norm = np.sqrt(total)
    if norm > limit:
        scale = limit / norm
        for param in params:
            param.grad *= scale


class ReferenceTrainer(_Trainer):
    """Seed training loop: per-batch fancy-index copies, loop optimizers.

    Inherits ``fit`` (the epoch/validation/checkpoint control flow is
    unchanged) but pins the per-epoch batch pipeline, the gradient
    clip, the optimizers, the model's layers and their serial backward
    (via :func:`pin_reference_nn` — construction mutates the model!),
    and the default loss to their frozen pre-vectorization
    implementations.
    """

    def __init__(self, model, loss=None, config=None, validation_metric=None):
        if loss is None:
            loss = ReferenceNormalizedL1Loss()
        pin_reference_nn(model)
        super().__init__(
            model,
            loss=loss,
            config=config,
            validation_metric=validation_metric,
        )

    def _build_optimizer(self):
        params = list(self.model.parameters())
        if self.config.optimizer == "adam":
            return ReferenceAdam(
                params,
                lr=self.config.learning_rate,
                weight_decay=self.config.weight_decay,
            )
        return ReferenceSGD(
            params,
            lr=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )

    def _run_epoch(self, inputs, targets, optimizer, rng) -> float:
        count = inputs.shape[0]
        order = (
            rng.permutation(count) if self.config.shuffle else np.arange(count)
        )
        total = 0.0
        for start in range(0, count, self.config.batch_size):
            index = order[start : start + self.config.batch_size]
            batch_in = inputs[index]
            batch_target = targets[index]
            optimizer.zero_grad()
            prediction = self.model.forward(batch_in)
            total += self.loss.forward(prediction, batch_target) * index.size
            self.model.backward(self.loss.backward())
            reference_clip_gradients(self.model, self.config.max_grad_norm)
            optimizer.step()
        return total / count

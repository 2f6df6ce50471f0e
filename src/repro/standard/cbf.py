"""Bit-exact VHT Compressed Beamforming report codec (802.11ac wire format).

``repro.standard.givens`` and ``repro.standard.quantization`` produce
the *values* the standard feeds back; this module produces the *frame*:
the VHT MIMO Control field, per-stream average-SNR fields, the packed
angle payload (optionally subcarrier-grouped), and the MU Exclusive
Beamforming Report with its per-tone delta-SNR fields.

Supported standard features
---------------------------
- SU and MU codebooks: ``(b_psi, b_phi)`` of (2,4)/(4,6) for SU and
  (5,7)/(7,9) for MU, selected by the Codebook Information bit;
- subcarrier grouping ``Ng in {1, 2, 4}``: angles are reported only for
  every ``Ng``-th tone (plus the band edge) and the beamformer
  interpolates the missing tones — the standard's complexity/accuracy
  trade the paper discusses in Sec. II;
- the standard's angle ordering: for each Givens round ``t``, the
  ``phi_{l,t}`` column phases then the ``psi_{l,t}`` rotations.

The payload layout is MSB-first with the frame zero-padded to whole
octets, so a report round-trips bit-exactly through
:func:`encode_cbf` / :func:`decode_cbf`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError, FeedbackError, ShapeError
from repro.obs.metrics import profiled
from repro.phy.ofdm import band_plan
from repro.standard.givens import (
    GivensAngles,
    angle_counts,
    givens_decompose,
    givens_reconstruct,
)
from repro.standard.quantization import AngleQuantizer
from repro.utils.bits import (
    BitReader,
    BitWriter,
    _shifts,
    _weights,
    bits_to_bytes,
)

__all__ = [
    "MimoControl",
    "CbfReport",
    "codebook_for",
    "grouped_tone_indices",
    "encode_cbf",
    "decode_cbf",
    "reconstruct_bf_from_report",
    "cbf_payload_bits",
    "Dot11CbfCodec",
]

#: Channel-width code in the VHT MIMO Control field.
_BW_CODES = {20: 0, 40: 1, 80: 2, 160: 3}
_BW_FROM_CODE = {v: k for k, v in _BW_CODES.items()}

#: Grouping code (Ng) in the VHT MIMO Control field.
_NG_CODES = {1: 0, 2: 1, 4: 2}
_NG_FROM_CODE = {v: k for k, v in _NG_CODES.items()}

#: (b_psi, b_phi) per (feedback type, codebook bit) — 802.11ac Table 8-53c.
_CODEBOOKS = {
    ("su", 0): (2, 4),
    ("su", 1): (4, 6),
    ("mu", 0): (5, 7),
    ("mu", 1): (7, 9),
}

#: Average-SNR field: 8 bits, 0.25 dB steps, -10 dB offset (802.11ac).
_SNR_STEP_DB = 0.25
_SNR_OFFSET_DB = -10.0

#: MU Exclusive report delta-SNR field: 4 bits two's complement, 1 dB steps.
_DELTA_SNR_BITS = 4


def codebook_for(feedback_type: str, codebook: int) -> AngleQuantizer:
    """Angle quantizer selected by (Feedback Type, Codebook Information)."""
    try:
        b_psi, b_phi = _CODEBOOKS[(feedback_type, codebook)]
    except KeyError:
        raise ConfigurationError(
            f"unknown codebook selector ({feedback_type!r}, {codebook!r}); "
            "feedback_type must be 'su' or 'mu', codebook 0 or 1"
        ) from None
    return AngleQuantizer(b_phi=b_phi, b_psi=b_psi)


@dataclass(frozen=True)
class MimoControl:
    """The VHT MIMO Control field (24 bits on the wire).

    ``n_columns``/``n_rows`` are the actual Nc (streams fed back) and Nr
    (beamformer antennas); the wire carries them minus one in 3 bits.
    """

    n_columns: int
    n_rows: int
    bandwidth_mhz: int
    grouping: int = 1
    codebook: int = 1
    feedback_type: str = "mu"
    remaining_segments: int = 0
    first_segment: bool = True
    token: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.n_columns <= 8:
            raise ConfigurationError(f"Nc must be in [1, 8], got {self.n_columns}")
        if not 1 <= self.n_rows <= 8:
            raise ConfigurationError(f"Nr must be in [1, 8], got {self.n_rows}")
        if self.n_columns > self.n_rows:
            raise ConfigurationError(
                f"Nc={self.n_columns} cannot exceed Nr={self.n_rows}"
            )
        if self.bandwidth_mhz not in _BW_CODES:
            raise ConfigurationError(
                f"bandwidth {self.bandwidth_mhz} MHz has no VHT width code; "
                f"options: {sorted(_BW_CODES)}"
            )
        if self.grouping not in _NG_CODES:
            raise ConfigurationError(
                f"grouping Ng={self.grouping} not in {sorted(_NG_CODES)}"
            )
        if self.codebook not in (0, 1):
            raise ConfigurationError("codebook bit must be 0 or 1")
        if self.feedback_type not in ("su", "mu"):
            raise ConfigurationError("feedback_type must be 'su' or 'mu'")
        if not 0 <= self.remaining_segments <= 7:
            raise ConfigurationError("remaining_segments must fit 3 bits")
        if not 0 <= self.token <= 63:
            raise ConfigurationError("sounding token must fit 6 bits")

    @property
    def quantizer(self) -> AngleQuantizer:
        return codebook_for(self.feedback_type, self.codebook)

    @property
    def n_subcarriers(self) -> int:
        return band_plan(self.bandwidth_mhz).n_subcarriers

    def pack(self, writer: BitWriter) -> None:
        """Append the 24-bit control field."""
        writer.write(self.n_columns - 1, 3)
        writer.write(self.n_rows - 1, 3)
        writer.write(_BW_CODES[self.bandwidth_mhz], 2)
        writer.write(_NG_CODES[self.grouping], 2)
        writer.write(self.codebook, 1)
        writer.write(1 if self.feedback_type == "mu" else 0, 1)
        writer.write(self.remaining_segments, 3)
        writer.write(1 if self.first_segment else 0, 1)
        writer.write(self.token, 6)
        writer.write(0, 2)  # reserved

    @classmethod
    def unpack(cls, reader: BitReader) -> "MimoControl":
        """Parse the 24-bit control field."""
        nc = reader.read(3) + 1
        nr = reader.read(3) + 1
        bw_code = reader.read(2)
        ng_code = reader.read(2)
        codebook = reader.read(1)
        fb_type = "mu" if reader.read(1) else "su"
        remaining = reader.read(3)
        first = bool(reader.read(1))
        token = reader.read(6)
        reader.read(2)  # reserved
        if ng_code not in _NG_FROM_CODE:
            raise FeedbackError(f"reserved grouping code {ng_code}")
        return cls(
            n_columns=nc,
            n_rows=nr,
            bandwidth_mhz=_BW_FROM_CODE[bw_code],
            grouping=_NG_FROM_CODE[ng_code],
            codebook=codebook,
            feedback_type=fb_type,
            remaining_segments=remaining,
            first_segment=first,
            token=token,
        )


def grouped_tone_indices(n_subcarriers: int, grouping: int) -> np.ndarray:
    """Tone indices actually fed back under grouping ``Ng``.

    Every ``Ng``-th tone starting from the band edge, with the final tone
    always included so the interpolation never extrapolates.
    """
    if n_subcarriers < 1:
        raise ConfigurationError("n_subcarriers must be >= 1")
    if grouping not in _NG_CODES:
        raise ConfigurationError(f"grouping Ng={grouping} not in {sorted(_NG_CODES)}")
    indices = np.arange(0, n_subcarriers, grouping)
    if indices[-1] != n_subcarriers - 1:
        indices = np.append(indices, n_subcarriers - 1)
    return indices


@dataclass
class CbfReport:
    """A decoded VHT compressed beamforming report.

    ``phi_codes``/``psi_codes`` are the integer angle codes on the
    *grouped* tone grid, shape ``(n_grouped, n_phi)`` / ``(n_grouped,
    n_psi)``; ``snr_codes`` is the per-stream average-SNR field.
    """

    control: MimoControl
    snr_codes: np.ndarray
    phi_codes: np.ndarray
    psi_codes: np.ndarray
    mu_delta_codes: np.ndarray | None = None  # (n_subcarriers, Nc)

    @property
    def snr_db(self) -> np.ndarray:
        """Per-stream average SNR in dB."""
        return self.snr_codes * _SNR_STEP_DB + _SNR_OFFSET_DB

    @property
    def mu_delta_db(self) -> np.ndarray | None:
        """Per-tone delta SNR (dB) from the MU exclusive segment."""
        if self.mu_delta_codes is None:
            return None
        codes = self.mu_delta_codes.astype(np.int64)
        signed = np.where(codes >= 8, codes - 16, codes)
        return signed.astype(np.float64)

    @property
    def tone_indices(self) -> np.ndarray:
        return grouped_tone_indices(self.control.n_subcarriers, self.control.grouping)


def _snr_to_code(snr_db: np.ndarray) -> np.ndarray:
    code = np.round((np.asarray(snr_db, dtype=np.float64) - _SNR_OFFSET_DB) / _SNR_STEP_DB)
    return np.clip(code, 0, 255).astype(np.int64)


def _delta_to_code(delta_db: np.ndarray) -> np.ndarray:
    signed = np.clip(np.round(np.asarray(delta_db, dtype=np.float64)), -8, 7).astype(np.int64)
    return np.where(signed < 0, signed + 16, signed)


def cbf_payload_bits(control: MimoControl, include_mu_exclusive: bool = False) -> int:
    """Exact frame-body size in bits (before octet padding).

    24 control bits + 8 bits average SNR per column + the grouped angle
    payload + (optionally) 4 delta-SNR bits per tone per column.
    """
    n_phi, n_psi = angle_counts(control.n_rows, control.n_columns)
    quantizer = control.quantizer
    n_tones = grouped_tone_indices(control.n_subcarriers, control.grouping).size
    bits = 24 + 8 * control.n_columns
    bits += n_tones * (n_phi * quantizer.b_phi + n_psi * quantizer.b_psi)
    if include_mu_exclusive:
        bits += control.n_subcarriers * control.n_columns * _DELTA_SNR_BITS
    return bits


def _interleave_order(n_rows: int, n_columns: int) -> tuple[list[tuple[str, int]], int]:
    """Wire order of the angles within one tone.

    Returns ``[(kind, index), ...]`` where ``kind`` is ``"phi"``/``"psi"``
    and ``index`` is the position within that angle family, plus the
    total number of Givens rounds ``m``.  Order per the standard: for
    each round ``t``, first the phi block, then the psi block.
    """
    order: list[tuple[str, int]] = []
    m = min(n_columns, n_rows - 1)
    phi_base = 0
    psi_base = 0
    for t in range(1, m + 1):
        block = n_rows - t
        order.extend(("phi", phi_base + k) for k in range(block))
        order.extend(("psi", psi_base + k) for k in range(block))
        phi_base += block
        psi_base += block
    return order, m


def _round_blocks(n_rows: int, n_columns: int) -> list[tuple[int, int]]:
    """Per Givens round: (start index into the angle family, block size).

    Both angle families share the same block structure (``n_rows - t``
    angles in round ``t``), so one list serves phi and psi.
    """
    blocks: list[tuple[int, int]] = []
    base = 0
    for t in range(1, min(n_columns, n_rows - 1) + 1):
        blocks.append((base, n_rows - t))
        base += n_rows - t
    return blocks


def _unpack_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """Expand ``(tones, n_angles)`` codes to MSB-first bits.

    Returns ``(tones, n_angles, width)`` uint8; raises if any code does
    not fit the field.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= (1 << width)):
        raise FeedbackError(
            f"angle codes outside [0, 2^{width}) cannot be packed"
        )
    return ((codes[..., None] >> _shifts(width)) & 1).astype(np.uint8)


def _pack_angle_payload(
    phi_codes: np.ndarray,
    psi_codes: np.ndarray,
    control: MimoControl,
) -> np.ndarray:
    """All grouped-tone angle fields as one flat MSB-first bit array.

    Builds the standard's wire layout (per tone: per round, phi block
    then psi block) with one bit-expansion per angle family and one
    concatenation per Givens round — no per-field Python loop.
    """
    quantizer = control.quantizer
    phi_bits = _unpack_codes(phi_codes, quantizer.b_phi)
    psi_bits = _unpack_codes(psi_codes, quantizer.b_psi)
    n_tones = phi_bits.shape[0]
    parts: list[np.ndarray] = []
    for base, block in _round_blocks(control.n_rows, control.n_columns):
        parts.append(phi_bits[:, base : base + block].reshape(n_tones, -1))
        parts.append(psi_bits[:, base : base + block].reshape(n_tones, -1))
    return np.concatenate(parts, axis=1).reshape(-1)


def _unpack_angle_payload(
    bits: np.ndarray,
    control: MimoControl,
    n_tones: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_pack_angle_payload`: bits -> (phi, psi) codes."""
    quantizer = control.quantizer
    n_phi, n_psi = angle_counts(control.n_rows, control.n_columns)
    phi_codes = np.empty((n_tones, n_phi), dtype=np.int64)
    psi_codes = np.empty((n_tones, n_psi), dtype=np.int64)
    phi_weights = _weights(quantizer.b_phi)
    psi_weights = _weights(quantizer.b_psi)
    per_tone = bits.reshape(n_tones, -1)
    column = 0
    for base, block in _round_blocks(control.n_rows, control.n_columns):
        width = block * quantizer.b_phi
        chunk = per_tone[:, column : column + width]
        phi_codes[:, base : base + block] = (
            chunk.reshape(n_tones, block, quantizer.b_phi).astype(np.int64)
            @ phi_weights
        )
        column += width
        width = block * quantizer.b_psi
        chunk = per_tone[:, column : column + width]
        psi_codes[:, base : base + block] = (
            chunk.reshape(n_tones, block, quantizer.b_psi).astype(np.int64)
            @ psi_weights
        )
        column += width
    return phi_codes, psi_codes


@profiled("cbf.encode")
def encode_cbf(
    bf: np.ndarray,
    control: MimoControl,
    snr_db: "np.ndarray | float" = 30.0,
    mu_delta_db: np.ndarray | None = None,
) -> bytes:
    """Encode beamforming matrices into a compressed beamforming frame.

    Parameters
    ----------
    bf:
        Per-tone beamforming matrices, shape ``(S, Nr, Nc)`` — the full
        tone grid; grouping subsamples internally.
    control:
        Frame metadata (dimensions, bandwidth, grouping, codebook).
    snr_db:
        Per-stream average SNR (scalar or ``(Nc,)``).
    mu_delta_db:
        Optional per-tone delta SNR ``(S, Nc)``; appends the MU
        Exclusive Beamforming Report segment.
    """
    bf = np.asarray(bf, dtype=np.complex128)
    expected = (control.n_subcarriers, control.n_rows, control.n_columns)
    if bf.shape != expected:
        raise ShapeError(f"bf shape {bf.shape} != expected {expected}")

    tones = grouped_tone_indices(control.n_subcarriers, control.grouping)
    angles = givens_decompose(bf[tones])
    quantizer = control.quantizer
    phi_codes = quantizer.quantize_phi(angles.phi)
    psi_codes = quantizer.quantize_psi(angles.psi)

    snr = np.broadcast_to(
        np.atleast_1d(np.asarray(snr_db, dtype=np.float64)), (control.n_columns,)
    )

    writer = BitWriter(
        capacity=cbf_payload_bits(control, include_mu_exclusive=mu_delta_db is not None)
    )
    control.pack(writer)
    writer.write_array(_snr_to_code(snr), 8)
    writer.write_bits(_pack_angle_payload(phi_codes, psi_codes, control))
    if mu_delta_db is not None:
        mu_delta_db = np.asarray(mu_delta_db, dtype=np.float64)
        if mu_delta_db.shape != (control.n_subcarriers, control.n_columns):
            raise ShapeError(
                f"mu_delta_db shape {mu_delta_db.shape} != "
                f"({control.n_subcarriers}, {control.n_columns})"
            )
        writer.write_array(_delta_to_code(mu_delta_db), _DELTA_SNR_BITS)
    return writer.getvalue()


@profiled("cbf.decode")
def decode_cbf(data: bytes, expect_mu_exclusive: bool | None = None) -> CbfReport:
    """Parse a compressed beamforming frame back into codes.

    ``expect_mu_exclusive=None`` auto-detects the MU segment from the
    frame length.
    """
    reader = BitReader(data)
    control = MimoControl.unpack(reader)
    snr_codes = reader.read_array(control.n_columns, 8)

    n_phi, n_psi = angle_counts(control.n_rows, control.n_columns)
    quantizer = control.quantizer
    tones = grouped_tone_indices(control.n_subcarriers, control.grouping)
    angle_bits = reader.read_bits(
        tones.size * (n_phi * quantizer.b_phi + n_psi * quantizer.b_psi)
    )
    phi_codes, psi_codes = _unpack_angle_payload(angle_bits, control, tones.size)

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


def _interpolate_angles(
    values: np.ndarray,
    tones: np.ndarray,
    n_subcarriers: int,
    circular: bool,
) -> np.ndarray:
    """Linearly interpolate grouped angle tracks onto the full tone grid.

    ``circular=True`` unwraps phases before interpolation so a phi track
    crossing the 0/2pi seam does not sweep through the whole circle.
    """
    if tones.size == n_subcarriers:
        return values
    full = np.arange(n_subcarriers, dtype=np.float64)
    out = np.empty((n_subcarriers, values.shape[1]), dtype=np.float64)
    for col in range(values.shape[1]):
        track = values[:, col]
        if circular:
            track = np.unwrap(track)
        out[:, col] = np.interp(full, tones.astype(np.float64), track)
    if circular:
        out = np.mod(out, 2.0 * np.pi)
    return out


def reconstruct_bf_from_report(report: CbfReport) -> np.ndarray:
    """AP-side reconstruction: dequantize, interpolate, rebuild ``V``.

    Returns the beamforming-equivalent ``V_tilde`` on the full tone grid,
    shape ``(S, Nr, Nc)``.
    """
    control = report.control
    quantizer = control.quantizer
    tones = report.tone_indices
    phi = quantizer.dequantize_phi(report.phi_codes)
    psi = quantizer.dequantize_psi(report.psi_codes)
    phi_full = _interpolate_angles(phi, tones, control.n_subcarriers, circular=True)
    psi_full = _interpolate_angles(psi, tones, control.n_subcarriers, circular=False)
    angles = GivensAngles(
        phi=phi_full,
        psi=psi_full,
        n_tx=control.n_rows,
        n_streams=control.n_columns,
    )
    return givens_reconstruct(angles)


class Dot11CbfCodec:
    """Convenience wrapper: ``V -> frame bytes -> V_hat`` for one config.

    This is the full 802.11 feedback round trip at the *bit* level — the
    array-level pipeline in ``repro.baselines.dot11`` is its fast path,
    and the test suite asserts the two agree.
    """

    def __init__(self, control: MimoControl) -> None:
        self.control = control

    def with_grouping(self, grouping: int) -> "Dot11CbfCodec":
        """Same codec with a different subcarrier grouping."""
        return Dot11CbfCodec(replace(self.control, grouping=grouping))

    def frame_bytes(self) -> int:
        """Encoded frame size in octets."""
        return bits_to_bytes(cbf_payload_bits(self.control))

    def encode(self, bf: np.ndarray, snr_db: "np.ndarray | float" = 30.0) -> bytes:
        return encode_cbf(bf, self.control, snr_db=snr_db)

    def decode(self, data: bytes) -> np.ndarray:
        return reconstruct_bf_from_report(decode_cbf(data))

    def roundtrip(self, bf: np.ndarray) -> np.ndarray:
        """Encode then decode one sample's beamforming matrices."""
        return self.decode(self.encode(bf))

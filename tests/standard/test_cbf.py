"""Tests for the bit-exact VHT compressed beamforming frame codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.phy.ofdm import band_plan
from repro.phy.svd import beamforming_matrices
from repro.standard.cbf import (
    Dot11CbfCodec,
    MimoControl,
    cbf_payload_bits,
    codebook_for,
    decode_cbf,
    encode_cbf,
    grouped_tone_indices,
    reconstruct_bf_from_report,
)
from repro.standard.feedback import Dot11FeedbackConfig, bmr_bits
from repro.standard.givens import givens_decompose
from repro.standard.quantization import AngleQuantizer
from repro.utils.bits import BitReader, BitWriter
from repro.utils.complexmat import column_correlation


def random_bf(n_sc: int, n_tx: int, n_streams: int, seed: int = 0) -> np.ndarray:
    """Orthonormal-column beamforming matrices from random channels."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((1, n_sc, n_tx, n_tx)) + 1j * rng.standard_normal(
        (1, n_sc, n_tx, n_tx)
    )
    return beamforming_matrices(h, n_streams=n_streams)[0]


class TestMimoControl:
    def test_pack_unpack_roundtrip(self):
        control = MimoControl(
            n_columns=2,
            n_rows=3,
            bandwidth_mhz=40,
            grouping=2,
            codebook=0,
            feedback_type="su",
            remaining_segments=5,
            first_segment=False,
            token=42,
        )
        writer = BitWriter()
        control.pack(writer)
        assert writer.bit_length == 24
        assert MimoControl.unpack(BitReader(writer.getvalue())) == control

    def test_quantizer_matches_codebook_table(self):
        assert MimoControl(1, 2, 20, codebook=0, feedback_type="su").quantizer == AngleQuantizer(4, 2)
        assert MimoControl(1, 2, 20, codebook=1, feedback_type="su").quantizer == AngleQuantizer(6, 4)
        assert MimoControl(1, 2, 20, codebook=0, feedback_type="mu").quantizer == AngleQuantizer(7, 5)
        assert MimoControl(1, 2, 20, codebook=1, feedback_type="mu").quantizer == AngleQuantizer(9, 7)

    def test_nc_cannot_exceed_nr(self):
        with pytest.raises(ConfigurationError):
            MimoControl(n_columns=3, n_rows=2, bandwidth_mhz=20)

    def test_unsupported_bandwidth(self):
        with pytest.raises(ConfigurationError):
            MimoControl(n_columns=1, n_rows=2, bandwidth_mhz=320)

    def test_bad_grouping(self):
        with pytest.raises(ConfigurationError):
            MimoControl(n_columns=1, n_rows=2, bandwidth_mhz=20, grouping=3)

    def test_token_range(self):
        with pytest.raises(ConfigurationError):
            MimoControl(n_columns=1, n_rows=2, bandwidth_mhz=20, token=64)

    def test_codebook_for_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            codebook_for("vht", 0)


class TestGroupedTones:
    def test_no_grouping_is_identity(self):
        np.testing.assert_array_equal(grouped_tone_indices(56, 1), np.arange(56))

    def test_grouping_two_includes_edge(self):
        idx = grouped_tone_indices(57, 2)
        assert idx[0] == 0
        assert idx[-1] == 56
        assert np.all(np.diff(idx) <= 2)

    def test_grouping_four_on_paper_band(self):
        idx = grouped_tone_indices(242, 4)
        assert idx[-1] == 241
        # 242/4 rounded up plus the forced edge tone.
        assert idx.size == 62

    def test_single_tone(self):
        np.testing.assert_array_equal(grouped_tone_indices(1, 4), [0])

    def test_bad_grouping_rejected(self):
        with pytest.raises(ConfigurationError):
            grouped_tone_indices(56, 8)


class TestPayloadBits:
    def test_matches_feedback_model_without_grouping(self):
        """cbf_payload_bits equals the Sec. IV-E2 BMR formula + control."""
        for n_tx, bw in [(2, 20), (3, 40), (4, 80)]:
            control = MimoControl(
                n_columns=1, n_rows=n_tx, bandwidth_mhz=bw, grouping=1
            )
            config = Dot11FeedbackConfig(
                n_tx=n_tx,
                n_rx=1,
                n_streams=1,
                bandwidth_mhz=bw,
                quantizer=AngleQuantizer(9, 7),
            )
            # bmr_bits uses 8*Nt header; the frame uses 24 control bits
            # + 8 per column of SNR.
            angle_bits = bmr_bits(config) - 8 * n_tx
            assert cbf_payload_bits(control) == 24 + 8 + angle_bits

    def test_grouping_shrinks_payload(self):
        base = MimoControl(n_columns=1, n_rows=3, bandwidth_mhz=80, grouping=1)
        grouped = MimoControl(n_columns=1, n_rows=3, bandwidth_mhz=80, grouping=4)
        assert cbf_payload_bits(grouped) < cbf_payload_bits(base) / 3

    def test_mu_exclusive_adds_delta_fields(self):
        control = MimoControl(n_columns=2, n_rows=2, bandwidth_mhz=20)
        extra = cbf_payload_bits(control, include_mu_exclusive=True) - cbf_payload_bits(control)
        assert extra == 56 * 2 * 4

    def test_encoded_length_matches_model(self):
        control = MimoControl(n_columns=1, n_rows=2, bandwidth_mhz=20)
        bf = random_bf(56, 2, 1)
        frame = encode_cbf(bf, control)
        assert len(frame) == (cbf_payload_bits(control) + 7) // 8


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "n_tx,n_streams,bw",
        [(2, 1, 20), (3, 1, 20), (3, 2, 40), (4, 1, 20), (4, 4, 20)],
    )
    def test_code_roundtrip_bit_exact(self, n_tx, n_streams, bw):
        """Decoded angle codes equal the encoder's quantizer output."""
        n_sc = band_plan(bw).n_subcarriers
        control = MimoControl(n_columns=n_streams, n_rows=n_tx, bandwidth_mhz=bw)
        bf = random_bf(n_sc, n_tx, n_streams, seed=n_tx * 10 + n_streams)
        report = decode_cbf(encode_cbf(bf, control))
        assert report.control == control

        q = control.quantizer
        angles = givens_decompose(bf)
        np.testing.assert_array_equal(report.phi_codes, q.quantize_phi(angles.phi))
        np.testing.assert_array_equal(report.psi_codes, q.quantize_psi(angles.psi))

    def test_snr_field_quantized_quarter_db(self):
        control = MimoControl(n_columns=2, n_rows=2, bandwidth_mhz=20)
        bf = random_bf(56, 2, 2)
        report = decode_cbf(encode_cbf(bf, control, snr_db=[13.1, 27.6]))
        np.testing.assert_allclose(report.snr_db, [13.0, 27.5], atol=0.25)

    def test_snr_clipped_to_field_range(self):
        control = MimoControl(n_columns=1, n_rows=2, bandwidth_mhz=20)
        bf = random_bf(56, 2, 1)
        report = decode_cbf(encode_cbf(bf, control, snr_db=99.0))
        assert report.snr_db[0] == pytest.approx(255 * 0.25 - 10.0)

    def test_mu_exclusive_roundtrip(self):
        control = MimoControl(n_columns=2, n_rows=3, bandwidth_mhz=20)
        bf = random_bf(56, 3, 2, seed=7)
        deltas = np.clip(
            np.round(np.random.default_rng(1).normal(0, 2, size=(56, 2))), -8, 7
        )
        report = decode_cbf(encode_cbf(bf, control, mu_delta_db=deltas))
        assert report.mu_delta_codes is not None
        np.testing.assert_array_equal(report.mu_delta_db, deltas)

    def test_mu_exclusive_absent_when_not_sent(self):
        control = MimoControl(n_columns=1, n_rows=2, bandwidth_mhz=20)
        bf = random_bf(56, 2, 1)
        report = decode_cbf(encode_cbf(bf, control))
        assert report.mu_delta_codes is None

    def test_wrong_bf_shape_rejected(self):
        control = MimoControl(n_columns=1, n_rows=2, bandwidth_mhz=20)
        with pytest.raises(ShapeError):
            encode_cbf(np.zeros((10, 2, 1)), control)

    def test_wrong_delta_shape_rejected(self):
        control = MimoControl(n_columns=1, n_rows=2, bandwidth_mhz=20)
        bf = random_bf(56, 2, 1)
        with pytest.raises(ShapeError):
            encode_cbf(bf, control, mu_delta_db=np.zeros((10, 1)))


class TestReconstruction:
    def test_ungrouped_reconstruction_close_to_v(self):
        """Full-resolution mu_high feedback reconstructs V accurately."""
        control = MimoControl(
            n_columns=1, n_rows=3, bandwidth_mhz=20, codebook=1, feedback_type="mu"
        )
        bf = random_bf(56, 3, 1, seed=3)
        v_hat = reconstruct_bf_from_report(decode_cbf(encode_cbf(bf, control)))
        corr = column_correlation(v_hat, bf)
        assert np.mean(corr) > 0.999

    def test_coarse_codebook_worse_than_fine(self):
        bf = random_bf(56, 3, 1, seed=4)
        corrs = {}
        for codebook in (0, 1):
            control = MimoControl(
                n_columns=1,
                n_rows=3,
                bandwidth_mhz=20,
                codebook=codebook,
                feedback_type="su",
            )
            v_hat = reconstruct_bf_from_report(decode_cbf(encode_cbf(bf, control)))
            corrs[codebook] = float(np.mean(column_correlation(v_hat, bf)))
        assert corrs[1] > corrs[0]

    def test_grouping_degrades_gracefully(self):
        """Ng=2/4 reconstruction stays decent on smooth channels and
        monotonically loses accuracy as Ng grows."""
        rng = np.random.default_rng(5)
        # Smooth frequency response: few taps -> strongly correlated tones.
        taps = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        freq = np.fft.fft(taps, n=64, axis=-1)[..., :56]  # (Nr=2, Nt=3, S)
        h = np.transpose(freq, (2, 0, 1))  # (S, Nr, Nt)
        bf = beamforming_matrices(h, n_streams=1)  # (S, Nt=3, 1)
        corr_by_ng = {}
        for ng in (1, 2, 4):
            control = MimoControl(
                n_columns=1, n_rows=3, bandwidth_mhz=20, grouping=ng
            )
            v_hat = reconstruct_bf_from_report(
                decode_cbf(encode_cbf(bf, control))
            )
            corr_by_ng[ng] = float(np.mean(column_correlation(v_hat, bf)))
        assert corr_by_ng[1] >= corr_by_ng[2] >= corr_by_ng[4] - 1e-9
        assert corr_by_ng[4] > 0.97

    def test_codec_wrapper_roundtrip(self):
        control = MimoControl(n_columns=1, n_rows=2, bandwidth_mhz=20)
        codec = Dot11CbfCodec(control)
        bf = random_bf(56, 2, 1, seed=9)
        v_hat = codec.roundtrip(bf)
        assert v_hat.shape == bf.shape
        assert codec.frame_bytes() == len(codec.encode(bf))

    def test_with_grouping_returns_new_codec(self):
        codec = Dot11CbfCodec(MimoControl(n_columns=1, n_rows=2, bandwidth_mhz=20))
        grouped = codec.with_grouping(4)
        assert grouped.control.grouping == 4
        assert codec.control.grouping == 1
        assert grouped.frame_bytes() < codec.frame_bytes()


class TestFrameProperties:
    @given(
        n_tx=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=999),
        codebook=st.sampled_from([0, 1]),
        fb=st.sampled_from(["su", "mu"]),
    )
    def test_decode_encode_identity_on_codes(self, n_tx, seed, codebook, fb):
        """encode(decode(frame)) reproduces the same frame bytes."""
        control = MimoControl(
            n_columns=1,
            n_rows=n_tx,
            bandwidth_mhz=20,
            codebook=codebook,
            feedback_type=fb,
        )
        bf = random_bf(56, n_tx, 1, seed=seed)
        frame = encode_cbf(bf, control)
        report = decode_cbf(frame)
        # Re-encoding the dequantized angles must quantize back onto the
        # same codes (quantizer idempotence on codebook centers).
        v_hat = reconstruct_bf_from_report(report)
        frame2 = encode_cbf(v_hat, control, snr_db=report.snr_db)
        assert frame2 == frame

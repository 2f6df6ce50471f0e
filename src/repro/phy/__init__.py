"""MIMO-OFDM physical-layer substrate.

Implements everything the paper's BER-measurement procedure (Sec. 5.2.2)
needs: OFDM band plans, Gray-mapped QAM, the 802.11 rate-1/2 binary
convolutional code with Viterbi decoding, AWGN, SVD beamforming,
zero-forcing MU-MIMO precoding, and an end-to-end link simulator.
"""

from repro.phy.ofdm import BandPlan, band_plan, SUBCARRIERS, BANDWIDTHS_MHZ
from repro.phy.modulation import QamModem
from repro.phy.coding import ConvolutionalCode, bcc_rate_half
from repro.phy.noise import awgn, snr_db_to_linear, snr_linear_to_db, noise_power
from repro.phy.precoding import (
    zero_forcing,
    regularized_zero_forcing,
    normalize_columns,
    interference_leakage,
)
from repro.phy.svd import beamforming_matrix, beamforming_matrices, effective_channel
from repro.phy.link import LinkConfig, LinkSimulator, BerResult
from repro.phy.rates import phy_rate_bps, frame_airtime_s, SIFS_S
from repro.phy.metrics import (
    LinkMetrics,
    sinr_per_user,
    leakage_ratio,
    sum_rate_bps_per_hz,
    evm_rms,
    compute_link_metrics,
    batch_link_metrics,
    batch_mean_sinr_db,
)
from repro.phy.scrambler import Scrambler, scramble, descramble
from repro.phy.interleaver import BlockInterleaver
from repro.phy.mcs import McsEntry, MCS_TABLE, mcs_entry, data_rate_bps, select_mcs
from repro.phy.estimation import (
    p_matrix,
    ltf_sequence,
    NdpObservation,
    transmit_ndp,
    estimate_channel,
    estimation_nmse,
)

__all__ = [
    "BandPlan",
    "band_plan",
    "SUBCARRIERS",
    "BANDWIDTHS_MHZ",
    "QamModem",
    "ConvolutionalCode",
    "bcc_rate_half",
    "awgn",
    "snr_db_to_linear",
    "snr_linear_to_db",
    "noise_power",
    "zero_forcing",
    "normalize_columns",
    "interference_leakage",
    "beamforming_matrix",
    "beamforming_matrices",
    "effective_channel",
    "LinkConfig",
    "LinkSimulator",
    "BerResult",
    "phy_rate_bps",
    "frame_airtime_s",
    "SIFS_S",
    "regularized_zero_forcing",
    "LinkMetrics",
    "sinr_per_user",
    "leakage_ratio",
    "sum_rate_bps_per_hz",
    "evm_rms",
    "compute_link_metrics",
    "batch_link_metrics",
    "batch_mean_sinr_db",
    "Scrambler",
    "scramble",
    "descramble",
    "BlockInterleaver",
    "McsEntry",
    "MCS_TABLE",
    "mcs_entry",
    "data_rate_bps",
    "select_mcs",
    "p_matrix",
    "ltf_sequence",
    "NdpObservation",
    "transmit_ndp",
    "estimate_channel",
    "estimation_nmse",
]

"""Stochastic Wi-Fi channel models (testbed substitute).

The paper trains on 230 GB of Nexmon CSI captures from two physical
environments plus MATLAB ``wlanTGacChannel`` synthetic data.  Neither
the captures nor MATLAB are available offline, so this package
implements the IEEE TGn/TGac cluster-tap channel models those tools are
built on:

- :mod:`repro.channels.tgac` — delay profiles (Model A-F, Model B exact
  per IEEE 802.11-03/940r4) and the frequency-domain channel generator;
- :mod:`repro.channels.spatial` — uniform-linear-array correlation under
  a Laplacian power-angle spectrum;
- :mod:`repro.channels.doppler` — Jakes temporal correlation and a
  human-blockage shadowing process;
- :mod:`repro.channels.environment` — the E1/E2 environment presets and
  the MATLAB-equivalent synthetic preset;
- :mod:`repro.channels.sampler` — packetized CSI sampling with
  estimation noise, packet drops, and sequence numbers.
"""

from repro.channels.tgac import (
    ClusterSpec,
    DelayProfile,
    TgacChannel,
    MODEL_A,
    MODEL_B,
    MODEL_C,
    MODEL_D,
    MODEL_E,
    MODEL_F,
    delay_profile,
)
from repro.channels.spatial import ula_correlation, correlation_sqrt
from repro.channels.doppler import jakes_ar1_coefficient, ShadowingProcess
from repro.channels.environment import Environment, E1, E2, SYNTHETIC, environment
from repro.channels.sampler import CsiSampler, CsiBatch

__all__ = [
    "ClusterSpec",
    "DelayProfile",
    "TgacChannel",
    "MODEL_A",
    "MODEL_B",
    "MODEL_C",
    "MODEL_D",
    "MODEL_E",
    "MODEL_F",
    "delay_profile",
    "ula_correlation",
    "correlation_sqrt",
    "jakes_ar1_coefficient",
    "ShadowingProcess",
    "Environment",
    "E1",
    "E2",
    "SYNTHETIC",
    "environment",
    "CsiSampler",
    "CsiBatch",
]

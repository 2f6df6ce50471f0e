"""Temporal channel dynamics: Jakes correlation and blockage shadowing.

Packets arrive every millisecond in the paper's collection campaign
(1000 packets/s), so consecutive CSI samples are temporally correlated.
We model each tap's complex gain as a first-order autoregressive (AR(1))
process whose one-step coefficient matches the Jakes autocorrelation
``J0(2*pi*fd*dt)`` of the environment's Doppler spread, and add a
log-normal shadowing process for the human-blockage events that
distinguish environment E2.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import as_generator

__all__ = ["j0", "ar1_filter", "jakes_ar1_coefficient", "ShadowingProcess"]

# Cephes ``j0.c`` (S. L. Moshier), the algorithm ``scipy.special.j0``
# evaluates.  Cephes stores ``RQ`` and ``QQ`` without their leading 1 and
# evaluates them with ``p1evl``; ``1.0 * z`` is exact, so spelling the 1
# out and using :func:`_polevl` gives the same bits.
_J0_DR1 = 5.78318596294678452118e0  # first zero of J0, squared
_J0_DR2 = 3.04712623436620863991e1  # second zero of J0, squared
_J0_RP = (
    -4.79443220978201773821e9,
    1.95617491946556577543e12,
    -2.49248344360967716204e14,
    9.70862251047306323952e15,
)
_J0_RQ = (
    1.0,
    4.99563147152651017219e2,
    1.73785401676374683123e5,
    4.84409658339962045305e7,
    1.11855537045356834862e10,
    2.11277520115489217587e12,
    3.10518229857422583814e14,
    3.18121955943204943306e16,
    1.71086294081043136091e18,
)
_J0_PP = (
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_J0_PQ = (
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_J0_QP = (
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
)
_J0_QQ = (
    1.0,
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
)
_J0_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2 / pi)


def _polevl(x: float, coefs: tuple[float, ...]) -> float:
    """Horner's rule, highest power first (Cephes ``polevl``)."""
    ans = coefs[0]
    for coef in coefs[1:]:
        ans = ans * x + coef
    return ans


def j0(x: float) -> float:
    """Bessel function of the first kind of order zero.

    A port of Cephes ``j0.c``, kept to its operation order so it equals
    ``scipy.special.j0`` bit for bit.  For ``|x| <= 5`` it is a rational
    function times the factors of J0's first two zeros; beyond, it is
    the Hankel asymptotic form.  ``j0(+-inf)`` is nan, as in Cephes.
    """
    x = abs(float(x))
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _J0_DR1) * (z - _J0_DR2)
        return p * _polevl(z, _J0_RP) / _polevl(z, _J0_RQ)
    if x == math.inf:
        return math.nan  # Cephes reaches cos(inf); math.cos raises
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _polevl(q, _J0_QQ)
    xn = x - math.pi / 4
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _J0_SQ2OPI / math.sqrt(x)


def ar1_filter(x: np.ndarray, rho: float, zi) -> np.ndarray:
    """Run the AR(1) recursion over axis 0 of ``x``.

    ``y[0] = x[0] + zi`` and ``y[k] = x[k] + rho * y[k-1]``, with ``zi``
    broadcast against ``x[0]``.  Each step is one multiply and one add,
    as in ``scipy.signal.lfilter([1.0], [1.0, -rho], x, axis=0, zi=...)``,
    which it equals bit for bit; a complex ``y`` is scaled by the real
    ``rho`` as a whole.
    """
    y = np.array(x, dtype=np.result_type(x, zi))
    y[0] += zi
    for k in range(1, y.shape[0]):
        y[k] += rho * y[k - 1]
    return y


def jakes_ar1_coefficient(doppler_hz: float, dt_s: float) -> float:
    """AR(1) coefficient matching the Jakes autocorrelation at lag ``dt``.

    ``rho = J0(2*pi*fd*dt)``, clipped to [0, 1).  ``fd = 0`` gives a
    static channel (rho = 1 is replaced by 1 - 1e-12 to keep the AR
    innovation well defined).
    """
    if doppler_hz < 0:
        raise ConfigurationError("doppler_hz must be non-negative")
    if dt_s <= 0:
        raise ConfigurationError("dt_s must be positive")
    rho = j0(2.0 * np.pi * doppler_hz * dt_s)
    return min(max(rho, 0.0), 1.0 - 1e-12)


class ShadowingProcess:
    """Slow log-normal shadowing (human blockage) per user.

    A temporally correlated Gaussian process in dB, exponentiated to a
    linear amplitude factor.  ``sigma_db = 0`` disables shadowing (the
    E1 preset); E2 uses a few dB with second-scale coherence.
    """

    def __init__(
        self,
        sigma_db: float,
        coherence_s: float,
        dt_s: float,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        if sigma_db < 0:
            raise ConfigurationError("sigma_db must be non-negative")
        if coherence_s <= 0 or dt_s <= 0:
            raise ConfigurationError("coherence_s and dt_s must be positive")
        self.sigma_db = float(sigma_db)
        self.rho = float(np.exp(-dt_s / coherence_s))
        self.rng = as_generator(rng)
        self._state_db = 0.0
        if self.sigma_db > 0:
            self._state_db = float(self.rng.normal(0.0, self.sigma_db))

    def step(self) -> float:
        """Advance one sample period; return the linear amplitude factor."""
        if self.sigma_db == 0:
            return 1.0
        innovation = self.rng.normal(0.0, self.sigma_db * np.sqrt(1 - self.rho**2))
        self._state_db = self.rho * self._state_db + innovation
        return float(10.0 ** (self._state_db / 20.0))

    def sample(self, n_samples: int) -> np.ndarray:
        """Advance ``n_samples`` periods at once; return ``(n,)`` factors.

        One batched innovation draw feeds :func:`ar1_filter`, and the
        dB-to-linear conversion is one array operation.
        """
        if n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if self.sigma_db == 0:
            return np.ones(n_samples)
        innovations = self.rng.normal(
            0.0, self.sigma_db * np.sqrt(1 - self.rho**2), size=n_samples
        )
        series = ar1_filter(innovations, self.rho, self.rho * self._state_db)
        self._state_db = float(series[-1])
        return 10.0 ** (series / 20.0)

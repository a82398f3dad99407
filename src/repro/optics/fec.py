"""Forward error correction: KP4 outer code and the soft-decision inner code.

§3.3.2/§4.1.2: the transceiver DSP implements a proprietary ultra-low-
latency (<20 ns at 200 Gb/s) soft-decision FEC used as an *inner* code,
concatenated with the standard KP4 outer code (RS(544, 514) over 10-bit
symbols, IEEE 802.3cd).  A variant was adopted by IEEE 802.3dj.

Models:

- :class:`Kp4OuterCode` -- analytic hard-decision Reed-Solomon transfer
  function: input BER -> post-FEC BER via the binomial symbol-error tail.
- :class:`InnerSoftFec` -- Chase-style soft decoding of a short block code,
  modelled as correcting up to ``t_eff`` bit errors per ``block_bits``
  block.  The default (t_eff=3 over 128 bits) reproduces the ~1.5 dB
  receiver-sensitivity gain of Fig 12.
- :class:`ConcatenatedFec` -- the composition, with threshold solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.errors import ConfigurationError

# scipy.stats (~70 MB resident) is imported inside the methods that take
# binomial tails, so importing the optics package stays light.

#: Pre-FEC BER threshold of the standalone KP4 code (paper: 2e-4).
KP4_BER_THRESHOLD = 2e-4

#: Post-FEC output BER regarded as error-free operation.
ERROR_FREE_BER = 1e-13


@dataclass(frozen=True)
class Kp4OuterCode:
    """RS(n=544, k=514) over GF(2^10): corrects t=15 symbol errors."""

    n_symbols: int = 544
    k_symbols: int = 514
    bits_per_symbol: int = 10

    def __post_init__(self) -> None:
        if self.k_symbols >= self.n_symbols:
            raise ConfigurationError("k must be smaller than n")
        if self.bits_per_symbol <= 0:
            raise ConfigurationError("symbol size must be positive")

    @property
    def t_symbols(self) -> int:
        """Correctable symbol errors per codeword."""
        return (self.n_symbols - self.k_symbols) // 2

    @property
    def rate(self) -> float:
        return self.k_symbols / self.n_symbols

    def symbol_error_rate(self, input_ber: float) -> float:
        """Probability a 10-bit symbol contains at least one bit error."""
        _check_ber(input_ber)
        if input_ber == 0.0:
            return 0.0
        # -expm1(m*log1p(-b)) keeps precision for tiny BERs.
        return -math.expm1(self.bits_per_symbol * math.log1p(-input_ber))

    def codeword_failure_rate(self, input_ber: float) -> float:
        """Probability a codeword has more than t symbol errors."""
        from scipy.stats import binom

        p = self.symbol_error_rate(input_ber)
        return float(binom.sf(self.t_symbols, self.n_symbols, p))

    def output_ber(self, input_ber: float) -> float:
        """Post-FEC BER under the standard bounded-distance analysis.

        When decoding fails (more than t symbol errors) the errored symbols
        pass through; the post-FEC symbol error rate is
        ``E[j * 1(j > t)] / n`` and each errored symbol carries on average
        ``bits_per_symbol * input_ber / p_symbol`` errored bits.
        """
        _check_ber(input_ber)
        if input_ber == 0.0:
            return 0.0
        p = self.symbol_error_rate(input_ber)
        if p == 0.0:
            return 0.0
        from scipy.stats import binom

        n, t = self.n_symbols, self.t_symbols
        # E[j * 1(j > t)] via the binomial identity E[j 1(j>t)] = n p P(X' >= t)
        # where X' ~ Binom(n-1, p).
        expected_bad = n * p * float(binom.sf(t - 1, n - 1, p))
        post_ser = expected_bad / n
        bits_per_bad_symbol = self.bits_per_symbol * input_ber / p
        return post_ser * bits_per_bad_symbol / self.bits_per_symbol


@dataclass(frozen=True)
class InnerSoftFec:
    """The proprietary low-latency soft-decision inner code.

    Modelled as an extended-Hamming-class block code of ``block_bits`` with
    Chase soft decoding whose net behaviour corrects up to ``t_eff`` bit
    errors per block.  Latency is the paper's <20 ns at 200 Gb/s.
    """

    block_bits: int = 128
    payload_bits: int = 120
    t_eff: int = 2
    latency_ns: float = 18.0

    def __post_init__(self) -> None:
        if self.payload_bits >= self.block_bits:
            raise ConfigurationError("payload must be smaller than the block")
        if self.t_eff < 1:
            raise ConfigurationError("t_eff must be at least 1")
        if self.latency_ns < 0:
            raise ConfigurationError("latency must be non-negative")

    @property
    def rate(self) -> float:
        return self.payload_bits / self.block_bits

    @property
    def overhead_percent(self) -> float:
        return (self.block_bits / self.payload_bits - 1.0) * 100.0

    def block_failure_rate(self, input_ber: float) -> float:
        """Probability a block exceeds the soft-decoding radius."""
        from scipy.stats import binom

        _check_ber(input_ber)
        return float(binom.sf(self.t_eff, self.block_bits, input_ber))

    def output_ber(self, input_ber: float) -> float:
        """BER delivered to the outer code.

        Failed blocks pass their errors through:
        ``BER_out = E[j * 1(j > t_eff)] / block_bits``.
        """
        _check_ber(input_ber)
        if input_ber == 0.0:
            return 0.0
        from scipy.stats import binom

        n, t = self.block_bits, self.t_eff
        expected_bad = n * input_ber * float(binom.sf(t - 1, n - 1, input_ber))
        return expected_bad / n

    def output_ber_batch(self, input_bers: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`output_ber` over an array of channel BERs.

        One ``binom.sf`` pass for a whole waterfall; matches the scalar
        transfer function elementwise (zeros map to zeros).
        """
        bers = np.asarray(input_bers, dtype=float)
        if np.any((bers < 0.0) | (bers > 1.0)):
            raise ConfigurationError("BER must lie in [0, 1]")
        from scipy.stats import binom

        n, t = self.block_bits, self.t_eff
        expected_bad = n * bers * binom.sf(t - 1, n - 1, bers)
        return np.where(bers == 0.0, 0.0, expected_bad / n)


@dataclass(frozen=True)
class ConcatenatedFec:
    """Inner soft-decision code concatenated with the KP4 outer code."""

    inner: InnerSoftFec = InnerSoftFec()
    outer: Kp4OuterCode = Kp4OuterCode()

    def post_fec_ber(self, channel_ber: float) -> float:
        """End-to-end output BER for a given slicer (channel) BER."""
        return self.outer.output_ber(self.inner.output_ber(channel_ber))

    def channel_threshold(self, target_output_ber: float = ERROR_FREE_BER) -> float:
        """Largest channel BER for which the concatenation still delivers
        ``target_output_ber`` -- solved by bisection.

        This is the number that turns into receiver-sensitivity gain: the
        slicer may run at a much higher BER than KP4's 2e-4 alone.
        """
        return _bisect_threshold(self.post_fec_ber, target_output_ber)

    def inner_input_threshold(self) -> float:
        """Channel BER at which the inner code outputs the KP4 threshold."""
        return _bisect_threshold(self.inner.output_ber, KP4_BER_THRESHOLD)

    @property
    def total_rate(self) -> float:
        return self.inner.rate * self.outer.rate

    @property
    def latency_ns(self) -> float:
        """Added latency of the inner code (the outer KP4 is always present)."""
        return self.inner.latency_ns


def kp4_channel_threshold(
    outer: Optional[Kp4OuterCode] = None, target_output_ber: float = ERROR_FREE_BER
) -> float:
    """Channel BER threshold for the standalone KP4 code (~2e-4)."""
    code = outer or Kp4OuterCode()
    return _bisect_threshold(code.output_ber, target_output_ber)


def _bisect_threshold(transfer, target: float, lo: float = 1e-8, hi: float = 0.2) -> float:
    """Find the input BER where a monotone transfer function hits ``target``."""
    if transfer(lo) > target:
        raise ConfigurationError("transfer already above target at the lower bracket")
    if transfer(hi) < target:
        return hi
    for _ in range(80):
        mid = math.sqrt(lo * hi)  # geometric bisection suits BER scales
        if transfer(mid) > target:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


def _check_ber(ber: float) -> None:
    if not 0.0 <= ber <= 0.5:
        raise ConfigurationError(f"BER must be in [0, 0.5], got {ber}")

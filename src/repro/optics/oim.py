"""Optical interference mitigation (OIM): the notch-filter DSP of §4.1.2.

The dominant MPI impairment on a bidi link is the carrier-to-carrier beat
between the signal and a delayed interferer copy.  Because the two carriers
are nearly co-frequency, the beat concentrates in a *narrow spectral band*
at their frequency offset.  The patented algorithm [Zhou et al., US10084547]
(1) estimates that offset by monitoring the received spectrum, (2)
reconstructs the beat tone digitally, and (3) removes it with a notch
filter centered on the offset.

Two views are provided:

- :class:`OimDsp` -- a behavioural model exposing the effective
  beat-amplitude suppression used by the BER engine, plus a working
  signal-path demonstration (:meth:`mitigate`) that runs an actual IIR
  notch filter over a synthetic sampled waveform.
- :func:`estimate_interferer_frequency` -- FFT-peak offset estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.errors import ConfigurationError

#: Default beat-power suppression achieved by the notch, dB.
DEFAULT_SUPPRESSION_DB = 12.0


def estimate_interferer_frequency(
    samples: np.ndarray, sample_rate_hz: float, min_offset_hz: float = 0.0
) -> float:
    """Locate the dominant narrow-band tone in a sampled waveform.

    Returns the frequency (Hz) of the largest FFT bin above ``min_offset_hz``
    after removing the DC/baseband bulk -- the digital-domain frequency-
    offset monitor of the OIM algorithm.
    """
    if samples.ndim != 1 or samples.size < 16:
        raise ConfigurationError("need a 1-D waveform of at least 16 samples")
    if sample_rate_hz <= 0:
        raise ConfigurationError("sample rate must be positive")
    spectrum = np.abs(np.fft.rfft(samples - samples.mean()))
    freqs = np.fft.rfftfreq(samples.size, d=1.0 / sample_rate_hz)
    mask = freqs >= max(min_offset_hz, freqs[1])
    if not mask.any():
        raise ConfigurationError("no spectral bins above the minimum offset")
    idx = int(np.argmax(np.where(mask, spectrum, 0.0)))
    return float(freqs[idx])


@dataclass(frozen=True)
class OimDsp:
    """The OIM block: notch-based beat removal.

    Args:
        suppression_db: beat-power suppression delivered to the slicer when
            enabled.  The BER engine converts this to an amplitude factor.
        notch_q: quality factor of the demonstration IIR notch.
        enabled: master switch (disabled = legacy receiver).
    """

    suppression_db: float = DEFAULT_SUPPRESSION_DB
    notch_q: float = 30.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.suppression_db < 0:
            raise ConfigurationError("suppression must be non-negative dB")
        if self.notch_q <= 0:
            raise ConfigurationError("notch Q must be positive")

    @property
    def effective_suppression_db(self) -> float:
        """Suppression seen by the BER model (0 when disabled)."""
        return self.suppression_db if self.enabled else 0.0

    def mitigate(
        self, samples: np.ndarray, sample_rate_hz: float
    ) -> Tuple[np.ndarray, float]:
        """Run the full signal-path algorithm on a sampled waveform.

        Estimates the interferer offset, centers an IIR notch there, and
        filters.  Returns ``(filtered_samples, estimated_offset_hz)``.
        When disabled the waveform passes through untouched.
        """
        if not self.enabled:
            return samples.copy(), 0.0
        offset_hz = estimate_interferer_frequency(samples, sample_rate_hz)
        nyquist = sample_rate_hz / 2.0
        if not 0.0 < offset_hz < nyquist:
            return samples.copy(), offset_hz
        # Imported here: scipy.signal is large and only this filter uses it.
        from scipy.signal import iirnotch, lfilter

        b, a = iirnotch(offset_hz / nyquist, Q=self.notch_q)
        return lfilter(b, a, samples), offset_hz


def beat_tone_waveform(
    rng: np.random.Generator,
    num_samples: int,
    sample_rate_hz: float,
    tone_hz: float,
    tone_amplitude: float,
    noise_rms: float,
) -> np.ndarray:
    """Synthesize a received waveform: Gaussian noise plus a beat tone.

    Utility for OIM demonstrations and tests: the narrow-band beat rides on
    the broadband receiver noise exactly as in Fig 11's model.
    """
    if num_samples <= 0:
        raise ConfigurationError("need at least one sample")
    if tone_hz >= sample_rate_hz / 2.0:
        raise ConfigurationError("tone must sit below Nyquist")
    t = np.arange(num_samples) / sample_rate_hz
    phase = rng.uniform(0.0, 2.0 * math.pi)
    tone = tone_amplitude * np.cos(2.0 * math.pi * tone_hz * t + phase)
    return tone + rng.normal(0.0, noise_rms, size=num_samples)

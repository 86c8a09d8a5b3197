"""AudioStack: the frozen, hashable render identity.

Two devices produce bit-identical audio fingerprints exactly when their
stacks are equal, so ``cache_key()`` is a content address for renders:
the study runner dedups its user x iteration grid down to distinct
(vector, cache_key, jitter_path) classes and renders each class once.

Invalidation rule: ENGINE_VERSION is folded into every key; any change to
a node's DSP bumps it and orphans all previously cached renders.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..webaudio import ENGINE_VERSION
from ..webaudio.config import CompressorParams, EngineConfig
from ..webaudio.fft import get_fft_backend
from .mathlib import get_math_backend

#: Compressor tuning forks across engine families (spec defaults + deltas).
COMPRESSOR_VARIANTS = {
    "blink": CompressorParams(),
    "blink-mobile": CompressorParams(attack_s=0.0035, release_s=0.24),
    "gecko": CompressorParams(knee_db=28.0, attack_s=0.004),
    "webkit": CompressorParams(knee_db=32.0, release_s=0.22),
}


@dataclass(frozen=True)
class AudioStack:
    """Everything render-relevant about a device's audio pipeline."""

    engine: str               # browser engine family ("blink", "gecko", "webkit")
    math_backend: str         # key into platform.mathlib.MATH_BACKENDS
    fft_backend: str          # key into webaudio.fft.FFT_BACKENDS
    compressor_variant: str   # key into COMPRESSOR_VARIANTS
    sample_rate: int = 44100
    channel_count: int = 1

    def cache_key(self) -> str:
        return "|".join([
            f"e{ENGINE_VERSION}",
            self.engine,
            self.math_backend,
            self.fft_backend,
            self.compressor_variant,
            str(self.sample_rate),
            str(self.channel_count),
        ])

    def realize(self, jitter=None) -> EngineConfig:
        """Build the EngineConfig this stack denotes (optionally jittered)."""
        return EngineConfig(
            math=get_math_backend(self.math_backend),
            fft=get_fft_backend(self.fft_backend),
            compressor=COMPRESSOR_VARIANTS[self.compressor_variant],
            jitter_transform=jitter.transform if jitter is not None else None,
            readout_offset=jitter.readout_offset if jitter is not None else 0,
        )


#: (stack, os, browser, popularity weight) — ordered head-first; the sampler
#: layers a Zipf skew on top, so the Windows/Chromium head collapses to a
#: couple of equivalence classes exactly as in the paper's Table 5.
_POOL: list[tuple[AudioStack, str, str, float]] = [
    (AudioStack("blink", "ucrt", "radix2", "blink", 44100), "Windows", "Chrome", 46.0),
    (AudioStack("blink", "ucrt", "radix2", "blink", 48000), "Windows", "Chrome", 18.0),
    # Edge shares Chrome's entire stack -> same cache key, same fingerprint
    (AudioStack("blink", "ucrt", "radix2", "blink", 48000), "Windows", "Edge", 6.0),
    (AudioStack("blink", "ucrt-sse2", "radix2", "blink", 44100), "Windows", "Chrome", 4.0),
    (AudioStack("gecko", "fdlibm", "splitradix", "gecko", 44100), "Windows", "Firefox", 4.0),
    (AudioStack("gecko", "fdlibm", "splitradix", "gecko", 48000), "Windows", "Firefox", 2.0),
    (AudioStack("blink", "apple-libm", "numpy", "blink", 44100), "macOS", "Chrome", 3.0),
    (AudioStack("blink", "apple-libm", "numpy", "blink", 48000), "macOS", "Chrome", 2.0),
    (AudioStack("webkit", "apple-libm", "bluestein", "webkit", 44100), "macOS", "Safari", 2.0),
    (AudioStack("webkit", "apple-libm", "bluestein", "webkit", 48000), "macOS", "Safari", 1.0),
    (AudioStack("gecko", "apple-libm", "splitradix", "gecko", 48000), "macOS", "Firefox", 0.8),
    (AudioStack("blink", "bionic", "radix2", "blink-mobile", 48000), "Android", "Chrome", 3.5),
    (AudioStack("blink", "bionic", "radix2", "blink-mobile", 44100), "Android", "Chrome", 1.5),
    (AudioStack("blink", "bionic", "numpy", "blink-mobile", 48000), "Android", "Chrome", 0.8),
    (AudioStack("blink", "glibc", "radix2", "blink", 48000), "Linux", "Chrome", 2.0),
    (AudioStack("blink", "glibc-avx2", "radix2", "blink", 48000), "Linux", "Chrome", 0.9),
    (AudioStack("gecko", "glibc", "splitradix", "gecko", 44100), "Linux", "Firefox", 1.2),
    (AudioStack("gecko", "glibc", "splitradix", "gecko", 48000), "Linux", "Firefox", 0.7),
    (AudioStack("gecko", "musl", "splitradix", "gecko", 44100), "Linux", "Firefox", 0.3),
    (AudioStack("blink", "musl", "radix2", "blink", 44100), "Linux", "Chrome", 0.4),
    # long tail: rarer build x backend combinations
    (AudioStack("blink", "glibc", "numpy", "blink", 44100), "Linux", "Chrome", 0.3),
    (AudioStack("webkit", "apple-libm", "numpy", "webkit", 44100), "macOS", "Safari", 0.3),
    (AudioStack("gecko", "ucrt", "splitradix", "gecko", 44100), "Windows", "Firefox", 0.5),
    (AudioStack("blink", "ucrt", "bluestein", "blink", 44100), "Windows", "Chrome", 0.4),
    (AudioStack("blink", "glibc-avx2", "bluestein", "blink", 44100), "Linux", "Chrome", 0.2),
    (AudioStack("webkit", "fdlibm", "bluestein", "webkit", 44100), "macOS", "Safari", 0.2),
]


def default_stack_pool() -> list[tuple[AudioStack, str, str, float]]:
    """The calibrated pool: (stack, os, browser, weight) rows, head-first."""
    return list(_POOL)

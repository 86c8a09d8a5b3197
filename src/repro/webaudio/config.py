"""Engine configuration: the pluggable backends a render runs against.

``repro.webaudio`` depends only on NumPy. The platform layer
(``repro.platform``) builds richer configs (ulp-perturbed math backends,
alternative FFTs, compressor tuning forks, jitter sub-paths) and passes
them in here; the engine itself only duck-types against them.

Nothing here selects a render strategy: the context always tries the
fused whole-buffer path and falls back to the quantum loop for graphs
the fuser declines (see ``context.py``). Both are bit-identical, so the
choice never reaches a cache key.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fft import FFTBackend, NumpyFFT

class NumpyMath:
    """Reference math library: raw NumPy ufuncs, no perturbation."""

    name = "numpy"

    def sin(self, x):
        return np.sin(x)

    def cos(self, x):
        return np.cos(x)

    def exp(self, x):
        return np.exp(x)

    def log10(self, x):
        return np.log10(x)

    def pow(self, x, y):
        return np.power(x, y)

    def tanh(self, x):
        return np.tanh(x)


@dataclass(frozen=True)
class CompressorParams:
    """DynamicsCompressorNode tuning (spec defaults; variants per stack)."""

    threshold_db: float = -24.0
    knee_db: float = 30.0
    ratio: float = 12.0
    attack_s: float = 0.003
    release_s: float = 0.25
    makeup_exponent: float = 0.6


@dataclass
class EngineConfig:
    """Everything a render's numeric output depends on, besides the graph."""

    math: object = field(default_factory=NumpyMath)
    fft: FFTBackend = field(default_factory=NumpyFFT)
    compressor: CompressorParams = field(default_factory=CompressorParams)
    #: applied to the analyser's windowed frames (jitter sub-path); None = identity
    jitter_transform: Optional[Callable[[np.ndarray], np.ndarray]] = None
    #: frames the analyser readout window is shifted back (jitter timing bucket)
    readout_offset: int = 0

    @classmethod
    def default(cls) -> "EngineConfig":
        return cls()

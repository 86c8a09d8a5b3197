"""Vector API shared by all fingerprinting vectors."""
from __future__ import annotations

import hashlib

import numpy as np

from ..platform.jitter import REFERENCE_PATH, parse_path, sample_path

#: frames rendered by every audio vector (the classic 1ch/5000/44.1k probe
#: uses a 5000-frame buffer; we keep that shape across sample rates)
RENDER_LENGTH = 5000


def digest(payload) -> str:
    """eFP digest: md5 over the exact bytes of the rendered features."""
    if isinstance(payload, np.ndarray):
        if payload.dtype == np.float64 and payload.flags.c_contiguous:
            data = payload.tobytes()  # same bytes, no copy/dispatch
        else:
            data = np.ascontiguousarray(payload, dtype=np.float64).tobytes()
    elif isinstance(payload, str):
        data = payload.encode("utf-8")
    else:
        data = repr(payload).encode("utf-8")
    return hashlib.md5(data).hexdigest()


class AudioVector:
    """Base class. Subclasses implement ``_features(stack, jitter_path)``
    and (for true batching) ``_features_batch(stack, jitters)``."""

    name = "abstract"
    #: "audio" vectors render through the webaudio engine off the device's
    #: AudioStack; "comparator" vectors (canvas/fonts/UA/mathjs) fingerprint
    #: a different per-device stack via ``stack_of`` — the analysis layer
    #: dispatches its Table 2 vs Table 3 sections on this
    kind = "audio"
    #: vectors that never touch the AnalyserNode ignore the jitter path
    uses_analyser = True

    def stack_of(self, device):
        """The per-device stack this vector fingerprints. The study planner
        keys equivalence classes on ``stack_of(device).cache_key()``, so a
        comparator vector overrides this to point at its own frozen stack
        (the device's canvas/font/UA identity) instead of the audio one."""
        return device.stack

    def render(self, stack, jitter_path: str | None = None) -> str:
        """Pure render: same (stack, path) -> bit-identical eFP, always."""
        path = self.canonical_path(jitter_path)
        jitter = parse_path(path) if self.uses_analyser else None
        return digest(self._features(stack, jitter))

    def render_batch(self, stack, jitter_paths) -> list[str]:
        """Batched pure render: one graph build + one engine pass for
        all paths of a (vector, stack) group. Returns one eFP per path,
        bit-identical to ``render(stack, path)`` of each path alone —
        batch rows never interact (pinned by tests)."""
        if not jitter_paths:
            return []
        paths = [self.canonical_path(p) for p in jitter_paths]
        jitters = [parse_path(p) if self.uses_analyser else None
                   for p in paths]
        return [digest(f) for f in self._features_batch(stack, jitters)]

    def _features_batch(self, stack, jitters):
        """Fallback: per-class loop. Subclasses override with a single
        batched render through the engine's batch axis."""
        return [self._features(stack, jitter) for jitter in jitters]

    def canonical_path(self, jitter_path: str | None) -> str:
        """The path component of this vector's cache key."""
        if not self.uses_analyser:
            return "-"
        return jitter_path if jitter_path is not None else REFERENCE_PATH

    def collect(self, stack, rng: np.random.Generator, load: float = 0.0) -> str:
        """One observation: sample this iteration's jitter path, render."""
        path = sample_path(rng, load) if self.uses_analyser else "-"
        return self.render(stack, path)

    def _features(self, stack, jitter):  # pragma: no cover
        raise NotImplementedError

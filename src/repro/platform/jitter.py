"""Per-iteration load/perturbation model — the fickleness mechanism.

A jitter *path* is the analyser sub-path a single iteration takes, encoded
as a compact stable string like ``"t2.d1.m0.p1"``:

  t<k>  readout timing bucket: the analyser's window shifts back k*64 frames
  d1    denormal flush-to-zero on the windowed frames
  m1    fused-multiply contraction (one-ulp scale on the windowed frames)
  p1    float32 precision truncation of the windowed frames

The reference path ``t0.d0.m0.p0`` is the unloaded machine. Vectors that
never touch the analyser (DC) ignore the path entirely — which is why DC
is bit-stable across iterations while the FFT-family vectors are fickle,
reproducing Table 1's starkest feature with no special-casing.

The path string is part of the render-cache key, so fickleness costs one
extra render per *path actually taken*, not one per iteration.

Stream equivalence. The study planner (``repro.population.study``) does
not call ``sample_path`` per item; it replays each user's stream in
numpy from raw ``bit_generator.random_raw`` words. The replay relies on
how numpy's ``Generator`` over ``PCG64`` consumes its bit generator:

* ``random()`` takes one 64-bit word ``w`` and returns
  ``(w >> 11) * 2**-53``.
* ``integers(k)`` for ``k > 1`` takes one 32-bit draw: the buffered high
  half of an earlier word if one is waiting, else the low half of a fresh
  word (whose high half is then buffered). ``random()`` neither reads
  nor clears that buffer. The result is Lemire's ``(u32 * k) >> 32``,
  redrawn only when the low half of the product is below
  ``(2**32 - k) % k``. The replay cannot follow a redraw, so a user whose
  product falls below ``k`` is re-planned with ``sample_path`` itself.
* ``integers(1)`` returns 0 and draws nothing.

``sample_repertoire`` runs as is before the replay, which reads the
buffered half from ``bit_generator.state``. The tests pin the replay to
the scalar ``sample_repertoire`` / ``sample_path`` loop, so a numpy
release that changes any of the above fails them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REFERENCE_PATH = "t0.d0.m0.p0"

_DENORM_THRESHOLD = 1e-12
_FMA_SCALE = 1.0 + 2.0 ** -50


@dataclass(frozen=True)
class JitterPath:
    timing_bucket: int = 0
    denormal_flush: bool = False
    fused_multiply: bool = False
    f32_precision: bool = False

    def encode(self) -> str:
        return (f"t{self.timing_bucket}.d{int(self.denormal_flush)}"
                f".m{int(self.fused_multiply)}.p{int(self.f32_precision)}")

    @property
    def readout_offset(self) -> int:
        return self.timing_bucket * 64

    def transform(self, frames: np.ndarray) -> np.ndarray:
        y = frames
        if self.denormal_flush:
            y = np.where(np.abs(y) < _DENORM_THRESHOLD, 0.0, y)
        if self.fused_multiply:
            y = y * _FMA_SCALE
        if self.f32_precision:
            y = y.astype(np.float32).astype(np.float64)
        return y


def parse_path(path: str) -> JitterPath:
    try:
        t, d, m, p = path.split(".")
        return JitterPath(int(t[1:]), d == "d1", m == "m1", p == "p1")
    except Exception:
        raise ValueError(f"malformed jitter path {path!r}") from None


def sample_load(rng: np.random.Generator) -> float:
    """Per-user CPU load level in [0, 1): most users lightly loaded, a tail
    heavily loaded (the users the paper sees leaving 20+ distinct prints)."""
    return float(rng.beta(1.3, 3.5) * 0.9)


def _draw_perturbed(rng: np.random.Generator) -> str:
    return JitterPath(
        timing_bucket=int(rng.integers(0, 4)),
        denormal_flush=bool(rng.random() < 0.5),
        fused_multiply=bool(rng.random() < 0.5),
        f32_precision=bool(rng.random() < 0.3),
    ).encode()


def sample_repertoire(rng: np.random.Generator, load: float) -> list[str]:
    """A user's characteristic perturbation states.

    Real load jitter is not memoryless: a given machine under load keeps
    revisiting the same few scheduler/precision states, so each user owns
    a small repertoire (bigger for heavier load) that its iterations draw
    from. This is also what keeps the equivalence-class count — and with
    it the render cache — tiny at study scale.
    """
    size = 1 + int(round(load * 6.0))
    return [_draw_perturbed(rng) for _ in range(size)]


def sample_path(rng: np.random.Generator, load: float,
                repertoire: list[str] | None = None) -> str:
    """One iteration's sub-path. Unloaded -> reference; loaded machines take
    a perturbed sub-path (from their repertoire, if given) with probability
    proportional to load."""
    if rng.random() >= load:
        return REFERENCE_PATH
    if repertoire:
        return repertoire[int(rng.integers(len(repertoire)))]
    return _draw_perturbed(rng)

"""Canvas-fingerprint stack: the frozen render identity of 2D canvas.

The canvas comparator (paper Table 3) is the highest-diversity signal in
the battery: a drawn-text + shapes probe hashes differently across GPU,
driver, rasterizer and antialiasing combinations. We model that identity
as a frozen stack of exactly those axes, sampled conditionally on the
device's OS (GPU pools are OS-specific; the text rasterizer follows the
platform's font engine), so canvas diversity is correlated with — but
much finer than — the audio-stack identity. The canvas *vector* then
fingerprints a pure function of this stack.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .browsers import pick_weighted

#: GPU models per OS family, head-first (value, weight)
GPU_POOLS: dict[str, tuple[tuple[str, float], ...]] = {
    "Windows": (
        ("NVIDIA GeForce GTX 1650", 9.0), ("NVIDIA GeForce GTX 1060", 8.0),
        ("NVIDIA GeForce RTX 3060", 7.0), ("NVIDIA GeForce RTX 2060", 6.0),
        ("Intel UHD Graphics 630", 8.0), ("Intel UHD Graphics 620", 6.0),
        ("Intel Iris Xe Graphics", 5.0), ("Intel HD Graphics 520", 3.0),
        ("AMD Radeon RX 580", 4.0), ("AMD Radeon RX 6600", 2.5),
        ("AMD Radeon Vega 8", 2.5), ("NVIDIA GeForce GTX 960M", 1.5),
        ("NVIDIA GeForce RTX 3080", 1.5), ("AMD Radeon R7 240", 0.7),
    ),
    "macOS": (
        ("Apple M1", 10.0), ("Apple M1 Pro", 5.0), ("Apple M2", 4.0),
        ("Intel Iris Plus Graphics 655", 3.5), ("Intel UHD Graphics 630", 3.0),
        ("AMD Radeon Pro 5500M", 2.0), ("Intel Iris Plus Graphics 640", 1.5),
        ("AMD Radeon Pro 560X", 1.0),
    ),
    "Android": (
        ("Mali-G78 MP20", 6.0), ("Adreno 730", 6.0), ("Adreno 660", 5.0),
        ("Mali-G77 MP11", 4.0), ("Adreno 650", 4.0), ("Adreno 640", 3.0),
        ("Mali-G72 MP18", 2.0), ("Adreno 618", 2.0),
        ("PowerVR GE8320", 1.0),
    ),
    "Linux": (
        ("Mesa Intel UHD Graphics 620", 6.0), ("Mesa Intel Iris Xe", 4.0),
        ("NVIDIA GeForce GTX 1060/PCIe/SSE2", 4.0),
        ("AMD Radeon RX 580 (polaris10)", 3.0),
        ("Mesa Intel HD Graphics 520", 2.0), ("llvmpipe (LLVM 12.0.0)", 1.0),
        ("NVIDIA GeForce RTX 3060/PCIe/SSE2", 1.0),
    ),
}

#: graphics driver release per OS family (value, weight)
DRIVER_POOLS: dict[str, tuple[tuple[str, float], ...]] = {
    "Windows": (
        ("31.0.15.1694", 10.0), ("30.0.15.1403", 7.0), ("30.0.14.7212", 5.0),
        ("27.20.100.9664", 4.0), ("26.20.100.7985", 2.0), ("21.19.137.1", 1.0),
    ),
    "macOS": (
        ("Metal-76.3", 10.0), ("Metal-71.7", 5.0), ("Metal-61.1", 2.5),
        ("OpenGL-4.1-compat", 1.0),
    ),
    "Android": (
        ("vulkan-1.3.204", 8.0), ("vulkan-1.1.128", 6.0),
        ("gles-3.2-v@415.0", 4.0), ("gles-3.2-v@331.0", 2.0),
        ("gles-3.1-v@145.0", 1.0),
    ),
    "Linux": (
        ("Mesa 22.0.5", 8.0), ("Mesa 21.2.6", 5.0), ("nvidia-515.65.01", 3.0),
        ("nvidia-470.141.03", 2.0), ("Mesa 20.3.5", 1.5),
    ),
}

#: text antialiasing mode (value, weight) — browser+platform dependent
ANTIALIAS_MODES: tuple[tuple[str, float], ...] = (
    ("subpixel-rgb", 10.0), ("grayscale", 6.0), ("subpixel-bgr", 1.5),
)

#: platform font-rasterizer engine per OS family
FONT_ENGINES: dict[str, tuple[tuple[str, float], ...]] = {
    "Windows": (("directwrite", 12.0), ("gdi", 1.5)),
    "macOS": (("coretext", 1.0),),
    "Android": (("freetype-hinted", 6.0), ("freetype-unhinted", 2.0)),
    "Linux": (("freetype-hinted", 5.0), ("freetype-unhinted", 3.0),
              ("freetype-autohint", 2.0)),
}


@dataclass(frozen=True)
class CanvasStack:
    """The frozen canvas render identity of one device."""

    os: str
    gpu: str
    driver: str
    font_engine: str
    antialias: str

    def cache_key(self) -> str:
        return "|".join(("canvas", self.os, self.gpu, self.driver,
                         self.font_engine, self.antialias))

    def probe_payload(self) -> str:
        """The deterministic stand-in for the drawn probe's pixel bytes:
        every identity axis concatenated in render order (what a real
        toDataURL hash is a function of)."""
        return ";".join(("canvas-probe-v1", self.os, self.gpu, self.driver,
                         self.font_engine, self.antialias))


def sample_canvas(rng: np.random.Generator, os_name: str,
                  browser: str) -> CanvasStack:
    """Draw a canvas identity conditional on the device's OS.

    Exactly four weighted draws (gpu, driver, font engine, antialias) in
    fixed order from the caller's per-user stream. ``browser`` reserves
    the hook for engine-specific pools; current pools key on OS only.
    """
    del browser  # correlation via OS is enough for the current model
    gpu = pick_weighted(rng, GPU_POOLS[os_name])
    driver = pick_weighted(rng, DRIVER_POOLS[os_name])
    engine = pick_weighted(rng, FONT_ENGINES[os_name])
    antialias = pick_weighted(rng, ANTIALIAS_MODES)
    return CanvasStack(os=os_name, gpu=gpu, driver=driver,
                       font_engine=engine, antialias=antialias)

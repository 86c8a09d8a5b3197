"""OfflineAudioContext: render-path dispatch over two engines.

The renderer carries a batch axis end to end: every node produces
``(batch_size, channels, frames)`` blocks, so one graph build and one
render pass render ``batch_size`` independent equivalence classes at
once. All per-render interpreter overhead (the Python loop, the
topological dispatch, the mixing calls) is paid once per *batch* instead
of once per render — the NumPy kernels below it are elementwise or
fixed-axis reductions, so each batch row is bit-identical to rendering
that row alone with ``batch_size == 1`` (pinned by tests).

Two execution strategies produce that buffer; every render tries the
first and falls back to the second:

- **fused** — used whenever the graph is fusible: ``plan_segments`` checks
  the graph is an automation-free linear chain of known nodes, then each
  node renders the *entire* buffer in one ``process_buffer`` call. The
  fused NumPy tier is bit-identical to the quantum loop by construction
  (elementwise stages are blocking-invariant; block-granular state keeps
  its block structure inside the kernels) and by test, so no
  ``ENGINE_VERSION`` bump and no cache invalidation.
- **quantum** — the 128-frame block loop, kept verbatim as the reference
  semantics and the fallback for graphs the fused path declines
  (automation, fan-in/fan-out, unknown node types).

``render_path_used`` records which strategy actually ran.
"""
from __future__ import annotations

import time

import numpy as np

from . import RENDER_QUANTUM_FRAMES
from ..obs.profiler import current_node_profiler
from .buffer import AudioBuffer
from .config import EngineConfig
from .graph import node_label, topological_order
from .node import AudioNode, mix_sources, mix_sources_uniform, mix_to_channels
from .segments import plan_segments


class DestinationNode(AudioNode):
    fusible = True

    def __init__(self, context, number_of_channels: int):
        self.channel_count = number_of_channels
        super().__init__(context)

    def process_block(self, inputs, frame0, n):
        return mix_to_channels(inputs[0], self.channel_count)

    def process_buffer(self, inputs, length):
        return mix_to_channels(inputs[0], self.channel_count)


class OfflineAudioContext:
    def __init__(self, number_of_channels: int, length: int, sample_rate: float,
                 config: EngineConfig | None = None, batch_size: int = 1):
        if length <= 0:
            raise ValueError("length must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.length = int(length)
        self.sample_rate = float(sample_rate)
        self.batch_size = int(batch_size)
        self.config = config if config is not None else EngineConfig.default()
        self._nodes: list[AudioNode] = []
        self._rendered: AudioBuffer | None = None
        self._rendered_batch: np.ndarray | None = None
        #: which strategy rendered this context: "fused" | "quantum" | None
        self.render_path_used: str | None = None
        self.destination = DestinationNode(self, int(number_of_channels))

    # -- node registry ------------------------------------------------------
    def _register(self, node: AudioNode) -> None:
        self._nodes.append(node)

    def create_oscillator(self):
        from .oscillator import OscillatorNode
        return OscillatorNode(self)

    def create_gain(self):
        from .gain import GainNode
        return GainNode(self)

    def create_channel_merger(self, number_of_inputs: int = 6):
        from .merger import ChannelMergerNode
        return ChannelMergerNode(self, number_of_inputs)

    def create_dynamics_compressor(self):
        from .compressor import DynamicsCompressorNode
        return DynamicsCompressorNode(self)

    def create_analyser(self):
        from .analyser import AnalyserNode
        return AnalyserNode(self)

    def create_script_processor(self, buffer_size: int = 256, script=None):
        from .script_processor import ScriptProcessorNode
        return ScriptProcessorNode(self, buffer_size, script)

    @staticmethod
    def create_periodic_wave(real, imag):
        from .oscillator import PeriodicWave
        return PeriodicWave(real, imag)

    @property
    def current_time(self) -> float:
        return self.length / self.sample_rate if self._rendered_batch is not None else 0.0

    # -- rendering ----------------------------------------------------------
    def start_rendering(self) -> AudioBuffer:
        """Render and return the (channels, length) buffer; batch size 1 only."""
        if self.batch_size != 1:
            raise ValueError(
                "start_rendering() requires batch_size == 1; "
                "use start_rendering_batch() for batched contexts")
        if self._rendered is None:
            self._rendered = AudioBuffer(self.start_rendering_batch()[0],
                                         self.sample_rate)
        return self._rendered

    def start_rendering_batch(self) -> np.ndarray:
        """Render all batch rows at once; returns (B, channels, length)."""
        if self._rendered_batch is not None:
            return self._rendered_batch
        plan = plan_segments(self._nodes, self.destination)
        if plan is not None:
            self.render_path_used = "fused"
            self._rendered_batch = self._render_fused(plan)
        else:
            self.render_path_used = "quantum"
            self._rendered_batch = self._render_quantum()
        return self._rendered_batch

    def _render_fused(self, plan) -> np.ndarray:
        """One whole-buffer pass per node, in segment order.

        The per-block interpreter loop disappears entirely: the graph is
        walked once, each kernel sees the full (B, channels, length)
        signal, and the profiled variant attributes time per node (same
        labels as the quantum loop) plus per segment (``segment:`` labels).
        """
        batch = self.batch_size
        length = self.length
        buffer_out: dict[AudioNode, np.ndarray] = {}
        profiler = current_node_profiler()
        if profiler is None:
            for segment in plan.segments:
                for node in segment.nodes:
                    ins = [
                        mix_sources_uniform([buffer_out[s] for s in port],
                                            batch, length)
                        for port in node._inputs
                    ]
                    buffer_out[node] = node.process_buffer(ins, length)
        else:
            labels = {node: node_label(node) for node in plan.order}
            for segment in plan.segments:
                segment_start = time.perf_counter()
                for node in segment.nodes:
                    start = time.perf_counter()
                    ins = [
                        mix_sources_uniform([buffer_out[s] for s in port],
                                            batch, length)
                        for port in node._inputs
                    ]
                    buffer_out[node] = node.process_buffer(ins, length)
                    profiler.add(labels[node], time.perf_counter() - start)
                profiler.add(f"segment:{segment.label}",
                             time.perf_counter() - segment_start)
        # materialize (broadcast views stay read-only otherwise); values are
        # the exact floats the quantum loop writes into its output array
        return np.ascontiguousarray(buffer_out[self.destination],
                                    dtype=np.float64)

    def _render_quantum(self) -> np.ndarray:
        """The 128-frame-quantum block loop — the reference semantics."""
        order = topological_order(self._nodes)
        batch = self.batch_size
        channels = self.destination.channel_count
        out = np.zeros((batch, channels, self.length), dtype=np.float64)
        quantum = RENDER_QUANTUM_FRAMES
        block_out: dict[AudioNode, np.ndarray] = {}
        # Profiling duplicates the quantum loop rather than branching inside
        # it: the unprofiled path (the default) must stay exactly the hot
        # loop, and the numeric operations are identical either way.
        profiler = current_node_profiler()
        if profiler is None:
            for frame0 in range(0, self.length, quantum):
                n = min(quantum, self.length - frame0)
                block_out.clear()
                for node in order:
                    ins = [
                        mix_sources([block_out[s] for s in port], batch, n)
                        for port in node._inputs
                    ]
                    block_out[node] = node.process_block(ins, frame0, n)
                out[:, :, frame0:frame0 + n] = block_out[self.destination][..., :n]
        else:
            labels = {node: node_label(node) for node in order}
            for frame0 in range(0, self.length, quantum):
                n = min(quantum, self.length - frame0)
                block_out.clear()
                for node in order:
                    start = time.perf_counter()
                    ins = [
                        mix_sources([block_out[s] for s in port], batch, n)
                        for port in node._inputs
                    ]
                    block_out[node] = node.process_block(ins, frame0, n)
                    profiler.add(labels[node], time.perf_counter() - start)
                out[:, :, frame0:frame0 + n] = block_out[self.destination][..., :n]
        return out

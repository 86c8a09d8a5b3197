"""ChannelMergerNode: each input port becomes one output channel."""
from __future__ import annotations

import numpy as np

from .node import AudioNode, batch_uniform, mix_to_channels


class ChannelMergerNode(AudioNode):
    fusible = True

    def __init__(self, context, number_of_inputs: int = 6):
        if not 1 <= number_of_inputs <= 32:
            raise ValueError("number_of_inputs must be in [1, 32]")
        self.number_of_inputs = int(number_of_inputs)
        super().__init__(context)

    def _merge(self, inputs, rows: int, n: int) -> np.ndarray:
        out = np.zeros((rows, self.number_of_inputs, n), dtype=np.float64)
        for port, block in enumerate(inputs):
            out[:, port] = mix_to_channels(block, 1)[:, 0]
        return out

    def process_block(self, inputs, frame0, n):
        return self._merge(inputs, self.context.batch_size, n)

    def process_buffer(self, inputs, length):
        # channel routing is stateless and elementwise in the frame axis:
        # the whole-buffer pass is the block pass with n == length. When
        # every port is row-uniform, route the one distinct row and
        # broadcast it (rows never mix, so row 0's floats are every row's)
        batch = self.context.batch_size
        if all(batch_uniform(block) for block in inputs):
            merged = self._merge([block[:1] for block in inputs], 1, length)
            return np.broadcast_to(merged, (batch,) + merged.shape[1:])
        return self._merge(inputs, batch, length)

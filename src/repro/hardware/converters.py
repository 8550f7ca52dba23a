"""Input DAC and output ADC models.

Both are uniform quantizers over a symmetric range ``[-fs, +fs]``.
``bits=None`` models an ideal converter (pass-through) — the configuration
under which the crossbar reduces exactly to the paper's weight-domain
variation model.

Level placement (regression-pinned in ``tests/test_hardware_converters``):

- ``bits >= 2``: symmetric mid-tread. Reconstruction levels sit at
  ``k * step`` for ``k in [-M, M]`` with ``M = 2**(bits-1) - 1`` and
  ``step = full_scale / M``. Zero is exactly representable (an all-zero
  input stays exactly zero through the whole crossbar chain) and the
  extreme levels land exactly on ``±full_scale``; one of the ``2**bits``
  binary codes goes unused — the standard symmetric signed-quantizer
  trade, as in int8 ``[-127, 127]`` inference quantization. The previous
  ``round(x / step)`` form with ``step = 2 fs / (levels - 1)`` placed no
  level on ``±full_scale`` and let banker's rounding overshoot the range
  by up to a third of full scale at the boundaries.
- ``bits == 1``: mid-rise. A single comparator has no zero level; it
  resolves input sign and drives ``±full_scale/2``. (Under the mid-tread
  formula 1 bit degenerated completely: the step spanned the whole range
  and banker's rounding collapsed *every* in-range input to 0.)
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class _UniformQuantizer:
    def __init__(self, bits: Optional[int]) -> None:
        if bits is not None and bits < 1:
            raise ValueError(f"bits must be >= 1 or None, got {bits}")
        self.bits = bits

    @property
    def levels(self) -> Optional[int]:
        return None if self.bits is None else 2**self.bits

    def quantize(
        self,
        values: np.ndarray,
        full_scale: float,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Quantize ``values`` assuming range [-full_scale, +full_scale].

        The result is written into ``out`` when given (which may be
        ``values`` itself, for a caller that owns its buffer); otherwise
        into one fresh array. ``values`` is only written when it is
        ``out``. Every stage after the clip runs in place on that one
        array, with the same operations in the same order as the
        textbook ``clip(round(clip(x) / step), -m, m) * step`` — so the
        result is bitwise what that expression returns.
        """
        if self.bits is None or full_scale <= 0:
            if out is None or out is values:
                return values
            out[...] = values
            return out
        if self.bits == 1:
            # Mid-rise sign converter (see module docstring). Clipping
            # keeps the sign, so the comparator reads ``values`` directly:
            # 1.0 where negative, then ``half - fs`` is exactly ``-half``.
            half = 0.5 * full_scale
            q = np.empty(np.shape(values)) if out is None else out
            np.less(values, 0, out=q)
            q *= -full_scale
            q += half
            return q
        q = np.clip(values, -full_scale, full_scale, out=out)
        m = 2 ** (self.bits - 1) - 1
        step = full_scale / m
        q /= step
        np.round(q, out=q)
        # The clip bounds the code index against float round-off at the
        # exact boundaries; in-range values already round to [-m, m].
        np.clip(q, -m, m, out=q)
        q *= step
        return q


class DAC(_UniformQuantizer):
    """Digital-to-analog converter driving wordline voltages.

    ``quantize`` maps the digital activation vector to the discrete voltage
    levels the drivers can produce.
    """


class ADC(_UniformQuantizer):
    """Analog-to-digital converter sensing bitline currents.

    The full-scale current is workload-dependent; :class:`Crossbar` passes
    the worst-case column current so that no in-range MAC clips.
    """

"""The crossbar read chain runs in place and stays bitwise what it was.

``quantize``, the read noise, the tile partial sums and the conv layout
change write into buffers the chain owns instead of allocating a
temporary per stage. These tests pin each stage against the textbook
out-of-place expression it replaces, and the stacked forwards against
the per-draw loop, bit for bit.
"""

import numpy as np
import pytest

from repro.autograd.im2col import im2col_windows
from repro.hardware import ADC, DAC
from repro.hardware.analog_layers import AnalogConv2d
from repro.hardware.converters import _UniformQuantizer
from repro.hardware.crossbar import Crossbar
from repro.hardware.tiling import TiledCrossbarArray
from repro.nn.layers import Conv2d
from repro.utils.rng import spawn_rngs
from repro.variation import LogNormalVariation

FS = 1.75
SIGMA = 0.3
SEEDS = [11, 12, 13]
READ_SEEDS = [21, 22, 23]


def _textbook_quantize(bits, values, full_scale):
    """The out-of-place quantizer formula, one temporary per stage."""
    clipped = np.clip(values, -full_scale, full_scale)
    if bits == 1:
        half = 0.5 * full_scale
        return np.where(clipped < 0, -half, half)
    m = 2 ** (bits - 1) - 1
    step = full_scale / m
    return np.clip(np.round(clipped / step), -m, m) * step


def _same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _inputs():
    rng = np.random.default_rng(0)
    edges = np.array([-FS, FS, -2 * FS, 2 * FS, 0.0, -0.0, FS / 3, -FS / 7])
    return {
        "float64": np.concatenate([edges, rng.normal(0, FS, size=200)]),
        "float32": np.concatenate([edges, rng.normal(0, FS, size=200)]).astype(
            np.float32
        ),
        "int": np.arange(-4, 5),
        "stacked": rng.normal(0, FS, size=(3, 5, 7)),
    }


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", ["float64", "float32", "int", "stacked"])
class TestQuantizeInPlace:
    def test_fresh_result_matches_formula(self, bits, kind):
        values = _inputs()[kind]
        before = values.copy()
        got = _UniformQuantizer(bits).quantize(values, FS)
        _same_bits(got, _textbook_quantize(bits, values, FS))
        _same_bits(values, before)  # the caller's array is never written
        assert got is not values

    def test_out_matches_formula(self, bits, kind):
        values = _inputs()[kind]
        before = values.copy()
        want = _textbook_quantize(bits, values, FS)
        out = np.empty_like(want)
        got = _UniformQuantizer(bits).quantize(values, FS, out=out)
        assert got is out
        _same_bits(got, want)
        _same_bits(values, before)


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", ["float64", "stacked"])
def test_out_may_alias_values(bits, kind):
    """A caller that owns its buffer quantizes it in place."""
    values = _inputs()[kind]
    want = _textbook_quantize(bits, values, FS)
    owned = values.copy()
    assert _UniformQuantizer(bits).quantize(owned, FS, out=owned) is owned
    _same_bits(owned, want)


def test_ideal_quantize_fills_out():
    values = np.linspace(-3.0, 3.0, 9)
    out = np.empty_like(values)
    assert DAC(None).quantize(values, FS, out=out) is out
    _same_bits(out, values)
    assert DAC(None).quantize(values, FS, out=values) is values


def test_stacked_read_noise_is_normal_draw_per_sample():
    """Sample ``i`` of a stacked read is ``c + rng_i.normal(0.0, s, size)``
    — the ``Generator.normal`` identity the buffered draw relies on."""
    weights = np.random.default_rng(1).normal(size=(6, 9))
    x = np.random.default_rng(2).normal(size=(4, 9))
    tile = Crossbar(weights, read_noise_sigma=0.01, input_scale=1.0)
    tile.program_batch(LogNormalVariation(SIGMA), SEEDS)
    tile.seed_read_noise_batch(READ_SEEDS)
    got = tile.mvm(x)

    span = tile.mapper.g_max - tile.mapper.g_min
    noise_scale = 0.01 * (1.0 * span * weights.shape[1])
    g_diff = tile.g_pos - tile.g_neg
    for i, seed in enumerate(READ_SEEDS):
        currents = np.matmul(x[None], g_diff.transpose(0, 2, 1))[i]
        noisy = currents + np.random.default_rng(seed).normal(
            0.0, noise_scale, size=currents.shape
        )
        _same_bits(got[i], noisy / span * tile._scale)


def _textbook_tiled_read(array, x, read_rngs):
    """One programmed state through the out-of-place chain, tile by tile."""
    rows = array.weights_shape[0]
    out = np.zeros(x.shape[:-1] + (rows,))
    tiles = iter(zip(array._flat_tiles(), read_rngs))
    for r0, r1 in array.row_ranges:
        acc = np.zeros(x.shape[:-1] + (r1 - r0,))
        for c0, c1 in array.col_ranges:
            tile, rng = next(tiles)
            v_scale = tile.input_scale or tile._scale
            v = _textbook_quantize(tile.dac.bits, x[..., c0:c1], v_scale)
            currents = v @ (tile.g_pos - tile.g_neg).T
            span = tile.mapper.g_max - tile.mapper.g_min
            full_scale = v_scale * span * tile.shape[1]
            currents = currents + rng.normal(
                0.0, tile.read_noise_sigma * full_scale, size=currents.shape
            )
            currents = _textbook_quantize(tile.adc.bits, currents, full_scale)
            acc += currents / span * tile._scale
        out[..., r0:r1] = acc
    return out


class TestTiledStackedRead:
    """Multi-row, multi-column tiling with quantizing converters and read
    noise: stacked, per-draw and out-of-place reads agree bit for bit."""

    def _array(self):
        weights = np.random.default_rng(3).normal(size=(11, 23))
        return TiledCrossbarArray(weights, tile_rows=4, tile_cols=8, dac=DAC(6),
                                  adc=ADC(8), read_noise_sigma=0.002)

    @pytest.mark.parametrize("stacked_input", [False, True])
    def test_stacked_equals_loop_and_formula(self, stacked_input):
        array = self._array()
        rng = np.random.default_rng(4)
        x = rng.normal(size=((len(SEEDS),) if stacked_input else ()) + (5, 23))
        array.program_batch(LogNormalVariation(SIGMA), SEEDS)
        array.seed_read_noise_batch(READ_SEEDS)
        stacked = array.mvm(x)
        assert stacked.shape == (len(SEEDS), 5, 11)

        for i, (seed, read_seed) in enumerate(zip(SEEDS, READ_SEEDS)):
            xi = x[i] if stacked_input else x
            array.program(LogNormalVariation(SIGMA), seed)
            array.seed_read_noise(read_seed)
            _same_bits(stacked[i], array.mvm(xi))
            streams = spawn_rngs(read_seed, array.num_tiles)
            _same_bits(stacked[i], _textbook_tiled_read(array, xi, streams))


class TestAnalogConvStacked:
    def _layer(self, bias):
        conv = Conv2d(3, 5, 3, padding=1, bias=bias, seed=0)
        if bias:
            conv.bias.data[:] = np.linspace(-0.5, 0.5, 5)
        return AnalogConv2d(conv, tile_size=16, dac=DAC(6), adc=ADC(8),
                            read_noise_sigma=0.002)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("stacked_input", [False, True])
    def test_stacked_equals_loop(self, bias, stacked_input):
        layer = self._layer(bias)
        rng = np.random.default_rng(5)
        if stacked_input:
            x = rng.normal(size=(len(SEEDS), 3, 2, 6, 6))  # (S, C, N, H, W)
        else:
            x = rng.normal(size=(2, 3, 6, 6))
        layer.program_batch(LogNormalVariation(SIGMA), SEEDS)
        layer.seed_read_noise_batch(READ_SEEDS)
        stacked = layer(x).data
        assert stacked.shape == (len(SEEDS), 5, 2, 6, 6)
        assert stacked.flags.c_contiguous

        for i, (seed, read_seed) in enumerate(zip(SEEDS, READ_SEEDS)):
            xi = x[i].transpose(1, 0, 2, 3) if stacked_input else x
            layer.program(LogNormalVariation(SIGMA), seed)
            layer.seed_read_noise(read_seed)
            single = layer(xi).data  # (N, F, OH, OW)
            assert single.flags.c_contiguous
            _same_bits(np.ascontiguousarray(stacked[i].transpose(1, 0, 2, 3)),
                       single)

    @pytest.mark.parametrize("bias", [True, False])
    def test_layout_matches_transpose_then_add(self, bias):
        layer = self._layer(bias)
        x = np.random.default_rng(6).normal(size=(2, 3, 6, 6))
        layer.program(LogNormalVariation(SIGMA), 7)
        layer.seed_read_noise(8)
        got = layer(x).data
        layer.seed_read_noise(8)
        rows = layer.array.mvm(im2col_windows(x, (3, 3), 1, 1))
        want = np.ascontiguousarray(
            rows.reshape(2, 36, 5).transpose(0, 2, 1)
        ).reshape(2, 5, 6, 6)
        if bias:
            want = want + layer.bias.reshape(1, -1, 1, 1)
        _same_bits(got, want)

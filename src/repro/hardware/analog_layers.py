"""Inference layers that execute their MAC on the crossbar simulator.

``AnalogLinear`` / ``AnalogConv2d`` wrap trained digital layers: the weight
is programmed onto a :class:`TiledCrossbarArray` (optionally with
programming variation), and ``forward`` runs the analog chain. These layers
are inference-only — training happens digitally, deployment is analog,
matching the paper's flow.

Both layers declare ``sample_aware = True``: their forwards accept the
vectorized Monte-Carlo engine's stacked activation layouts — ``(S, N, F)``
batch-major for linear features, ``(S, C, N, H, W)`` channel-major for
feature maps — and broadcast the crossbar chain over the leading sample
axis when the arrays are programmed with stacked samples
(:meth:`TiledCrossbarArray.program_batch`). The convolution unfolds its
input once (``im2col``) and runs one sample-batched GEMM per tile against
the stacked conductance difference, instead of one analog pass per draw.

:func:`analogize` converts a whole trained model, replacing every
``Linear``/``Conv2d`` (except digital compensation modules) in place.
Per-layer programming seeds are derived with ``SeedSequence`` spawning
(``repro.utils.rng.spawn_rngs``) — process-stable for int *and* str root
seeds and valid for generator seeds, unlike the salted ``hash((seed, i))``
derivation this module once used.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.autograd.im2col import conv_output_size, im2col_stacked, im2col_windows
from repro.hardware.conductance import ConductanceMapper
from repro.hardware.converters import ADC, DAC
from repro.hardware.tiling import TiledCrossbarArray
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.utils.rng import spawn_rngs, SeedLike
from repro.nn.graph import weighted_layers
from repro.variation.models import NoVariation
from repro.variation.spec import parse_spec, VariationLike


class _AnalogBase(Module):
    """Shared programming/seeding surface of the analog layers.

    Subclasses own ``self.array`` (a :class:`TiledCrossbarArray`); the
    methods here forward to it so the Monte-Carlo engines can drive any
    analog layer uniformly (see ``repro.evaluation.montecarlo``).
    """

    sample_aware = True  # stacked forwards are covered by kernel tests

    array: TiledCrossbarArray

    def program(
        self, variation: "VariationLike" = NoVariation(), seed: SeedLike = None
    ) -> "_AnalogBase":
        self.array.program(parse_spec(variation), seed)
        return self

    def program_batch(
        self, variation: "VariationLike", seeds: Sequence[SeedLike]
    ) -> "_AnalogBase":
        """Program stacked draws; see :meth:`TiledCrossbarArray.program_batch`."""
        self.array.program_batch(parse_spec(variation), seeds)
        return self

    def seed_read_noise(self, seed: SeedLike) -> None:
        self.array.seed_read_noise(seed)

    def seed_read_noise_batch(self, seeds: Sequence[SeedLike]) -> None:
        self.array.seed_read_noise_batch(seeds)

    @property
    def models_read_noise(self) -> bool:
        """True when any tile of this layer's array models read-cycle
        noise — the single definition the Monte-Carlo engines use to
        decide whether read-noise streams need seeding at all."""
        return any(
            tile.read_noise_sigma > 0
            for row in self.array.tiles
            for tile in row
        )


class AnalogLinear(_AnalogBase):
    """Crossbar-backed drop-in for a trained :class:`repro.nn.Linear`."""

    def __init__(
        self,
        linear: Linear,
        tile_size: int = 128,
        mapper: Optional[ConductanceMapper] = None,
        dac: Optional[DAC] = None,
        adc: Optional[ADC] = None,
        read_noise_sigma: float = 0.0,
        wire_resistance: float = 0.0,
        input_scale: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.in_features = linear.in_features
        self.out_features = linear.out_features
        self.bias = None if linear.bias is None else linear.bias.data.copy()
        self.array = TiledCrossbarArray(
            linear.weight.data,
            tile_rows=tile_size,
            tile_cols=tile_size,
            mapper=mapper,
            dac=dac,
            adc=adc,
            read_noise_sigma=read_noise_sigma,
            wire_resistance=wire_resistance,
            input_scale=input_scale,
        )

    def forward(self, x: Tensor) -> Tensor:
        """(N, F) -> (N, out); stacked (S, N, F) inputs and/or stacked-
        programmed arrays produce (S, N, out), the batch-major stacked
        feature convention of the vectorized engine."""
        out = self.array.mvm(x.data if isinstance(x, Tensor) else np.asarray(x))
        if self.bias is not None:
            out += self.bias  # ``out`` is the array's fresh result
        return Tensor(out)

    def extra_repr(self) -> str:
        return f"in={self.in_features}, out={self.out_features} [analog]"


class AnalogConv2d(_AnalogBase):
    """Crossbar-backed convolution.

    The standard mapping: the kernel tensor (F, C, KH, KW) flattens to an
    (F, C*KH*KW) matrix on the array; each sliding window becomes one input
    vector (im2col), i.e. one crossbar read cycle per output pixel.
    """

    def __init__(
        self,
        conv: Conv2d,
        tile_size: int = 128,
        mapper: Optional[ConductanceMapper] = None,
        dac: Optional[DAC] = None,
        adc: Optional[ADC] = None,
        read_noise_sigma: float = 0.0,
        wire_resistance: float = 0.0,
        input_scale: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.in_channels = conv.in_channels
        self.out_channels = conv.out_channels
        self.kernel_size = conv.kernel_size
        self.stride = conv.stride
        self.padding = conv.padding
        self.bias = None if conv.bias is None else conv.bias.data.copy()
        self.array = TiledCrossbarArray(
            conv.weight.data.reshape(conv.out_channels, -1),
            tile_rows=tile_size,
            tile_cols=tile_size,
            mapper=mapper,
            dac=dac,
            adc=adc,
            read_noise_sigma=read_noise_sigma,
            wire_resistance=wire_resistance,
            input_scale=input_scale,
        )

    def forward(self, x: Tensor) -> Tensor:
        """(N, C, H, W) -> (N, F, OH, OW); 5-D inputs follow the
        channel-major stacked convention (S, C, N, H, W) -> (S, F, N, OH,
        OW).

        Either way the batch unfolds into receptive-field rows **once**
        and every read cycle is a row of one (sample-batched) GEMM per
        tile: a shared 4-D input is quantized and gathered a single time
        for all S programming samples, which is where the vectorized
        engine's analog speedup comes from.
        """
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        kh, kw = self.kernel_size
        f = self.out_channels
        if data.ndim == 5:
            s, c, n, h, w = data.shape
            oh = conv_output_size(h, kh, self.stride, self.padding)
            ow = conv_output_size(w, kw, self.stride, self.padding)
            flat = im2col_stacked(data, (kh, kw), self.stride, self.padding)
            out = self.array.mvm(flat)  # (S, N*P, F)
        else:
            n, c, h, w = data.shape
            oh = conv_output_size(h, kh, self.stride, self.padding)
            ow = conv_output_size(w, kw, self.stride, self.padding)
            flat = im2col_windows(data, (kh, kw), self.stride, self.padding)
            out = self.array.mvm(flat)  # (N*P, F) or stacked (S, N*P, F)
        # Rows come back pixel-major; one pass writes the channel-major
        # layout (S, F, N, P) / (N, F, P) with the bias added on the way.
        if out.ndim == 3:
            s = out.shape[0]
            rows = out.reshape(s, n, oh * ow, f).transpose(0, 3, 1, 2)
            shape: Tuple[int, ...] = (s, f, n, oh, ow)
        else:
            rows = out.reshape(n, oh * ow, f).transpose(0, 2, 1)
            shape = (n, f, oh, ow)
        maps = np.empty(rows.shape, dtype=rows.dtype)
        if self.bias is None:
            np.copyto(maps, rows)
        else:
            bias = self.bias.reshape((f,) + (1,) * (rows.ndim - 2))
            np.add(rows, bias, out=maps)
        return Tensor(maps.reshape(shape))

    def extra_repr(self) -> str:
        return (
            f"in={self.in_channels}, out={self.out_channels}, "
            f"kernel={self.kernel_size} [analog]"
        )


def analog_layers(model: Module) -> List[Tuple[str, _AnalogBase]]:
    """Ordered ``(qualified-name, module)`` list of analog layers.

    ``analogize`` replaces layers in place, so the traversal order — and
    the names — match the pre-conversion ``weighted_layers`` ordering (the
    paper's layer indexing) when the whole model was converted. The
    Monte-Carlo engines use this ordering to resolve per-layer specs and
    to consume programming/read seeds deterministically.
    """
    return [
        (name, module)
        for name, module in model.named_modules()
        if isinstance(module, _AnalogBase)
    ]


def has_read_noise(model: Module) -> bool:
    """True when any analog array in ``model`` models read-cycle noise."""
    return any(layer.models_read_noise for _, layer in analog_layers(model))


@contextlib.contextmanager
def preserved_programming(model: Module) -> Iterator[Module]:
    """Snapshot every analog array's programmed state; restore on exit.

    The Monte-Carlo engines reprogram arrays per draw (or per stacked
    chunk); evaluation must not permanently alter the deployed chip state,
    mirroring how the weight-domain injector restores nominal weights.
    Conductance planes are rebound (never mutated in place) so keeping
    references is enough.
    """
    saved = [
        (
            tile,
            tile.g_pos,
            tile.g_neg,
            tile._g_diff_cache,
            tile._read_rng,
            tile._read_rngs,
        )
        for _, layer in analog_layers(model)
        for row in layer.array.tiles
        for tile in row
    ]
    try:
        yield model
    finally:
        for tile, g_pos, g_neg, g_diff, read_rng, read_rngs in saved:
            tile.g_pos, tile.g_neg = g_pos, g_neg
            tile._g_diff_cache = g_diff
            tile._read_rng, tile._read_rngs = read_rng, read_rngs


def analogize(
    model: Module,
    tile_size: int = 128,
    mapper: Optional[ConductanceMapper] = None,
    dac: Optional[DAC] = None,
    adc: Optional[ADC] = None,
    read_noise_sigma: float = 0.0,
    wire_resistance: float = 0.0,
    input_scale: Optional[float] = None,
    variation: "VariationLike" = NoVariation(),
    seed: SeedLike = None,
) -> Module:
    """Replace Linear/Conv2d layers with analog equivalents, in place.

    Modules flagged ``digital = True`` (compensation layers) are left
    untouched. Returns ``model`` for chaining. Programming variation is
    applied per layer with independent seeds spawned from ``seed`` via
    ``SeedSequence`` (one stream per weighted-layer index, plus a spare
    for layers outside the ordering) — deterministic across processes for
    int and str seeds and well-defined for generator seeds.

    ``variation`` is any spec form (model, grammar string, spec dict) —
    the same spec the weight-domain injector consumes, so a deployment
    scenario is described once and reused here. A
    :class:`repro.variation.spec.LayerMap` resolves per layer using the
    same ``weighted_layers`` name/index ordering as the injector before
    each array is programmed.
    """
    variation = parse_spec(variation)
    # Snapshot the digital-weighted-layer ordering before conversion: this
    # is the paper's layer indexing, shared with VariationInjector, that
    # LayerMap override keys refer to.
    layer_info = {
        id(sub): (layer_name, index)
        for index, (layer_name, sub) in enumerate(weighted_layers(model))
    }
    n_layers = len(layer_info)
    layer_rngs = None if seed is None else spawn_rngs(seed, n_layers + 1)

    def _convert(module: Module) -> None:
        for name, child in list(module._modules.items()):
            if getattr(child, "digital", False):
                continue
            replacement = None
            if isinstance(child, Linear):
                replacement = AnalogLinear(
                    child, tile_size, mapper, dac, adc, read_noise_sigma,
                    wire_resistance, input_scale,
                )
            elif isinstance(child, Conv2d):
                replacement = AnalogConv2d(
                    child, tile_size, mapper, dac, adc, read_noise_sigma,
                    wire_resistance, input_scale,
                )
            if replacement is not None:
                layer_name, index = layer_info.get(id(child), (None, None))
                layer_seed = (
                    None
                    if layer_rngs is None
                    else layer_rngs[n_layers if index is None else index]
                )
                replacement.program(
                    variation.model_for(layer_name, index, n_layers), layer_seed
                )
                setattr(module, name, replacement)
                module._modules[name] = replacement
            else:
                _convert(child)

    _convert(model)
    return model

"""A single RRAM crossbar array executing matrix-vector products.

Physical picture (paper Fig. 1): the weight matrix ``W`` (out x in) is
programmed column-wise; applying voltages ``v`` (one per wordline = input)
yields per-bitline currents ``i = G v`` — the MAC result. We store the
differential pair ``(G+, G-)`` and compute ``i = (G+ - G-) v``.

The simulation chain per read:

1. DAC-quantize the input vector (optional);
2. analog MAC with the *programmed* conductances (nominal conductances
   perturbed once by the programming-variation model at program time);
3. optional per-read cycle noise on the currents;
4. ADC-quantize and decode back to the weight domain.

``program`` applies variation in the conductance domain. For the paper's
multiplicative log-normal model this is equivalent to perturbing weights
directly when ``differential=True`` and no clipping occurs, because both
``G+`` and ``G-`` scale multiplicatively around ``g_min`` — the equivalence
the property tests check with clipping disabled.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Sequence

import numpy as np

from repro.hardware.conductance import ConductanceMapper
from repro.hardware.converters import ADC, DAC
from repro.utils.rng import new_rng, SeedLike
from repro.variation.models import NoVariation, VariationModel
from repro.variation.spec import parse_spec, VariationLike


class InputScaleClipWarning(UserWarning):
    """Raised once per crossbar when the weight-scale full-scale proxy is
    about to let a *real* ADC clip in-range MAC results (ideal DAC path).

    The no-clip guarantee of ``repro.hardware.converters`` only holds when
    the caller provides a true input full-scale; see
    :meth:`Crossbar.calibrate_input_scale`.
    """


class Crossbar:
    """One physical crossbar tile storing a (rows=outputs, cols=inputs) matrix.

    Parameters
    ----------
    weights:
        Nominal weight matrix (out x in).
    mapper:
        Conductance mapper; defaults to a fresh auto-scaling mapper.
    dac, adc:
        Converter models; default ideal.
    read_noise_sigma:
        Std of i.i.d. Gaussian cycle-to-cycle noise, relative to the
        column's full-scale current. 0 disables.
    clip_conductance:
        Clamp programmed conductances into the physical window. Disable to
        recover the paper's unclipped weight-domain model exactly.
    wire_resistance:
        Per-segment wordline/bitline wire resistance in ohms (0 disables).
        Modeled first-order: the cell at row ``i``, column ``j`` sees its
        drive voltage attenuated by the series resistance of ``i + j`` wire
        segments against the cell's own resistance — the standard IR-drop
        approximation for crossbar accuracy studies. Cells far from the
        drivers contribute systematically less current.
    input_scale:
        Fixed DAC full-scale (in input units). ``None`` defaults to the
        scale the mapper calibrated for this crossbar's weight matrix. A
        physical DAC has a fixed full-scale voltage, so quantization of one
        input row must not depend on which other rows share the batch —
        deriving the scale per call from ``|x|.max()`` (the old behavior)
        made results change with ``batch_size``. The weight-scale default
        is only a proxy: when the DAC actually quantizes (``bits`` set)
        and the activation range differs from the weight range, set
        ``input_scale`` explicitly or run :meth:`calibrate_input_scale`
        on representative activations, as deployment flows calibrate ADC
        ranges in practice.
    """

    def __init__(
        self,
        weights: np.ndarray,
        mapper: Optional[ConductanceMapper] = None,
        dac: Optional[DAC] = None,
        adc: Optional[ADC] = None,
        read_noise_sigma: float = 0.0,
        clip_conductance: bool = True,
        wire_resistance: float = 0.0,
        input_scale: Optional[float] = None,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        self.nominal_weights = weights
        self.mapper = mapper or ConductanceMapper()
        self.dac = dac or DAC(None)
        self.adc = adc or ADC(None)
        if read_noise_sigma < 0:
            raise ValueError("read_noise_sigma must be non-negative")
        if wire_resistance < 0:
            raise ValueError("wire_resistance must be non-negative")
        if input_scale is not None and input_scale <= 0:
            raise ValueError(f"input_scale must be positive, got {input_scale}")
        self.read_noise_sigma = float(read_noise_sigma)
        self.clip_conductance = clip_conductance
        self.wire_resistance = float(wire_resistance)
        self.input_scale = None if input_scale is None else float(input_scale)

        self._g_pos_nominal, self._g_neg_nominal, self._scale = self.mapper.encode(
            weights
        )
        # Programmed state starts nominal; ``program`` overwrites it.
        self.g_pos = self._g_pos_nominal.copy()
        self.g_neg = self._g_neg_nominal.copy()
        self._read_rng = new_rng(None)
        self._read_rngs: Optional[List[np.random.Generator]] = None
        self._g_diff_cache: Optional[np.ndarray] = None
        self._clip_warned = False

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.nominal_weights.shape

    @property
    def n_stacked(self) -> Optional[int]:
        """Number of stacked programming samples, or ``None`` when the
        array holds a single programmed state (see :meth:`program_batch`)."""
        return None if self.g_pos.ndim == 2 else self.g_pos.shape[0]

    def _programmed_planes(
        self, variation: VariationModel, rng: np.random.Generator
    ) -> tuple:
        """One programming draw: perturb both planes on ``rng``, clip.

        Shared by :meth:`program` and :meth:`program_batch` so a stacked
        sample is bitwise equal to the scalar programming it pairs with.
        """
        g_pos = variation.perturb(self._g_pos_nominal - self.mapper.g_min, rng)
        g_neg = variation.perturb(self._g_neg_nominal - self.mapper.g_min, rng)
        g_pos = g_pos + self.mapper.g_min
        g_neg = g_neg + self.mapper.g_min
        if self.clip_conductance:
            g_pos = self.mapper.clip(g_pos)
            g_neg = self.mapper.clip(g_neg)
        return g_pos, g_neg

    def program(
        self, variation: "VariationLike" = NoVariation(), seed: SeedLike = None
    ) -> "Crossbar":
        """(Re)program the array: apply ``variation`` to both conductance
        planes independently, then clip to the physical window.

        ``variation`` is any spec form (model, grammar string like
        ``"lognormal:0.5+quant:4"``, or spec dict) — the same spec the
        weight-domain injector and the Monte-Carlo engines consume. A
        ``LayerMap`` has no layer context on a lone crossbar and applies
        its default; :func:`repro.hardware.analog_layers.analogize`
        resolves per-layer overrides before programming each array.
        """
        variation = parse_spec(variation)
        self.g_pos, self.g_neg = self._programmed_planes(variation, new_rng(seed))
        self._g_diff_cache = None
        # Back to single-state operation: stale per-sample noise streams
        # must not be consumed by a later stacked-input mvm.
        self._read_rngs = None
        return self

    def program_batch(
        self, variation: "VariationLike", seeds: Sequence[SeedLike]
    ) -> "Crossbar":
        """Program ``len(seeds)`` independent draws as stacked planes.

        After this call ``g_pos``/``g_neg`` are ``(S, out, in)`` stacks and
        :meth:`mvm` broadcasts the analog chain over the leading sample
        axis. Draw ``i`` consumes ``seeds[i]`` exactly as a scalar
        :meth:`program` call would, so plane ``i`` is bitwise equal to the
        state the sequential Monte-Carlo loop installs for the same seed —
        the analog half of the paired-seed contract (see
        ``repro.evaluation.montecarlo``). A later scalar :meth:`program`
        returns the array to single-state operation.
        """
        variation = parse_spec(variation)
        seeds = list(seeds)
        if not seeds:
            raise ValueError("program_batch needs at least one seed")
        g_pos = np.empty((len(seeds),) + self.shape)
        g_neg = np.empty((len(seeds),) + self.shape)
        for i, seed in enumerate(seeds):
            g_pos[i], g_neg[i] = self._programmed_planes(variation, new_rng(seed))
        self.g_pos, self.g_neg = g_pos, g_neg
        self._g_diff_cache = None
        return self

    def effective_weights(self, include_ir_drop: bool = True) -> np.ndarray:
        """Decode the currently programmed conductances back to weights.

        With ``wire_resistance > 0`` the decode folds in the same IR-drop
        attenuation :meth:`mvm` applies to the MAC, so the returned matrix
        is what the array actually computes with (previously the two
        disagreed — tiled stitching, baselines and tests read weights the
        hardware never used). Pass ``include_ir_drop=False`` for the raw
        conductance decode — the exact encode/decode round-trip the
        conductance property tests pin down. Returns ``(S, out, in)``
        after :meth:`program_batch`.
        """
        g_pos, g_neg = self.g_pos, self.g_neg
        if include_ir_drop and self.wire_resistance > 0.0:
            attenuation = self._ir_drop_attenuation()
            g_pos = g_pos * attenuation
            g_neg = g_neg * attenuation
        return self.mapper.decode(g_pos, g_neg, self._scale)

    def seed_read_noise(self, seed: SeedLike) -> None:
        """Seed the cycle-to-cycle read-noise stream (single-state mode)."""
        self._read_rng = new_rng(seed)
        self._read_rngs = None

    def seed_read_noise_batch(self, seeds: Sequence[SeedLike]) -> None:
        """Install one read-noise stream per stacked sample.

        Stream ``i`` is consumed by sample ``i`` of every stacked
        :meth:`mvm` call, one ``(batch, out)`` draw per call — the same
        shape and order the scalar path consumes from its single stream,
        which is what keeps the vectorized Monte-Carlo engine bitwise
        paired with the loop when the per-sample seeds match.
        """
        self._read_rngs = [new_rng(seed) for seed in seeds]

    def calibrate_input_scale(self, samples: np.ndarray) -> float:
        """Fix the DAC full-scale to ``max|samples|`` (input domain).

        Feed representative activations once; subsequent :meth:`mvm` calls
        quantize against this calibrated range instead of the weight-scale
        proxy, while staying independent of each call's batch composition.
        """
        scale = float(np.abs(np.asarray(samples, dtype=np.float64)).max())
        if scale <= 0:
            raise ValueError("calibration samples must contain non-zero values")
        self.input_scale = scale
        return scale

    # ------------------------------------------------------------------
    def mvm(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector (or matrix-batch) product through the analog chain.

        ``x`` has shape (in,) or (batch, in); the result matches
        ``x @ W_eff.T`` with DAC/ADC quantization and read noise applied.

        The DAC/ADC full scales come from ``input_scale`` (a fixed,
        per-call-independent quantity), so each row's result is identical
        whether it is presented alone or inside a larger batch — including
        the all-zero input, which maps to exactly zero current (for
        multi-bit converters; a 1-bit DAC has no zero level).

        **Sample-stacked operation** (the vectorized Monte-Carlo engine):
        after :meth:`program_batch` the conductance planes carry a leading
        sample axis, and/or ``x`` may be a stacked ``(S, batch, in)``
        activation block. The whole DAC → MAC → read-noise → ADC chain
        broadcasts over the sample axis and the result is
        ``(S, batch, out)``; slice ``i`` is bitwise what the scalar chain
        computes for programming sample ``i`` (one dgemm per slice, the
        per-sample read-noise streams of :meth:`seed_read_noise_batch`).
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None]
        if x.ndim not in (2, 3):
            raise ValueError(f"mvm input must be 1-D, 2-D or 3-D, got {x.shape}")
        if x.shape[-1] != self.shape[1]:
            raise ValueError(
                f"input dim {x.shape[-1]} does not match crossbar cols {self.shape[1]}"
            )
        n_stacked = self.n_stacked
        if x.ndim == 3 and n_stacked is not None and x.shape[0] != n_stacked:
            raise ValueError(
                f"input sample axis {x.shape[0]} does not match the "
                f"{n_stacked} stacked programming samples"
            )
        v_scale = self._scale if self.input_scale is None else self.input_scale
        v = self.dac.quantize(x, v_scale)

        # The effective conductance difference (with IR-drop attenuation
        # folded in) only changes at program time; caching it saves one
        # plane-sized (stacked: S plane-sized) temporary per read call —
        # the reads per programming are exactly what Monte-Carlo scales up.
        g_diff = self._g_diff_cache  # (out, in) or (S, out, in)
        if g_diff is None:
            g_diff = self.g_pos - self.g_neg
            if self.wire_resistance > 0.0:
                g_diff = g_diff * self._ir_drop_attenuation()
            self._g_diff_cache = g_diff
        if g_diff.ndim == 2:
            # Plain or broadcast-over-samples MAC: (…, batch, in) @ (in, out).
            currents = np.matmul(v, g_diff.T)
        else:
            # Stacked planes; a shared 2-D input broadcasts over samples.
            # Each sample slice is the same dgemm the scalar path runs.
            currents = np.matmul(
                v if v.ndim == 3 else v[None], g_diff.transpose(0, 2, 1)
            )

        span = self.mapper.g_max - self.mapper.g_min
        # Worst-case column current bounds the ADC full scale — but only
        # under the assumption |input| <= v_scale, which the DAC enforces
        # by clipping when it quantizes. An *ideal* DAC passes larger
        # inputs straight through, so on the default weight-scale proxy a
        # real ADC can silently clip in-range MAC results; detect the
        # actual overflow and point at calibrate_input_scale().
        full_scale = v_scale * span * self.shape[1]
        # The check reads the noise-free MAC currents: a read-noise tail
        # past full scale is not an input-scale problem and must not
        # trigger the calibration hint.
        if (
            not self._clip_warned
            and currents.size > 0
            and self.input_scale is None
            and self.dac.bits is None
            and self.adc.bits is not None
        ):
            peak = float(np.abs(currents).max())
            if peak > full_scale:
                warnings.warn(
                    f"bitline current reaches {peak:.4g} but the ADC full "
                    f"scale derived from the default (weight-scale) input "
                    f"full scale is {full_scale:.4g}; the {self.adc.bits}-"
                    "bit ADC clips these in-range MACs. Pass input_scale= "
                    "or run calibrate_input_scale() on representative "
                    "activations.",
                    InputScaleClipWarning,
                    stacklevel=2,
                )
                self._clip_warned = True
        # From here on every stage runs in place on ``currents``, the
        # fresh array the MAC returned: read noise, ADC, decode.
        if self.read_noise_sigma > 0:
            noise_scale = self.read_noise_sigma * full_scale
            if currents.ndim == 3 and self._read_rngs is not None:
                if len(self._read_rngs) != currents.shape[0]:
                    raise ValueError(
                        f"{len(self._read_rngs)} read-noise streams for "
                        f"{currents.shape[0]} stacked samples; call "
                        "seed_read_noise_batch with one seed per sample"
                    )
                # One (batch, out) draw per sample from its own stream —
                # the same consumption the scalar path makes per call —
                # into one buffer reused across samples.
                noise = np.empty(currents.shape[1:])
                for sample, rng in zip(currents, self._read_rngs):
                    self._add_read_noise(sample, rng, noise_scale, noise)
            else:
                self._add_read_noise(
                    currents, self._read_rng, noise_scale, np.empty(currents.shape)
                )
        self.adc.quantize(currents, full_scale, out=currents)
        currents /= span
        currents *= self._scale
        if squeeze:
            # (batch=1, out) -> (out,); stacked (S, 1, out) -> (S, out).
            return currents[..., 0, :]
        return currents

    @staticmethod
    def _add_read_noise(
        currents: np.ndarray,
        rng: np.random.Generator,
        noise_scale: float,
        noise: np.ndarray,
    ) -> None:
        """``currents += rng.normal(0.0, noise_scale, currents.shape)``,
        bitwise, through the caller's ``noise`` buffer.

        ``Generator.normal(loc, scale)`` computes ``loc + scale * z`` with
        ``z`` the next ``standard_normal`` of the same stream, and
        ``0.0 + y == y`` for every nonzero ``y`` — so filling ``noise``
        with ``z`` and scaling it in place adds the same values the
        ``normal`` draw would, without its two full-size temporaries.
        """
        rng.standard_normal(out=noise)
        noise *= noise_scale
        currents += noise

    def _ir_drop_attenuation(self) -> np.ndarray:
        """Per-cell attenuation factor from wordline/bitline IR drop.

        Cell (i, j) — row i counted from the column sense amplifier, column
        j from the row driver — sees ``i + j`` wire segments of resistance
        ``r_w`` in series with its own resistance ``1/G``. The voltage
        divider gives attenuation ``(1/G) / (1/G + (i + j) r_w)``, i.e.
        ``1 / (1 + (i + j) r_w G)``. Computed against the worst-case cell
        conductance ``g_max`` per plane average for a conservative
        first-order estimate. Stacked ``(S, out, in)`` planes broadcast to
        a per-sample attenuation map.
        """
        rows, cols = self.shape
        # distance in segments: farthest from both drivers at (rows-1, cols-1)
        dist = np.add.outer(np.arange(rows), np.arange(cols)).astype(np.float64)
        g_cell = (self.g_pos + self.g_neg) / 2.0
        return 1.0 / (1.0 + dist * self.wire_resistance * g_cell)

    def __repr__(self) -> str:
        return (
            f"Crossbar(shape={self.shape}, read_noise={self.read_noise_sigma}, "
            f"dac_bits={self.dac.bits}, adc_bits={self.adc.bits}, "
            f"r_wire={self.wire_resistance})"
        )

"""Layer-wise variation sweeps and compensation-candidate selection.

Fig. 9 of the paper: after Lipschitz training, inject variations only into
layers ``i .. L`` and measure accuracy as ``i`` decreases. Lipschitz
regularization absorbs late-layer variations, but accuracy collapses once
early layers are included — those early layers become the candidates for
error compensation ("the first i layers when the variations in the i-th
layer to the last layer lead to an inference accuracy lower than 95% of the
original accuracy").

Each tail is an ordinary variation spec (:func:`tail_spec`): a ``LayerMap``
mapping the layers before ``i`` to ``none``. Tails therefore run through
the same plan, engines, fingerprint and store as every other scenario.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.evaluation.montecarlo import MCResult, MonteCarloEvaluator
from repro.nn.module import Module
from repro.nn.graph import weighted_layers
from repro.variation.models import NoVariation
from repro.variation.spec import LayerMap, parse_spec, VariationLike


def tail_spec(model: Module, variation: "VariationLike", i: int) -> LayerMap:
    """The spec "``variation`` on layers ``i`` .. L only" (1-indexed ``i``).

    A ``LayerMap`` whose default is the scenario, with a ``none`` override
    for each weighted layer before ``i``; ``i = 1`` varies every layer and
    ``i = L + 1`` none. Overrides are keyed by layer *name*, which
    ``LayerMap`` resolves before index keys, so an index override in a
    ``LayerMap`` scenario cannot bring an excluded layer back. A
    ``LayerMap`` scenario gets the exclusions merged into its own
    overrides (no nesting); an excluded layer draws nothing and keeps its
    nominal weights.
    """
    names = [name for name, _ in weighted_layers(model)]
    if not 1 <= i <= len(names) + 1:
        raise ValueError(
            f"tail start must be in 1..{len(names) + 1} for a model with "
            f"{len(names)} weighted layers, got {i}"
        )
    variation = parse_spec(variation)
    excluded = {name: NoVariation() for name in names[: i - 1]}
    if isinstance(variation, LayerMap):
        return LayerMap(variation.default, {**variation.overrides, **excluded})
    return LayerMap(variation, excluded)


def layer_sweep(
    model: Module,
    variation: "VariationLike",
    evaluator: MonteCarloEvaluator,
    *,
    tolerance: Optional[float] = None,
    draw_budget: Optional[int] = None,
    min_samples: Optional[int] = None,
) -> List[Tuple[int, MCResult]]:
    """Accuracy with variations injected from layer ``i`` to the last layer.

    Returns ``[(i, MCResult), ...]`` for i = 1 .. L (1-indexed, matching the
    paper's x-axis; i = 1 means every layer is perturbed).

    A ``tolerance`` or shared ``draw_budget`` makes the sweep adaptive:
    all tail specs are evaluated through
    :meth:`~repro.evaluation.montecarlo.MonteCarloEvaluator.evaluate_grid`,
    which round-robins chunks to the tails with the widest confidence
    intervals — the absorbed late-layer tails stop early, the collapsing
    early-layer tails keep drawing.
    """
    tails = [
        tail_spec(model, variation, i)
        for i in range(1, len(weighted_layers(model)) + 1)
    ]
    if tolerance is not None or draw_budget is not None:
        results = evaluator.evaluate_grid(
            model,
            tails,
            tolerance=tolerance,
            draw_budget=draw_budget,
            min_samples=min_samples,
        )
    else:
        results = [evaluator.evaluate(model, tail) for tail in tails]
    return list(enumerate(results, start=1))


def select_candidates(
    model: Module,
    variation: "VariationLike",
    evaluator: MonteCarloEvaluator,
    original_accuracy: float,
    threshold: float = 0.95,
    max_candidates: Optional[int] = None,
) -> List[int]:
    """Compensation-candidate layer indices (0-based) per the paper's rule.

    Sweeping ``i`` from the last layer backwards, find the largest ``i``
    whose tail-injection accuracy (:func:`tail_spec`) still reaches
    ``threshold * original_accuracy``; all layers before it (the first
    ``i-1`` layers, whose variations the suppression cannot absorb) are
    candidates. If even the last layer alone violates the threshold, every
    layer is a candidate.
    """
    n_layers = len(weighted_layers(model))
    target = threshold * original_accuracy
    candidate_count = n_layers  # worst case: all layers
    for i in range(n_layers, 0, -1):
        result = evaluator.evaluate(model, tail_spec(model, variation, i))
        if result.mean >= target:
            # Tail starting at layer i is fine; layers 0..i-2 remain suspect.
            candidate_count = i - 1
        else:
            break
    if max_candidates is not None:
        candidate_count = min(candidate_count, max_candidates)
    return list(range(candidate_count))

"""Fig. 9 layer tails as variation specs.

``tail_spec(model, variation, i)`` is the scenario "variations from layer i
to the last layer" written as a ``LayerMap``: the layers before ``i`` map
to ``none``, and the injector does not target ``none`` layers at all. The
properties under test: the spec's shape (name-keyed exclusions, merged
into a ``LayerMap`` scenario rather than nested), engine pairing for
tails on chain and residual models, and that a tail is an ordinary
logical evaluation — it fingerprints, independently of execution knobs.
"""

from __future__ import annotations

import pytest

from repro.data import synth_cifar10
from repro.evaluation import (
    MonteCarloEvaluator,
    build_plan,
    layer_sweep,
    select_candidates,
    tail_spec,
)
from repro.models import build_model
from repro.nn.graph import weighted_layers
from repro.store.fingerprint import plan_fingerprint
from repro.store.runner import cached_evaluate
from repro.utils.rng import spawn_rngs
from repro.variation import (
    LayerMap,
    LogNormalVariation,
    NoVariation,
    VariationInjector,
    parse_spec,
    to_dict,
)


@pytest.fixture(scope="module")
def cifar():
    return synth_cifar10(train_per_class=1, test_per_class=1)


def _resnet8(cifar):
    return build_model("resnet8", cifar[0], width=0.25, seed=0)


class TestTailSpecShape:
    def test_excludes_layers_before_i_by_name(self, lenet):
        names = [name for name, _ in weighted_layers(lenet)]
        base = LogNormalVariation(0.5)
        spec = tail_spec(lenet, base, 3)
        assert isinstance(spec, LayerMap)
        assert spec.default is base
        assert list(spec.overrides) == names[:2]
        assert all(isinstance(m, NoVariation) for m in spec.overrides.values())
        resolved = [spec.model_for(name, index, len(names))
                    for index, name in enumerate(names)]
        assert all(isinstance(m, NoVariation) for m in resolved[:2])
        assert all(m is base for m in resolved[2:])

    def test_first_tail_varies_every_layer(self, lenet):
        spec = tail_spec(lenet, "lognormal:0.5", 1)
        assert spec.overrides == {}
        assert to_dict(spec.default) == to_dict(parse_spec("lognormal:0.5"))

    def test_layermap_scenario_is_merged_not_nested(self, lenet):
        names = [name for name, _ in weighted_layers(lenet)]
        scenario = LayerMap(LogNormalVariation(0.5),
                            {0: LogNormalVariation(0.9),
                             names[3]: LogNormalVariation(0.2)})
        spec = tail_spec(lenet, scenario, 2)
        assert spec.default is scenario.default
        assert not isinstance(spec.default, LayerMap)
        # The index override for layer 0 stays in the map, but the name
        # exclusion resolves first: the scenario cannot bring it back.
        assert isinstance(spec.model_for(names[0], 0, len(names)), NoVariation)
        assert spec.model_for(names[3], 3, len(names)).magnitude == 0.2
        assert spec.model_for(names[1], 1, len(names)).magnitude == 0.5

    @pytest.mark.parametrize("i", [0, 7])
    def test_start_out_of_range_raises(self, lenet, i):
        # LeNet-5 has five weighted layers: valid starts are 1..6.
        with pytest.raises(ValueError, match="tail start"):
            tail_spec(lenet, "lognormal:0.5", i)


class TestNoneLayersAreNotTargets:
    def test_absent_from_targets_and_stacks(self, lenet):
        names = [name for name, _ in weighted_layers(lenet)]
        injector = VariationInjector(lenet, tail_spec(lenet, "lognormal:0.5", 3))
        targets = {id(p) for p in injector.target_parameters()}
        params = dict(lenet.named_parameters())
        for name in names[:2]:
            assert id(params[f"{name}.weight"]) not in targets
        stacks = injector.stack_for(spawn_rngs(0, 2))
        assert list(stacks) == [f"{name}.weight" for name in names[2:]]

    def test_excluded_layers_keep_their_nominal_arrays(self, lenet):
        first = dict(lenet.named_parameters())[
            f"{weighted_layers(lenet)[0][0]}.weight"]
        nominal = first.data
        injector = VariationInjector(lenet, tail_spec(lenet, "lognormal:0.8", 2))
        with injector.applied(seed=0):
            assert first.data is nominal

    def test_all_none_layermap_has_no_targets(self, mlp):
        spec = LayerMap("lognormal:0.5", {0: "none", 1: "none"})
        assert VariationInjector(mlp, spec).target_parameters() == []


def _engines(dataset, n_samples=4, seed=3):
    return [
        MonteCarloEvaluator(dataset, n_samples=n_samples, seed=seed,
                            chunk_samples=2, **kwargs)
        for kwargs in (dict(vectorized=False), dict(vectorized=True),
                       dict(vectorized=False, n_workers=2))
    ]


class TestTailEnginePairing:
    @pytest.mark.parametrize("i", [2, 4])
    def test_lenet5_tails_pair_across_engines(self, lenet, tiny_test, i):
        spec = tail_spec(lenet, "lognormal:0.6", i)
        loop, vec, pool = (ev.evaluate(lenet, spec).accuracies
                           for ev in _engines(tiny_test))
        assert loop == vec == pool

    def test_resnet8_tail_pairs_across_engines(self, cifar):
        model = _resnet8(cifar)
        spec = tail_spec(model, "lognormal:0.5+quant:4", 4)
        loop, vec, pool = (ev.evaluate(model, spec).accuracies
                           for ev in _engines(cifar[1], n_samples=3))
        assert loop == vec == pool


class TestTailsAreLogicalEvaluations:
    def test_tail_plan_fingerprints_independently_of_knobs(
        self, lenet, tiny_test
    ):
        lenet.eval()
        spec = tail_spec(lenet, "lognormal:0.5", 3)
        fingerprints = {
            plan_fingerprint(
                build_plan(lenet, tiny_test, spec, n_samples=6, seed=1,
                           **knobs),
                lenet, tiny_test,
            )
            for knobs in (dict(), dict(vectorized=True, chunk_samples=2),
                          dict(n_workers=2, data_block=8, batch_size=16))
        }
        assert len(fingerprints) == 1
        other_tail = build_plan(lenet, tiny_test,
                                tail_spec(lenet, "lognormal:0.5", 4),
                                n_samples=6, seed=1)
        assert plan_fingerprint(other_tail, lenet, tiny_test) not in fingerprints

    def test_tail_rides_the_store(self, lenet, tiny_test, tmp_path):
        ev = MonteCarloEvaluator(tiny_test, n_samples=3, seed=2,
                                 vectorized=True)
        spec = tail_spec(lenet, "lognormal:0.5", 2)
        path = str(tmp_path / "store.sqlite")
        first = cached_evaluate(path, ev, lenet, spec)
        again = cached_evaluate(path, ev, lenet, spec)
        assert first.accuracies == again.accuracies
        assert first.accuracies == ev.evaluate(lenet, spec).accuracies

    def test_autotune_plans_tails(self, lenet, tiny_test):
        lenet.eval()
        ev = MonteCarloEvaluator(tiny_test, n_samples=4, autotune=True)
        plan = ev.plan(lenet, tail_spec(lenet, "lognormal:0.5", 2))
        assert plan.backend_reason is not None
        assert plan.backend_reason.startswith("autotuned")


class _Recorder(MonteCarloEvaluator):
    """Records the spec of every evaluation it runs."""

    def __init__(self, dataset):
        super().__init__(dataset, n_samples=2, seed=0)
        self.specs = []

    def evaluate(self, model, variation, **kwargs):
        self.specs.append(variation)
        return super().evaluate(model, variation, **kwargs)


class TestSweepsPassTailSpecs:
    def test_layer_sweep_evaluates_each_tail(self, mlp, blob_dataset):
        ev = _Recorder(blob_dataset)
        layer_sweep(mlp, "lognormal:0.3", ev)
        expected = [to_dict(tail_spec(mlp, "lognormal:0.3", i)) for i in (1, 2)]
        assert [to_dict(spec) for spec in ev.specs] == expected

    def test_select_candidates_walks_tails_backwards(self, mlp, blob_dataset):
        ev = _Recorder(blob_dataset)
        select_candidates(mlp, "lognormal:0.3", ev, original_accuracy=0.0)
        expected = [to_dict(tail_spec(mlp, "lognormal:0.3", i)) for i in (2, 1)]
        assert [to_dict(spec) for spec in ev.specs] == expected


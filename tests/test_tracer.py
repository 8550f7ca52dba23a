"""Error-propagation tracer: per-layer deviation capture (paper Fig. 4)."""

import numpy as np
import pytest

from repro.evaluation import ErrorPropagationTracer
from repro.nn.graph import weighted_layers
from repro.variation import LogNormalVariation, NoVariation


@pytest.fixture()
def tracer(mlp):
    return ErrorPropagationTracer(mlp)


class TestTrace:
    def test_one_deviation_per_weighted_layer(self, tracer, mlp, blob_dataset):
        devs = tracer.trace(blob_dataset.images, LogNormalVariation(0.3), seed=0)
        expected = weighted_layers(mlp)
        assert len(devs) == len(expected)
        assert [d.index for d in devs] == list(range(len(expected)))
        assert [d.name for d in devs] == [name for name, _ in expected]

    def test_no_variation_traces_zero_error(self, tracer, blob_dataset):
        devs = tracer.trace(blob_dataset.images, NoVariation(), seed=0)
        assert all(d.relative_error == pytest.approx(0.0) for d in devs)

    def test_variation_produces_positive_error(self, tracer, blob_dataset):
        devs = tracer.trace(blob_dataset.images, LogNormalVariation(0.5), seed=0)
        assert all(d.relative_error > 0 for d in devs)

    def test_trace_is_deterministic(self, tracer, blob_dataset):
        """Same seed, same deviations — the tracer runs on explicit spawned
        streams, not on id()/hash()-derived seeds."""
        kwargs = dict(variation=LogNormalVariation(0.4), seed=7)
        first = tracer.trace(blob_dataset.images, **kwargs)
        second = tracer.trace(blob_dataset.images, **kwargs)
        assert [d.relative_error for d in first] == [
            d.relative_error for d in second
        ]

    def test_different_seeds_differ(self, tracer, blob_dataset):
        a = tracer.trace(blob_dataset.images, LogNormalVariation(0.4), seed=0)
        b = tracer.trace(blob_dataset.images, LogNormalVariation(0.4), seed=1)
        assert [d.relative_error for d in a] != [d.relative_error for d in b]

    def test_larger_sigma_larger_deviation(self, tracer, blob_dataset):
        small = tracer.trace(blob_dataset.images, LogNormalVariation(0.05), seed=3)
        large = tracer.trace(blob_dataset.images, LogNormalVariation(0.8), seed=3)
        assert sum(d.relative_error for d in large) > sum(
            d.relative_error for d in small
        )


class TestRestoration:
    def test_forward_hooks_removed_after_trace(self, tracer, mlp, blob_dataset):
        originals = [layer.forward for _, layer in weighted_layers(mlp)]
        tracer.trace(blob_dataset.images, LogNormalVariation(0.3), seed=0)
        assert [layer.forward for _, layer in weighted_layers(mlp)] == originals

    def test_forward_hooks_removed_on_exception(self, tracer, mlp):
        originals = [layer.forward for _, layer in weighted_layers(mlp)]
        bad_input = np.ones((2, 17))  # wrong feature count -> forward raises
        with pytest.raises(Exception):
            tracer.trace(bad_input, LogNormalVariation(0.3), seed=0)
        assert [layer.forward for _, layer in weighted_layers(mlp)] == originals

    def test_training_mode_restored(self, tracer, mlp, blob_dataset):
        mlp.train()
        tracer.trace(blob_dataset.images, LogNormalVariation(0.3), seed=0)
        assert mlp.training
        mlp.eval()
        tracer.trace(blob_dataset.images, LogNormalVariation(0.3), seed=0)
        assert not mlp.training

    def test_weights_restored_after_trace(self, tracer, mlp, blob_dataset):
        before = {n: p.data.copy() for n, p in mlp.named_parameters()}
        tracer.trace(blob_dataset.images, LogNormalVariation(0.5), seed=0)
        for name, param in mlp.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])


class TestAmplificationProfile:
    def test_profile_matches_single_trace_for_one_sample(
        self, tracer, blob_dataset
    ):
        """n_samples=1 averages one draw: exactly trace() on stream 0 of
        the spawned schedule."""
        from repro.utils.rng import spawn_rngs

        profile = tracer.amplification_profile(
            blob_dataset.images, LogNormalVariation(0.4), n_samples=1, seed=5
        )
        devs = tracer.trace(
            blob_dataset.images, LogNormalVariation(0.4),
            seed=spawn_rngs(5, 1)[0],
        )
        assert profile == pytest.approx([d.relative_error for d in devs])

    def test_profile_is_deterministic(self, tracer, blob_dataset):
        kwargs = dict(n_samples=3, seed=2)
        first = tracer.amplification_profile(
            blob_dataset.images, LogNormalVariation(0.4), **kwargs
        )
        second = tracer.amplification_profile(
            blob_dataset.images, LogNormalVariation(0.4), **kwargs
        )
        assert first == second

    def test_profile_length_matches_layers(self, tracer, mlp, blob_dataset):
        profile = tracer.amplification_profile(
            blob_dataset.images, LogNormalVariation(0.3), n_samples=2, seed=0
        )
        assert len(profile) == len(weighted_layers(mlp))
        assert all(err >= 0 for err in profile)

    def test_unseeded_profile_runs(self, tracer, mlp, blob_dataset):
        """seed=None is the explicitly nondeterministic path; it must still
        produce a well-formed profile."""
        profile = tracer.amplification_profile(
            blob_dataset.images, LogNormalVariation(0.3), n_samples=2,
            seed=None,
        )
        assert len(profile) == len(weighted_layers(mlp))

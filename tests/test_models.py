"""Model zoo: shapes, layer counts, registry dispatch."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data import ArrayDataset
from repro.models import LeNet5, MLP, VGG, available_models, build_model
from repro.nn.graph import weighted_layers


class TestLeNet5:
    def test_forward_shape(self):
        model = LeNet5(num_classes=10, in_channels=1, input_size=16, seed=0)
        x = Tensor(np.zeros((4, 1, 16, 16)))
        assert model(x).shape == (4, 10)

    def test_five_weighted_layers(self):
        model = LeNet5(seed=0)
        assert len(weighted_layers(model)) == 5

    def test_width_multiplier_scales_params(self):
        small = LeNet5(width_multiplier=1.0, seed=0).num_parameters()
        large = LeNet5(width_multiplier=2.0, seed=0).num_parameters()
        assert large > 2 * small

    def test_rgb_input(self):
        model = LeNet5(num_classes=10, in_channels=3, input_size=16, seed=0)
        assert model(Tensor(np.zeros((2, 3, 16, 16)))).shape == (2, 10)

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            LeNet5(input_size=6)


class TestVGG:
    def test_vgg16_depth(self):
        model = VGG("vgg16", num_classes=10, in_channels=3, input_size=16,
                    width=0.1, seed=0)
        # 13 convs + 2 linears
        assert len(weighted_layers(model)) == 15

    def test_vgg11_depth(self):
        model = VGG("vgg11", num_classes=10, in_channels=3, input_size=16,
                    width=0.1, seed=0)
        assert len(weighted_layers(model)) == 10

    def test_forward_shape(self):
        model = VGG("vgg16", num_classes=7, in_channels=3, input_size=16,
                    width=0.1, seed=0)
        assert model(Tensor(np.zeros((2, 3, 16, 16)))).shape == (2, 7)

    def test_small_input_skips_extra_pools(self):
        # 8x8 input supports 3 pools; vgg16 config has 5 — must still build.
        model = VGG("vgg16", num_classes=4, in_channels=1, input_size=8,
                    width=0.1, seed=0)
        assert model(Tensor(np.zeros((1, 1, 8, 8)))).shape == (1, 4)

    def test_width_scales_channels(self):
        thin = VGG("vgg16", width=0.05, input_size=16, seed=0).num_parameters()
        wide = VGG("vgg16", width=0.2, input_size=16, seed=0).num_parameters()
        assert wide > thin

    def test_custom_config_list(self):
        model = VGG([4, "M", 8], num_classes=3, in_channels=1, input_size=8,
                    width=1.0, seed=0)
        assert model(Tensor(np.zeros((1, 1, 8, 8)))).shape == (1, 3)


class TestMLP:
    def test_flatten_input(self):
        model = MLP(16, [8], 4, seed=0)
        assert model(Tensor(np.zeros((2, 1, 4, 4)))).shape == (2, 4)

    def test_depth_matches_hidden(self):
        model = MLP(4, [8, 8, 8], 2, flatten_input=False, seed=0)
        assert len(weighted_layers(model)) == 4


class TestRegistry:
    def _ds(self, channels=1, classes=10):
        return ArrayDataset(np.zeros((classes, channels, 16, 16)),
                            np.arange(classes))

    def test_available(self):
        assert "lenet5" in available_models()
        assert "vgg16" in available_models()

    @pytest.mark.parametrize("name", ["lenet5", "vgg16", "vgg11", "mlp"])
    def test_build_and_forward(self, name):
        ds = self._ds(channels=3, classes=10)
        model = build_model(name, ds, width=0.3, seed=0)
        out = model(Tensor(np.zeros((2, 3, 16, 16))))
        assert out.shape == (2, 10)

    def test_class_count_adapts(self):
        ds = self._ds(classes=7)
        model = build_model("lenet5", ds, seed=0)
        assert model(Tensor(np.zeros((1, 1, 16, 16)))).shape == (1, 7)

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError):
            build_model("resnet", self._ds())

    def test_nonsquare_raises(self):
        ds = ArrayDataset(np.zeros((2, 1, 8, 16)), np.arange(2))
        with pytest.raises(ValueError):
            build_model("lenet5", ds)

    def test_deterministic_by_seed(self):
        ds = self._ds()
        a = build_model("lenet5", ds, seed=3)
        b = build_model("lenet5", ds, seed=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

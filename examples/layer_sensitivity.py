"""Which layers are sensitive to variations? (the Fig.-9 experiment)

Trains a Lipschitz-regularized LeNet-5, then injects variations only from
layer i to the last layer for each i. The printed profile shows the paper's
key observation: late-layer variations are absorbed by error suppression,
while early-layer variations collapse accuracy — so compensation belongs at
the front of the network.

Run:  python examples/layer_sensitivity.py
"""

from repro.core import Trainer
from repro.data import synth_mnist
from repro.evaluation import MonteCarloEvaluator, accuracy, layer_sweep, select_candidates
from repro.lipschitz import OrthogonalityRegularizer, lambda_bound
from repro.models import build_model
from repro.nn.graph import weighted_layers
from repro.optim import Adam, CosineSchedule
from repro.utils.tables import format_table
from repro.variation import LogNormalVariation

SIGMA = 0.5
EPOCHS = 25
MC_SAMPLES = 10


def main() -> None:
    train, test = synth_mnist()
    model = build_model("lenet5", train, seed=0)

    print("training with Lipschitz regularization ...")
    reg = OrthogonalityRegularizer(lambda_bound(SIGMA), beta=1.0)
    opt = Adam(list(model.parameters()), lr=3e-3)
    Trainer(model, opt, regularizer=reg, seed=0).fit(
        train, epochs=EPOCHS, batch_size=32,
        scheduler=CosineSchedule(opt, EPOCHS, min_lr=3e-4),
    )
    clean = accuracy(model, test)
    print(f"clean accuracy: {100 * clean:.2f}%")

    evaluator = MonteCarloEvaluator(test, n_samples=MC_SAMPLES, seed=5)
    variation = LogNormalVariation(SIGMA)
    results = layer_sweep(model, variation, evaluator)

    names = [name for name, _ in weighted_layers(model)]
    rows = [
        [i, names[i - 1], 100 * r.mean, 100 * r.std]
        for i, r in results
    ]
    print(f"\nvariations injected from layer i to the last (sigma={SIGMA}):")
    print(format_table(["start layer i", "module", "acc mean %", "acc std %"],
                       rows))

    candidates = select_candidates(model, variation, evaluator, clean)
    print(f"\ncompensation candidates (95% rule): layers {candidates}")
    print("-> these early layers are where CorrectNet spends its "
          "compensation budget")


if __name__ == "__main__":
    main()

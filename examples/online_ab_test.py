"""Online serving demo: deploy the base model and BASM behind a simulated
personalisation platform and run a multi-day A/B experiment (Table VII /
Fig. 12).

Run with:  python examples/online_ab_test.py
"""

from __future__ import annotations

import numpy as np

from repro.data import ElemeDatasetConfig, LogGenerator, make_eleme_dataset
from repro.models import ModelConfig, create_model
from repro.serving import (
    ABTestConfig,
    ABTestSimulator,
    OnlineRequestEncoder,
    ServingState,
    build_pipeline,
)
from repro.training import TrainConfig, Trainer


def main() -> None:
    # Offline phase: generate logs and train the two candidate rankers.
    dataset = make_eleme_dataset(
        ElemeDatasetConfig(num_users=3000, num_items=1000, num_days=6, sessions_per_day=400)
    )
    model_config = ModelConfig(tower_units=(128, 64, 32))
    train_config = TrainConfig(epochs=2, batch_size=1024, warmup_steps=50)
    base_model = create_model("base_din", dataset.schema, model_config)
    basm_model = create_model("basm", dataset.schema, model_config)
    print("Training the base model (DIN variant) and BASM ...")
    Trainer(train_config).fit(base_model, dataset.train)
    Trainer(train_config).fit(basm_model, dataset.train)

    # Online phase: take over the user/item state and serve live requests.
    generator = LogGenerator(dataset.world, dataset.config.log_config())
    state = ServingState.from_log_generator(generator, dataset.log)
    encoder = OnlineRequestEncoder(dataset.world, dataset.schema)

    # A single end-to-end request through the TPP-style serving pipeline.
    pipeline = build_pipeline(dataset.world, basm_model, encoder, state)
    context = dataset.world.sample_request_context(day=100, rng=np.random.default_rng(1))
    impression = pipeline.run(context)
    print(f"\nServed one request at hour {context.hour} in city {context.city + 1}: "
          f"{len(impression)} items, top score {impression.scores[0]:.3f}")

    # The A/B experiment: 5 simulated days, users hash-split 50/50.
    simulator = ABTestSimulator(
        dataset.world, base_model, basm_model, encoder, state,
        ABTestConfig(num_days=5, requests_per_day=300, exposure_size=8),
    )
    result = simulator.run(start_day=100)

    print("\nDaily CTR (Table VII shape):")
    for row in result.table7_rows():
        print(f"  day {row['Day']}: base {row['Base model CTR']}%  "
              f"BASM {row['BASM CTR']}%  improvement {row['Relative Improvement']}%")

    print("\nBy time-period (Fig. 12a shape):")
    for row in result.figure12_time_period_rows():
        print(f"  {row['Group']:13s} exposure share {row['Exposure Ratio']:.3f}  "
              f"base {row['Base CTR']:.3f}  BASM {row['BASM CTR']:.3f}")


if __name__ == "__main__":
    main()

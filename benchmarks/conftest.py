"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  Datasets
and the two "online" models (the DIN-variant base model and BASM) are built
once per session and reused, so the whole suite stays runnable on a laptop.

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable:
``small`` (default, a few minutes for the full suite) or ``large`` (closer to
the paper's relative scale, tens of minutes).

Each benchmark prints its table and also writes it to ``results/<name>.txt``
so the regenerated numbers survive pytest's output capture.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.data import (
    ElemeDatasetConfig,
    LogGenerator,
    PublicDatasetConfig,
    make_eleme_dataset,
    make_public_dataset,
)
from repro.models import ModelConfig, create_model
from repro.serving import OnlineRequestEncoder, ServingState
from repro.training import TrainConfig, Trainer
from repro.utils import atomic_write_text

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small").lower()

if _SCALE == "large":
    ELEME_CONFIG = ElemeDatasetConfig(
        num_users=12000, num_items=3000, num_days=9, sessions_per_day=2000, seed=7
    )
    PUBLIC_CONFIG = PublicDatasetConfig(
        num_users=8000, num_items=2000, num_days=9, sessions_per_day=1500, seed=23
    )
    MODEL_CONFIG = ModelConfig(embedding_dim=8, attention_dim=32, tower_units=(256, 128, 64))
    TRAIN_CONFIG = TrainConfig(epochs=3, batch_size=1024, warmup_steps=150)
else:
    ELEME_CONFIG = ElemeDatasetConfig(
        num_users=4000, num_items=1200, num_days=7, sessions_per_day=600, seed=7
    )
    PUBLIC_CONFIG = PublicDatasetConfig(
        num_users=3000, num_items=900, num_days=6, sessions_per_day=500, seed=23
    )
    MODEL_CONFIG = ModelConfig(embedding_dim=8, attention_dim=32, tower_units=(128, 64, 32))
    TRAIN_CONFIG = TrainConfig(epochs=2, batch_size=1024, warmup_steps=60)


def save_result(name: str, text: str) -> None:
    """Print a regenerated table and persist it under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


def format_rows(rows, title: str = "") -> str:
    """Render a list of dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), max(len(str(row[column])) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(" | ".join(str(row[column]).ljust(widths[column]) for column in columns))
    return "\n".join(lines)


@pytest.fixture(scope="session")
def eleme_bench():
    """The Ele.me-style synthetic dataset used by most benchmarks."""
    return make_eleme_dataset(ELEME_CONFIG)


@pytest.fixture(scope="session")
def public_bench():
    """The public-data-style synthetic dataset (second column block of Table IV)."""
    return make_public_dataset(PUBLIC_CONFIG)


@pytest.fixture(scope="session")
def model_config():
    return MODEL_CONFIG


@pytest.fixture(scope="session")
def train_config():
    return TRAIN_CONFIG


@pytest.fixture(scope="session")
def trained_basm(eleme_bench):
    """A BASM model trained on the Ele.me training split (shared by figure benches)."""
    model = create_model("basm", eleme_bench.schema, MODEL_CONFIG)
    Trainer(TRAIN_CONFIG).fit(model, eleme_bench.train)
    return model


@pytest.fixture(scope="session")
def trained_base_din(eleme_bench):
    """The online base model (DIN variant) trained on the same split."""
    model = create_model("base_din", eleme_bench.schema, MODEL_CONFIG)
    Trainer(TRAIN_CONFIG).fit(model, eleme_bench.train)
    return model


@pytest.fixture(scope="session")
def serving_environment(eleme_bench):
    """Serving state + online encoder carried over from the offline log."""
    generator = LogGenerator(eleme_bench.world, eleme_bench.config.log_config())
    state = ServingState.from_log_generator(generator, eleme_bench.log)
    encoder = OnlineRequestEncoder(eleme_bench.world, eleme_bench.schema)
    return state, encoder

"""Experiment drivers: train-and-evaluate loops shared by benchmarks and examples.

These helpers regenerate the paper's comparison tables: run a list of models
on a dataset (Table IV), run the BASM ablations (Table V), optionally with
repeated runs averaged as in Section III-A.4 ("we averaged the results of all
the studies after five repetitions").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.encoding import EncodedDataset
from ..metrics.report import MetricReport
from ..models.base import BaseCTRModel, ModelConfig
from ..models.registry import PAPER_MODELS, create_model
from .config import TrainConfig
from .evaluator import evaluate_model
from .trainer import Trainer

__all__ = ["ExperimentResult", "run_comparison", "run_basm_ablation", "format_table"]


@dataclass
class ExperimentResult:
    """Metrics (averaged over repetitions) for one model on one dataset."""

    model_name: str
    report: MetricReport
    repetitions: int
    train_seconds: float

    def as_row(self) -> Dict[str, float]:
        row = {"Methods": self.model_name}
        row.update({key: round(value, 4) for key, value in self.report.as_dict().items()})
        return row


def _average_reports(reports: Sequence[MetricReport]) -> MetricReport:
    def mean(name: str) -> float:
        values = [getattr(report, name) for report in reports]
        return float(np.nanmean(values))

    return MetricReport(
        auc=mean("auc"),
        tauc=mean("tauc"),
        cauc=mean("cauc"),
        ndcg3=mean("ndcg3"),
        ndcg10=mean("ndcg10"),
        logloss=mean("logloss"),
    )


def _train_and_evaluate(
    model: BaseCTRModel,
    train_data: EncodedDataset,
    test_data: EncodedDataset,
    train_config: TrainConfig,
) -> (MetricReport, float):
    trainer = Trainer(train_config)
    result = trainer.fit(model, train_data)
    report = evaluate_model(model, test_data, batch_size=train_config.batch_size)
    return report, result.train_seconds


def run_comparison(
    train_data: EncodedDataset,
    test_data: EncodedDataset,
    model_names: Optional[Sequence[str]] = None,
    model_config: Optional[ModelConfig] = None,
    train_config: Optional[TrainConfig] = None,
    repetitions: int = 1,
    model_kwargs: Optional[Dict[str, Dict]] = None,
) -> List[ExperimentResult]:
    """Train every named model and evaluate it on the test split (Table IV)."""
    model_names = list(model_names or PAPER_MODELS)
    model_config = model_config or ModelConfig()
    train_config = train_config or TrainConfig()
    model_kwargs = model_kwargs or {}

    results: List[ExperimentResult] = []
    for name in model_names:
        reports: List[MetricReport] = []
        total_seconds = 0.0
        for repetition in range(repetitions):
            config = ModelConfig(**{**model_config.__dict__, "seed": model_config.seed + repetition})
            run_config = TrainConfig(**{**train_config.__dict__, "seed": train_config.seed + repetition})
            model = create_model(name, train_data.schema, config, **model_kwargs.get(name, {}))
            report, seconds = _train_and_evaluate(model, train_data, test_data, run_config)
            reports.append(report)
            total_seconds += seconds
        results.append(
            ExperimentResult(
                model_name=name,
                report=_average_reports(reports),
                repetitions=repetitions,
                train_seconds=total_seconds,
            )
        )
    return results


def run_basm_ablation(
    train_data: EncodedDataset,
    test_data: EncodedDataset,
    model_config: Optional[ModelConfig] = None,
    train_config: Optional[TrainConfig] = None,
    repetitions: int = 1,
) -> List[ExperimentResult]:
    """The Table V ablation: full BASM vs each module removed."""
    model_config = model_config or ModelConfig()
    train_config = train_config or TrainConfig()
    variants = {
        "w/o StAEL": {"use_stael": False},
        "w/o StSTL": {"use_ststl": False},
        "w/o StABT": {"use_stabt": False},
        "BASM": {},
    }
    results: List[ExperimentResult] = []
    for label, kwargs in variants.items():
        reports: List[MetricReport] = []
        total_seconds = 0.0
        for repetition in range(repetitions):
            config = ModelConfig(**{**model_config.__dict__, "seed": model_config.seed + repetition})
            run_config = TrainConfig(**{**train_config.__dict__, "seed": train_config.seed + repetition})
            model = create_model("basm", train_data.schema, config, **kwargs)
            report, seconds = _train_and_evaluate(model, train_data, test_data, run_config)
            reports.append(report)
            total_seconds += seconds
        results.append(
            ExperimentResult(
                model_name=label,
                report=_average_reports(reports),
                repetitions=repetitions,
                train_seconds=total_seconds,
            )
        )
    return results


def format_table(results: Sequence[ExperimentResult], title: str = "") -> str:
    """Render experiment results as an aligned text table (benchmark output)."""
    if not results:
        return "(no results)"
    rows = [result.as_row() for result in results]
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

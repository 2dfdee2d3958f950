"""Training configuration (paper Section III-A.4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TrainConfig"]


@dataclass
class TrainConfig:
    """Optimisation hyper-parameters.

    Defaults follow the paper's recipe in shape: AdagradDecay (the one
    optimizer) with a linear learning-rate warm-up and batch size ~1k.  The
    paper warms up from 0.001 to 0.012 over 1M steps on billions of samples;
    at reproduction scale (tens of thousands of samples, hundreds of steps)
    the same schedule is kept but rescaled — warm-up from 0.005 to a 0.05 peak
    over ~100 steps — otherwise the models barely move off their
    initialisation.
    """

    epochs: int = 3
    batch_size: int = 1024
    learning_rate: float = 0.05
    warmup_start_lr: float = 0.005
    warmup_peak_lr: float = 0.05
    warmup_steps: int = 100
    use_warmup: bool = True
    adagrad_decay: float = 0.9999
    gradient_clip_norm: Optional[float] = 5.0
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

"""The paper's optimizer and learning-rate schedule."""

from .adagrad import AdagradDecay
from .lr_scheduler import LinearWarmup

__all__ = ["AdagradDecay", "LinearWarmup"]

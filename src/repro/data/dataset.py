"""Mini-batch iteration over encoded datasets."""

from __future__ import annotations

from typing import Dict, Iterator, Union

import numpy as np

from .encoding import EncodedDataset

__all__ = ["DataLoader"]


class DataLoader:
    """Iterate an :class:`EncodedDataset` in mini-batches.

    Each batch is the dict produced by :meth:`EncodedDataset.batch`, i.e. all
    categorical fields as global-id arrays plus behaviour sequences, masks,
    labels and the spatiotemporal group keys needed by TAUC / CAUC.
    ``seed`` may be a generator, which then drives the shuffle (and keeps
    advancing across loaders that share it).
    """

    def __init__(
        self,
        dataset: EncodedDataset,
        batch_size: int = 1024,
        shuffle: bool = False,
        drop_last: bool = False,
        seed: Union[int, np.random.Generator] = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        count = len(self.dataset)
        if self.drop_last:
            return count // self.batch_size
        return int(np.ceil(count / self.batch_size))

    def __iter__(self) -> Iterator[Dict[str, np.ndarray]]:
        indices = np.arange(len(self.dataset))
        if self.shuffle:
            self.rng.shuffle(indices)
        for start in range(0, len(indices), self.batch_size):
            chunk = indices[start:start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                break
            yield self.dataset.batch(chunk)

"""Module base class: parameter registration, train/eval mode, state dicts."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .parameter import Parameter
from .tensor import Tensor

__all__ = ["Module", "ModuleList", "Sequential", "inference_mode", "is_inference"]

# Per-thread, like the ``no_grad`` flag in :mod:`repro.nn.tensor`: a serving
# thread entering inference mode must not flip a training thread's batch-norm
# or dropout behaviour on a *shared* model instance.
_INFERENCE_STATE = threading.local()


class inference_mode:
    """Context manager forcing eval-time behaviour on the current thread.

    Inside the block every mode-dependent layer (batch norm, dropout) behaves
    as in ``eval()`` — running statistics, no activation masking — without
    touching the module tree's ``training`` flags.  That is the property
    concurrent serving needs: ``BaseCTRModel.predict`` on a model instance
    shared by many threads used to flip ``self.eval()`` / ``self.train()``
    around every forward, so a concurrent reader could observe train-mode
    batch norm mid-inference (and corrupt the running statistics).  The flag
    is thread-local, so training may continue on another thread unaffected.
    """

    def __enter__(self) -> "inference_mode":
        self._previous = is_inference()
        _INFERENCE_STATE.active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _INFERENCE_STATE.active = self._previous


def is_inference() -> bool:
    """Whether the current thread forces eval-time layer behaviour."""
    return getattr(_INFERENCE_STATE, "active", False)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimisation, state
    serialisation, and train/eval mode switching — the same contract as
    ``torch.nn.Module``, which keeps the model code in :mod:`repro.models`
    readable to anyone familiar with that API.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # attribute plumbing
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # parameter / module iteration
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> List["Module"]:
        return [module for _, module in self.named_modules()]

    def num_parameters(self) -> int:
        """Total number of trainable scalars in this module tree."""
        return int(sum(param.size for param in self.parameters()))

    # ------------------------------------------------------------------ #
    # modes & gradients
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @property
    def effective_training(self) -> bool:
        """``training`` unless the current thread is in :class:`inference_mode`.

        Mode-dependent layers must consult this (never ``self.training``
        directly) so that thread-local inference — the concurrency-safe way
        to run eval-time forwards on a shared model — actually reaches them.
        """
        return self.training and not is_inference()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------ #
    # state (de)serialisation
    # ------------------------------------------------------------------ #
    #: Non-parameter arrays serialised alongside parameters (e.g. BatchNorm
    #: running statistics).  Subclasses with such state list the attribute
    #: names here.
    _buffer_names: tuple = ("running_mean", "running_var")

    def _named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, "Module", str]]:
        for name, module in self.named_modules():
            for attribute in self._buffer_names:
                if hasattr(module, attribute) and isinstance(getattr(module, attribute), np.ndarray):
                    key = f"{name}.{attribute}" if name else attribute
                    yield key, module, attribute

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: np.array(param.data) for name, param in self.named_parameters()}
        for key, module, attribute in self._named_buffers():
            state[key] = np.array(getattr(module, attribute))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        buffers = {key: (module, attribute) for key, module, attribute in self._named_buffers()}
        missing = (set(own) | set(buffers)) - set(state)
        unexpected = set(state) - set(own) - set(buffers)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        # Every array is checked before any is written: a bad checkpoint
        # leaves the module as it was.
        targets = {name: (param, "data") for name, param in own.items()}
        targets.update(buffers)
        loaded = []
        for name, (owner, attribute) in targets.items():
            if name in state:
                value = np.asarray(state[name], dtype=np.float32)
                expected = getattr(owner, attribute).shape
                if value.shape != expected:
                    raise ValueError(f"shape mismatch for {name}: expected {expected}, got {value.shape}")
                loaded.append((owner, attribute, value.copy()))
        for owner, attribute, value in loaded:
            object.__setattr__(owner, attribute, value)

    def save_npz(self, path) -> None:
        """Serialise :meth:`state_dict` to an uncompressed ``.npz`` archive.

        The archive holds one array per parameter/buffer under its dotted
        state-dict name, so any tool that can read npz can inspect a
        checkpoint.  Like ``numpy``, ``.npz`` is appended when the path
        lacks it; callers that need a predictable filename should pass one
        that already ends in ``.npz``.  The write is atomic
        (:func:`repro.utils.atomic_savez`): a crash mid-save leaves any
        previous archive at ``path`` intact, never a truncated one.
        """
        from ..utils import atomic_savez

        state = self.state_dict()
        if not state:
            raise ValueError("refusing to save an empty state dict")
        atomic_savez(path, state)

    def load_npz(self, path, strict: bool = True) -> None:
        """Load parameters/buffers saved by :meth:`save_npz` in place."""
        with np.load(path) as archive:
            state = {name: archive[name] for name in archive.files}
        self.load_state_dict(state, strict=strict)

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable container of sub-modules registered in order."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        object.__setattr__(self, str(index), module)
        return self

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called directly")


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: List[Module] = []
        for index, module in enumerate(modules):
            self._items.append(module)
            self._modules[str(index)] = module
            object.__setattr__(self, str(index), module)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._items:
            x = module(x)
        return x

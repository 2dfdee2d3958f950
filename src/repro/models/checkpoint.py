"""Model checkpoints: npz parameter archives with a lifecycle manifest.

The paper's deployment (Section V / Fig. 13) never serves a model forever:
the online system retrains on fresh logs and redeploys continuously.  That
loop needs a durable interchange format, and this module provides it — one
``.npz`` file per checkpoint holding

* every parameter/buffer of the model under its dotted state-dict name
  (the same layout :meth:`repro.nn.Module.save_npz` writes, with the
  manifest key added), and
* a JSON **manifest** under the reserved ``__manifest__`` key: the registry
  model name, its :class:`~repro.models.base.ModelConfig`, the feature-schema
  fingerprint it was trained against, and the optimisation step count.

The manifest is what makes a checkpoint more than a weight dump: any model in
:data:`repro.models.registry.MODEL_REGISTRY` can be rebuilt from disk with
:func:`restore_model` without the caller knowing which architecture it is,
and a reload against a schema with a different global-id layout fails loudly
instead of silently gathering the wrong embedding rows.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from ..features.schema import FeatureSchema
from ..utils import atomic_savez
from .base import BaseCTRModel, ModelConfig
from .registry import create_model

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointManifest",
    "save_checkpoint",
    "load_checkpoint",
    "restore_model",
]

#: Bumped whenever the on-disk layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 1

#: Reserved npz key holding the JSON manifest (never a valid parameter name).
_MANIFEST_KEY = "__manifest__"


@dataclass
class CheckpointManifest:
    """Everything needed to rebuild and trust a checkpointed model."""

    model_name: str
    model_config: Dict[str, object]
    schema_name: str
    schema_fingerprint: str
    step_count: int = 0
    format_version: int = CHECKPOINT_FORMAT_VERSION
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CheckpointManifest":
        payload = json.loads(text)
        version = int(payload.get("format_version", 0))
        if version > CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"checkpoint format v{version} is newer than supported "
                f"v{CHECKPOINT_FORMAT_VERSION}"
            )
        return cls(**payload)

    def build_model_config(self) -> ModelConfig:
        """Reconstruct the :class:`ModelConfig` the model was built with."""
        config = dict(self.model_config)
        if "tower_units" in config:
            config["tower_units"] = tuple(config["tower_units"])
        return ModelConfig(**config)


def _normalize_path(path) -> Path:
    """``np.savez`` appends ``.npz`` when missing; mirror that up front."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def save_checkpoint(
    model: BaseCTRModel,
    path,
    step_count: int = 0,
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Write ``model`` and its manifest to ``path`` and return the final path."""
    path = _normalize_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = CheckpointManifest(
        model_name=model.name,
        model_config=dataclasses.asdict(model.config),
        schema_name=model.schema.name,
        schema_fingerprint=model.schema.fingerprint(),
        step_count=int(step_count),
        metadata=dict(metadata or {}),
    )
    state = model.state_dict()
    if _MANIFEST_KEY in state:
        raise ValueError(f"state dict must not use the reserved key {_MANIFEST_KEY!r}")
    # Publish atomically: a crash mid-write must never leave a truncated
    # archive where ModelStore.versions() (or any reader) would find it.
    atomic_savez(path, {_MANIFEST_KEY: np.array(manifest.to_json()), **state})
    return path


def load_checkpoint(path) -> Tuple[Dict[str, np.ndarray], CheckpointManifest]:
    """Read a checkpoint back as ``(state_dict, manifest)``."""
    path = _normalize_path(path)
    with np.load(path) as archive:
        if _MANIFEST_KEY not in archive.files:
            raise ValueError(f"{path} is not a model checkpoint (no manifest)")
        manifest = CheckpointManifest.from_json(str(archive[_MANIFEST_KEY]))
        state = {
            name: archive[name] for name in archive.files if name != _MANIFEST_KEY
        }
    return state, manifest


def restore_model(path, schema: FeatureSchema) -> Tuple[BaseCTRModel, CheckpointManifest]:
    """Rebuild the checkpointed registry model against ``schema``.

    The schema's fingerprint must match the one recorded at save time.
    """
    state, manifest = load_checkpoint(path)
    if schema.fingerprint() != manifest.schema_fingerprint:
        raise ValueError(
            f"schema fingerprint mismatch: checkpoint was saved against "
            f"{manifest.schema_name!r} ({manifest.schema_fingerprint}), got "
            f"{schema.name!r} ({schema.fingerprint()})"
        )
    model = create_model(manifest.model_name, schema, manifest.build_model_config())
    model.load_state_dict(state, strict=True)
    model.eval()
    return model, manifest

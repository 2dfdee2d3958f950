"""Versioned on-disk model store for the continuous-refresh loop.

The production system the paper describes retrains daily and pushes the
refreshed parameters to the RTP scoring tier.  :class:`ModelStore` is the
reproduction's stand-in for that model registry: a directory tree

.. code-block:: text

    <root>/<model name>/v0001.npz
    <root>/<model name>/v0002.npz
    ...

where every version is a self-describing checkpoint written by
:func:`repro.models.checkpoint.save_checkpoint`.  Versions are immutable and
monotonically increasing; ``publish`` never overwrites, so a serving process
can keep scoring from version N while the trainer writes N+1, and a bad
refresh is rolled back by simply loading the previous version.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..features.schema import FeatureSchema
from .base import BaseCTRModel
from .checkpoint import CheckpointManifest, load_checkpoint, restore_model, save_checkpoint

__all__ = ["ModelVersion", "ModelStore"]

_VERSION_PATTERN = re.compile(r"^v(\d{4,})\.npz$")


@dataclass(frozen=True)
class ModelVersion:
    """One immutable published checkpoint."""

    name: str
    version: int
    path: Path

    @property
    def tag(self) -> str:
        return f"{self.name}/v{self.version:04d}"


class ModelStore:
    """Filesystem-backed, versioned store of model checkpoints."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    def _model_dir(self, name: str) -> Path:
        return self.root / name

    def model_names(self) -> List[str]:
        """Models with at least one published version."""
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and self.versions(entry.name)
        )

    def versions(self, name: str) -> List[int]:
        """Published version numbers of ``name``, ascending."""
        directory = self._model_dir(name)
        if not directory.is_dir():
            return []
        found = []
        for entry in directory.iterdir():
            match = _VERSION_PATTERN.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self, name: str) -> Optional[int]:
        versions = self.versions(name)
        return versions[-1] if versions else None

    def path(self, name: str, version: int) -> Path:
        return self._model_dir(name) / f"v{version:04d}.npz"

    # ------------------------------------------------------------------ #
    def publish(
        self,
        model: BaseCTRModel,
        name: Optional[str] = None,
        step_count: int = 0,
        metadata: Optional[Dict[str, object]] = None,
    ) -> ModelVersion:
        """Checkpoint ``model`` as the next version and return its handle."""
        name = name or model.name
        version = (self.latest_version(name) or 0) + 1
        path = self.path(name, version)
        # Never overwrite a published version, even if another publisher
        # raced the directory scan: advance until a free slot is found.
        while path.exists():
            version += 1
            path = self.path(name, version)
        save_checkpoint(model, path, step_count=step_count, metadata=metadata)
        return ModelVersion(name=name, version=version, path=path)

    def manifest(self, name: str, version: Optional[int] = None) -> CheckpointManifest:
        """Manifest of ``version`` (default: latest) without building the model."""
        version = self._resolve_version(name, version)
        _, manifest = load_checkpoint(self.path(name, version))
        return manifest

    def load(
        self,
        name: str,
        schema: FeatureSchema,
        version: Optional[int] = None,
    ) -> Tuple[BaseCTRModel, ModelVersion]:
        """Rebuild ``version`` of ``name`` (default: latest) against ``schema``."""
        version = self._resolve_version(name, version)
        path = self.path(name, version)
        model, _ = restore_model(path, schema)
        return model, ModelVersion(name=name, version=version, path=path)

    # ------------------------------------------------------------------ #
    def _resolve_version(self, name: str, version: Optional[int]) -> int:
        if version is None:
            latest = self.latest_version(name)
            if latest is None:
                raise FileNotFoundError(f"model {name!r} has no published versions")
            return latest
        if not self.path(name, version).exists():
            raise FileNotFoundError(
                f"model {name!r} has no version {version} "
                f"(available: {self.versions(name)})"
            )
        return version

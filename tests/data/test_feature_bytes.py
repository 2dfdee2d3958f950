"""Byte pins on the data path: the simulated log, both offline encoders and
the end-of-log state a serving replica adopts.

Each digest is a sha256 over every array (name, dtype, shape, bytes) of one
output on the tiny fixtures, computed before the offline and online feature
views were merged into one definition.  A refactor of the log generator, the
behaviour history or the Table I id builders must leave every one of them
unchanged; a deliberate feature change re-pins them and says why.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.data import LogGenerator
from repro.serving import ServingState
from repro.serving.durable import state_fingerprint

PARENT_DIGESTS = {
    "eleme_log": "aee2b0fda53d80d170b5808c21fc3087f08f334413f0f3b7911ef0e1e2d7bb11",
    "eleme_encoded": "af9e5a66274e59f5b106698cc1661e594dc27780f957b06898d3a91da1f0f146",
    "public_log": "787fa6e1710285634c7aed337cc0f9ac397bd2974bc3b984f09c27e96ef5174b",
    "public_encoded": "6cc8e72f6a200e35f79b3ee605db03a61270d2b5d1e86c7399a7f55dca2f6e78",
    # Re-pinned once each when SNAPSHOT_FORMAT_VERSION went 2 -> 3 and 3 -> 4:
    # the manifest's format_version is checksummed, and with it forced back
    # to 2 / 3 the state still hashes to the old a77180e4ca7082c1... /
    # 66e070be0abba0d9... digest.
    "eleme_adopted_state": "5af7c9feceb5fe8575e637a33bfa7fccbda7734dca71760a8d7509d65307eaa1",
}


def _update(digest, name: str, value) -> None:
    digest.update(name.encode("utf-8"))
    if isinstance(value, list):  # the per-session geohash strings
        digest.update("\n".join(value).encode("utf-8"))
        return
    array = np.ascontiguousarray(value)
    digest.update(str(array.dtype).encode("utf-8") + str(array.shape).encode("utf-8"))
    digest.update(array.tobytes())


def _log_digest(log) -> str:
    digest = hashlib.sha256()
    for field in dataclasses.fields(log):
        _update(digest, field.name, getattr(log, field.name))
    return digest.hexdigest()


def _encoded_digest(encoded) -> str:
    digest = hashlib.sha256()
    for name in sorted(encoded.field_ids):
        _update(digest, f"field.{name}", encoded.field_ids[name])
    for field in dataclasses.fields(encoded):
        if field.name not in ("schema", "field_ids"):
            _update(digest, field.name, getattr(encoded, field.name))
    return digest.hexdigest()


def test_eleme_log_and_encoding_bytes(eleme_dataset):
    assert _log_digest(eleme_dataset.log) == PARENT_DIGESTS["eleme_log"]
    assert _encoded_digest(eleme_dataset.full) == PARENT_DIGESTS["eleme_encoded"]


def test_public_log_and_encoding_bytes(public_dataset):
    assert _log_digest(public_dataset.log) == PARENT_DIGESTS["public_log"]
    assert _encoded_digest(public_dataset.full) == PARENT_DIGESTS["public_encoded"]


def test_adopted_end_of_log_state_bytes(eleme_dataset):
    """Histories, counters and drawn orders after the whole log, as a replica
    adopts them: re-simulating the fixture's log reproduces it first."""
    generator = LogGenerator(eleme_dataset.world, eleme_dataset.config.log_config())
    log = generator.simulate()
    assert _log_digest(log) == PARENT_DIGESTS["eleme_log"]
    state = ServingState.from_log_generator(generator, log)
    assert state_fingerprint(state) == PARENT_DIGESTS["eleme_adopted_state"]

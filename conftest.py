"""Repo-root pytest hooks: knobs shared by the test and benchmark tiers.

``--fsync`` selects the journal durability policy the fault-injection tier
runs under (``tests/serving/test_durability.py``).  CI pins
``--fsync every-write`` so the crash-recovery proofs exercise the strictest
policy; locally the default is the same, but ``--fsync interval`` or
``--fsync off`` re-runs the tier under the laxer policies (the tests that
*require* commit-on-append durability downgrade themselves accordingly).

Property tests replay: one ``hypothesis`` profile is registered and loaded
here for every tier — derandomised (examples are a function of the test, not
of the run), no deadline (tier-1 reads no clock) and no example database (no
state carried between runs) — so a ``@given`` test passes or fails the same
way in CI and locally.

``flat_join`` is the serving parity oracle both tiers share: it broadcasts
``encode_split``'s per-request rows onto every candidate row, giving the flat
batch the models' ``forward`` / ``predict`` take.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.features import FieldName
from repro.serving.durable import FSYNC_POLICIES

settings.register_profile("repo", derandomize=True, deadline=None, database=None)
settings.load_profile("repo")


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--fsync",
        action="store",
        default="every-write",
        choices=FSYNC_POLICIES,
        help="journal fsync policy for the durability test tier",
    )


@pytest.fixture(scope="session")
def fsync_policy(request: pytest.FixtureRequest) -> str:
    """The journal fsync policy selected on the command line."""
    return str(request.config.getoption("--fsync"))


@pytest.fixture(scope="session")
def flat_join():
    """``join(encoder, contexts, candidate_lists, state) -> (batch, offsets)``:
    one ``encode_split`` joined into the offline batch layout
    (:meth:`repro.data.encoding.EncodedDataset.batch`), every row carrying
    its request's user, context and behaviour and ``session`` = request."""

    def join(encoder, contexts, candidate_lists, state):
        split, offsets = encoder.encode_split(contexts, candidate_lists, state)
        rows, slots = split["row_map"], split["behavior_row_map"]

        def per_request(name):
            return np.array([getattr(context, name) for context in contexts],
                            dtype=np.int64)[rows]

        batch = {
            "fields": {
                FieldName.USER: split["user_rows"][rows],
                FieldName.CANDIDATE_ITEM: split["item_field"],
                FieldName.CONTEXT: split["context_rows"][rows],
                FieldName.COMBINE: split["combine_ids"],
            },
            "behavior": split["behavior_unique"][slots],
            "behavior_mask": split["behavior_mask_unique"][slots],
            "behavior_st_mask": split["behavior_st_mask_unique"][slots],
            "labels": np.zeros(len(rows), dtype=np.float32),
            "time_period": per_request("time_period"),
            "city": per_request("city"),
            "hour": per_request("hour"),
            "session": rows,
            "position": np.arange(len(rows), dtype=np.int64) - offsets[rows],
        }
        return batch, offsets

    return join

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
"""

from __future__ import annotations

import pytest
from hypothesis import settings

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

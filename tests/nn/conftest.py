"""Fixtures shared by the ``nn`` tests."""

from __future__ import annotations

import pytest

from repro.nn import Tensor


@pytest.fixture()
def made(monkeypatch):
    """Every tensor ``Tensor._make`` hands out while the fixture is live."""
    results = []
    make = Tensor._make

    def recording(data, parents, backward):
        out = make(data, parents, backward)
        results.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
    return results

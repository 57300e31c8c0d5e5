"""Shared fixtures for the test suite (helpers live in tests/helpers.py)."""

from __future__ import annotations

import pytest

from repro.sim import SimRuntime


@pytest.fixture
def env() -> SimRuntime:
    """A fresh deterministic simulation environment."""
    return SimRuntime.create(seed=42)

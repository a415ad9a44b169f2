"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import golden
import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator; per-test isolation via fixed seed."""
    return np.random.default_rng(20050608)


@pytest.fixture
def rng_factory():
    """Factory for independent deterministic generators."""

    def make(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(1_000_003 + seed)

    return make


@pytest.fixture(scope="session")
def results():
    """Every panel of every figure at the golden scale and seed, by id.

    Run once per session: the figure tests and the golden digests
    (``tests/test_golden.py``) read the same panels.
    """
    return golden.run_panels()

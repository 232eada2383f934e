"""Shared fixtures."""

import pytest


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry failed cells at once: the harness's retry backoff is 0 s."""
    from repro.harness import executor

    monkeypatch.setattr(executor, "BACKOFF_BASE_S", 0.0)

"""Suite-wide guards."""

from __future__ import annotations

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_live_child_process():
    """A test fails if it ends with a child process still running: every
    sweep joins the workers it forks, also when one of them raised."""
    yield
    alive = multiprocessing.active_children()
    assert not alive, f"child processes still running after the test: {alive}"

"""Shared fixtures: small machines that keep unit tests fast, and the
real tree linted once for the simlint repo tests."""

from pathlib import Path

import pytest

from repro import GiB, Machine
from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def machine():
    """Data-capturing machine with a small disk."""
    return Machine(capacity_bytes=1 * GiB, memory_bytes=256 << 20)


@pytest.fixture
def timing_machine():
    """Timing-only machine (payloads are not stored)."""
    return Machine(capacity_bytes=2 * GiB, memory_bytes=256 << 20,
                   capture_data=False)


def run(machine, gen):
    """Drive a workload generator to completion on ``machine``."""
    return machine.run_process(gen)


@pytest.fixture(scope="session")
def real_tree():
    """``simlint src/repro tests scripts`` without the baseline: every
    finding, plus the linked ``src/repro`` program on ``.program``."""
    return lint_paths([str(REPO_ROOT / d)
                       for d in ("src/repro", "tests", "scripts")],
                      root=str(REPO_ROOT),
                      package_root=REPO_ROOT / "src" / "repro")

"""Session-scoped Ray init (single init per pytest run, per driver contract)."""

from __future__ import annotations

import sys
import os

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# property tests draw the same examples on every run (no random seed, no
# example database carried between runs), so "suite green" reproduces
from hypothesis import settings

settings.register_profile("seeded", derandomize=True, database=None)
settings.load_profile("seeded")


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_small() -> str:
    return "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def sf_oracle() -> str:
    return "/root/testdata/sf0.01"

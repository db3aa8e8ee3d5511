"""Make the shared benchmark helpers importable during collection, and
run the collected figure benchmarks' experiments as one grid."""

import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from bench_util import CACHE_DIR  # noqa: E402
from repro.sim.experiments import regenerate  # noqa: E402


@pytest.fixture(scope="session")
def payloads(request):
    """``{name: payload}`` for every experiment a collected test module
    lists in ``EXPERIMENTS``, from one ``regenerate`` over their cells."""
    names = []
    for item in request.session.items:
        for name in getattr(item.module, "EXPERIMENTS", ()):
            if name not in names:
                names.append(name)
    return regenerate(names, cache_dir=CACHE_DIR, max_workers=os.cpu_count())

"""Shared test set-up.

The black-box CLI tests start ``python -m archflow`` in child processes,
some of them with ``cwd`` set to a temporary directory. A relative ``PYTHONPATH``
such as ``src`` would then point nowhere, so the checkout's ``src`` is put
first on ``PYTHONPATH`` as an absolute path. Every child then imports the
same package as the in-process tests; existing entries are kept after it.
"""

import math
import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
)


@pytest.fixture
def stalled_at_seeds():
    """An ``ArchSystem`` subclass whose field is the arch field at the default
    portrait's seeds and NaN everywhere else, so every step off a seed is
    rejected until it falls below the step floor."""
    from archflow import ArchSystem, PortraitSpec, seed_points

    class StalledAtSeeds(ArchSystem):
        __slots__ = ()

        def field_at(self, x, y):
            spec = PortraitSpec(system=ArchSystem(self.theta))
            seeds = {(p.x, p.y) for p, _ in seed_points(spec)}
            return super().field_at(x, y) if (x, y) in seeds else (math.nan, math.nan)

    return StalledAtSeeds

"""Seeded random number generation.

All stochastic operations in this package take an explicit SeededRng owned by
the caller. The generator is PCG64, so identical seeds give identical discard
decisions on identical input across platforms.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SeededRng:
    """A named, reproducible random source."""

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def gen(self) -> np.random.Generator:
        return self._gen

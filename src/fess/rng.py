"""Counter-based seeding helpers.

Every randomized routine in the package derives its generator from an
explicit base seed plus integer counters (replicate index, stream tag).
The derivation is a pure function of ``(seed, *keys)``, so replicates can
be generated in any order, or in parallel, with identical results.
"""

from __future__ import annotations

import numpy as np

from .dataset import _is_integer
from .errors import ValidationError


def derived_rng(seed: int, *keys: int) -> np.random.Generator:
    """Return a Generator keyed by ``seed`` and optional counter values."""
    return _stream(_entropy(seed, *keys))


def _entropy(*values) -> list[int]:
    """``values`` as ints, each checked to be a non-negative integer."""
    if not all(_is_integer(v) and v >= 0 for v in values):
        raise ValidationError(f"seed and keys must be non-negative integers, got {list(values)!r}")
    return [int(v) for v in values]


def _stream(entropy: list[int]) -> np.random.Generator:
    # the generator keyed by already checked entropy
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

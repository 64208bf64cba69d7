"""Counter-based seeding helpers.

Every randomized routine in the package derives its generator from an
explicit base seed plus integer counters (replicate index, stream tag).
The derivation is a pure function of ``(seed, *keys)``, so replicates can
be generated in any order, or in parallel, with identical results.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ValidationError


def derived_rng(seed: int, *keys: int) -> np.random.Generator:
    """Return a Generator keyed by ``seed`` and optional counter values."""
    entropy = [seed, *keys]
    if any(not isinstance(k, numbers.Integral) or isinstance(k, bool) or k < 0 for k in entropy):
        raise ValidationError(f"seed and keys must be non-negative integers, got {entropy!r}")
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in entropy]))

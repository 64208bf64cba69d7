"""Counter-based seeding helpers.

Every randomized routine in the package derives its generator from an
explicit base seed plus integer counters (replicate index, stream tag).
The derivation is a pure function of ``(seed, *keys)``, so a replicate's
stream does not depend on which other replicates are drawn, or in what
order.

The subsample draws are defined as ``derived_rng(seed, r).choice(n,
size, replace=False)`` for replicate ``r``. ``_replicate_choices``
computes them for a run of replicates at once, with the same integer
arithmetic numpy does one replicate at a time, and gives the same
indices bit for bit. Two cases take numpy's own per-replicate call: a
replicate with a draw that Lemire's rejection test would redraw, and
every replicate where numpy shuffles the tail of ``arange(n)`` instead
of running Floyd's sampler (``n > 10000`` and ``size > n // 50``).
"""

from __future__ import annotations

import numpy as np

from .dataset import _is_integer
from .errors import ValidationError

# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
# and PCG64's multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


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


def _replicate_choices(seed: int, start: int, stop: int, n: int, size: int) -> np.ndarray:
    """Row ``k`` is ``_stream([seed, start + k]).choice(n, size,
    replace=False)``, bit for bit: the ``(stop - start, size)`` draws of
    replicates ``start <= r < stop``, for a checked ``seed``, ``r < 2**32``
    and ``1 <= size <= n < 2**32 - 1``.

    Each step numpy takes for one replicate is integer arithmetic, run here
    across the replicates at once: SeedSequence's hash of ``[seed words...,
    r]`` and its mix, PCG64's seeding, its raw outputs (the low 32 bits of
    each before the high ones), Floyd's sampler with Lemire's bounded
    integers (draw ``u`` in ``[0, j]`` is ``u * (j + 1) >> 32``), then a
    Fisher-Yates shuffle of the draws.
    """
    reps = range(start, stop)
    if n > 10000 and size > n // 50:  # numpy shuffles the tail of arange(n)
        return np.stack([_stream([seed, r]).choice(n, size, replace=False) for r in reps])
    u32 = np.uint32
    count = len(reps)
    # SeedSequence: hash the entropy words into a pool of 4, mix the pool
    # word by word, then hash the pool out to the 8 words of PCG64's seed.
    words = [np.full(count, seed >> s & _MASK32, u32)
             for s in range(0, max(seed.bit_length(), 1), 32)]
    words.append(np.arange(start, stop, dtype=u32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ u32(const)
        const = const * _MULT_A & _MASK32
        value *= u32(const)
        value ^= value >> u32(16)
        return value

    def mix(x, y):
        out = u32(_MIX_L) * x - u32(_MIX_R) * y
        out ^= out >> u32(16)
        return out

    pool = [hashmix(words[i] if i < len(words) else np.zeros(count, u32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((count, 8), u32)
    const = _INIT_B
    for k in range(8):
        value = pool[k % 4] ^ u32(const)
        const = const * _MULT_B & _MASK32
        value *= u32(const)
        value ^= value >> u32(16)
        state[:, k] = value

    # Floyd takes a draw in [0, j] for j = n - size .. n - 1 (none for
    # j = 0, when size == n), the shuffle one in [0, i] for i = size - 1 .. 1.
    floyd = size - (size == n)
    bound = np.concatenate([np.arange(n - floyd, n), np.arange(size - 1, 0, -1)]).astype(u32)
    bound += u32(1)
    raw = np.empty((count, (len(bound) + 1) // 2), np.uint64)
    # one generator per call, set to each replicate's seeded state
    # (pcg64_set_seed: inc = 2 seq + 1, two LCG steps)
    bitgen = np.random.PCG64(0)
    setting = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for k, (s_hi, s_lo, q_hi, q_lo) in enumerate(state.astype("<u4").view("<u8").tolist()):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        setting["state"] = {
            "state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc
        }
        bitgen.state = setting
        raw[k] = bitgen.random_raw(raw.shape[1])
    draws = raw.astype("<u8", copy=False).view("<u4")[:, :len(bound)].T
    # Lemire redraws where m mod 2**32 < (2**32 - bound) mod bound, with
    # m = u * bound; such replicates take numpy's own call below.
    threshold = np.negative(bound) % bound
    redrawn = (np.multiply(draws, bound[:, None]) < threshold[:, None]).any(axis=0)
    drawn = np.empty(draws.shape, np.uint64)  # C order: one row a draw
    np.multiply(draws, bound[:, None].astype(np.uint64), out=drawn)
    del raw, draws
    drawn >>= np.uint64(32)
    drawn = drawn.view(np.int64)

    taken = np.zeros(count * n, bool)  # taken[k * n + v]: replicate k has v
    base = np.arange(0, count * n, n)
    idx = np.empty((size, count), np.int64)
    if floyd < size:
        idx[0] = 0
        taken[base] = True
    for row, j, value in zip(range(size - floyd, size), range(n - floyd, n), drawn):
        value = np.where(taken[base + value], j, value)
        taken[base + value] = True
        idx[row] = value
    flat = idx.reshape(-1)
    swap = drawn[floyd:]
    swap *= count  # flat positions of idx[j, k]
    swap += np.arange(count)
    for i, at in zip(range(size - 1, 0, -1), swap):
        row = idx[i].copy()
        idx[i] = flat[at]
        flat[at] = row
    out = np.ascontiguousarray(idx.T)
    for k in np.flatnonzero(redrawn):
        out[k] = _stream([seed, start + int(k)]).choice(n, size, replace=False)
    return out

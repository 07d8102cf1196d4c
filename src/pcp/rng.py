"""Deterministic random number generation shared by every generator in the repo.

All randomness flows through a Philox4x64 counter-based generator seeded
explicitly; Gaussian variates are produced by the Box-Muller transform on
Philox uniforms. Derived seeds (per trial, per sweep cell) are obtained with
the splitmix64 mixing function so independent streams never share state.
"""

import operator

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# splitmix64 constants (Steele, Lea & Flood's SplitMix generator finalizer)
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One splitmix64 step: advance by the golden-ratio gamma and finalize."""
    x = (x + _SM_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * _SM_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MUL2) & _MASK64
    return z ^ (z >> 31)


def mix_seed(base: int, *parts: int) -> int:
    """Derive a 64-bit seed from a base seed and integer context values.

    Feeding the same (base, parts) always yields the same seed; any change
    to a part decorrelates the stream. Used for per-cell seeds in sweeps and
    for sub-streams within one problem instance. Any integer type works,
    numpy's included: each value is taken as a Python int modulo 2^64.
    """
    h = operator.index(base) & _MASK64
    for p in parts:
        h = splitmix64(h ^ (operator.index(p) & _MASK64))
    return h


def make_rng(seed: int) -> np.random.Generator:
    """Philox4x64 generator for the given seed, of any integer type, modulo 2^64."""
    return np.random.Generator(np.random.Philox(key=operator.index(seed) & _MASK64))


def normal_matrix(rng: np.random.Generator, rows: int, cols: int, std: float) -> np.ndarray:
    """Gaussian matrix with i.i.d. N(0, std^2) entries via Box-Muller.

    Two uniform draws per entry; u1 is reflected to (0, 1] so log never sees
    zero. The cosine branch alone is used, which keeps the draw count per
    entry fixed and the stream layout obvious.
    """
    u1 = 1.0 - rng.random((rows, cols))
    u2 = rng.random((rows, cols))
    return std * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

"""Reproducible random numbers for the verification harness.

All randomness derives from the Philox-4x64-10 counter-based bit generator,
keyed by ``(seed, stream)`` and independent of numpy's Generator methods.
The raw 64-bit words and the uniforms shifted from them are bit-identical
on every platform.  Complex Gaussians are explicit Box-Muller pairs through
numpy's ``log``, ``cos`` and ``sin``, whose last bit depends on the numpy
build and CPU (numpy uses its own float64 ``log`` on AVX-512 CPUs), so
they, Haar states and ``verify`` slacks are bit-identical per numpy build
and CPU.
A sequence of streams gives one row per stream, equal to that stream's
draw; one stream is the no-stack case of the same code.
"""

from __future__ import annotations

import operator
import threading

import numpy as np

_INV53 = 2.0 ** -53


_MASK64 = (1 << 64) - 1
# The process's one generator and its fresh state, built on first use so
# that importing the package does not load numpy.random
_GEN, _LOCK = [], threading.Lock()


def raw_draws(n: int, seed: int, stream=0) -> np.ndarray:
    """n raw 64-bit words from the (seed, stream) Philox counter.

    One generator serves the process, set under a lock per stream to the
    state ``Philox(key=(seed, stream))`` starts in.  Seed and streams
    must be integers, and a sequence of streams 1-D.
    """
    try:
        key = operator.index(seed) & _MASK64
        try:
            streams, one = [operator.index(stream) & _MASK64], True
        except TypeError:   # a sequence of streams
            streams, one = [operator.index(s) & _MASK64 for s in stream], False
    except TypeError:
        if np.ndim(stream) > 1:
            raise ValueError(
                f"streams must be a 1-D sequence, got {stream!r}") from None
        raise TypeError(f"seed and stream must be integers, got seed "
                        f"{seed!r} and stream {stream!r}") from None
    out = np.empty((len(streams), n), dtype=np.uint64)
    with _LOCK:
        if not _GEN:   # seeded: Philox() and Philox(key=...) read OS entropy
            gen = np.random.Philox(0)
            fresh = gen.state   # counter 0 and an empty buffer
            # as Python ints, which the state setter reads fastest
            fresh["buffer"] = fresh["buffer"].tolist()
            fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
            _GEN[:] = gen, fresh
        gen, fresh = _GEN
        for row, stream in zip(out, streams):
            fresh["state"]["key"] = [key, stream]
            gen.state = fresh
            row[:] = gen.random_raw(n)
    return out[0] if one else out


def uniforms(n: int, seed: int, stream=0) -> np.ndarray:
    """n doubles uniform on (0, 1]; strictly positive so log() is safe."""
    return (np.right_shift(raw_draws(n, seed, stream), 11) + 1) * _INV53


def complex_normals(n: int, seed: int, stream=0) -> np.ndarray:
    """n standard complex normals, one Box-Muller pair per entry;
    bit-identical per numpy build and CPU only (module doc)."""
    u = uniforms(2 * n, seed, stream)
    r = np.sqrt(-2.0 * np.log(u[..., :n]))
    ang = 2.0 * np.pi * u[..., n:]
    return r * np.cos(ang) + 1j * r * np.sin(ang)

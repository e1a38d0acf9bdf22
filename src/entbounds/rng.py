"""Reproducible random numbers for the verification harness.

All randomness derives from the Philox-4x64-10 counter-based bit generator,
keyed by ``(seed, stream)``.  Uniform doubles are built from raw 64-bit
draws and Gaussians from explicit Box-Muller pairs, so a given
(seed, stream) produces bit-identical values on every platform and is
independent of numpy's Generator method streams.
A sequence of streams gives one row per stream, equal to that stream's
draw; one stream is the no-stack case of the same code.
"""

from __future__ import annotations

import numpy as np

_INV53 = 2.0 ** -53


_MASK64 = (1 << 64) - 1


def raw_draws(n: int, seed: int, stream=0) -> np.ndarray:
    """n raw 64-bit words from the (seed, stream) Philox counter.

    One generator, built from a fixed seed so that no OS entropy is read,
    serves a call: per stream it gets counter 0, key (seed, stream) and an
    empty buffer, the state ``Philox(key=...)`` starts in.
    """
    streams = [stream] if np.ndim(stream) == 0 else list(stream)
    gen = np.random.Philox(0)  # Philox() and Philox(key=...) read OS entropy
    state = gen.state  # a copy: counter 0 and an empty buffer
    out = np.empty((len(streams), n), dtype=np.uint64)
    for row, s in zip(out, streams):
        state["state"]["key"] = np.array([seed & _MASK64, int(s) & _MASK64],
                                         dtype=np.uint64)
        gen.state = state
        row[:] = gen.random_raw(n)
    return out[0] if np.ndim(stream) == 0 else out


def uniforms(n: int, seed: int, stream=0) -> np.ndarray:
    """n doubles uniform on (0, 1]; strictly positive so log() is safe."""
    return (np.right_shift(raw_draws(n, seed, stream), 11) + 1) * _INV53


def standard_normals(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n standard normal doubles via Box-Muller on Philox uniforms."""
    m = (n + 1) // 2
    u = uniforms(2 * m, seed, stream)
    r = np.sqrt(-2.0 * np.log(u[..., :m]))
    ang = 2.0 * np.pi * u[..., m:]
    z = np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    return z[..., :n]


def complex_normals(n: int, seed: int, stream=0) -> np.ndarray:
    """n standard complex normals; one Box-Muller pair per entry."""
    u = uniforms(2 * n, seed, stream)
    r = np.sqrt(-2.0 * np.log(u[..., :n]))
    ang = 2.0 * np.pi * u[..., n:]
    return r * np.cos(ang) + 1j * r * np.sin(ang)

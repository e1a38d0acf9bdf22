"""Machine-speed gauge: a fixed calibration kernel timed between the calls
of a measured loop.

The benchmark runs on small shared machines whose speed drifts by up to 2x
in phases of tens of seconds to minutes, longer than a run.  CPU time does
not remove that drift (it is slower execution, not time spent off the CPU).
The kernel below is the benchmark's own code, so no change to the program
moves it; it mixes the same kinds of work as the program (4x4 and 64x64
complex numpy linear algebra, interpreter-bound Python), so a slow phase
slows it much as it slows the program.  Each timing is divided by the
gauge's speed factor at that moment: the median of the nearest kernel
timings over ``REFERENCE_S``.  A scaled time reads as the time the call
would take on a machine where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel time that defines speed factor 1: a round number near the kernel's
# median between calls on the machine the benchmark was written on (Intel
# Xeon, 2 vCPUs), so that scaled times read close to wall times there.
REFERENCE_S = 1.0e-3
EVERY_S = 0.1          # at least this much loop time between two samples
# Samples whose median gives the factor at a moment: the ones just before
# and after a call and one more, so that the factor follows slow spells
# of a fraction of a second and one stray kernel timing does not move it.
NEAREST = 3


def _state(qubits: int, rng) -> np.ndarray:
    amp = rng.normal(size=2 ** qubits) + 1j * rng.normal(size=2 ** qubits)
    return amp / np.linalg.norm(amp)


_rng = np.random.default_rng(20241106)
_STATES = (_state(4, _rng), _state(6, _rng))
_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def _pair_spectrum(psi: np.ndarray, qubits: int, a: int, b: int) -> float:
    """Two-qubit reduced matrix of qubits a < b by way of the full
    projector, then its spin-flip singular values: the same kinds of numpy
    call, on the same sizes, as a pair measure of the program."""
    rho = np.outer(psi, psi.conj()).reshape((2,) * (2 * qubits))
    rows = list(range(qubits))
    cols = [qubits + k if k in (a, b) else k for k in range(qubits)]
    red = np.einsum(rho, rows + cols, [a, b, qubits + a, qubits + b])
    w, v = np.linalg.eigh(red.reshape(4, 4))
    half = v * np.sqrt(np.clip(w, 0.0, None))
    return float(np.linalg.svd(half.T @ _YY @ half, compute_uv=False)[0])


def kernel() -> float:
    """About a millisecond of program-like work, always the same."""
    acc = 0.0
    for psi in _STATES:
        qubits = psi.size.bit_length() - 1
        labels = {chr(65 + k): k for k in range(qubits)}
        for first, b in labels.items():            # interpreter work
            if first != "A":
                acc += _pair_spectrum(psi, qubits, 0, b)
    big = np.outer(_STATES[1], _STATES[1].conj())
    acc += float(np.abs(np.linalg.eigvalsh(big)).sum())   # trace norm
    return acc


class Gauge:
    """Kernel timings ``(start, seconds)`` taken during one run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self._last = end

    def tick(self) -> None:
        """Take a sample if ``EVERY_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scaled(self, timings) -> list[float]:
        """``(start, seconds)`` timings, each divided by the speed factor at
        its start (> 1 when the machine runs slow)."""
        starts = [start for start, _ in self.samples]
        out = []
        for start, seconds in timings:
            mid = bisect.bisect_left(starts, start)
            lo = max(0, min(mid - NEAREST // 2, len(starts) - NEAREST))
            near = [d for _, d in self.samples[lo:lo + NEAREST]]
            out.append(seconds * REFERENCE_S / statistics.median(near))
        return out

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.samples)

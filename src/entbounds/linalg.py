"""Dense complex linear algebra for small multi-qubit systems.

Matrices are plain ``numpy.ndarray`` objects with complex entries, row-major,
with the first tensor factor most significant (``kron(A, B)`` convention).
Systems are capped at 6 qubits (dimension 64), which keeps every operation
here effectively instantaneous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# The numeric tolerance, sized for <=64-dimensional spectra: norms, traces,
# Hermiticity, and the most negative eigenvalue accepted as round-off.
TAU_NUM = 1e-9

MAX_DIM = 64      # 6 qubits


class DimensionError(ValueError):
    """Requested object exceeds the configured maximum dimension."""


@dataclass(frozen=True)
class SubsystemShape:
    """A register of labeled qubits; ``labels[0]`` is the most significant
    bit of the row-major composite index."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        self.positions(self.labels)
        if self.dim > MAX_DIM:
            raise DimensionError(
                f"total dimension {self.dim} exceeds maximum {MAX_DIM}")

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def positions(self, labels: Iterable[str]) -> list[int]:
        """Indices of the given labels in shape order; raises on an unknown
        or a repeated label."""
        given = list(labels)
        want = set(given)
        if len(want) < len(given):
            raise ValueError(f"repeated subsystem label in {given}")
        unknown = want.difference(self.labels)
        if unknown:
            raise ValueError(f"unknown subsystem label(s): {sorted(unknown)}")
        return sorted(map(self.labels.index, want))


def qubit_shape(labels: Sequence[str]) -> SubsystemShape:
    """Qubit register with the given labels."""
    return SubsystemShape(tuple(labels))


def default_labels(n_qubits: int) -> tuple[str, ...]:
    """Standard label scheme: A, B for pairs, A,B,C for triples, then
    A, B, C1, ..., C(n-2)."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits <= 2:
        return ("A", "B")[:n_qubits]
    if n_qubits == 3:
        return ("A", "B", "C")
    return ("A", "B") + tuple(f"C{i}" for i in range(1, n_qubits - 1))


def _as_matrix(m) -> np.ndarray:
    """Finite complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    return a


def partial_trace(rho, shape: SubsystemShape, keep: Iterable[str]) -> np.ndarray:
    """Reduced matrix on the kept subsystems (induced label order).

    Tracing preserves the total trace; keeping every label returns the input
    unchanged.
    """
    rho = _as_matrix(rho)
    n = len(shape.labels)
    if rho.shape != (shape.dim, shape.dim):
        raise ValueError(f"matrix shape {rho.shape} does not match "
                         f"subsystem dimension {shape.dim}")
    keep_pos = shape.positions(keep)
    if len(keep_pos) == n:
        return rho.copy()
    kept = set(keep_pos)
    t = rho.reshape((2,) * (2 * n))
    in_sub = [*range(n), *(n + k if k in kept else k for k in range(n))]
    out_sub = [*keep_pos, *(n + k for k in keep_pos)]
    red_dim = 2 ** len(keep_pos)
    return np.einsum(t, in_sub, out_sub).reshape(red_dim, red_dim)


def partial_transpose(rho, shape: SubsystemShape, side: Iterable[str]) -> np.ndarray:
    """Transpose applied on the chosen tensor factors only."""
    rho = _as_matrix(rho)
    n = len(shape.labels)
    if rho.shape != (shape.dim, shape.dim):
        raise ValueError(f"matrix shape {rho.shape} does not match "
                         f"subsystem dimension {shape.dim}")
    side_pos = shape.positions(side)
    t = rho.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for k in side_pos:
        perm[k], perm[n + k] = perm[n + k], perm[k]
    return t.transpose(perm).reshape(shape.dim, shape.dim)


def trace_norm(m) -> float:
    """Sum of singular values (of |eigenvalues| for Hermitian input)."""
    return float(np.linalg.svd(_as_matrix(m), compute_uv=False).sum())


def projector(amplitudes) -> np.ndarray:
    """Rank-one projector |psi><psi| from an amplitude vector; a stack of
    vectors (..., d) gives a stack of projectors (..., d, d)."""
    v = np.asarray(amplitudes, dtype=complex)
    return v[..., :, None] * v.conj()[..., None, :]

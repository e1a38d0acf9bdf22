"""Entanglement quantities: concurrence, concurrence of assistance,
negativity, CREN/CRENoA for qubit pairs, Schmidt rank.

Two-qubit convex roofs use the closed forms built from the spin-flip
spectrum mu_1 >= ... >= mu_4: C = max(0, mu_1 - mu_2 - mu_3 - mu_4) and
C_a = mu_1 + mu_2 + mu_3 + mu_4, from any rho = V V^dagger: ``eigh`` gives
V for a checked mixed input; a pure state's pair cut matrix is such a V.
No package path calls ``reduced_density`` (module-level only) or
``cren_crenoa_two_qubit``: they are a second route to the pair values.

Every quantity of a pure state is read here, from its amplitude matrix M
across a cut, gathered through an index cached per register and cuts
(``_cut_index``): rho_left = M M^dagger, and the Schmidt values are the
singular values of M.  ``cut_measures`` reads a cut's C, N and Schmidt
rank from one ``_cut_matrix`` and one SVD, ``pair_measures_sq`` a set of
foci's pair values from one gather by its plan (``_pair_plan``) and one
spin-flip spectrum.  No 2^n x 2^n matrix is built.

Every measure also takes a stack of inputs on leading axes (a PureState
holding amplitudes (N, 2^n), or density matrices (..., d, d)) and returns
arrays over them, equal bit for bit to the values of the inputs one at a
time; one input gives Python scalars.  Where a stack's values must equal
one-state values taken in Python floats, here and in ``bounds``, their
power is ``_pow``: numpy's array power can differ in the last bit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import TAU_NUM, SubsystemShape
from .states import PureState

# sigma_y (x) sigma_y is real and antidiagonal: it reverses the four rows
# of a two-qubit vector and flips the sign of the first and the last.
_SPIN_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]
_BELOW_DIAGONAL = np.tri(4, k=-1, dtype=bool)

SCHMIDT_TOL = 1e-10


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint, covering, non-empty label sets of a subsystem shape."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        if not self.left or not self.right:
            raise ValueError("both sides of a bipartition must be non-empty")
        labels = self.left + self.right
        if len(set(labels)) < len(labels):
            if set(self.left) & set(self.right):
                raise ValueError("bipartition sides must be disjoint")
            raise ValueError(f"cut {''.join(self.left)}|{''.join(self.right)} "
                             f"repeats a label")

    @classmethod
    def of(cls, shape: SubsystemShape, left) -> "Bipartition":
        """Bipartition of the shape's labels into `left` and the rest."""
        left = tuple(map(shape.labels.__getitem__, shape.positions(left)))
        right = tuple(itertools.filterfalse(set(left).__contains__,
                                            shape.labels))
        if not right:
            raise ValueError("left side covers every subsystem")
        return cls(left, right)

    @classmethod
    def parse(cls, expression: str, shape: SubsystemShape) -> "Bipartition":
        """Parse an expression like ``AB|C1C2`` against the shape's labels.

        Each side is a concatenation of labels without separators; labels
        are matched greedily, longest first.
        """
        parts = expression.split("|")
        if len(parts) != 2:
            raise ValueError(f"cut {expression!r} must contain exactly one '|'")
        by_len = sorted(shape.labels, key=len, reverse=True)

        def tokenize(side: str) -> list[str]:
            out = []
            rest = side.strip()
            while rest:
                for lab in by_len:
                    if rest.startswith(lab):
                        out.append(lab)
                        rest = rest[len(lab):]
                        break
                else:
                    raise ValueError(
                        f"cannot match {rest!r} in cut {expression!r} "
                        f"against labels {shape.labels}")
            return out

        left, right = tokenize(parts[0]), tokenize(parts[1])
        if set(left) | set(right) != set(shape.labels):
            raise ValueError(f"cut {expression!r} does not cover all labels "
                             f"{shape.labels}")
        bip = cls(tuple(left), tuple(right))
        return bip


def _scalar(x):
    """A numpy result as a Python scalar for one input; a stack's stays
    an array."""
    return x.item() if x.ndim == 0 else x


def _pow(base, expo):
    """Python's float power of each element of ``base`` at each exponent,
    so that a stack's rows equal the one-state values bit for bit: shape
    expo.shape + base.shape, and a float for two floats.  A float base
    (np.float64 included) with a stack of exponents, as an exponent sweep
    powers each base, is one list of b ** e; otherwise the powers run
    exponent-major, every base at the first exponent, then the next."""
    if isinstance(base, float):
        base = float(base)   # np.float64's own power can differ in the last bit
        if isinstance(expo, float):
            return base ** expo
        expo = np.asarray(expo, dtype=float)
        return np.fromiter([base ** e for e in expo.ravel().tolist()], float,
                           expo.size).reshape(expo.shape)
    base, expo = np.asarray(base, dtype=float), np.asarray(expo, dtype=float)
    flat = base.ravel().tolist()
    return np.fromiter([b ** e for e in expo.ravel().tolist() for b in flat],
                       float, expo.size * base.size
                       ).reshape(expo.shape + base.shape)


def _check_density(rho) -> np.ndarray:
    """A density matrix or a stack (..., d, d) of them, each checked."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("rho must be a square matrix")
    if np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) > TAU_NUM:
        raise ValueError("rho is not Hermitian")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    off = tr[np.abs(tr - 1.0) > TAU_NUM]
    if off.size:
        raise ValueError(f"rho has trace {complex(off[0])!r}, expected 1")
    return rho


@functools.lru_cache(maxsize=256)
def _cut_index(labels: tuple[str, ...], lefts: tuple[tuple[str, ...], ...]
               ) -> np.ndarray:
    """Where each entry of the cut matrices of a state on ``labels`` sits
    in its amplitudes: one 2^k x 2^(n-k) index matrix per left side of
    ``lefts`` (label tuples of one size k), each side in shape order.
    Built on first use for each register (by its labels) and set of cuts."""
    shape, n = SubsystemShape(labels), len(labels)
    grid = np.arange(2 ** n).reshape((2,) * n)
    index = np.stack([grid.transpose(
        left + [k for k in range(n) if k not in left]).reshape(
            2 ** len(left), -1) for left in map(shape.positions, lefts)])
    index.setflags(write=False)
    return index


def _cut_matrix(psi: PureState, left) -> np.ndarray:
    """The amplitudes as a (..., 2^k, 2^(n-k)) matrix across the cut of
    the k labels ``left`` and the rest, each side in shape order."""
    return psi.amplitudes[..., _cut_index(psi.shape.labels,
                                          (tuple(left),))[0]]


def reduced_density(psi: PureState, keep) -> np.ndarray:
    """Reduced density matrix of a pure state (or of each state of a stack)
    on the kept labels, in shape order: M M^dagger of its cut matrix."""
    m = _cut_matrix(psi, keep)
    return np.einsum("...kr,...lr->...kl", m, m.conj())


def _check_cut(psi: PureState, cut: Bipartition) -> None:
    if set(cut.left) | set(cut.right) != set(psi.shape.labels):
        raise ValueError(f"cut {cut.left}|{cut.right} does not cover the "
                         f"state's labels {psi.shape.labels}")


def pure_concurrence(psi: PureState, cut: Bipartition) -> float:
    """sqrt(2 [1 - Tr rho_left^2]) across the cut; symmetric in the sides."""
    _check_cut(psi, cut)
    return _cut_concurrence(psi, cut.left)


def _cut_concurrence(psi: PureState, left) -> float:
    """``pure_concurrence`` across ``left`` and the rest, labels unchecked."""
    return _concurrence_from(_cut_matrix(psi, left))


def _concurrence_from(m: np.ndarray) -> float:
    """``pure_concurrence`` from its cut matrix M: rho_left = M M^dagger."""
    rho_left = np.einsum("...kr,...lr->...kl", m, m.conj())
    t = 1.0 - (rho_left @ rho_left).trace(axis1=-2, axis2=-1).real
    return _scalar(np.sqrt(2.0 * np.maximum(t, 0.0)))


def cut_measures(psi: PureState, left) -> tuple:
    """(C, N, Schmidt rank) across the cut of ``left`` and the rest, from
    one gather of its cut matrix M: C from rho_left = M M^dagger, and from
    one SVD of M the Schmidt values s, N = (sum of s)^2 - 1 clipped at
    zero (Vidal-Werner 2002) and the number of s^2 above SCHMIDT_TOL."""
    m = _cut_matrix(psi, left)
    schmidt = np.linalg.svd(m, compute_uv=False)
    n = np.maximum(0.0, _pow(schmidt.sum(axis=-1), 2.0) - 1.0)
    rank = (schmidt ** 2 > SCHMIDT_TOL).sum(axis=-1)
    return _concurrence_from(m), _scalar(n), _scalar(rank)


def _mu_spectrum(v: np.ndarray) -> np.ndarray:
    """Descending spin-flip spectrum mu_i, min(r, 4) values, of the
    two-qubit state rho = V V^dagger of each V of a stack (..., 4, r).

    The mu_i are the square roots of the eigenvalues of rho @ rho_tilde,
    equivalently the singular values of the symmetric preconcurrence matrix
    tau = V^T (sigma_y x sigma_y) V for any such V (Wootters 1998; Uhlmann
    2000).  The tau route is used because SVD keeps absolute accuracy near
    zero, where sqrt of an eigenvalue of rho @ rho_tilde loses half the
    digits.  For r > 4 an LQ step V = L Q^dagger first reduces V to its
    4 x 4 factor L, whose tau has the same singular values: L = R^dagger
    for V^dagger = Q R, R zeroed below the diagonal as np.triu does it.
    """
    if v.shape[-1] > 4:
        h, _ = np.linalg.qr(v.conj().swapaxes(-1, -2), mode="raw")  # R in h^T
        r = np.where(_BELOW_DIAGONAL, 0j, h.swapaxes(-1, -2)[..., :4, :])
        v = r.conj().swapaxes(-1, -2)
    tau = v.swapaxes(-1, -2) @ (_SPIN_FLIP_SIGNS * v[..., ::-1, :])
    return np.linalg.svd(tau, compute_uv=False)


def _pair_roofs(v: np.ndarray) -> np.ndarray:
    """C = max(0, mu_1 - mu_2 - ...) and C_a = sum of mu of the two-qubit
    state of each decomposition (..., 4, r), from one ``_mu_spectrum``:
    a (2, ...) array of C and C_a, which unpacks as the pair."""
    mu = _mu_spectrum(v)
    total = mu.sum(axis=-1)
    return np.array([np.maximum(0.0, 2.0 * mu[..., 0] - total), total])


@functools.lru_cache(maxsize=256)
def _pair_plan(labels: tuple[str, ...], foci: tuple[str, ...]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The ``_cut_index`` of the unordered pairs (i < j in shape order)
    the foci touch, and for each focus the position of each partner's
    pair in that stack, in shape order: an (F, n-1) array.  Built on
    first use for each register and foci."""
    pairs = tuple(pair for pair in itertools.combinations(labels, 2)
                  if set(pair) & set(foci))
    where = {frozenset(pair): k for k, pair in enumerate(pairs)}
    rows = np.array([[where[frozenset((f, q))] for q in labels if q != f]
                     for f in foci])
    rows.setflags(write=False)
    return _cut_index(labels, pairs), rows


def pair_measures_sq(psi: PureState, focus) -> np.ndarray:
    """Squared pair concurrence and CoA of the focus with each partner.

    Returns c_sq and ca_sq over the other labels in shape order, on the
    last axis, stacked on a leading axis of 2 that unpacks as the pair
    (c_sq, ca_sq) (a stack of N states gives two (N, partners) arrays).
    A tuple of foci adds a foci axis before the partner axis: (..., F,
    partners).  Each unordered pair the foci touch is evaluated once (its
    matrix is built in shape order, so (f, q) and (q, f) are one matrix):
    one gather of the pair cut matrices and one spin-flip spectrum call
    for all of them.  A cut matrix M decomposes its pair's state M M^dagger
    (Hermitian and positive by construction), so no pair density matrix,
    eigendecomposition or density check is needed.
    """
    foci = (focus,) if isinstance(focus, str) else tuple(focus)
    labels = psi.shape.labels
    if not foci:
        raise ValueError("need at least one focus")
    for f in foci:
        if f not in labels:
            raise ValueError(f"unknown focus label {f!r}")
    index, rows = _pair_plan(labels, foci)
    roofs = _pair_roofs(psi.amplitudes[..., index])
    rows = rows[0] if isinstance(focus, str) else rows
    return (roofs * roofs)[..., rows]


def cren_crenoa_two_qubit(rho) -> tuple[float, float]:
    """(CREN, CRENoA) of a two-qubit state.

    For qubit pairs the convex-roof extended negativity and its assistance
    version coincide with concurrence and CoA, so the pair is evaluated
    from one spin-flip spectrum.  ``eigh`` decomposes the checked input;
    weights below 64 eps of the largest are unresolvable and dropped.
    """
    rho = _check_density(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit density matrix, "
                         f"got shape {rho.shape}")
    w, v = np.linalg.eigh(rho)
    if np.any(w[..., 0] < -TAU_NUM):
        raise ValueError(
            f"density matrix has eigenvalue {np.min(w[..., 0]):.3e}")
    cutoff = 64.0 * np.finfo(float).eps * np.maximum(w[..., -1:], 0.0)
    w = np.where(w < cutoff, 0.0, w)
    c, ca = _pair_roofs(v * np.sqrt(w)[..., None, :])
    return _scalar(c), _scalar(ca)


def negativity(psi: PureState, cut: Bipartition) -> float:
    """Trace norm of the partial transpose of the pure state minus one,
    clipped at zero: (sum of Schmidt values)^2 - 1 (Vidal-Werner 2002)."""
    _check_cut(psi, cut)
    return cut_measures(psi, cut.left)[1]


def schmidt_rank(psi: PureState, cut: Bipartition) -> int:
    """Number of Schmidt values s across the cut with s^2 > SCHMIDT_TOL.

    The tolerance applies to the squared Schmidt values, the eigenvalues
    of the reduced state, so it sets where a cut counts as product, not
    only where round-off ends: a cut whose s_2^2 is at most 1e-10 has
    rank 1, while its negativity, 2 s_1 s_2 with two Schmidt values, can
    be as large as 2e-5; the AB|rest bounds read N as 0 on it.
    """
    _check_cut(psi, cut)
    return cut_measures(psi, cut.left)[2]

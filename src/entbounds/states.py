"""Constructors for the named state families, Haar sampling, and the
line-oriented state-spec text format.

Basis convention: subsystem labels in shape order, first label most
significant, so basis index ``i`` has bit ``(i >> (n-1-k)) & 1`` on
subsystem ``k``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .linalg import TAU_NUM, SubsystemShape, default_labels, qubit_shape


def _squared_norms(amp: np.ndarray) -> np.ndarray:
    """The squared norm of each row of ``amp`` (..., d), summed as
    ``np.linalg.norm`` sums one row: the dot product of its real parts
    plus that of its imaginary parts, each row one BLAS dot."""
    rows = amp.reshape(-1, 1, amp.shape[-1])
    re, im = rows.real, rows.imag
    sq = re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)
    return sq.reshape(amp.shape[:-1])


@functools.lru_cache(maxsize=None)
def _register(n_qubits: int) -> SubsystemShape:
    """The qubit register with the default labels, built once per size."""
    return qubit_shape(default_labels(n_qubits))


class StateSpecError(ValueError):
    """Malformed state-spec text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class PureState:
    """Normalized pure state over labeled qubit subsystems, held as its
    read-only amplitudes only; the measures read every reduction and cut
    from them.

    ``amplitudes`` of shape (N, 2^n) hold a stack of N states on the same
    register; one check of all rows' squared norms against TAU_NUM
    checks each like one state, and the measures evaluate such a stack in
    one pass.  The report functions, ``optimize`` and
    ``emit_state_spec`` take one state and raise ValueError on a stack.
    """

    shape: SubsystemShape
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = self.shape.dim
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 2 or amp.shape[1] != dim:
            amp = amp.reshape(-1)
        if amp.shape[-1] != dim:
            raise ValueError(f"amplitude count {amp.size} does not match "
                             f"shape dimension {dim}")
        # every row in one check; a non-finite amplitude gives a NaN or an
        # infinite squared norm, and NaN is not normalized
        normalized = abs(_squared_norms(amp) - 1.0) <= TAU_NUM
        if not normalized.all():
            if not np.isfinite(amp.view(float)).all():
                raise ValueError("amplitudes must be finite")
            row = amp.reshape(-1, dim)[np.argmin(normalized)]
            sq = float(np.vdot(row, row).real)
            raise ValueError(
                f"state is not normalized: |psi| = {math.sqrt(sq)!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_qubits(self) -> int:
        return len(self.shape.labels)

    def check_single(self) -> None:
        """Raise ValueError if this holds a stack of states."""
        if self.amplitudes.ndim > 1:
            raise ValueError(
                f"expected one state, got a stack of {len(self.amplitudes)}")


def _check_coefficients(lams) -> None:
    """Family coefficients must be nonnegative with unit square sum."""
    if any(l < 0 for l in lams):
        raise ValueError("coefficients must be nonnegative")
    s = float(sum(l * l for l in lams))
    if abs(s - 1.0) > TAU_NUM:
        raise ValueError(f"coefficients are not normalized: sum sq = {s!r}")


@dataclass(frozen=True)
class AcinParams:
    """Five nonnegative coefficients with unit square sum, plus a phase."""

    l0: float
    l1: float
    l2: float
    l3: float
    l4: float
    phi: float = 0.0

    def __post_init__(self):
        _check_coefficients((self.l0, self.l1, self.l2, self.l3, self.l4))


@dataclass(frozen=True)
class WClass4Params:
    """Four nonnegative coefficients with unit square sum."""

    l1: float
    l2: float
    l3: float
    l4: float

    def __post_init__(self):
        _check_coefficients((self.l1, self.l2, self.l3, self.l4))


def acin_state(p: AcinParams) -> PureState:
    """Three-qubit family state with labels A, B, C.

    Slot assignment is fixed by the family's closed-form pair values
    C_a(rho_AB) = 2*l0*sqrt(l2^2 + l4^2) and C_a(rho_AC) =
    2*l0*sqrt(l3^2 + l4^2): l2 sits on the basis state with B excited
    (index 6) and l3 on the one with C excited (index 5).  Reading the
    family's usual ket list naively left-to-right would swap the roles of
    B and C relative to those values.
    """
    amp = np.zeros(8, dtype=complex)
    amp[0] = p.l0                                # |000>
    amp[4] = p.l1 * np.exp(1j * p.phi)           # |100>
    amp[6] = p.l2                                # |110>
    amp[5] = p.l3                                # |101>
    amp[7] = p.l4                                # |111>
    return PureState(qubit_shape(("A", "B", "C")), amp)


def wclass4_state(p: WClass4Params) -> PureState:
    """Four-qubit W-class state with labels A, B, C1, C2.

    Implements the single-excitation reading l1|1000> + l2|0100> +
    l3|0010> + l4|0001>.  The family is sometimes displayed with l1
    distributing over the first two kets, which is inconsistent with the
    normalization Sum l_i^2 = 1 and with the pair concurrence C_AB =
    2*l1*l2; the additive reading is what those values force.
    """
    amp = np.zeros(16, dtype=complex)
    amp[8] = p.l1
    amp[4] = p.l2
    amp[2] = p.l3
    amp[1] = p.l4
    return PureState(qubit_shape(("A", "B", "C1", "C2")), amp)


def haar_random_pure(n_qubits: int, seed: int, stream=0) -> PureState:
    """Haar-random pure state: normalized vector of i.i.d. complex normals.

    Deterministic per (seed, stream); distinct streams give independent
    draws, which lets a harness derive one state per trial index.  A
    sequence of streams gives the stack of those states, row for row the
    one-stream draws.
    """
    if not 2 <= n_qubits <= 6:
        raise ValueError(f"n_qubits must be in [2, 6], got {n_qubits}")
    z = rng.complex_normals(2 ** n_qubits, seed, stream)
    z /= np.sqrt(_squared_norms(z))[..., None]   # each row's 1-D norm
    return PureState(_register(n_qubits), z)


def parse_state_spec(text: str, renormalize: bool = False) -> PureState:
    """Parse the line-oriented state-spec format.

    Format: a ``qubits <n>`` header, then ``amp <index> <re> <im>`` lines
    (decimal basis index); ``#`` starts a comment; unlisted amplitudes are
    zero; duplicate indices and non-finite parts are errors.  A spec that
    ``PureState``'s norm check rejects is an error unless ``renormalize``
    rescales it (first by its largest part if |psi|^2 under- or overflows).
    """
    n_qubits = None
    amp = None
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        fields = raw.split()
        if not fields:
            continue
        if fields[0] == "qubits":
            if n_qubits is not None:
                raise StateSpecError("duplicate 'qubits' header", lineno)
            if len(fields) != 2:
                raise StateSpecError("expected 'qubits <n>'", lineno)
            try:
                n_qubits = int(fields[1])
            except ValueError:
                raise StateSpecError(f"bad qubit count {fields[1]!r}", lineno) from None
            if not 1 <= n_qubits <= 6:
                raise StateSpecError(f"qubit count {n_qubits} out of range [1, 6]", lineno)
            amp = np.zeros(2 ** n_qubits, dtype=complex)
        elif fields[0] == "amp":
            if amp is None:
                raise StateSpecError("'amp' before 'qubits' header", lineno)
            if len(fields) != 4:
                raise StateSpecError("expected 'amp <index> <re> <im>'", lineno)
            try:
                idx = int(fields[1])
                re, im = float(fields[2]), float(fields[3])
            except ValueError:
                raise StateSpecError(f"bad amp line {raw.strip()!r}", lineno) from None
            if not 0 <= idx < amp.size:
                raise StateSpecError(
                    f"index {idx} out of range [0, {amp.size - 1}]", lineno)
            if idx in seen:
                raise StateSpecError(f"duplicate index {idx}", lineno)
            if not (math.isfinite(re) and math.isfinite(im)):
                raise StateSpecError(f"amplitude must be finite: {raw.strip()!r}", lineno)
            seen.add(idx)
            amp[idx] = complex(re, im)
        else:
            raise StateSpecError(f"unknown directive {fields[0]!r}", lineno)
    if amp is None:
        raise StateSpecError("missing 'qubits' header", 1)
    with np.errstate(over="ignore"):   # a huge spec's squared norm overflows
        try:   # PureState's norm check decides
            return PureState(_register(n_qubits), amp)
        except ValueError:   # not normalized: the parts are finite
            pass
    sq = float(np.vdot(amp, amp).real)
    if math.isnan(sq):
        sq = math.inf   # an overflow: inf - inf in the complex product
    if not renormalize:
        raise StateSpecError(
            f"state is not normalized: |psi| = {math.sqrt(sq)!r} "
            "(pass renormalize to accept)", 1)
    if sq == 0.0 or not math.isfinite(sq):
        # by the largest |re| or |im| (|amplitude| can overflow), part
        # by part (complex division forms 1/scale, inf if subnormal)
        scale = np.abs(amp.view(float)).max()
        if scale == 0.0:
            raise StateSpecError("cannot renormalize the zero vector", 1)
        amp = (amp.view(float) / scale).view(complex)
        sq = float(np.vdot(amp, amp).real)
    return PureState(_register(n_qubits), amp / np.sqrt(sq))


def emit_state_spec(psi: PureState) -> str:
    """Serialize a state in the state-spec format; round-trips bit-exactly,
    signed zeros included (only +0.0+0.0j amplitudes are left out)."""
    psi.check_single()
    lines = [f"qubits {psi.n_qubits}"]
    for idx, a in enumerate(psi.amplitudes):
        if a != 0 or np.signbit(a.real) or np.signbit(a.imag):
            lines.append(f"amp {idx} {float(a.real)!r} {float(a.imag)!r}")
    return "\n".join(lines) + "\n"

import math
from itertools import combinations

import numpy as np
import pytest

from entbounds.bounds import pair_measures_sq
from entbounds.linalg import (
    default_labels,
    partial_trace,
    partial_transpose,
    projector,
    qubit_shape,
    trace_norm,
)
from entbounds.measures import (
    SCHMIDT_TOL,
    Bipartition,
    _pow,
    cren_crenoa_two_qubit,
    negativity,
    pure_concurrence,
    reduced_density,
    schmidt_rank,
)
from entbounds.states import (
    AcinParams,
    PureState,
    acin_state,
    haar_random_pure,
)

from reference import (BELL, equal_superposition, linear_entropy,
                       random_density, read_corpus, two_term_state)


class TestBipartition:
    def test_parse(self):
        shape = qubit_shape(("A", "B", "C1", "C2"))
        cut = Bipartition.parse("AB|C1C2", shape)
        assert cut.left == ("A", "B") and cut.right == ("C1", "C2")

    def test_parse_single_focus(self):
        shape = qubit_shape(("A", "B", "C"))
        cut = Bipartition.parse("A|BC", shape)
        assert cut.left == ("A",)

    def test_parse_unknown_label(self):
        with pytest.raises(ValueError, match="cannot match"):
            Bipartition.parse("AQ|B", qubit_shape(("A", "B")))

    def test_parse_incomplete(self):
        with pytest.raises(ValueError, match="cover"):
            Bipartition.parse("A|B", qubit_shape(("A", "B", "C")))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            Bipartition(("A",), ("A", "B"))

    @pytest.mark.parametrize("left, right", [((), ("A", "B")), (("A",), ())])
    def test_empty_side_rejected(self, left, right):
        with pytest.raises(ValueError, match="^both sides of a bipartition "
                                             "must be non-empty$"):
            Bipartition(left, right)

    def test_of_repeated_label(self):
        with pytest.raises(ValueError, match="repeated"):
            Bipartition.of(qubit_shape(("A", "B", "C1", "C2")), ["A", "A"])

    @pytest.mark.parametrize("expression", ["AA|BC", "A|BCC", "C1C1|ABC2"])
    def test_parse_repeated_label(self, expression):
        shape = qubit_shape(("A", "B", "C1", "C2") if "C1" in expression
                            else ("A", "B", "C"))
        with pytest.raises(ValueError, match="repeats a label"):
            Bipartition.parse(expression, shape)


class TestLinearEntropy:
    def test_identity_with_cut_concurrence(self, example1_state):
        # C^2(AB|C) = 2 T(rho_AB) for pure states
        cut = Bipartition.of(example1_state.shape, ["A", "B"])
        c = pure_concurrence(example1_state, cut)
        t = linear_entropy(reduced_density(example1_state, ["A", "B"]))
        assert abs(c ** 2 - 2 * t) < 1e-12


class TestPureConcurrence:
    def test_bell_maximal(self):
        from entbounds.states import PureState
        psi = PureState(qubit_shape(("A", "B")), BELL)
        cut = Bipartition.of(psi.shape, ["A"])
        assert abs(pure_concurrence(psi, cut) - 1.0) < 1e-12

    def test_example1(self, example1_state):
        cut = Bipartition.of(example1_state.shape, ["A"])
        assert abs(pure_concurrence(example1_state, cut) - np.sqrt(3) / 2) < 1e-12

    def test_example2_ab_cut(self, example2_state):
        cut = Bipartition.of(example2_state.shape, ["A", "B"])
        assert abs(pure_concurrence(example2_state, cut) - np.sqrt(39) / 8) < 1e-12

    def test_side_symmetry(self):
        for i in range(20):
            psi = haar_random_pure(4, 31, stream=i)
            left = Bipartition.of(psi.shape, ["A", "C1"])
            right = Bipartition.of(psi.shape, ["B", "C2"])
            assert abs(pure_concurrence(psi, left)
                       - pure_concurrence(psi, right)) < 1e-10

    def test_invalid_cut(self, example1_state):
        bad = Bipartition(("A",), ("B",))  # does not cover C
        with pytest.raises(ValueError, match="cover"):
            pure_concurrence(example1_state, bad)


class TestTwoQubitConcurrence:
    def test_bell(self):
        assert abs(cren_crenoa_two_qubit(projector(BELL))[0] - 1.0) < 1e-12

    def test_separable_diagonal(self):
        assert cren_crenoa_two_qubit(np.eye(4) / 4)[0] == 0.0

    def test_example2_pair(self, example2_state):
        rho = reduced_density(example2_state, ["A", "B"])
        assert abs(cren_crenoa_two_qubit(rho)[0] - 3 / 4) < 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="4x4"):
            cren_crenoa_two_qubit(np.eye(2) / 2)


class TestTwoQubitCoa:
    def test_pure_equals_concurrence(self):
        gen = np.random.default_rng(41)
        for _ in range(20):
            v = gen.normal(size=4) + 1j * gen.normal(size=4)
            v /= np.linalg.norm(v)
            rho = projector(v)
            c, ca = cren_crenoa_two_qubit(rho)
            assert abs(ca - c) < 1e-9

    def test_acin_closed_form_random(self):
        gen = np.random.default_rng(43)
        shape3 = qubit_shape(("A", "B", "C"))
        for _ in range(50):
            lam = np.abs(gen.normal(size=5))
            lam /= np.linalg.norm(lam)
            psi = acin_state(AcinParams(*lam, phi=gen.uniform(0, 2 * np.pi)))
            rho_ab = partial_trace(projector(psi.amplitudes), shape3,
                                   ["A", "B"])
            expect = 2 * lam[0] * np.hypot(lam[2], lam[4])
            assert abs(cren_crenoa_two_qubit(rho_ab)[1] - expect) < 1e-9

    def test_example2_bc1(self, example2_state):
        rho = reduced_density(example2_state, ["B", "C1"])
        assert abs(cren_crenoa_two_qubit(rho)[1] - np.sqrt(2) / 4) < 1e-12

    def test_coa_dominates_concurrence(self):
        gen = np.random.default_rng(47)
        for _ in range(200):
            rho = random_density(gen, 4)
            c, ca = cren_crenoa_two_qubit(rho)
            assert ca >= c - 1e-12


class TestCrenCrenoa:
    def test_bell(self):
        nc, na = cren_crenoa_two_qubit(projector(BELL))
        assert abs(nc - 1.0) < 1e-12 and abs(na - 1.0) < 1e-12

    def test_example2_ac2(self, example2_state):
        nc, na = cren_crenoa_two_qubit(reduced_density(example2_state,
                                                       ["A", "C2"]))
        assert abs(nc - 3 / 8) < 1e-12
        assert abs(na - 3 / 8) < 1e-12

    def test_maximally_mixed(self):
        # mu spectrum of I/4 is (1/4, 1/4, 1/4, 1/4): C = 0, C_a = 1
        nc, na = cren_crenoa_two_qubit(np.eye(4) / 4)
        assert nc == 0.0
        assert abs(na - 1.0) < 1e-12

    def test_weight_at_the_cutoff_is_kept(self):
        # eigh returns this diagonal's eigenvalues exactly, and the smallest,
        # 32 eps, equals the cutoff 64 eps * 1/2: a weight is dropped only
        # below it.  Dropping it would give sqrt(1/2) = 0.70710678119 here.
        eps = np.finfo(float).eps
        rho = np.diag([0.5, 32 * eps, 0.25 - 32 * eps, 0.25])
        assert np.linalg.eigh(rho)[0][0] == 64 * eps * 0.5
        nc, na = cren_crenoa_two_qubit(rho)
        assert nc == 0.0
        assert na == pytest.approx(0.70710686548, abs=1e-11)


class TestNegativity:
    def test_bell(self):
        psi = PureState(qubit_shape(("A", "B")), BELL)
        cut = Bipartition.of(psi.shape, ["A"])
        assert abs(negativity(psi, cut) - 1.0) < 1e-12

    def test_pure_two_qubit_matches_concurrence(self):
        # Schmidt rank <= 2 forces equality
        gen = np.random.default_rng(59)
        shape = qubit_shape(("A", "B"))
        for _ in range(100):
            v = gen.normal(size=4) + 1j * gen.normal(size=4)
            v /= np.linalg.norm(v)
            n = negativity(PureState(shape, v), Bipartition.of(shape, ["A"]))
            assert abs(n - cren_crenoa_two_qubit(projector(v))[0]) < 1e-9

    def test_invalid_side(self):
        psi = PureState(qubit_shape(("A", "B")), BELL)
        with pytest.raises(ValueError, match="cover"):
            negativity(psi, Bipartition(("Z",), ("B",)))


class TestSchmidtRank:
    def test_product_state(self):
        psi = two_term_state(2, 1, 0.0)   # |00>
        assert schmidt_rank(psi, Bipartition.of(psi.shape, ["A"])) == 1

    def test_bell(self):
        from entbounds.states import PureState
        psi = PureState(qubit_shape(("A", "B")), BELL)
        assert schmidt_rank(psi, Bipartition.of(psi.shape, ["A"])) == 2

    def test_example2_ab_cut(self, example2_state):
        # the 4x4 reduced state has exactly two nonzero eigenvalues
        cut = Bipartition.of(example2_state.shape, ["A", "B"])
        rho_ab = reduced_density(example2_state, ["A", "B"])
        ev = np.sort(np.linalg.eigvalsh(rho_ab))[::-1]
        assert ev[1] > 1e-3 and abs(ev[2]) < 1e-12
        assert schmidt_rank(example2_state, cut) == 2


class TestEnsembleInvariants:
    def test_linear_entropy_subadditivity(self, haar4_ensemble):
        # |T(A) - T(B)| <= T(AB) <= T(A) + T(B)
        for psi in haar4_ensemble:
            t_ab = linear_entropy(reduced_density(psi, ["A", "B"]))
            t_a = linear_entropy(reduced_density(psi, ["A"]))
            t_b = linear_entropy(reduced_density(psi, ["B"]))
            assert t_ab <= t_a + t_b + 1e-12
            assert t_ab >= abs(t_a - t_b) - 1e-12

    def test_pair_polygamy_and_monogamy(self, haar4_ensemble):
        # sum C^2 pairs <= C^2(A|rest) <= sum C_a^2 pairs
        for psi in haar4_ensemble:
            c2 = pure_concurrence(psi, Bipartition.of(psi.shape, ["A"])) ** 2
            c_sq_sum = ca_sq_sum = 0.0
            for q in ("B", "C1", "C2"):
                nc, na = cren_crenoa_two_qubit(reduced_density(psi, ["A", q]))
                c_sq_sum += nc * nc
                ca_sq_sum += na * na
            assert c2 <= ca_sq_sum + 1e-9
            assert c2 >= c_sq_sum - 1e-9


def schmidt_route_states():
    """Haar states at 4-6 qubits and every state of the benchmark corpus
    (read only)."""
    states = [haar_random_pure(n, 29, stream=i)
              for n in (4, 5, 6) for i in range(10)]
    return states + list(read_corpus().values())


class TestSchmidtRoute:
    """negativity and schmidt_rank read the Schmidt values of the cut; the
    reference formulas build rho: the trace norm of its partial transpose
    minus one, and the count of eigenvalues of rho_left above SCHMIDT_TOL.
    Every cut between the first k labels and the rest, AB|rest included."""

    def test_negativity_and_rank(self):
        states = schmidt_route_states()
        assert len(states) == 30 + 26   # an empty corpus glob fails here
        cuts = 0
        for psi in states:
            labels, rho = psi.shape.labels, projector(psi.amplitudes)
            for k in range(1, len(labels)):
                cut = Bipartition.of(psi.shape, labels[:k])
                pt = partial_transpose(rho, psi.shape, labels[:k])
                n = negativity(psi, cut)
                assert abs(n - (trace_norm(pt) - 1.0)) < 1e-12, (labels, k)
                ev = np.linalg.eigvalsh(partial_trace(rho, psi.shape,
                                                      labels[:k]))
                rank = int((ev > SCHMIDT_TOL).sum())
                assert schmidt_rank(psi, cut) == rank, (labels, k)
                cuts += 1
        assert cuts == 209

    def test_non_contiguous_cuts(self):
        # left sides that are no prefix, so the amplitude axes permute
        for n in (4, 5, 6):
            for i in range(5):
                psi = haar_random_pure(n, 37, stream=i)
                labels, rho = psi.shape.labels, projector(psi.amplitudes)
                for left in (labels[1::2], labels[::2], labels[:0:-2]):
                    cut = Bipartition.of(psi.shape, left)
                    pt = partial_transpose(rho, psi.shape, left)
                    assert abs(negativity(psi, cut)
                               - (trace_norm(pt) - 1.0)) < 1e-12
                    assert schmidt_rank(psi, cut) == 2 ** min(
                        len(cut.left), len(cut.right))


class TestCutMatrixRoute:
    """reduced_density contracts the cut matrix of the amplitudes; the
    reference formula reduces the 2^n x 2^n projector.  Every keep set of
    1 to n-1 labels, contiguous or not and named in any order, of Haar
    stacks at 2-6 qubits and of schmidt_route_states()."""

    def test_reduced_density(self):
        stacks = [haar_random_pure(n, 43, stream=range(4))
                  for n in range(2, 7)]
        keeps = 0
        for psi in stacks + schmidt_route_states():
            labels = psi.shape.labels
            rows = psi.amplitudes.reshape(-1, psi.shape.dim)
            for k in range(1, len(labels)):
                for keep in combinations(labels, k):
                    got = reduced_density(psi, keep[::-1])
                    got = got.reshape(len(rows), 2 ** k, 2 ** k)
                    for amp, red in zip(rows, got):
                        ref = partial_trace(projector(amp), psi.shape, keep)
                        assert np.max(np.abs(red - ref)) <= 1e-15, keep
                    keeps += 1
        assert keeps == 2 + 6 + 14 + 30 + 62 + 10 * (14 + 30 + 62) + 692


class TestSpinFlipEigenRoute:
    """cren_crenoa_two_qubit reads the singular values of the tau matrix
    (measures._mu_spectrum).  The reference formulas read eigenvalues:

    * Wootters: with lambda_i the square roots of the eigenvalues of
      rho @ rho_tilde (rho_tilde = sy x sy rho* sy x sy) in descending
      order, C = max(0, l1 - l2 - l3 - l4) and C_a = l1 + l2 + l3 + l4;
    * Laustsen-Verstraete-van Enk (2003): C_a = Tr sqrt(sqrt(rho) rho_tilde
      sqrt(rho)), from the Hermitian eigenvalues of that product.

    Every pair reduction of 80 Haar states at 3-6 qubits and of the
    benchmark corpus.  The tolerance is 1e-7, not the 1e-12 of the other
    cross-checks: an eigenvalue that is zero in exact arithmetic (every
    rank-deficient pair, such as the pairs of a 3-qubit pure state) comes
    out at round-off size, ~1e-16, and its square root at ~1e-8, so the
    eigenvalue route keeps only half the digits there; the worst gap over
    these pairs is 3.3e-8.  That loss is why the package takes the tau
    route."""

    SY_SY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])

    def test_every_pair(self):
        states = [haar_random_pure(3 + i % 4, 71, stream=i) for i in range(80)]
        states += list(read_corpus().values())
        pairs = 0
        for psi in states:
            for pair in combinations(psi.shape.labels, 2):
                rho = reduced_density(psi, list(pair))
                rho_tilde = self.SY_SY @ rho.conj() @ self.SY_SY
                ev = np.linalg.eigvals(rho @ rho_tilde).real
                lam = np.sort(np.sqrt(np.maximum(ev, 0.0)))[::-1]
                w, v = np.linalg.eigh(rho)
                sqrt_rho = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
                fid = np.linalg.eigvalsh(sqrt_rho @ rho_tilde @ sqrt_rho)
                c, ca = cren_crenoa_two_qubit(rho)
                assert abs(c - max(0.0, lam[0] - lam[1:].sum())) < 1e-7, pair
                assert abs(ca - lam.sum()) < 1e-7, pair
                assert abs(ca - np.sqrt(np.maximum(fid, 0.0)).sum()) < 1e-7
                pairs += 1
        assert pairs == 20 * (3 + 6 + 10 + 15) + 213  # 213 corpus pairs


def stacked_groups():
    """50 Haar states at 4-6 qubits and the benchmark corpus (read only),
    grouped by register and stacked: [(stack, its states)]."""
    states = [haar_random_pure(4 + i % 3, 53, stream=i) for i in range(50)]
    states += list(read_corpus().values())
    groups = {}
    for psi in states:
        groups.setdefault(psi.shape, []).append(psi)
    return [(PureState(shape, [psi.amplitudes for psi in group]), group)
            for shape, group in groups.items()]


class TestThreeTangle:
    """Coffman-Kundu-Wootters: for three qubits, C^2(f|rest) minus the
    focus's squared pair concurrences is one value for f = A, B, C, and it
    is 4 |Det| of the amplitudes (Cayley's hyperdeterminant), a formula
    that shares no code with the cut or the pair route."""

    @staticmethod
    def four_det(a) -> np.ndarray:
        a = a.reshape(-1, 2, 2, 2)
        d = (a[:, 0, 0, 0] ** 2 * a[:, 1, 1, 1] ** 2
             + a[:, 0, 0, 1] ** 2 * a[:, 1, 1, 0] ** 2
             + a[:, 0, 1, 0] ** 2 * a[:, 1, 0, 1] ** 2
             + a[:, 1, 0, 0] ** 2 * a[:, 0, 1, 1] ** 2)
        d -= 2 * (a[:, 0, 0, 0] * a[:, 1, 1, 1] * (
            a[:, 0, 0, 1] * a[:, 1, 1, 0] + a[:, 0, 1, 0] * a[:, 1, 0, 1]
            + a[:, 1, 0, 0] * a[:, 0, 1, 1])
            + a[:, 0, 0, 1] * a[:, 1, 1, 0] * (
                a[:, 0, 1, 0] * a[:, 1, 0, 1] + a[:, 1, 0, 0] * a[:, 0, 1, 1])
            + a[:, 0, 1, 0] * a[:, 1, 0, 1] * a[:, 1, 0, 0] * a[:, 0, 1, 1])
        d += 4 * (a[:, 0, 0, 0] * a[:, 0, 1, 1] * a[:, 1, 0, 1] * a[:, 1, 1, 0]
                  + a[:, 0, 0, 1] * a[:, 0, 1, 0] * a[:, 1, 0, 0] * a[:, 1, 1, 1])
        return 4 * np.abs(d)

    def test_haar_states(self):
        from entbounds.bounds import pair_measures_sq
        psi = haar_random_pure(3, 2000, stream=range(500))
        tangles = []
        for focus in psi.shape.labels:
            cut = Bipartition.of(psi.shape, [focus])
            tangles.append(pure_concurrence(psi, cut) ** 2
                           - pair_measures_sq(psi, focus)[0].sum(axis=-1))
        np.testing.assert_allclose(tangles[1], tangles[0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(tangles[2], tangles[0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(tangles[0], self.four_det(psi.amplitudes),
                                   rtol=0, atol=1e-13)

    def test_ghz_and_w(self):
        from entbounds.bounds import pair_measures_sq
        for indices, tangle in (([0, 7], 1.0), ([1, 2, 4], 0.0)):
            psi = equal_superposition(3, indices)   # GHZ_3, W_3
            assert abs(self.four_det(psi.amplitudes)[0] - tangle) < 1e-13
            cut = Bipartition.of(psi.shape, ["A"])
            assert abs(pure_concurrence(psi, cut) ** 2
                       - pair_measures_sq(psi, "A")[0].sum() - tangle) < 1e-13


class TestStacked:
    """Every measure on a stack of states equals, bit for bit, the measure
    of each state alone."""

    def test_stack_equals_states(self):
        from entbounds.bounds import pair_measures_sq
        groups = stacked_groups()
        assert sum(len(group) for _, group in groups) == 50 + 26
        for stack, group in groups:
            labels = stack.shape.labels
            for focus in labels:
                got = pair_measures_sq(stack, focus)
                singles = [pair_measures_sq(psi, focus) for psi in group]
                for k in (0, 1):
                    assert np.array_equal(got[k],
                                          [pair[k] for pair in singles])
                for q in labels:
                    if q == focus:
                        continue
                    rho = reduced_density(stack, [focus, q])
                    single = [reduced_density(psi, [focus, q])
                              for psi in group]
                    assert np.array_equal(rho, single)
                    got = cren_crenoa_two_qubit(rho)
                    singles = [cren_crenoa_two_qubit(r) for r in single]
                    assert np.array_equal(np.transpose(got), singles)
            lefts = [labels[:k] for k in range(1, len(labels))]
            for left in lefts + [labels[1::2]]:
                cut = Bipartition.of(stack.shape, left)
                for measure in (pure_concurrence, negativity, schmidt_rank):
                    assert np.array_equal(
                        measure(stack, cut),
                        [measure(psi, cut) for psi in group]), (measure, cut)

    def test_single_state_gives_scalars(self, example2_state):
        cut = Bipartition.of(example2_state.shape, ["A", "B"])
        assert type(pure_concurrence(example2_state, cut)) is float
        assert type(negativity(example2_state, cut)) is float
        assert type(schmidt_rank(example2_state, cut)) is int
        rho = reduced_density(example2_state, ["A", "C1"])
        assert [type(v) for v in cren_crenoa_two_qubit(rho)] == [float, float]


def bad_density(kind):
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    if kind == "non-Hermitian":
        rho[0, 1] = 1e-3
    elif kind == "trace":
        rho *= 1.5
    elif kind == "non-square":
        rho = rho[:3]
    else:  # a negative eigenvalue; Hermitian with unit trace
        rho = np.diag([0.6, 0.3, 0.2, -0.1]).astype(complex)
    return rho


class TestStackedErrors:
    """One bad member of a stack raises what that member raises alone."""

    @pytest.mark.parametrize("kind", ["non-Hermitian", "trace", "negative"])
    def test_bad_density_row(self, kind):
        gen = np.random.default_rng(59)
        stack = np.array([random_density(gen, 4) for _ in range(5)])
        cren_crenoa_two_qubit(stack)
        stack[3] = bad_density(kind)
        with pytest.raises(ValueError) as single:
            cren_crenoa_two_qubit(stack[3])
        with pytest.raises(type(single.value)) as stacked:
            cren_crenoa_two_qubit(stack)
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("row", [np.array([1.0, 1.0, 0.0, 0.0]),
                                     np.array([np.nan, 1.0, 0.0, 0.0])])
    def test_bad_state_row(self, row):
        shape = qubit_shape(("A", "B"))
        with pytest.raises(ValueError) as single:
            PureState(shape, row)
        with pytest.raises(type(single.value)) as stacked:
            PureState(shape, [BELL, row, BELL])
        assert str(stacked.value) == str(single.value)


class TestMixedPathChecks:
    """The mixed-state entry point keeps every density check, although the
    pure-state pair kernel no longer goes through it."""

    @pytest.mark.parametrize("kind, message", [
        ("non-Hermitian", "not Hermitian"),
        ("trace", "has trace"),
        ("negative", "density matrix has eigenvalue -1.000e-01"),
        ("non-square", "^rho must be a square matrix$")])
    def test_bad_density_raises(self, kind, message):
        with pytest.raises(ValueError, match=message):
            cren_crenoa_two_qubit(bad_density(kind))


class TestPow:
    """``_pow`` is Python's float power of each element, bit for bit: a
    float base (np.float64 included) at a stack of exponents in the
    exponents' shape, and an array base exponent-major."""

    EXPONENTS = [0.0, 2.0, 0.5, 1.0]
    BASES = [0.0, -0.0, 1.0, 5e-324, 0.3, math.inf, math.nan]

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2)])
    @pytest.mark.parametrize("base", BASES + [np.float64(0.3)],
                             ids=[*map(repr, BASES), "np.float64(0.3)"])
    def test_float_base(self, base, shape):
        stacks = ([np.array(e) for e in self.EXPONENTS] if shape == ()
                  else [np.reshape(self.EXPONENTS, shape)])
        for expo in stacks:
            got = _pow(base, expo)
            assert (type(got), got.dtype, got.shape) == (
                np.ndarray, np.float64, shape)
            assert [v.hex() for v in got.ravel().tolist()] == [
                (float(base) ** e).hex() for e in expo.ravel().tolist()]
        for e in self.EXPONENTS:   # a float exponent gives a float
            got = _pow(base, e)
            assert (type(got), got.hex()) == (float, (float(base) ** e).hex())

    def test_array_base_is_exponent_major(self):
        bases = np.array([[0.0, 0.3], [5e-324, math.inf]])
        expo = np.reshape(self.EXPONENTS, (2, 2))
        got = _pow(bases, expo)
        assert got.shape == (2, 2, 2, 2)
        assert [v.hex() for v in got.ravel().tolist()] == [
            (b ** e).hex() for e in expo.ravel().tolist()
            for b in bases.ravel().tolist()]


def tight_family_states():
    """(name, state, C(A|rest), pair (C, C_a) of each pair (f, q) as a
    function) of the closed-form families at 3-6 qubits: W_n, GHZ_n,
    Dicke D_n^k (2 <= k < n) and Bell(AB) x |0...0>."""

    def dicke_pair(n, k):
        # rho_pair = a|00><00| + d|11><11| + 2b|Psi+><Psi+| with
        # a = P(00), d = P(11) and b = P(01) = P(10); sy x sy swaps |00>
        # and |11> and fixes |Psi+>, so the spin-flip spectrum is
        # {2b, sqrt(ad), sqrt(ad), 0}: C = 2b - 2 sqrt(ad) (Wang and
        # Molmer 2002) and C_a = 2b + 2 sqrt(ad)
        root = np.sqrt(k * (k - 1) * (n - k) * (n - k - 1))
        scale = 2.0 / (n * (n - 1))
        return scale * (k * (n - k) - root), scale * (k * (n - k) + root)

    out = []
    for n in range(3, 7):
        weight = [bin(i).count("1") for i in range(2 ** n)]
        labels = default_labels(n)
        for k in range(1, n):
            name = "w" if k == 1 else f"dicke{k}"
            psi = equal_superposition(
                n, [i for i in range(2 ** n) if weight[i] == k])
            c_pair = dicke_pair(n, k)
            out.append((f"{name}-{n}q", psi, 2 * np.sqrt(k * (n - k)) / n,
                        lambda f, q, c_pair=c_pair: c_pair))
        out.append((f"ghz-{n}q", equal_superposition(n, [0, 2 ** n - 1]),
                    1.0, lambda f, q: (0.0, 1.0)))
        ab = set(labels[:2])
        out.append((f"bell-ab-{n}q",
                    equal_superposition(n, [0, 3 * 2 ** (n - 2)]), 1.0,
                    lambda f, q, ab=ab: (1.0, 1.0) if {f, q} == ab
                    else (0.0, 0.0)))
    return out


class TestTightFamilies:
    """Closed forms of every measure the bounds read, on the families that
    meet some bound with equality; each route within 1e-15."""

    @pytest.mark.parametrize("psi, c_rest, pair", [
        pytest.param(*case, id=name)
        for name, *case in tight_family_states()])
    def test_closed_forms(self, psi, c_rest, pair):
        labels = psi.shape.labels
        cut = Bipartition.of(psi.shape, labels[:1])
        assert abs(pure_concurrence(psi, cut) - c_rest) <= 1e-15
        c_sq, ca_sq = pair_measures_sq(psi, labels)
        for i, f in enumerate(labels):
            for j, q in enumerate(q for q in labels if q != f):
                c, ca = pair(f, q)
                assert abs(c_sq[i, j] - c * c) <= 1e-15, (f, q)
                assert abs(ca_sq[i, j] - ca * ca) <= 1e-15, (f, q)
                got = cren_crenoa_two_qubit(reduced_density(psi, [f, q]))
                assert abs(got[0] - c) <= 1e-15, (f, q)
                assert abs(got[1] - ca) <= 1e-15, (f, q)

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(3, 7)
                                      for k in range(1, n)])
    def test_dicke_pair_density(self, n, k):
        # the analytic rho_pair that the Dicke oracle's spectrum reads
        psi = next(s for name, s, *_ in tight_family_states()
                   if name == f"{'w' if k == 1 else f'dicke{k}'}-{n}q")
        norm = n * (n - 1)
        a, d = (n - k) * (n - k - 1) / norm, k * (k - 1) / norm
        b = k * (n - k) / norm
        rho = np.array([[a, 0, 0, 0], [0, b, b, 0], [0, b, b, 0],
                        [0, 0, 0, d]])
        for f, q in combinations(psi.shape.labels, 2):
            assert np.max(np.abs(reduced_density(psi, [f, q]) - rho)) <= 1e-15

import re

import numpy as np
import numpy.testing as npt
import pytest

from entbounds.linalg import (
    TAU_NUM,
    DimensionError,
    SubsystemShape,
    default_labels,
    partial_trace,
    partial_transpose,
    projector,
    qubit_shape,
    trace_norm,
)

from reference import BELL, random_density


class TestShape:
    def test_labels_unique(self):
        with pytest.raises(ValueError):
            SubsystemShape(("A", "A"))

    def test_qubit_register(self):
        shape = SubsystemShape(("A", "B", "C"))
        assert shape == qubit_shape(("A", "B", "C")) and shape.dim == 8

    def test_repeated_label_rejected(self):
        # positions is the one place that rejects a repeat, so every
        # label lookup does
        shape = qubit_shape(("A", "B", "C"))
        rho = np.eye(8) / 8
        with pytest.raises(ValueError, match="repeated"):
            shape.positions(["A", "A"])
        with pytest.raises(ValueError, match="repeated"):
            partial_trace(rho, shape, ["A", "A"])
        with pytest.raises(ValueError, match="repeated"):
            partial_transpose(rho, shape, ["B", "C", "B"])

    def test_max_dim_enforced_at_construction(self):
        with pytest.raises(DimensionError):
            qubit_shape(tuple("ABCDEFG"))  # 7 qubits = 128 > 64
        qubit_shape(tuple("ABCDEF"))  # 6 is fine

    def test_default_labels(self):
        assert default_labels(2) == ("A", "B")
        assert default_labels(3) == ("A", "B", "C")
        assert default_labels(5) == ("A", "B", "C1", "C2", "C3")
        with pytest.raises(ValueError, match="^need at least one qubit$"):
            default_labels(0)

    @pytest.mark.parametrize("reduce", [partial_trace, partial_transpose])
    @pytest.mark.parametrize("rho, message", [
        (np.ones(4), "expected a matrix, got ndim=1"),
        (np.full((4, 4), np.nan), "matrix has non-finite entries"),
        (np.ones((4, 2)),
         "matrix shape (4, 2) does not match subsystem dimension 4"),
    ], ids=["vector", "non-finite", "shape"])
    def test_bad_matrix_rejected(self, reduce, rho, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reduce(rho, qubit_shape(("A", "B")), ["A"])


class TestPartialTrace:
    def test_bell_reduction(self):
        shape = qubit_shape(("A", "B"))
        red = partial_trace(projector(BELL), shape, ["A"])
        npt.assert_allclose(red, np.eye(2) / 2, atol=1e-15)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(7)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        shape = qubit_shape(("A", "B"))
        red = partial_trace(np.kron(rho_a, rho_b), shape, ["A"])
        npt.assert_allclose(red, rho_a, atol=1e-14)

    def test_acin_example_purity(self, example1_state):
        # Tr rho_A^2 = 1 - C^2/2 = 1 - (3/4)/2 = 5/8 for this parameter set
        rho_a = partial_trace(projector(example1_state.amplitudes),
                              example1_state.shape, ["A"])
        assert abs(np.trace(rho_a @ rho_a).real - 5 / 8) < 1e-12

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 4)
        shape = qubit_shape(("A", "B"))
        out = partial_trace(rho, shape, ["A", "B"])
        npt.assert_array_equal(out, rho)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 8)
        shape = qubit_shape(("A", "B", "C"))
        red = partial_trace(rho, shape, ["B"])
        assert abs(np.trace(red) - 1.0) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown"):
            partial_trace(np.eye(4) / 4, qubit_shape(("A", "B")), ["Q"])

    def test_non_square(self):
        with pytest.raises(ValueError):
            partial_trace(np.ones((4, 2)), qubit_shape(("A", "B")), ["A"])

    def test_reductions_unit_trace_psd(self, haar4_ensemble):
        # every reduction of a pure projector is a density matrix
        shape = haar4_ensemble[0].shape
        for psi in haar4_ensemble:
            red = partial_trace(projector(psi.amplitudes), shape, ["A", "B"])
            assert abs(np.trace(red).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(red)[0] > -TAU_NUM


class TestPartialTranspose:
    def test_diagonal_invariant(self):
        shape = qubit_shape(("A", "B"))
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        npt.assert_array_equal(partial_transpose(rho, shape, ["A"]), rho)

    def test_bell_spectrum(self):
        shape = qubit_shape(("A", "B"))
        pt = partial_transpose(projector(BELL), shape, ["A"])
        ev = np.linalg.eigvalsh(pt)[::-1]
        npt.assert_allclose(ev, [0.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 8)
        shape = qubit_shape(("A", "B", "C"))
        back = partial_transpose(
            partial_transpose(rho, shape, ["B"]), shape, ["B"])
        npt.assert_array_equal(back, rho)

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(15)
        rho = random_density(rng, 8)
        shape = qubit_shape(("A", "B", "C"))
        pt = partial_transpose(rho, shape, ["A", "C"])
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-14

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown"):
            partial_transpose(np.eye(4) / 4, qubit_shape(("A", "B")), ["X"])


class TestTraceNorm:
    def test_density_matrix_is_one(self):
        rng = np.random.default_rng(23)
        assert abs(trace_norm(random_density(rng, 8)) - 1.0) < 1e-12

    def test_bell_partial_transpose(self):
        pt = partial_transpose(projector(BELL), qubit_shape(("A", "B")), ["A"])
        assert abs(trace_norm(pt) - 2.0) < 1e-12

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_non_hermitian_uses_singular_values(self):
        m = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert abs(trace_norm(m) - 2.0) < 1e-14

    def test_separable_is_ppt(self):
        # the partial transpose of a product state is a density matrix
        gen = np.random.default_rng(53)
        shape = qubit_shape(("A", "B"))
        for _ in range(20):
            rho = np.kron(random_density(gen, 2), random_density(gen, 2))
            pt = partial_transpose(rho, shape, ["A"])
            assert abs(trace_norm(pt) - 1.0) < 1e-10

    def test_ppt_lower_bound(self, haar4_ensemble):
        # ||rho^{T_A}||_1 >= 1 for every density matrix
        shape = haar4_ensemble[0].shape
        for psi in haar4_ensemble[:200]:
            pt = partial_transpose(projector(psi.amplitudes), shape, ["A"])
            assert trace_norm(pt) >= 1.0 - 1e-12

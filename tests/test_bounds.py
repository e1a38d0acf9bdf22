import functools
import math
from itertools import combinations, permutations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entbounds import bounds, measures
from entbounds.bounds import (
    InfeasibleParamsError,
    CHAIN_COEFFICIENTS,
    COMPARATOR_NAMES,
    chain_bound,
    chain_values,
    cut_sandwiches,
    lemma_chain_grid,
    lemma_rhs,
    monogamy_lower_AB,
    multi_partition_polygamy,
    negativity_bounds_AB,
    pair_measures_sq,
    polygamy_bound_coa,
    polygamy_upper_AB,
    tail_ratios,
    theta,
    tripartite_bounds,
)
from entbounds.cli import FIG23_P, FIG23_PARAMS
from entbounds.measures import (SCHMIDT_TOL, Bipartition,
                                cren_crenoa_two_qubit, negativity,
                                reduced_density, schmidt_rank)
from entbounds.optimizer import optimize
from entbounds.states import PureState, haar_random_pure, wclass4_state
from entbounds.linalg import default_labels, qubit_shape

from reference import (
    equal_superposition,
    one_state_slacks,
    random_w_states,
    read_corpus,
    reference_theta,
    two_term_state,
)

P_EXAMPLE2 = {"A": (4 / 5, 3 / 5), "B": (2 / 5, 3 / 5)}


class TestLemma:
    def test_equality_at_x_one(self):
        c = lemma_rhs(0.5, 0.6, 1.0)
        assert abs(c.rhs - 1.5) < 1e-15

    def test_t_zero(self):
        assert abs(lemma_rhs(0.0, 0.3, 0.5).rhs - 1.0) < 1e-15

    def test_half_point_value(self):
        # direct evaluation: Omega = 1 + .25/2.56, Upsilon from the display
        c = lemma_rhs(0.5, 0.6, 0.5)
        omega = 1 + 0.5 * 0.5 / 1.6 ** 2
        upsilon = (1.6 ** 0.5 - 1) / 0.6 ** 0.5 - 0.5 * 0.6 / (1.6 ** 2 * 0.6 ** 0.5)
        assert abs(c.omega - omega) < 1e-15
        assert abs(c.upsilon - upsilon) < 1e-15
        assert abs(c.rhs - 1.23251) < 5e-6
        assert c.rhs >= 1.5 ** 0.5

    @pytest.mark.parametrize("t, p, x", [(0.1, 0.5, 0.5), (0.0, 1.0, 0.0),
                                         (0.3, 0.3, 1.0), (0.25, 0.7, 0.9)])
    def test_numpy_inputs_give_python_floats(self, t, p, x):
        want = lemma_rhs(t, p, x)
        got = lemma_rhs(np.float64(t), np.float64(p), np.float64(x))
        assert [type(v) for v in got] == [float, float, float]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lemma_rhs(0.7, 0.6, 0.5)  # t > p
        with pytest.raises(ValueError):
            lemma_rhs(0.5, 1.2, 0.5)  # p > 1
        with pytest.raises(ValueError):
            lemma_rhs(0.5, 0.0, 0.5)  # p = 0
        with pytest.raises(ValueError):
            lemma_rhs(0.5, 0.6, 1.5)  # x > 1

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(1e-9, 1.0), st.floats(0.0, 1.0))
    def test_inequality_everywhere(self, frac, p, x):
        t = frac * p
        assert lemma_rhs(t, p, x).rhs >= (1 + t) ** x - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(1e-6, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    def test_monotone_in_p(self, frac, p1, scale, x):
        # tighter bound at smaller admissible p
        p2 = p1 + (1.0 - p1) * scale
        t = frac * p1
        assert lemma_rhs(t, p1, x).rhs <= lemma_rhs(t, p2, x).rhs + 1e-12


class TestChain:
    def test_collapse_at_t_p_x_one(self):
        npt.assert_allclose(chain_values(1.0, 1.0, 1.0), [2.0] * 6, atol=1e-15)

    def test_x_zero_convention(self):
        npt.assert_allclose(chain_values(0.5, 0.6, 0.0),
                            [1.0, 1.0, 1.0, 1.0, 1.0, 2.0], atol=1e-15)

    def test_nondecreasing_on_grid(self):
        grid = lemma_chain_grid(20_000, seed=77)
        assert np.min(np.diff(grid, axis=1)) > -1e-12

    def test_grid_deterministic(self):
        npt.assert_array_equal(lemma_chain_grid(100, seed=3, stream=9),
                               lemma_chain_grid(100, seed=3, stream=9))

    def test_stream_batch_equals_per_stream(self):
        streams = [0, 9, 2 ** 32, 2 ** 32 + 1, 2 ** 64 - 1, -1]
        for count in (1, 3, 50):
            for seed in (0, 3, -5):
                grids = lemma_chain_grid(count, seed, streams)
                assert grids.shape == (len(streams), count, 6)
                for grid, stream in zip(grids, streams):
                    assert np.array_equal(
                        grid, lemma_chain_grid(count, seed, stream))


class TestTheta:
    def test_example1_hand_check(self):
        # (1 + 50/256) * 1/2 + (39/64) * 1/4 = 3/4 at exponent 2, p = 3/5
        assert abs(theta([[0.5], [0.25]], 2.0, (0.6,)) - 0.75) < 1e-15
        level_1 = lemma_rhs(0.5, 0.6, 1.0)  # t = 1/4 / 1/2, x = 2/2
        assert abs(level_1.omega - (1 + 50 / 256)) < 1e-15
        assert abs(level_1.upsilon - 39 / 64) < 1e-15

    def test_example2_focus_b(self):
        heads = [[36 / 64], [8 / 64], [4 / 64]]
        assert abs(theta(heads, 2.0, (2 / 5, 3 / 5)) - 0.75) < 1e-14

    def test_k1_any_exponent(self):
        for expo in (0.0, 0.7, 1.3, 2.0):
            res = theta([[0.3, 0.2, 0.1]], expo)
            expected = 1.0 if expo == 0.0 else 0.6 ** (expo / 2)
            assert abs(res - expected) < 1e-15

    def test_equality_at_exponent_two(self):
        gen = np.random.default_rng(61)
        for _ in range(100):
            vals = np.sort(gen.uniform(0.05, 1.0, size=4))[::-1]
            groups = [[v] for v in vals]
            ts = [vals[i + 1:].sum() / vals[i] for i in range(3)]
            if any(t > 1 for t in ts):
                continue
            p = tuple(min(1.0, t + (1 - t) * gen.uniform()) for t in ts)
            assert abs(theta(groups, 2.0, p) - vals.sum()) < 1e-12

    def test_infeasible_reports_level_and_min_p(self):
        with pytest.raises(InfeasibleParamsError) as exc:
            theta([[0.5], [0.25]], 1.0, (0.3,))
        assert exc.value.level == 1
        assert abs(exc.value.min_p - 0.5) < 1e-15

    def test_interior_zero_rejected(self):
        with pytest.raises(ValueError, match="reorder"):
            theta([[0.5], [0.0], [0.25]], 1.0, (0.5, 0.5))

    def test_trailing_zero_dropped(self):
        with_zero = theta([[0.5], [0.25], [0.0]], 1.0, (0.5,))
        without = theta([[0.5], [0.25]], 1.0, (0.5,))
        assert with_zero == without

    def test_all_zero_groups(self):
        assert theta([[0.0], [0.0]], 1.0) == 0.0
        assert theta([[0.0], [0.0]], 0.0) == 1.0

    def test_checks_exponent_then_params_then_values(self):
        with pytest.raises(ValueError, match="exponent must be in"):
            theta([[-1.0]], 2.5, (1.5,))
        with pytest.raises(ValueError, match="parameters must lie in"):
            theta([[-1.0]], 1.0, (1.5,))
        with pytest.raises(ValueError, match="must be nonnegative"):
            theta([[-1.0]], 1.0, (1.0,))

    @pytest.mark.parametrize("groups", [[[float("nan"), 0.5]],
                                        [[float("inf")], [0.5]],
                                        [[0.5], [0.25, float("inf")]]])
    def test_non_finite_values_rejected(self, groups):
        # nan used to come back as the bound, inf as a parameter count error
        with pytest.raises(ValueError, match="must be finite"):
            theta(groups, 1.0, (1.0,))


class TestTailRatios:
    def test_one_sequence_to_a_list(self):
        ratios = tail_ratios([0.5, 0.25, 0.0])
        assert type(ratios) is list and ratios == [0.5, 0.0]
        assert tail_ratios([0.5]) == []

    def test_zero_head_gives_zero(self):
        assert tail_ratios([0.5, 0.0, 0.0]) == [0.0, 0.0]
        assert tail_ratios([0.0, 0.25]) == [0.0]


class TestChainBound:
    @pytest.mark.parametrize("exponent", [-1.0, 5.0, float("nan")])
    def test_exponent_checked(self, exponent):
        with pytest.raises(ValueError, match="exponent must be in"):
            chain_bound([0.5, 0.25], exponent, "pow2_chain")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown chain kind"):
            chain_bound([0.5], 1.0, "cubic_chain")

    @pytest.mark.parametrize("kind", sorted(CHAIN_COEFFICIENTS))
    @pytest.mark.parametrize("values", [[0.5, float("nan")],
                                        [float("inf"), 0.1],
                                        [0.3, 0.2, float("inf")]])
    def test_non_finite_values_rejected(self, values, kind):
        # nan and inf used to come back as the bound, as in theta
        with pytest.raises(ValueError, match="must be finite"):
            chain_bound(values, 1.0, kind)

    @pytest.mark.parametrize("kind", sorted(CHAIN_COEFFICIENTS))
    def test_negative_value_rejected(self, kind):
        # -1 used to be clamped to 0 silently
        with pytest.raises(ValueError, match="must be nonnegative"):
            chain_bound([0.5, -1.0], 1.0, kind)

    @pytest.mark.parametrize("kind", sorted(CHAIN_COEFFICIENTS))
    def test_round_off_negative_counts_as_zero(self, kind):
        for exponent in (0.0, 1.0, 2.0):
            assert (chain_bound([0.5, -1e-13, 0.25], exponent, kind).hex()
                    == chain_bound([0.5, 0.0, 0.25], exponent, kind).hex())

    @pytest.mark.parametrize("kind", sorted(CHAIN_COEFFICIENTS))
    def test_value_below_tau_reads_zero(self, kind):
        # as theta reads a head below TAU_NUM; 1e-10 ** 0.125 is 0.056
        for exponent in (0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0):
            assert (chain_bound([1e-10, 0.9], exponent, kind).hex()
                    == chain_bound([0.0, 0.9], exponent, kind).hex())


class TestPolygamyBoundCoa:
    def test_beta_two_equality(self, example1_state):
        [rep] = polygamy_bound_coa(example1_state, "A", [2.0], p=(0.6,))
        assert abs(rep.ours - 0.75) < 1e-12
        assert abs(rep.comparators["p1_specialization"] - 0.75) < 1e-12
        assert abs(rep.lhs - 0.75) < 1e-12

    def test_beta_zero_convention(self, example1_state):
        [rep] = polygamy_bound_coa(example1_state, "A", [0.0], p=(0.6,))
        assert rep.lhs == 1.0
        assert abs(rep.ours - 1.0) < 1e-15
        assert abs(rep.comparators["trivial_sum"] - 2.0) < 1e-15

    def test_figure_ordering_pointwise(self, example1_state):
        for rep in polygamy_bound_coa(example1_state, "A",
                                      np.linspace(0.0, 2.0, 41), p=(0.6,)):
            seq = [rep.lhs, rep.ours, rep.comparators["p1_specialization"],
                   rep.comparators["pow2_chain"],
                   rep.comparators["beta_half_chain"],
                   rep.comparators["trivial_sum"]]
            assert np.min(np.diff(seq)) > -1e-9

    def test_explicit_infeasible_p_raises(self, example1_state):
        with pytest.raises(InfeasibleParamsError) as exc:
            polygamy_bound_coa(example1_state, "A", [1.0], p=(0.3,))
        assert abs(exc.value.min_p - 0.5) < 1e-12

    @pytest.mark.parametrize("p", [(0.6, 7.0), (0.6, float("nan")), (0.6, 0.0)])
    def test_explicit_p_checked_past_the_levels(self, example1_state, p):
        # focus A has one level; the second entry is never used, but it is
        # still outside (0, 1]
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            polygamy_bound_coa(example1_state, "A", [1.0], p=p)


class TestAutoThreshold:
    """Tail ratios at and just above the p <= 1 threshold stay admissible:
    auto mode clamps p to 1 instead of falling back or raising."""

    @pytest.mark.parametrize("excess", [0.0, 2e-13, 1e-12])
    def test_tail_ratio_at_one(self, monkeypatch, example2_state, excess):
        # descending CoA^2 (1/2, 1/4 (1 + 2 excess), 1/4): t_1 = 1 + excess
        ca_sq = np.array([0.5, 0.25 * (1 + 2 * excess), 0.25])
        seen = []

        def pair_values(psi, foci):
            # the one pair measure call of the sweep, one row per focus
            seen.append(foci)
            return (np.array([ca_sq] * len(foci)),) * 2

        monkeypatch.setattr(bounds, "pair_measures_sq", pair_values)
        t_1 = (ca_sq[1] + ca_sq[2]) / ca_sq[0]
        assert 1.0 + excess - 1e-15 <= t_1 <= 1.0 + 1e-12
        exponents = (0.0, 1.0, 2.0)
        reports = polygamy_bound_coa(example2_state, "A", exponents)
        assert seen == [("A",)]
        for expo, rep in zip(exponents, reports):
            assert not rep.foci["A"].fallback
            assert rep.foci["A"].p[0] == 1.0
            assert abs(rep.foci["A"].p[1] - ca_sq[2] / ca_sq[1]) < 1e-15
            assert abs(rep.ours - ca_sq.sum() ** (expo / 2)) < 1e-15


class TestABCutBounds:
    def test_example2_alpha_two(self, example2_state):
        [lo] = monogamy_lower_AB(example2_state, [2.0], p=P_EXAMPLE2)
        [up] = polygamy_upper_AB(example2_state, [2.0], p=P_EXAMPLE2)
        assert abs(lo.ours - 15 / 64) < 1e-12
        assert abs(lo.lhs - 39 / 64) < 1e-12
        assert abs(up.ours - 111 / 64) < 1e-12

    def test_alpha_zero(self, example2_state):
        [lo] = monogamy_lower_AB(example2_state, [0.0], p=P_EXAMPLE2)
        assert lo.lhs == 1.0
        assert lo.ours <= 1e-15  # both arms are 1 - theta(0) = 0

    def test_lower_chain_ordering(self, example2_state):
        for rep in monogamy_lower_AB(example2_state, np.linspace(0.0, 2.0, 41),
                                     p=P_EXAMPLE2):
            seq = [rep.lhs, rep.ours, rep.comparators["p1_specialization"],
                   rep.comparators["pow2_chain"],
                   rep.comparators["beta_half_chain"]]
            assert np.max(np.diff(seq)) < 1e-9  # nonincreasing

    def test_upper_chain_ordering(self, example2_state):
        for rep in polygamy_upper_AB(example2_state, np.linspace(0.0, 2.0, 41),
                                     p=P_EXAMPLE2):
            seq = [rep.lhs, rep.ours, rep.comparators["p1_specialization"],
                   rep.comparators["pow2_chain"],
                   rep.comparators["beta_half_chain"]]
            assert np.min(np.diff(seq)) > -1e-9

    def test_product_state_upper_collapses(self):
        psi = two_term_state(4, 1, 0.0)   # |0000>
        [up] = polygamy_upper_AB(psi, [1.0])
        assert up.lhs == 0.0 and abs(up.ours) < 1e-12

    def test_sandwich_random(self):
        for i in range(100):
            psi = haar_random_pure(4, 271, stream=i)
            alphas = (0.25, 0.75, 1.25, 2.0)
            for lo, up in zip(monogamy_lower_AB(psi, alphas),
                              polygamy_upper_AB(psi, alphas)):
                assert lo.ours <= lo.lhs + 1e-9
                assert up.ours >= up.lhs - 1e-9

    def test_requires_four_subsystems(self, example1_state):
        with pytest.raises(ValueError, match="at least 4"):
            monogamy_lower_AB(example1_state, [1.0])

    def test_fallback_flagged_when_infeasible(self):
        # GHZ-like 4-qubit state: every pair CoA^2 equal, so singleton
        # t_1 = 2 > 1 and the grouping must collapse
        psi = two_term_state(4, 15)
        [up] = polygamy_upper_AB(psi, [1.0])
        assert up.foci["A"].fallback and up.foci["B"].fallback
        assert all(f.grouping == ((0, 1, 2),) for f in up.foci.values())
        assert up.ours >= up.lhs - 1e-9


class TestNegativityBounds:
    def test_rank_two_factor_is_one(self, example2_state):
        [nb] = negativity_bounds_AB(example2_state, [2.0], p=P_EXAMPLE2)
        [up] = polygamy_upper_AB(example2_state, [2.0], p=P_EXAMPLE2)
        [lo] = monogamy_lower_AB(example2_state, [2.0], p=P_EXAMPLE2)
        assert abs(nb.upper.ours - up.ours) < 1e-12
        assert abs(nb.lower.ours - lo.ours) < 1e-12

    def test_example2_alpha_two_value(self, example2_state):
        [nb] = negativity_bounds_AB(example2_state, [2.0], p=P_EXAMPLE2)
        assert abs(nb.upper.ours - 111 / 64) < 1e-12

    def test_product_state(self):
        psi = two_term_state(4, 1, 0.0)   # |0000>
        [nb] = negativity_bounds_AB(psi, [1.0])
        assert nb.lower.lhs == 0.0
        assert nb.lower.ours <= 1e-12

    def test_sandwich_random(self):
        for i in range(100):
            psi = haar_random_pure(4, 619, stream=i)
            for nb in negativity_bounds_AB(psi, (0.5, 1.0, 1.5, 2.0)):
                assert nb.lower.ours <= nb.lhs + 1e-9
                assert nb.upper.ours >= nb.lhs - 1e-9

    def test_cut_read_from_amplitudes(self, dense_calls):
        # N(AB|rest), the Schmidt rank and the ten pair reductions of foci
        # A, B all come from cut matrices of the amplitudes
        negativity_bounds_AB(haar_random_pure(6, 3, stream=0), [0.5, 2.0])
        assert dense_calls == []


class TestTripartiteBounds:
    def test_sandwich_thousand_seeds(self):
        for i in range(1000):
            psi = haar_random_pure(5, 911, stream=i)
            [tri] = tripartite_bounds(psi, [2.0])
            assert tri.lower.ours <= tri.lhs + 1e-9
            assert tri.upper.ours >= tri.lhs - 1e-9

    def test_alpha_zero(self):
        psi = haar_random_pure(5, 13, stream=0)
        [tri] = tripartite_bounds(psi, [0.0])
        assert tri.lhs == 1.0
        assert tri.upper.ours >= 1.0

    def test_product_state(self):
        psi = two_term_state(5, 1, 0.0)   # |00000>
        [tri] = tripartite_bounds(psi, [1.0])
        assert tri.lhs == 0.0
        assert abs(tri.upper.ours) < 1e-12
        assert tri.lower.ours <= 1e-12

    def test_requires_five_subsystems(self, example2_state):
        with pytest.raises(ValueError, match="at least 5"):
            tripartite_bounds(example2_state, [1.0])


class TestMultiPartitionPolygamy:
    def test_single_focus_reduces_to_theorem(self, example1_state):
        [rep] = multi_partition_polygamy(example1_state, ["A"], [1.0],
                                         p={"A": (0.6,)})
        [base] = polygamy_bound_coa(example1_state, "A", [1.0], p=(0.6,))
        assert abs(rep.ours - base.ours) < 1e-15
        assert abs(rep.lhs - base.lhs) < 1e-15

    def test_two_focus_matches_ab_upper(self, example2_state):
        [rep] = multi_partition_polygamy(example2_state, ["A", "B"], [2.0],
                                         p=P_EXAMPLE2)
        [up] = polygamy_upper_AB(example2_state, [2.0], p=P_EXAMPLE2)
        assert abs(rep.ours - up.ours) < 1e-15

    def test_three_focus_random(self):
        for i in range(1000):
            psi = haar_random_pure(5, 733, stream=i)
            [rep] = multi_partition_polygamy(psi, ["A", "B", "C1"], [1.0])
            assert rep.ours >= rep.lhs - 1e-9

    def test_left_must_be_proper_subset(self, example2_state):
        with pytest.raises(ValueError):
            multi_partition_polygamy(example2_state,
                                     ["A", "B", "C1", "C2"], [1.0])

    def test_repeated_left_label_raises(self):
        psi = wclass4_state(FIG23_PARAMS)
        with pytest.raises(ValueError, match="repeated"):
            multi_partition_polygamy(psi, ["A", "A"], [1.0])


class TestComparatorOrdering:
    def test_ours_below_chain_on_feasible_groups(self):
        gen = np.random.default_rng(83)
        for _ in range(200):
            tail = np.sort(gen.uniform(0.01, 0.5, size=3))[::-1]
            head = tail.sum() + gen.uniform(0.0, 0.5)
            vals = np.concatenate([[head], tail])
            groups = [[v] for v in vals]
            ts = [vals[i + 1:].sum() / vals[i] for i in range(3)]
            if any(t > 1 for t in ts):
                continue
            expo = gen.uniform(0.0, 2.0)
            ours = theta(groups, expo, tuple(max(t, 1e-6) for t in ts))
            p1 = theta(groups, expo, (1.0,) * 3)
            seq = [ours, p1,
                   chain_bound(vals, expo, "pow2_chain"),
                   chain_bound(vals, expo, "beta_half_chain"),
                   chain_bound(vals, expo, "trivial_sum")]
            assert np.min(np.diff(seq)) > -1e-12


class TestSixQubitEndToEnd:
    def test_all_cut_families_on_largest_register(self):
        for i in range(25):
            psi = haar_random_pure(6, 1009, stream=i)
            alphas = (0.5, 1.5)
            for lo, up, tri, nb, multi in zip(
                    monogamy_lower_AB(psi, alphas),
                    polygamy_upper_AB(psi, alphas),
                    tripartite_bounds(psi, alphas),
                    negativity_bounds_AB(psi, alphas),
                    multi_partition_polygamy(psi, ["A", "B", "C1", "C2"],
                                             alphas)):
                assert lo.ours <= lo.lhs + 1e-9 <= up.ours + 2e-9
                assert tri.lower.ours <= tri.lhs + 1e-9 <= tri.upper.ours + 2e-9
                assert nb.lower.ours <= nb.lhs + 1e-9 <= nb.upper.ours + 2e-9
                assert multi.ours >= multi.lhs - 1e-9


def geometric_w_state(n: int) -> PureState:
    """W-class state with weights 1, 1/3, 1/9, 1/27 on the first four of n
    qubits; the others stay |0>.  Foci A and B have two nonzero tail ratios,
    both below 1/2, so the fixed p vectors of TestSweep are feasible."""
    amp = np.zeros(2 ** n, dtype=complex)
    for k in range(4):
        amp[2 ** (n - 1 - k)] = 3.0 ** (-k / 2)
    return PureState(qubit_shape(default_labels(n)), amp / np.linalg.norm(amp))


# The report functions as functions of (state, exponents, p spec); the
# focus and the left side they take are labels of every register.
REPORTS = {
    "polygamy_bound_coa": lambda psi, es, p: polygamy_bound_coa(
        psi, psi.shape.labels[1], es, p),
    "monogamy_lower_AB": monogamy_lower_AB,
    "polygamy_upper_AB": polygamy_upper_AB,
    "negativity_bounds_AB": negativity_bounds_AB,
    "tripartite_bounds": tripartite_bounds,
    "multi_partition_polygamy": lambda psi, es, p: multi_partition_polygamy(
        psi, [psi.shape.labels[0], psi.shape.labels[-1]], es, p),
}


class TestSweep:
    """A sweep of one report returns, bit for bit, what its one-exponent
    calls return, and raises what they raise, under the fixed p specs
    too; it rejects a bad exponent anywhere in it, a stack of states and a
    mistyped focus label."""

    EXPONENTS = (0.0, 0.35, 1.0, 1.5, 2.0)

    @pytest.mark.parametrize("name", sorted(REPORTS))
    @pytest.mark.parametrize("p", ["auto", "one", (1.0, 0.9, 1.0, 1.0, 1.0),
                                   FIG23_P], ids=["auto", "one", "vector",
                                                  "fig23"])
    def test_sweep_equals_one_exponent_calls(self, example2_state, name, p):
        # explicit p is infeasible on Haar states (the tail ratios exceed
        # 1), so geometric W states carry the explicit-p numbers
        seen = TestExponentStack.check(
            [example2_state] + TestExponentStack.states(grid=False),
            self.EXPONENTS, lambda psi: p, [name])
        assert name in seen
        if isinstance(p, str):
            assert "fallback" in seen
        else:
            assert "error" in seen

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_bad_exponent_anywhere_raises(self, name):
        # the error of the exponent rule applied in order, written out
        # here: it names the first bad value, placed first, in the middle
        # or last, and whatever bad value follows it, also one float()
        # rejects, and also when the exponents come from an iterator
        psi = haar_random_pure(5, 5, stream=0)
        sweeps = [([1.0, 0.5][:i] + [bad] + [1.0, 0.5][i:], bad)
                  for bad in (float("nan"), -0.1, 2.5) for i in range(3)]
        sweeps += [([3.0, 1.0], 3.0), ([0.5, 2.5, -0.1], 2.5),
                   ([np.float64(-0.1)], -0.1), ([1.0, None, 3.0], None),
                   ([1.0, "x", 3.0], None), ([3.0, "x"], 3.0),
                   ([0.5, None], None)]
        for exponents, first in sweeps:
            with pytest.raises((TypeError, ValueError)) as want:
                for e in map(float, exponents):
                    if not 0.0 <= e <= 2.0:
                        raise ValueError(f"exponent must be in [0, 2], got {e}")
            if first is not None:
                assert str(want.value) == (
                    f"exponent must be in [0, 2], got {first}")
            for given in (exponents, iter(exponents)):
                with pytest.raises(want.type) as got:
                    REPORTS[name](psi, given, "auto")
                assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_no_exponents(self, name):
        assert REPORTS[name](haar_random_pure(5, 5, stream=0), [], "auto") == []

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_stack_raises(self, name):
        # a report is of one state: a stack is named, not failed on in numpy
        stack = haar_random_pure(5, 5, stream=range(3))
        with pytest.raises(ValueError,
                           match="expected one state, got a stack of 3"):
            REPORTS[name](stack, [1.0], "auto")

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_mistyped_mapping_key_raises(self, name):
        # "b" is no label: ignoring it would leave focus B on auto mode
        psi = haar_random_pure(5, 5, stream=0)
        with pytest.raises(ValueError, match="unknown focus label 'b'"):
            REPORTS[name](psi, [1.0], {"A": "one", "b": "one"})

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_unknown_p_mode_raises(self, name):
        psi = haar_random_pure(5, 5, stream=0)
        for p in ("ones", dict.fromkeys(psi.shape.labels, "ones")):
            with pytest.raises(ValueError, match="^p mode must be 'auto' "
                                                 "or 'one', got 'ones'$"):
                REPORTS[name](psi, [1.0], p)


PAIR_SLACKS = ("pair_coa_polygamy", "pair_conc_monogamy")


def assert_rows_one_state(psi: PureState, exponents) -> dict:
    """``cut_sandwiches`` of one state or a stack, once each state's slacks
    are checked to be its ``one_state_slacks``, bit for bit and in order."""
    slacks = cut_sandwiches(psi, exponents)
    rows = np.reshape(psi.amplitudes, (-1, psi.amplitudes.shape[-1]))
    for j, amplitudes in enumerate(rows):
        want = one_state_slacks(PureState(psi.shape, amplitudes), exponents)
        assert [(name, [float(v).hex() for v in np.atleast_1d(values)])
                for name, values in want.items()] == [
            (name, [v.hex() for v in np.reshape(values, (-1, len(rows)))[
                :, j].tolist()]) for name, values in slacks.items()]
    return slacks


class TestCutSandwiches:
    """One pair measure per focus over a stack of states gives, bit for
    bit, the gaps of the separate report functions and the pair slacks of
    focus A of every state."""

    EXPONENTS = (0.0, 0.35, 1.0, 1.5, 2.0)

    def test_equals_report_functions(self, example2_state):
        groups = [[example2_state, haar_random_pure(4, 8, stream=4)],
                  [haar_random_pure(5, 8, stream=5), geometric_w_state(5)],
                  [haar_random_pure(6, 8, stream=6), geometric_w_state(6)]]
        # cos(eps)|0...0> + sin(eps)|110...0> gives focus A the single-group
        # head sin^2(2 eps): 0, 4e-12, 4e-10, 3.6e-9 and 0.32 lie on both
        # sides of TAU_NUM, so the stacked trimming must agree with theta's;
        # GHZ ends each stack
        groups += [[two_term_state(n, 3 * 2 ** (n - 2), eps)
                    for eps in (0.0, 1e-6, 1e-5, 3e-5, 0.3)]
                   + [two_term_state(n, 2 ** n - 1, np.pi / 4)]
                   for n in (4, 5, 6)]
        for states in groups:
            stack = PureState(states[0].shape, [s.amplitudes for s in states])
            assert_rows_one_state(stack, self.EXPONENTS)
            c_sq, ca_sq = pair_measures_sq(stack, "A")
            for j, psi in enumerate(states):
                pair = pair_measures_sq(psi, "A")
                assert np.array_equal(c_sq[j], pair[0])
                assert np.array_equal(ca_sq[j], pair[1])

    def test_one_state(self):
        # one unstacked state has no stack axis, as for the measures
        psi = haar_random_pure(5, 8, stream=5)
        slacks = assert_rows_one_state(psi, self.EXPONENTS)
        c_sq, ca_sq = pair_measures_sq(psi, "A")
        assert c_sq.shape == ca_sq.shape == (4,)
        assert [np.shape(slacks[name]) for name in PAIR_SLACKS] == [(), ()]

    def test_pair_slacks_equal_one_state_values(self):
        # every stack of 4-6 qubits: Haar, near-product and corpus states
        stacks = [psi for psi in pair_kernel_inputs()
                  if psi.amplitudes.ndim == 2 and psi.n_qubits >= 4]
        assert len(stacks) == 3 * 3
        for stack in stacks:
            assert_rows_one_state(stack, self.EXPONENTS)

    @pytest.mark.parametrize("streams", [0, range(2)], ids=["one", "stack"])
    def test_requires_four_subsystems(self, streams):
        psi = haar_random_pure(3, 8, stream=streams)
        with pytest.raises(ValueError, match="^AB-cut bounds need at least "
                                             "4 subsystems$"):
            cut_sandwiches(psi, self.EXPONENTS)

    def test_chains_equal_chain_bound(self):
        # the chains come from one sort per focus; chain_bound sorts per call
        for n in (3, 4, 5, 6):
            psi = haar_random_pure(n, 2, stream=n)
            _, ca_sq = pair_measures_sq(psi, "A")
            reports = polygamy_bound_coa(psi, "A", self.EXPONENTS)
            for e, rep in zip(self.EXPONENTS, reports):
                for kind in CHAIN_COEFFICIENTS:
                    assert rep.comparators[kind] == chain_bound(ca_sq, e, kind)


def assert_bitwise(*values):
    assert len({float(v).hex() for v in values}) == 1, values


class TestFlatPass:
    """The report functions resolve each focus's recursion constants once
    and evaluate all exponents of a call in one pass: every value equals
    theta, chain_bound and the lemma's recursion written out, bit for bit,
    and each cut combines its foci's values as Python floats do."""

    EXPONENTS = (0.0, 0.35, 1.0, 1.5, 2.0)
    MODES = ["auto", "one", "explicit"]

    @staticmethod
    def states():
        """Haar states (most foci fall back), geometric W states (tail
        ratios below 1/2, trailing zero heads), and corpus states: Bell on
        AB with |0...0> (trailing zero heads and foci with no head at
        all), GHZ (every focus falls back) and W."""
        corpus = read_corpus("bell-ab-4q", "bell-ab-6q", "ghz-5q", "w-4q")
        return ([haar_random_pure(n, 9, stream=n) for n in (3, 4, 5, 6)]
                + [geometric_w_state(n) for n in (5, 6)]
                + list(corpus.values()))

    @staticmethod
    def p_spec(psi, mode):
        """"auto", "one", or for "explicit" a mapping that gives every
        focus auto mode resolves without fallback a p halfway between each
        tail ratio and 1, plus one entry past the levels; the other foci
        stay on auto mode."""
        if mode != "explicit":
            return mode
        spec = {}
        for f in psi.shape.labels:
            [rep] = polygamy_bound_coa(psi, f, [1.0])
            if not rep.foci[f].fallback:   # auto's p is the tail ratios
                spec[f] = tuple((t + 1.0) / 2.0 for t in rep.foci[f].p) + (1.0,)
        return spec

    @pytest.mark.parametrize("mode", MODES)
    def test_focus_values_equal_theta_chain_bound_and_reference(self, mode):
        seen = set()
        for psi in self.states():
            p = self.p_spec(psi, mode)
            for focus in psi.shape.labels:
                ca = pair_measures_sq(psi, focus)[1].tolist()
                reports = polygamy_bound_coa(psi, focus, self.EXPONENTS, p)
                fp = reports[0].foci[focus]
                groups = [[ca[i] for i in g] for g in fp.grouping]
                spec = p.get(focus, "auto") if isinstance(p, dict) else p
                ours = ([ca], ()) if spec == "auto" else (groups, fp.p)
                ones = (1.0,) * len(fp.p)
                for exponent, rep in zip(self.EXPONENTS, reports):
                    assert_bitwise(rep.ours, theta(ours[0], exponent, ours[1]),
                                   reference_theta(ours[0], exponent, ours[1]))
                    assert_bitwise(rep.comparators["p1_specialization"],
                                   theta(groups, exponent, ones),
                                   reference_theta(groups, exponent, ones))
                    for kind in CHAIN_COEFFICIENTS:
                        assert_bitwise(rep.comparators[kind],
                                       chain_bound(ca, exponent, kind))
                seen.add(spec if isinstance(spec, str) else "explicit")
                if fp.fallback:
                    seen.add("fallback")
                elif len(fp.p) < len(groups) - 1:
                    seen.add("trailing zero heads")
                if not fp.p and max(ca) < 1e-9:
                    seen.add("no head")
        assert {mode, "trailing zero heads", "no head"} <= seen
        assert "fallback" in seen or mode == "explicit"

    @pytest.mark.parametrize("mode", MODES)
    def test_cuts_combine_focus_values(self, mode):
        # the combine step works on the foci's floats: sums left to right,
        # and the larger arm of the lower bound
        for psi in self.states():
            labels = psi.shape.labels
            if len(labels) < 4:
                continue
            p = self.p_spec(psi, mode)
            single = {f: polygamy_bound_coa(psi, f, self.EXPONENTS, p)
                      for f in labels[:3]}
            c_sq = {f: pair_measures_sq(psi, f)[0].sum() for f in labels[:2]}
            for k in (2, 3):
                for i, rep in enumerate(multi_partition_polygamy(
                        psi, labels[:k], self.EXPONENTS, p)):
                    for key in ("ours",) + COMPARATOR_NAMES:
                        parts = [single[f][i].ours if key == "ours"
                                 else single[f][i].comparators[key]
                                 for f in labels[:k]]
                        total = parts[0]
                        for part in parts[1:]:
                            total += part
                        assert_bitwise(rep.ours if key == "ours"
                                       else rep.comparators[key], total)
            a, b = labels[:2]
            for i, (exponent, rep) in enumerate(zip(
                    self.EXPONENTS, monogamy_lower_AB(psi, self.EXPONENTS, p))):
                rad = {f: float(c_sq[f]) ** (exponent / 2) for f in (a, b)}
                assert_bitwise(rep.ours, max(rad[a] - single[b][i].ours,
                                             rad[b] - single[a][i].ours))
                assert type(rep.ours) is float


class TestGroupingRecord:
    """Each focus's grouping partitions its partners exactly: singletons in
    stable descending CoA^2 order, or one group exactly on fallback."""

    MODES = {"auto": "auto", "one": "one", "ones": (1.0,) * 5,
             "explicit": (0.9, 0.6, 0.8, 1.0, 1.0)}

    @staticmethod
    def states():
        return list(read_corpus().values()) + [
            haar_random_pure(n, 23, stream=s)
            for n in (3, 4, 5, 6) for s in range(3)]

    @pytest.mark.parametrize("mode", MODES)
    def test_grouping_partitions_partners(self, mode):
        p, counts = self.MODES[mode], {"singletons": 0, "fallback": 0}
        for psi in self.states():
            for focus in psi.shape.labels:
                ca = pair_measures_sq(psi, focus)[1].tolist()
                try:
                    [rep] = polygamy_bound_coa(psi, focus, [1.0], p)
                except InfeasibleParamsError:
                    assert not isinstance(p, str)   # modes fall back
                    continue
                fp = rep.foci[focus]
                if fp.fallback:
                    assert isinstance(p, str)
                    assert fp.grouping == (tuple(range(len(ca))),)
                    counts["fallback"] += 1
                    continue
                order = [i for (i,) in fp.grouping]   # singletons only
                assert sorted(order) == list(range(len(ca))) and len(ca) > 1
                for i, j in zip(order, order[1:]):
                    assert ca[i] > ca[j] or (ca[i] == ca[j] and i < j)
                counts["singletons"] += 1
        assert counts["singletons"] > 20
        assert (counts["fallback"] > 20) == isinstance(p, str)

    def test_records_are_immutable(self):
        psi = wclass4_state(FIG23_PARAMS)
        [sandwich] = negativity_bounds_AB(psi, [1.0])
        assert sandwich.lhs == sandwich.lower.lhs
        records = [(sandwich.lower, "gap"), (sandwich, "upper"),
                   (sandwich, "lhs"), (sandwich.lower.foci["A"], "grouping"),
                   (optimize(psi, "A", 1.0), "best_value"),
                   (lemma_rhs(0.1, 0.5, 0.5), "rhs")]
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


def report_fields(report):
    """float.hex of lhs, ours, each comparator and gap, and the focus
    records, of a report or of both sides of a sandwich; every float field
    must be a Python float."""
    if isinstance(report, bounds.SandwichBounds):
        return [report_fields(report.lower), report_fields(report.upper)]
    values = [report.lhs, report.ours, *report.comparators.values(),
              report.gap]
    assert [type(v) for v in values] == [float] * len(values)
    assert tuple(report.comparators) == COMPARATOR_NAMES
    return [v.hex() for v in values], report.foci


class TestExponentStack:
    """Several exponents are evaluated as one stack, one exponent in Python
    floats: every field of every report equals, bit for bit, the report of
    a call with that exponent alone, the focus records are equal, and a
    stack raises what each one-exponent call raises."""

    GRID = np.linspace(0.0, 2.0, 201)   # the figures' sweep, as an array

    @staticmethod
    def states(grid):
        """Haar states at 4-6 qubits, after the corpus (read only) and the
        geometric W states, or on the 201-point grid the two figure states."""
        special = (list(read_corpus("fig1-acin-3q", "fig23-wclass-4q").values())
                   if grid else list(read_corpus().values())
                   + [geometric_w_state(n) for n in (5, 6)])
        return special + [haar_random_pure(n, 31, stream=n) for n in (4, 5, 6)]

    @staticmethod
    def outcome(call):
        """report_fields of each report that ``call()`` returns, once no
        two of its rows are found to share a comparators or foci dict, or
        the error it raises (InfeasibleParamsError included)."""
        try:
            reports = call()
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"
        rows = [row for rep in reports for row in (
            rep if isinstance(rep, bounds.SandwichBounds) else [rep])]
        dicts = [d for row in rows for d in (row.comparators, row.foci)]
        assert len(set(map(id, dicts))) == len(dicts)
        return [report_fields(r) for r in reports]

    @classmethod
    def check(cls, states, exponents, p_spec, names):
        """Assert that each report of ``names`` on every state equals, as a
        stack of ``exponents``, its one-exponent calls, where equal errors
        are equal outcomes; ``p_spec(psi)`` is the p spec of a state.
        Return the names evaluated, with "error" and "fallback" if seen."""
        seen = set()
        for psi in states:
            p = p_spec(psi)
            for name in names:
                report = REPORTS[name]
                stack = cls.outcome(lambda: report(psi, exponents, p))
                singles = [cls.outcome(lambda: report(psi, [e], p))
                           for e in exponents]
                if isinstance(stack, str):   # equal errors, equal outcomes
                    assert singles == [stack] * len(exponents), name
                    seen.add("error")
                    continue
                assert singles == [[fields] for fields in stack], name
                # a sandwich's fields are a list of its two reports' fields
                first = stack[0][0] if isinstance(stack[0], list) else stack[0]
                seen.add(name)
                seen.update("fallback" for fp in first[1].values()
                            if fp.fallback)
        return seen

    @pytest.mark.parametrize("mode", TestFlatPass.MODES)
    @pytest.mark.parametrize("grid", [False, True], ids=["0-0.1-2", "grid"])
    def test_stack_equals_one_exponent_calls(self, mode, grid):
        seen = self.check(self.states(grid),
                          self.GRID if grid else [0.0, 0.1, 2.0],
                          lambda psi: TestFlatPass.p_spec(psi, mode), REPORTS)
        assert seen >= set(REPORTS) | {"error"} | (
            {"fallback"} if mode != "explicit" else set())


def pair_kernel_inputs():
    """Single states and stacks at 2-6 qubits: Haar states, the benchmark
    corpus (read only, stacked by register), and near-product states
    (|0...0> plus a 1e-9 Haar admixture, and one exact product state)."""
    inputs = []
    for n in range(2, 7):
        inputs += [haar_random_pure(n, 61, stream=n),
                   haar_random_pure(n, 61, stream=range(10, 15))]
        near = haar_random_pure(n, 67, stream=range(3)).amplitudes * 1e-9
        near[:, 0] += 1.0
        near /= np.linalg.norm(near, axis=1, keepdims=True)
        inputs += [PureState(qubit_shape(default_labels(n)), near[0]),
                   PureState(qubit_shape(default_labels(n)),
                             np.r_[near[1:], np.eye(1, 2 ** n)])]
    corpus = {}
    for psi in read_corpus().values():
        inputs.append(psi)
        corpus.setdefault(psi.shape, []).append(psi.amplitudes)
    inputs += [PureState(shape, amps) for shape, amps in corpus.items()]
    return inputs


class TestPairKernel:
    """pair_measures_sq with a tuple of foci gives each focus the row,
    bit for bit, of the spin-flip spectrum of each of its pair cut
    matrices alone, and of its one-label call; (f, q) and (q, f) read one
    pair.  The density-matrix route (reduced density, its checks, eigh
    and the tau of its eigenvectors) is the independent second route."""

    @staticmethod
    def foci_tuples(labels):
        """Every tuple of distinct labels up to 4 qubits; from 5, every
        subset in shape order, reversed and rotated by one."""
        if len(labels) <= 4:
            return [foci for k in range(1, len(labels) + 1)
                    for foci in permutations(labels, k)]
        subsets = [c for k in range(1, len(labels) + 1)
                   for c in combinations(labels, k)]
        return [foci for c in subsets
                for foci in dict.fromkeys((c, c[::-1], c[1:] + c[:1]))]

    def test_rows_equal_pair_reductions(self):
        inputs = pair_kernel_inputs()
        assert len(inputs) == 5 * 4 + 26 + 4   # an empty corpus glob fails
        calls = 0
        for psi in inputs:
            labels = psi.shape.labels
            reference, one_label = {}, {}
            for f in labels:
                partners = [q for q in labels if q != f]
                pairs = [measures._pair_roofs(
                    measures._cut_matrix(psi, (f, q))) for q in partners]
                reference[f] = [np.stack([np.multiply(v[k], v[k])
                                          for v in pairs], axis=-1)
                                for k in (0, 1)]
                one_label[f] = pair_measures_sq(psi, f)
                for k in (0, 1):
                    assert np.array_equal(one_label[f][k], reference[f][k])
                densities = [cren_crenoa_two_qubit(reduced_density(psi, [f, q]))
                             for q in partners]
                for k in (0, 1):
                    second = np.stack([np.multiply(v[k], v[k])
                                       for v in densities], axis=-1)
                    npt.assert_allclose(one_label[f][k], second,
                                        rtol=0, atol=1e-14)
            for foci in self.foci_tuples(labels):
                got = pair_measures_sq(psi, foci)
                for k in (0, 1):
                    lead = np.shape(reference[labels[0]][k])[:-1]
                    assert got[k].shape == lead + (len(foci), len(labels) - 1)
                    for i, f in enumerate(foci):
                        assert np.array_equal(got[k][..., i, :],
                                              reference[f][k]), (foci, f)
                calls += 1
            # the pair (f, q) in f's row is the pair (q, f) in q's row
            c_sq, ca_sq = pair_measures_sq(psi, labels)
            for i, j in combinations(range(len(labels)), 2):
                for v in (c_sq, ca_sq):
                    assert np.array_equal(v[..., i, j - 1], v[..., j, i])
        assert calls > 2000

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_haar_stacks_match_density_route(self, n):
        psi = haar_random_pure(n, 71, stream=range(64))
        labels = psi.shape.labels
        c_sq, ca_sq = pair_measures_sq(psi, labels)
        for i, f in enumerate(labels):
            for k, q in enumerate(q for q in labels if q != f):
                c, ca = cren_crenoa_two_qubit(reduced_density(psi, [f, q]))
                npt.assert_allclose(c_sq[:, i, k], c * c, rtol=0, atol=1e-14)
                npt.assert_allclose(ca_sq[:, i, k], ca * ca, rtol=0,
                                    atol=1e-14)

    def test_one_label_has_no_foci_axis(self):
        psi = haar_random_pure(5, 3, stream=range(4))
        c_sq, ca_sq = pair_measures_sq(psi, "B")
        assert c_sq.shape == ca_sq.shape == (4, 4)
        c_sq, ca_sq = pair_measures_sq(psi, ("B",))
        assert c_sq.shape == ca_sq.shape == (4, 1, 4)
        c_sq, ca_sq = pair_measures_sq(haar_random_pure(5, 3), ("C2", "A"))
        assert c_sq.shape == ca_sq.shape == (2, 4)

    def test_bad_foci(self):
        psi = haar_random_pure(4, 3)
        with pytest.raises(ValueError, match="unknown focus label 'D'"):
            pair_measures_sq(psi, ("A", "D"))
        with pytest.raises(ValueError, match="unknown focus label"):
            pair_measures_sq(psi, "AB")
        with pytest.raises(ValueError, match="at least one focus"):
            pair_measures_sq(psi, ())


class TestOursBelowP1:
    """The family's member is never looser than its p = 1 specialization
    on the same grouping."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 2.0), st.booleans())
    def test_auto_on_haar_states(self, n, seed, exponent, focus_b):
        psi = haar_random_pure(n, seed)
        [rep] = polygamy_bound_coa(psi, "B" if focus_b else "A", [exponent])
        assert rep.ours <= rep.comparators["p1_specialization"] + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 6), st.floats(0.0, 2.0), st.booleans(),
           st.tuples(st.floats(0.5, 1.0), st.floats(0.5, 1.0)))
    def test_explicit_levels(self, n, exponent, focus_b, p):
        # both tail ratios of the geometric W foci lie below 1/2, so every
        # p in [1/2, 1]^2 is admissible and no level falls back
        focus = "B" if focus_b else "A"
        [rep] = polygamy_bound_coa(geometric_w_state(n), focus, [exponent],
                                   p=p + (1.0,) * 3)
        assert len(rep.foci[focus].p) == 2 and not rep.foci[focus].fallback
        assert rep.ours <= rep.comparators["p1_specialization"] + 1e-12


@st.composite
def tail_ordered_levels(draw):
    """Singleton groups of descending heads whose tail ratios t_l are all
    at most 1, a p_l in [t_l, 1] per level, a level k, a p_k' in [p_k, 1]
    and an exponent: 0, 2 or uniform in [0, 2]."""
    ratios = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5))
    heads = [draw(st.floats(0.05, 1.0))]
    for t in ratios:   # each new head has its drawn ratio to the tail
        heads.insert(0, math.fsum(heads) / t)
    scale = draw(st.floats(0.05, 1.0)) / math.fsum(heads)
    heads = [h * scale for h in heads]
    ts = tail_ratios(heads)
    p = [min(1.0, t + draw(st.floats(0.0, 1.0)) * (1.0 - t)) for t in ts]
    k = draw(st.integers(0, len(p) - 1))
    raised = p[:k] + [p[k] + draw(st.floats(0.0, 1.0)) * (1.0 - p[k])]
    exponent = draw(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 2.0))
    return heads, p, raised + p[k + 1:], exponent


class TestThetaOrderedInP:
    """ROADMAP item 22, by measurement: on the admissible set t_l <= p_l
    <= 1, theta is nondecreasing in each p_l, so no admissible p gives a
    bound below the single-group value that auto mode reports (the p = t
    identity of the ``bounds`` module doc).  Both within 1e-13."""

    @settings(max_examples=300, deadline=None)
    @given(tail_ordered_levels())
    def test_raising_one_p_never_lowers_theta(self, case):
        heads, p, raised, exponent = case
        groups = [[h] for h in heads]
        value = theta(groups, exponent, p)
        assert theta(groups, exponent, raised) >= value - 1e-13
        assert value >= theta([heads], exponent) - 1e-13


W_EXPONENTS = (0.25, 0.5, 1.0, 1.5, 2.0)


@functools.lru_cache(maxsize=1)
def w_ensemble() -> dict[int, list[PureState]]:
    """ROADMAP item 23's ensemble: 300 random W states at each of 4, 5 and
    6 qubits, drawn in that order from one default_rng(5)."""
    generator = np.random.default_rng(5)
    return {n: random_w_states(generator, n, 300) for n in (4, 5, 6)}


class TestWClassTight:
    """ROADMAP item 23: a W-class state has C^2(A|rest) = sum_j
    C_a^2(A|j), so auto mode's A|rest bound is tight in exact arithmetic;
    where focus A keeps its singletons, the tail ratios are at most 1 and
    no comparator lies below "ours" beyond round-off."""

    @pytest.mark.parametrize("n, kept", [(4, 222), (5, 113), (6, 41)])
    def test_gap_is_zero_and_comparators_hold(self, n, kept):
        reports = [polygamy_bound_coa(psi, "A", W_EXPONENTS)
                   for psi in w_ensemble()[n]]
        assert max(abs(r.gap) for reps in reports for r in reps) <= 1e-13
        singletons = [reps for reps in reports
                      if not reps[0].foci["A"].fallback]
        assert len(singletons) == kept
        assert all(r.comparators[name] >= r.ours - 1e-15
                   for reps in singletons for r in reps
                   for name in COMPARATOR_NAMES)


@functools.lru_cache(maxsize=1)
def ordered_cases() -> list[PureState]:
    """``geometric_w_state`` at 4-6 qubits and the W states of
    ``w_ensemble`` whose foci A and B both keep their singletons in auto
    mode: every tail ratio of both is at most 1."""
    cases = [geometric_w_state(n) for n in (4, 5, 6)]
    for states in w_ensemble().values():
        for psi in states:
            [rep] = polygamy_upper_AB(psi, [1.0])
            if not (rep.foci["A"].fallback or rep.foci["B"].fallback):
                cases.append(psi)
    return cases


# Whether each report is an upper bound (tightest when smallest) or a
# lower one, and its reports as a function of (state, p spec).
ORDERED_REPORTS = {
    "polygamy_bound_coa A": (True, lambda psi, p: polygamy_bound_coa(
        psi, "A", W_EXPONENTS, p)),
    "polygamy_bound_coa B": (True, lambda psi, p: polygamy_bound_coa(
        psi, "B", W_EXPONENTS, p)),
    "polygamy_upper_AB": (True, lambda psi, p: polygamy_upper_AB(
        psi, W_EXPONENTS, p)),
    "negativity upper": (True, lambda psi, p: [
        s.upper for s in negativity_bounds_AB(psi, W_EXPONENTS, p)]),
    "monogamy_lower_AB": (False, lambda psi, p: monogamy_lower_AB(
        psi, W_EXPONENTS, p)),
    "negativity lower": (False, lambda psi, p: [
        s.lower for s in negativity_bounds_AB(psi, W_EXPONENTS, p)]),
}


class TestReportsOrderedInP:
    """ROADMAP item 22 on tail-ordered states: every report's "ours" is
    tightest in auto mode, loosest at p = 1, and an explicit p with each
    p_l in [t_l, 1] lies between them, within 1e-13."""

    def test_case_count(self):
        assert len(ordered_cases()) == 3 + 270

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_auto_explicit_one(self, data):
        cases = ordered_cases()
        psi = cases[data.draw(st.integers(0, len(cases) - 1))]
        [auto] = polygamy_upper_AB(psi, [1.0])
        explicit = {focus: tuple(
            min(1.0, t + data.draw(st.floats(0.0, 1.0)) * (1.0 - t))
            for t in auto.foci[focus].p) for focus in ("A", "B")}
        for name, (upper, report) in ORDERED_REPORTS.items():
            columns = [[r.ours for r in report(psi, p)]
                       for p in ("auto", explicit, "one")]
            if not upper:
                columns = [[-v for v in column] for column in columns]
            for low, mid, high in zip(*columns):
                assert low <= mid + 1e-13, name
                assert mid <= high + 1e-13, name


def local_unitaries(seed: int, n: int) -> list[np.ndarray]:
    """n Haar-random 2x2 unitaries (QR of a complex Gaussian, phases fixed)."""
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        q, r = np.linalg.qr(gen.normal(size=(2, 2))
                            + 1j * gen.normal(size=(2, 2)))
        out.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return out


def transformed(psi: PureState, unitaries=None, axes=None) -> PureState:
    """psi with unitaries[k] applied on qubit k, then its qubit axes
    permuted: qubit k of the result is qubit axes[k] of psi."""
    n = len(psi.shape.labels)
    t = psi.amplitudes.reshape((2,) * n)
    for k, u in enumerate(unitaries or []):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)
    if axes is not None:
        t = t.transpose(axes)
    return PureState(psi.shape, t.reshape(-1))


class TestInvariance:
    """The pair measures and every sandwich slack are functions of the
    state up to local unitaries; relabelling the partners relabels them."""

    EXPONENTS = (0.5, 1.0, 1.5, 2.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 6), st.integers(0, 2 ** 32 - 1))
    def test_local_unitaries(self, n, seed):
        psi = haar_random_pure(n, seed)
        phi = transformed(psi, local_unitaries(seed, n))
        assert np.max(np.abs(phi.amplitudes - psi.amplitudes)) > 1e-3
        for focus in psi.shape.labels:
            for a, b in zip(pair_measures_sq(psi, focus),
                            pair_measures_sq(phi, focus)):
                npt.assert_allclose(b, a, rtol=0, atol=1e-10)
        stack = PureState(psi.shape, [psi.amplitudes, phi.amplitudes])
        pairs = pair_measures_sq(stack, "A")
        for values in pairs:            # (state, partner)
            npt.assert_allclose(values[1], values[0], rtol=0, atol=1e-10)
        for values in cut_sandwiches(stack, self.EXPONENTS).values():
            # (state,) or (exponent, state)
            npt.assert_allclose(values[..., 1], values[..., 0],
                                rtol=0, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(
        st.permutations(range(1, n)), st.integers(0, 2 ** 32 - 1))))
    def test_partner_permutation(self, case):
        partners, seed = case
        psi = haar_random_pure(len(partners) + 1, seed)
        phi = transformed(psi, axes=[0] + list(partners))
        for a, b in zip(pair_measures_sq(psi, "A"), pair_measures_sq(phi, "A")):
            # partner k of phi is partner partners[k] - 1 of psi
            npt.assert_allclose(b, a[[j - 1 for j in partners]],
                                rtol=0, atol=1e-10)


BLOCK_QUBITS = {"haar1": 1, "haar2": 2, "haar3": 3, "bell": 2, "ghz3": 3,
                "w3": 3}


def block(kind: str, seed: int) -> np.ndarray:
    """Amplitudes of one factor of a block product: a seeded Haar state of
    1-3 qubits, or Bell, GHZ_3 or W_3."""
    dim = 2 ** BLOCK_QUBITS[kind]
    if kind.startswith("haar"):
        gen = np.random.default_rng(seed)
        z = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        return z / np.linalg.norm(z)
    indices = {"bell": [0, 3], "ghz3": [0, 7], "w3": [1, 2, 4]}[kind]
    return equal_superposition(BLOCK_QUBITS[kind], indices).amplitudes


def block_product(factors, axes) -> PureState:
    """The np.kron product of the factors, its qubit axes permuted."""
    amp = np.ones(1, dtype=complex)
    for factor in factors:
        amp = np.kron(amp, factor)
    n = len(axes)
    return PureState(qubit_shape(default_labels(n)),
                     amp.reshape((2,) * n).transpose(axes).reshape(-1))


@st.composite
def block_products(draw) -> PureState:
    """Products of blocks at 4-6 qubits, with permuted labels."""
    n, factors, size = draw(st.integers(4, 6)), [], 0
    while size < n:
        kind = draw(st.sampled_from(
            [k for k, q in BLOCK_QUBITS.items() if size + q <= n]))
        factors.append(block(kind, draw(st.integers(0, 2 ** 32 - 1))))
        size += BLOCK_QUBITS[kind]
    return block_product(factors, draw(st.permutations(range(n))))


PLUS_4 = block_product([np.full(2, 2 ** -0.5, dtype=complex)] * 4, range(4))


class TestBlockProducts:
    """Products of Haar, Bell, GHZ_3 and W_3 blocks: exact zeros and
    product cuts away from Haar typicality.  No call raises, the lower
    bounds and both negativity bounds hold, and the slacks of
    ``cut_sandwiches`` equal their one-state values bit for bit.  The upper
    concurrence bounds are left out: C across a product cut cancels to
    about 1e-8 where the bound reads 0 (ROADMAP item 10, route (a))."""

    EXPONENTS = (0.0, 0.1, 0.5, 1.0, 2.0)
    HOLD = ("concurrence_lower_AB", "negativity_lower_AB",
            "negativity_upper_AB", "tripartite_lower_ABC1")

    @settings(max_examples=100, deadline=None)
    @given(block_products())
    @example(PLUS_4)   # |+>^4: N and the radicands read round-off
    def test_bounds_hold_and_rows_equal_gaps(self, psi):
        slacks = assert_rows_one_state(psi, self.EXPONENTS)
        for name in self.HOLD:
            assert np.min(slacks.get(name, 0.0)) >= -1e-12, name


class TestProductQubits:
    """On a product of random qubits every pair CoA^2 is a round-off
    residue of about 1e-33, below TAU_NUM: "ours" and every comparator,
    the literature chains included, read 0 at each exponent in (0, 2],
    not a residue's small power (0.024 for ``pow2_chain`` at 0.1)."""

    EXPONENTS = [0.1, *np.linspace(0.0, 2.0, 9)[1:].tolist()]

    @pytest.mark.parametrize("seed", range(3))
    def test_every_comparator_reads_zero(self, seed):
        psi = block_product([block("haar1", seed + k) for k in range(4)],
                            range(4))
        labels = psi.shape.labels
        assert 0.0 < pair_measures_sq(psi, labels).max() < 1e-20
        reports = [rep for focus in labels for rep in polygamy_bound_coa(
            psi, focus, self.EXPONENTS)]
        reports += multi_partition_polygamy(psi, ["A", "B"], self.EXPONENTS)
        reports += [polygamy_bound_coa(psi, "A", [e])[0]
                    for e in self.EXPONENTS]
        for rep in reports:
            assert [rep.ours, *rep.comparators.values()] == [0.0] * 5


class TestSchmidtThreshold:
    """SCHMIDT_TOL, 1e-10 on the squared Schmidt values, sets where a cut
    counts as product, beyond round-off: on cos(eps)|0000> +
    sin(eps)|1111> the AB|C1C2 cut has rank 1 while sin(eps)^2 <= 1e-10,
    and the negativity bounds then read N = 0 although N = sin(2 eps)
    reaches 2e-5."""

    @pytest.mark.parametrize("eps", [3e-6, 1e-5])
    def test_rank_one_cut_reads_zero_negativity(self, eps):
        psi = two_term_state(4, 15, eps)
        cut = Bipartition.of(psi.shape, ["A", "B"])
        assert SCHMIDT_TOL == 1e-10 and math.sin(eps) ** 2 <= SCHMIDT_TOL
        assert schmidt_rank(psi, cut) == 1
        assert negativity(psi, cut) == pytest.approx(math.sin(2 * eps),
                                                     rel=1e-9)
        [rep] = negativity_bounds_AB(psi, [0.5])
        assert (rep.lhs, rep.upper.ours, rep.upper.gap) == (0.0, 0.0, 0.0)

    def test_rank_two_cut_reads_its_negativity(self):
        psi = two_term_state(4, 15, 1e-4)
        cut = Bipartition.of(psi.shape, ["A", "B"])
        assert schmidt_rank(psi, cut) == 2
        [rep] = negativity_bounds_AB(psi, [0.5])
        assert rep.lhs == pytest.approx(math.sqrt(math.sin(2e-4)), rel=1e-9)
        assert rep.lhs == pytest.approx(0.0141, abs=1e-4)
        assert rep.upper.ours == pytest.approx(0.0372, abs=1e-4)


def compensated_sum(values, start=0):
    """CPython 3.12's built-in ``sum`` of floats (Neumaier's compensated
    summation), which can differ from left-to-right addition by an ulp."""
    total, c = float(start), 0.0
    for v in values:
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


class TestSummationOrder:
    """Every sum of ``bounds`` adds left to right, whatever the built-in
    ``sum`` of the interpreter does."""

    EXPONENTS = (0.0, 0.35, 1.0, 1.5, 2.0)

    def test_compensated_builtin_sum_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(bounds, "sum", compensated_sum, raising=False)
        for n in (4, 5, 6):
            stack = haar_random_pure(n, 23, stream=range(24))
            assert_rows_one_state(stack, self.EXPONENTS)
            for amplitudes in stack.amplitudes:
                ca = pair_measures_sq(PureState(stack.shape, amplitudes),
                                      "A")[1].tolist()
                # one group, and four levels with tail ratios near 1/3
                levels = [[v / 4 ** k for v in ca] for k in range(4)]
                for groups, p in (([ca], ()), (levels, (0.5,) * 3)):
                    for exponent in self.EXPONENTS:
                        assert_bitwise(theta(groups, exponent, p),
                                       reference_theta(groups, exponent, p))


def test_max_of_arrays_is_max_of_floats():
    """The array branch of ``_max`` takes what its float branch, Python's
    ``max``, takes on every pair of -0.0, 0.0, nan and 1.0, bit for bit,
    so a stack's lower bounds equal the one-exponent, one-state ones
    (np.maximum gives 0.0 at (-0.0, 0.0) and nan at (1.0, nan))."""
    values = [-0.0, 0.0, math.nan, 1.0]
    pairs = [(a, b) for a in values for b in values]
    a, b = (np.array(column) for column in zip(*pairs))
    for (x, y), z in zip(pairs, bounds._max(a, b).tolist()):
        assert type(bounds._max(x, y)) is float
        assert bounds._max(x, y).hex() == max(x, y).hex() == z.hex(), (x, y)

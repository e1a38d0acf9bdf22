import numpy as np
import pytest

from entbounds import optimizer, rng
from entbounds.bounds import (
    InfeasibleParamsError,
    pair_measures_sq,
    polygamy_bound_coa,
    tail_ratios,
    theta,
)
from entbounds.linalg import TAU_NUM, projector
from entbounds.measures import Bipartition, pure_concurrence
from entbounds.optimizer import optimize, ordered_set_partitions
from entbounds.states import haar_random_pure

from reference import left_to_right, read_corpus, two_term_state

EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0)


class TestMinimalAdmissibleP:
    """Auto mode resolves each level's p to the minimal admissible t_l."""

    def test_example1_values(self, example1_state):
        [rep] = polygamy_bound_coa(example1_state, "A", [1.0])
        assert abs(rep.foci["A"].p[0] - 0.5) < 1e-15  # t, tighter than 3/5

    def test_example2_focus_b(self, example2_state):
        params = polygamy_bound_coa(example2_state, "B", [1.0])[0].foci["B"]
        assert abs(params.p[0] - 1 / 3) < 1e-15
        assert abs(params.p[1] - 1 / 2) < 1e-15

    def test_equal_groups_infeasible(self):
        psi = two_term_state(4, 15)  # GHZ: every pair CoA^2 is 1, t_1 = 2
        with pytest.raises(InfeasibleParamsError) as exc:
            polygamy_bound_coa(psi, "A", [1.0], p=(1.0, 1.0))
        assert exc.value.level == 1 and abs(exc.value.min_p - 2.0) < 1e-12
        [rep] = polygamy_bound_coa(psi, "A", [1.0])
        assert rep.foci["A"].fallback and rep.foci["A"].p == ()

    def test_floor_applied(self):
        # a trailing 1e-10 group is noise: dropped, so it needs no parameter
        assert theta([[1.0], [1e-10]], 1.0) == 1.0
        [rep] = polygamy_bound_coa(two_term_state(4, 12), "A", [1.0])
        assert rep.foci["A"].p == () and not rep.foci["A"].fallback


class TestOrderedSetPartitions:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 13), (4, 75),
                                         (5, 541)])
    def test_fubini_counts(self, n, count):
        assert sum(1 for _ in ordered_set_partitions(n)) == count

    def test_groupings_valid(self):
        # Fubini(n) distinct tuples of non-empty sorted blocks, each an
        # exact partition of 0..n-1
        for n, count in enumerate([1, 1, 3, 13, 75, 541]):
            groupings = list(ordered_set_partitions(n))
            assert len(groupings) == len(set(groupings)) == count
            for g in groupings:
                assert isinstance(g, tuple)
                assert all(isinstance(b, tuple) and b and list(b) == sorted(b)
                           for b in g)
                assert sorted(i for b in g for i in b) == list(range(n))


class TestAutoGrouping:
    """Auto mode orders partners by descending CoA^2 and collapses to one
    group when that ordering admits no parameters."""

    def test_feasible_stays_singleton(self, example1_state):
        [rep] = polygamy_bound_coa(example1_state, "A", [1.0])
        assert rep.foci["A"].grouping == ((0,), (1,))

    def test_infeasible_collapses(self):
        [rep] = polygamy_bound_coa(two_term_state(4, 15), "A", [1.0])
        assert rep.foci["A"].grouping == ((0, 1, 2),)

    def test_orders_descending(self, example2_state):
        _, ca_sq = pair_measures_sq(example2_state, "A")
        [rep] = polygamy_bound_coa(example2_state, "A", [1.0])
        groups = rep.foci["A"].grouping
        heads = [ca_sq[g[0]] for g in groups]
        assert len(groups) == 3 and heads == sorted(heads, reverse=True)


class TestOptimize:
    def test_example1_beats_figure_choice(self, example1_state):
        [z1] = polygamy_bound_coa(example1_state, "A", [1.0], p=(0.6,))
        res = optimize(example1_state, "A", 1.0)
        assert res.best_value <= z1.ours + 1e-12
        lhs = pure_concurrence(example1_state,
                               Bipartition.of(example1_state.shape, ["A"]))
        assert res.best_value >= lhs - 1e-9

    def test_single_partner(self):
        psi = two_term_state(2, 3)
        from entbounds.measures import cren_crenoa_two_qubit
        _, ca = cren_crenoa_two_qubit(projector(psi.amplitudes))
        for beta in (0.5, 1.0, 2.0):
            res = optimize(psi, "A", beta)
            assert abs(res.best_value - ca ** beta) < 1e-12
            assert res.best_grouping == ((0,),)

    def test_product_state(self):
        psi = two_term_state(3, 1, 0.0)   # |000>
        res = optimize(psi, "A", 1.0)
        assert res.best_value == 0.0

    def test_never_worse_than_k1(self):
        for i in range(20):
            psi = haar_random_pure(4, 421, stream=i)
            _, ca_sq = pair_measures_sq(psi, "A")
            k1 = float(ca_sq.sum()) ** 0.5  # exponent 1
            res = optimize(psi, "A", 1.0)
            assert res.best_value <= k1 + 1e-12

    def test_dominates_p_one(self, example2_state):
        # optimum cannot exceed the p=1 value of any feasible grouping
        res = optimize(example2_state, "B", 1.0)
        _, ca_sq = pair_measures_sq(example2_state, "B")
        for grouping in ordered_set_partitions(3):
            groups = [[float(ca_sq[i]) for i in g] for g in grouping]
            ts = tail_ratios(list(map(left_to_right, groups)))
            if any(t > 1.0 for t in ts):
                continue
            assert res.best_value <= theta(groups, 1.0, (1.0,) * len(ts)) + 1e-12

    def test_deterministic(self):
        psi = haar_random_pure(5, 37, stream=2)
        a = optimize(psi, "A", 0.8)
        b = optimize(psi, "A", 0.8)
        assert a == b

    def test_five_partner_enumeration(self):
        psi = haar_random_pure(6, 91, stream=0)
        res = optimize(psi, "A", 1.0)
        assert res.evaluations <= 541
        lhs = pure_concurrence(psi, Bipartition.of(psi.shape, ["A"]))
        assert res.best_value >= lhs - 1e-9

    def test_stack_raises(self):
        stack = haar_random_pure(4, 5, stream=range(3))
        with pytest.raises(ValueError,
                           match="expected one state, got a stack of 3"):
            optimize(stack, "A", 1.0)

    def test_exponent_validation(self, example1_state):
        with pytest.raises(ValueError, match="exponent"):
            optimize(example1_state, "A", 2.5)


class TestClosedForm:
    def test_equals_single_group_theta(self):
        # the closed form is theta of the one group, bit for bit, on every
        # corpus focus (Bell pairs, product partners and GHZ included)
        checked = 0
        for psi in read_corpus().values():
            for focus in psi.shape.labels:
                _, ca_sq = pair_measures_sq(psi, focus)
                for expo in (0.0, 0.5, 1.0, 2.0):
                    res = optimize(psi, focus, expo)
                    assert (type(res.best_value), res.best_value.hex()) == (
                        float, theta([ca_sq], expo).hex())
                    assert res.evaluations == 1
                    checked += 1
        assert checked == 115 * 4

    @pytest.mark.parametrize("ca_sq, message", [
        ([0.5, -1e-3, 0.2], "squared CoA values must be nonnegative"),
        ([0.5, np.nan, 0.2], "squared CoA values must be finite")])
    def test_bad_values_raise_as_theta(self, monkeypatch, ca_sq, message):
        with pytest.raises(ValueError, match=message):
            theta([ca_sq], 1.0)
        monkeypatch.setattr(optimizer, "pair_measures_sq", lambda psi, f: (
            np.zeros(3), np.array(ca_sq)))
        with pytest.raises(ValueError, match=message):
            optimize(haar_random_pure(4, 5), "A", 1.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_bell_pair_with_product_partners(self, n):
        # Bell(AB) x |0...0>: the zero-CoA partners used to crash the search
        psi = two_term_state(n, 0b11 << (n - 2))
        for focus in ("A", "B"):
            for expo in EXPONENTS:
                assert abs(optimize(psi, focus, expo).best_value - 1.0) < 1e-12

    def test_p_equals_t_identity_on_every_grouping(self):
        # theta at p_l = t_l is the same number for every admissible
        # grouping, the optimum, and the auto-mode bound
        checked = 0
        for n in (4, 5, 6):
            for stream in range(2):
                psi = haar_random_pure(n, 97, stream=stream)
                _, ca_sq = pair_measures_sq(psi, "A")
                groupings = list(ordered_set_partitions(ca_sq.size))
                autos = polygamy_bound_coa(psi, "A", EXPONENTS)
                for expo, auto in zip(EXPONENTS, autos):
                    best = optimize(psi, "A", expo).best_value
                    assert abs(auto.ours - best) < 1e-12
                    for grouping in groupings:
                        groups = [[float(ca_sq[i]) for i in g]
                                  for g in grouping]
                        heads = list(map(left_to_right, groups))
                        ts = tail_ratios(heads)
                        if min(heads) < TAU_NUM or any(t > 1.0 for t in ts):
                            continue
                        assert abs(theta(groups, expo, ts) - best) < 1e-12
                        checked += len(grouping) > 1
        assert checked > 100  # multi-level groupings were exercised


class TestFamilyProper:
    def test_random_p_above_threshold_on_every_grouping(self):
        # the paper's family: p_l drawn in (t_l, 1] on every admissible
        # grouping still bounds C^beta(focus|rest) and never undercuts the
        # p = t (single-group) value
        checked = 0
        for n in (4, 5, 6):
            for state in range(10):
                psi = haar_random_pure(n, 131, stream=state)
                for f, focus in enumerate(("A", "B", "C1")):
                    checked += self._check_focus(psi, focus,
                                                 stream=100 * n + 3 * state + f)
        assert checked > 6000

    @staticmethod
    def _check_focus(psi, focus, stream):
        _, ca_sq = pair_measures_sq(psi, focus)
        c = pure_concurrence(psi, Bipartition.of(psi.shape, [focus]))
        admissible = []
        for grouping in ordered_set_partitions(ca_sq.size):
            groups = [[float(ca_sq[i]) for i in g] for g in grouping]
            heads = list(map(left_to_right, groups))
            ts = tail_ratios(heads)
            if min(heads) >= TAU_NUM and all(t <= 1.0 for t in ts):
                admissible.append((groups, ts))
        draws = iter(rng.uniforms(len(admissible) * len(EXPONENTS) * ca_sq.size,
                                  151, stream))
        for expo in EXPONENTS:
            lhs = c ** expo if expo else 1.0
            single = theta([ca_sq], expo)
            for groups, ts in admissible:
                p = [t + (1.0 - t) * next(draws) for t in ts]
                value = theta(groups, expo, p)
                assert value >= lhs - 1e-12
                assert value >= single - 1e-12
        return len(admissible) * len(EXPONENTS)

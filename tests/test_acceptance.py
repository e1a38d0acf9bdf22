"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from entbounds import rng
from entbounds.bounds import (
    lemma_chain_grid,
    monogamy_lower_AB,
    negativity_bounds_AB,
    pair_measures_sq,
    polygamy_bound_coa,
    polygamy_upper_AB,
    tail_ratios,
    theta,
    tripartite_bounds,
)
from entbounds.cli import FIG23_P, figure_rows
from entbounds.linalg import partial_trace, projector
from entbounds.measures import (
    Bipartition,
    cren_crenoa_two_qubit,
    pure_concurrence,
)
from entbounds.optimizer import optimize
from entbounds.states import AcinParams, acin_state, haar_random_pure


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f} s)")


def test_criterion_1_example1_exact_values(example1_state):
    with criterion(1, "3-qubit example closed-form values at 1e-12"):
        t0 = time.perf_counter()
        cut = Bipartition.of(example1_state.shape, ["A"])
        c = pure_concurrence(example1_state, cut)
        rho = projector(example1_state.amplitudes)
        shape = example1_state.shape
        _, ca_ab = cren_crenoa_two_qubit(partial_trace(rho, shape, ["A", "B"]))
        _, ca_ac = cren_crenoa_two_qubit(partial_trace(rho, shape, ["A", "C"]))
        assert abs(c - np.sqrt(3) / 2) < 1e-12
        assert abs(ca_ab - np.sqrt(2) / 2) < 1e-12
        assert abs(ca_ac - 0.5) < 1e-12
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_figure1_reproduction():
    with criterion(2, "figure-1 chain over 201 samples, endpoint equalities"):
        t0 = time.perf_counter()
        _, rows = figure_rows(1, samples=201)
        arr = np.array(rows)
        assert np.min(np.diff(arr[:, 1:], axis=1)) >= -1e-9
        at_one = arr[100]
        assert abs(at_one[0] - 1.0) < 1e-15
        assert at_one[3] - at_one[2] > 1e-4  # Z2 - Z1 strictly positive
        last = arr[200]
        assert abs(last[1] - 0.75) < 1e-12  # lhs(2) = 3/4
        assert abs(last[2] - 0.75) < 1e-12  # Z1(2)
        assert abs(last[3] - 0.75) < 1e-12  # Z2(2)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_example2_exact_values(example2_state):
    with criterion(3, "4-qubit example radicand, ratios, theta, T1, X1"):
        c_sq_a, _ = pair_measures_sq(example2_state, "A")
        assert abs(c_sq_a.sum() - 63 / 64) < 1e-12
        _, ca_sq_b = pair_measures_sq(example2_state, "B")
        ratios = tail_ratios(sorted(ca_sq_b, reverse=True))
        assert abs(ratios[0] - 1 / 3) < 1e-12
        assert abs(ratios[1] - 1 / 2) < 1e-12
        theta_b = theta([[v] for v in sorted(ca_sq_b, reverse=True)], 2.0,
                        (2 / 5, 3 / 5))
        assert abs(theta_b - 3 / 4) < 1e-12
        [lo] = monogamy_lower_AB(example2_state, [2.0], p=FIG23_P)
        [up] = polygamy_upper_AB(example2_state, [2.0], p=FIG23_P)
        assert abs(lo.ours - 15 / 64) < 1e-12
        assert abs(lo.lhs - 39 / 64) < 1e-12
        assert lo.ours <= lo.lhs
        assert abs(up.ours - 111 / 64) < 1e-12


def test_criterion_4_figures_2_and_3_reproduction():
    with criterion(4, "figure-2/3 orderings over 201 samples"):
        t0 = time.perf_counter()
        _, rows2 = figure_rows(2, samples=201)
        arr2 = np.array(rows2)
        # lhs >= T1 >= T2 >= T3 >= T4 per row
        assert np.max(np.diff(arr2[:, 1:], axis=1)) <= 1e-9
        _, rows3 = figure_rows(3, samples=201)
        arr3 = np.array(rows3)
        # lhs <= X1 <= X2 <= X3 <= X4 per row
        assert np.min(np.diff(arr3[:, 1:], axis=1)) >= -1e-9
        assert time.perf_counter() - t0 < 2.0


def test_criterion_5_lemma_brute_force():
    with criterion(5, "key inequality and chain on 1e5 random triples"):
        t0 = time.perf_counter()
        grid = lemma_chain_grid(100_000, seed=42)
        assert np.min(grid[:, 1] - grid[:, 0]) >= -1e-12
        assert np.min(np.diff(grid, axis=1)) >= -1e-12
        assert time.perf_counter() - t0 < 1.0


def test_criterion_6_randomized_sandwich_4_qubits():
    with criterion(6, "sandwich on 1000 Haar 4-qubit states x 4 exponents"):
        t0 = time.perf_counter()
        worst = np.inf
        for trial in range(1000):
            psi = haar_random_pure(4, 42, stream=trial)
            alphas = (0.5, 1.0, 1.5, 2.0)
            for lo, up, nb in zip(monogamy_lower_AB(psi, alphas),
                                  polygamy_upper_AB(psi, alphas),
                                  negativity_bounds_AB(psi, alphas)):
                worst = min(worst, lo.gap, up.gap, nb.lower.gap, nb.upper.gap)
        assert worst >= -1e-9
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7_tripartite_5_qubits():
    with criterion(7, "tripartite sandwich on 200 Haar 5-qubit states"):
        t0 = time.perf_counter()
        worst = np.inf
        for trial in range(200):
            psi = haar_random_pure(5, 42, stream=trial)
            for tri in tripartite_bounds(psi, (0.5, 1.0, 1.5, 2.0)):
                worst = min(worst, tri.lower.gap, tri.upper.gap)
        assert worst >= -1e-9
        assert time.perf_counter() - t0 < 60.0


def test_criterion_8_coa_closed_form_cross_validation():
    with criterion(8, "pair CoA closed forms on 1000 family draws"):
        z = rng.complex_normals(2500, seed=271828)
        normals = np.concatenate([z.real, z.imag]).reshape(1000, 5)
        phases = rng.uniforms(1000, seed=271828, stream=1) * 2 * np.pi
        worst = 0.0
        for row, phi in zip(normals, phases):
            lam = np.abs(row)
            lam /= np.linalg.norm(lam)
            psi = acin_state(AcinParams(*lam, phi=phi))
            rho = projector(psi.amplitudes)
            _, ca_ab = cren_crenoa_two_qubit(
                partial_trace(rho, psi.shape, ["A", "B"]))
            _, ca_ac = cren_crenoa_two_qubit(
                partial_trace(rho, psi.shape, ["A", "C"]))
            worst = max(worst,
                        abs(ca_ab - 2 * lam[0] * np.hypot(lam[2], lam[4])),
                        abs(ca_ac - 2 * lam[0] * np.hypot(lam[3], lam[4])))
        assert worst < 1e-9


def test_criterion_9_optimizer_dominance(example1_state):
    with criterion(9, "optimizer beats the figure p, stays a valid bound"):
        betas = (0.5, 1.0, 1.5)
        for beta, rep in zip(betas, polygamy_bound_coa(example1_state, "A",
                                                       betas, p=(0.6,))):
            z1 = rep.ours
            z2 = rep.comparators["p1_specialization"]
            res = optimize(example1_state, "A", beta)
            assert res.best_value <= z1 + 1e-12
            assert z1 <= z2 + 1e-12
            assert res.best_value >= rep.lhs - 1e-12

"""The tracer's arithmetic, its reach into every importing module, and the
layer counts it must reproduce at the seed."""

import importlib
import time

import pytest

from entbench import tracer as tr
from entbench.tracer import Tracer, self_times

from entbounds import bounds, cli, optimizer, states


def _bare(nid, start, end, parent):
    """A span whose wrapper took no time of its own."""
    return (nid, start, end, parent, start, end)


def test_self_time_of_nested_spans():
    spans = [
        _bare(0, 0.0, 10.0, -1),   # root
        _bare(1, 1.0, 4.0, 0),     # child covering 3
        _bare(2, 2.0, 3.0, 1),     # grandchild covering 1 of the child
        _bare(1, 5.0, 9.0, 0),     # second child covering 4
        _bare(0, 20.0, 21.0, -1),  # second root, no children
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_bare(0, 0.0, 10.0, -1), _bare(1, 1.0, 4.0, 0),
             _bare(1, 3.0, 6.0, 0),
             _bare(1, 9.0, 12.0, 0)]  # the last child runs past its parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrapper_bookkeeping_is_charged_to_no_span():
    spans = [
        (0, 1.0, 10.0, -1, 0.0, 11.0),  # root: call 1..10, wrapper 0..11
        (1, 3.0, 5.0, 0, 2.0, 6.0),     # child: call 3..5, wrapper 2..6
        (2, 3.5, 4.0, 1, 3.25, 4.5),    # grandchild: wrapper 3.25..4.5
    ]
    assert self_times(spans) == pytest.approx([9.0 - 4.0, 2.0 - 1.25, 0.5])


def test_bookkeeping_stays_out_of_the_parent_self_time():
    """The tracer's hashing of each cren_crenoa_two_qubit input must not
    land in pair_measures_sq: padding it by 2 ms a call leaves the
    parent's self time where it was."""
    psi = states.haar_random_pure(4, 7, 0)

    def pair_self_ms(slow):
        t = Tracer()
        before = t._before

        def padded(name, args, kwargs):
            if slow and name == "measures.cren_crenoa_two_qubit":
                end = time.perf_counter() + 2e-3
                while time.perf_counter() < end:
                    pass
            before(name, args, kwargs)

        t._before = padded
        with t:
            for focus in psi.shape.labels:
                bounds.pair_measures_sq(psi, focus)
        return t.metrics()["bounds.pair_measures_sq.self_ms"]

    pair_self_ms(False)                              # warm up
    # 12 spectra at 2 ms each would add 24 ms to the parent
    assert pair_self_ms(True) < pair_self_ms(False) + 10.0


def test_wrappers_reach_every_importing_module_and_are_removed():
    originals = {
        ("bounds", "reduced_density"): None,
        ("optimizer", "theta"): None,
        ("cli", "pure_concurrence"): None,
        ("measures", "partial_trace"): None,
        ("states", "projector"): None,
        ("", "optimize"): None,
    }
    for mod, attr in originals:
        module = importlib.import_module(f"entbounds.{mod}" if mod else "entbounds")
        originals[(mod, attr)] = (module, getattr(module, attr))
    with Tracer():
        for (module, fn) in originals.values():
            assert getattr(module, fn.__name__) is not fn
            assert getattr(module, fn.__name__).__wrapped__ is fn
    for module, fn in originals.values():
        assert getattr(module, fn.__name__) is fn


def _verify_one_state(qubits):
    cfg = cli.VerifyConfig(qubits=qubits, trials=1,
                           exponents=(0.5, 1.0, 1.5, 2.0), seed=7)
    with Tracer() as t:
        cli.run_verify(cfg)
    return t.metrics()


@pytest.mark.parametrize("qubits, pair_calls, cren_calls, distinct", [
    (4, 25, 75, 5),
    (6, 37, 185, 12),
])
def test_verify_state_layer_counts(qubits, pair_calls, cren_calls, distinct):
    m = _verify_one_state(qubits)
    assert m["bounds.pair_measures_sq.calls"] == pair_calls
    assert m["measures.cren_crenoa_two_qubit.calls"] == cren_calls
    assert (m["measures.cren_crenoa_two_qubit.distinct_ratio"]
            == pytest.approx(distinct / cren_calls))
    assert m["cli.run_verify.calls"] == 1
    assert m["states.haar_random_pure.calls"] == 1
    assert m["optimizer.optimize.calls"] == 0


def test_optimize_enumerates_541_groupings_at_five_partners():
    psi = states.haar_random_pure(6, 7, 0)
    with Tracer() as t:
        result = optimizer.optimize(psi, "A", 1.0)
    m = t.metrics()
    assert m["optimizer.groupings"] == 541
    assert m["optimizer.groupings.max_per_call"] == 541
    assert m["optimizer.feasible_ratio"] == pytest.approx(
        result.evaluations / 541)
    assert m["optimizer.optimize.calls"] == 1


def test_failed_optimize_is_counted():
    import numpy as np
    from entbounds import linalg

    amp = np.zeros(16, dtype=complex)
    amp[0] = amp[0b1100] = 2 ** -0.5
    psi = states.PureState(linalg.qubit_shape(linalg.default_labels(4)), amp)
    with Tracer() as t:
        with pytest.raises(ValueError):
            optimizer.optimize(psi, "A", 1.0)
    assert t.metrics()["optimizer.optimize.failed"] == 1


def test_partial_trace_bytes_are_sixteen_dim_squared_per_call():
    psi = states.haar_random_pure(4, 7, 0)
    with Tracer() as t:
        cli.pure_concurrence(psi, cli.Bipartition.of(psi.shape, ["A"]))
    assert t.metrics()["linalg.partial_trace.bytes_in"] == 16 * 16 * 16


def test_per_layer_names_cover_every_span():
    names = [n for n, _, _ in tr.PER_LAYER]
    assert len(names) == len(set(names))
    for span in tr.SPAN_NAMES:
        assert f"{span}.calls" in names and f"{span}.self_ms" in names

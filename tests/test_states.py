import importlib
import math
import sys
import threading
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbounds.linalg import TAU_NUM, partial_trace, projector, qubit_shape
from entbounds.measures import (
    Bipartition,
    cren_crenoa_two_qubit,
    pure_concurrence,
)
from entbounds.states import (
    AcinParams,
    PureState,
    StateSpecError,
    WClass4Params,
    acin_state,
    emit_state_spec,
    haar_random_pure,
    _squared_norms,
    parse_state_spec,
    wclass4_state,
)
from entbounds import rng


def random_acin_params(generator, with_phase=True):
    lam = np.abs(generator.normal(size=5))
    lam /= np.linalg.norm(lam)
    phi = generator.uniform(0, 2 * np.pi) if with_phase else 0.0
    return AcinParams(*lam, phi=phi)


class TestAcinState:
    def test_product_case(self):
        psi = acin_state(AcinParams(1.0, 0.0, 0.0, 0.0, 0.0))
        npt.assert_array_equal(psi.amplitudes[1:], 0)
        for pair in (["A", "B"], ["A", "C"]):
            rho = partial_trace(projector(psi.amplitudes), psi.shape, pair)
            assert cren_crenoa_two_qubit(rho)[1] < 1e-12

    def test_closed_form_concurrence_random(self):
        # closed form 2 l0 sqrt(l2^2+l3^2+l4^2) against the purity route
        gen = np.random.default_rng(101)
        for _ in range(50):
            p = random_acin_params(gen)
            psi = acin_state(p)
            closed = 2 * p.l0 * np.sqrt(p.l2 ** 2 + p.l3 ** 2 + p.l4 ** 2)
            cut = Bipartition.of(psi.shape, ["A"])
            assert abs(pure_concurrence(psi, cut) - closed) < 1e-9

    def test_phase_enters_only_second_amplitude(self):
        lam = dict(l0=0.5, l1=0.5, l2=0.5, l3=0.5, l4=0.0)
        flat = acin_state(AcinParams(**lam, phi=0.0))
        twisted = acin_state(AcinParams(**lam, phi=1.3))
        assert np.all(flat.amplitudes.imag == 0)
        diff = np.nonzero(np.abs(twisted.amplitudes - flat.amplitudes) > 0)[0]
        npt.assert_array_equal(diff, [4])  # the |100> slot

    def test_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            AcinParams(1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError,
                           match="^coefficients must be nonnegative$"):
            AcinParams(-1.0, 0.0, 0.0, 0.0, 0.0)

    def test_normalization_error_prints_a_plain_float(self):
        with pytest.raises(ValueError) as exc:
            AcinParams(np.float64(0.5), 0, 0, 0, 0)
        assert str(exc.value) == "coefficients are not normalized: sum sq = 0.25"


class TestWClassState:
    def test_pairwise_concurrences(self, example2_state):
        rho = projector(example2_state.amplitudes)
        shape = example2_state.shape
        expected = {("A", "B"): 3 / 4, ("A", "C1"): 3 * np.sqrt(2) / 8,
                    ("B", "C1"): np.sqrt(2) / 4}
        for pair, val in expected.items():
            red = partial_trace(rho, shape, pair)
            assert abs(cren_crenoa_two_qubit(red)[0] - val) < 1e-12

    def test_ab_cut_concurrence(self, example2_state):
        # paper formula 2 sqrt((l1^2+l2^2)(l3^2+l4^2)) evaluated directly
        l = (3 / 4, 1 / 2, np.sqrt(2) / 4, 1 / 4)
        closed = 2 * np.sqrt((l[0] ** 2 + l[1] ** 2) * (l[2] ** 2 + l[3] ** 2))
        assert abs(closed - np.sqrt(39) / 8) < 1e-15
        cut = Bipartition.of(example2_state.shape, ["A", "B"])
        assert abs(pure_concurrence(example2_state, cut) - closed) < 1e-12

    def test_product_case(self):
        psi = wclass4_state(WClass4Params(1.0, 0.0, 0.0, 0.0))
        for pair in (["A", "B"], ["A", "C1"], ["B", "C2"]):
            red = partial_trace(projector(psi.amplitudes), psi.shape, pair)
            assert cren_crenoa_two_qubit(red)[0] < 1e-12


class TestHaarRandom:
    def test_normalized(self):
        for seed in (0, 1, 12345):
            psi = haar_random_pure(3, seed)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_deterministic_per_seed(self):
        a = haar_random_pure(4, 99, stream=5)
        b = haar_random_pure(4, 99, stream=5)
        npt.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_streams_differ(self):
        a = haar_random_pure(4, 99, stream=0)
        b = haar_random_pure(4, 99, stream=1)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) > 1e-3

    def test_purity_moment(self):
        # E[Tr rho_A^2] = (dA + dB) / (dA dB + 1) = 4/5 for two qubits
        total = 0.0
        for i in range(10_000):
            psi = haar_random_pure(2, 7, stream=i)
            rho_a = partial_trace(projector(psi.amplitudes), psi.shape, ["A"])
            total += np.trace(rho_a @ rho_a).real
        assert abs(total / 10_000 - 0.8) < 0.01

    def test_size_range(self):
        with pytest.raises(ValueError):
            haar_random_pure(1, 0)
        with pytest.raises(ValueError):
            haar_random_pure(7, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_stream_batch_equals_per_stream(self, n):
        # one generator re-keyed per stream gives each one-stream draw
        streams = [0, 1, 7, 2 ** 32, 2 ** 32 + 5, 2 ** 64 - 1, -1]
        for seed in (0, 42, -3):
            stack = haar_random_pure(n, seed, streams)
            assert stack.amplitudes.shape == (len(streams), 2 ** n)
            for row, stream in zip(stack.amplitudes, streams):
                one = haar_random_pure(n, seed, stream)
                assert one.amplitudes.ndim == 1
                assert np.array_equal(row, one.amplitudes)
        assert np.array_equal(haar_random_pure(n, 9, range(3)).amplitudes,
                              haar_random_pure(n, 9, [0, 1, 2]).amplitudes)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_stack_normalized_as_each_row_alone(self, n):
        # the stacked normalization divides each row by the bits of its
        # own 1-D np.linalg.norm, as a per-row loop does
        for seed in (0, 42, -3):
            z = rng.complex_normals(2 ** n, seed, range(64))
            rows = np.array([row / np.linalg.norm(row) for row in z])
            stack = haar_random_pure(n, seed, range(64)).amplitudes
            assert stack.tobytes() == rows.tobytes()


class TestRng:
    def test_uniforms_in_half_open_interval(self):
        u = rng.uniforms(10_000, 3)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_normals_moments(self):
        # the real and imaginary parts of a standard complex normal are
        # independent standard normals
        z = rng.complex_normals(100_000, 11)
        for part in (z.real, z.imag):
            assert abs(part.mean()) < 0.01
            assert abs(part.std() - 1.0) < 0.01
        assert abs(np.mean(z.real * z.imag)) < 0.01

    def test_raw_determinism(self):
        npt.assert_array_equal(rng.raw_draws(8, 5, 2), rng.raw_draws(8, 5, 2))

    def test_words_and_uniforms_are_pinned(self):
        # Philox words and the uniforms shifted from them are exact on
        # every platform; the Gaussians are not pinned (their np.log can
        # differ in the last bit between numpy builds and CPUs)
        assert rng.raw_draws(4, 42, 3).tolist() == [
            13138034844547723835, 1300617538256654245,
            7267606706469440352, 2331323060026350045]
        assert [u.hex() for u in rng.uniforms(4, 42, 3).tolist()] == [
            "0x1.6ca75a2a67f17p-1", "0x1.20cb8c2946e50p-4",
            "0x1.936ee72d296e4p-2", "0x1.02d42fc50c610p-3"]

    @pytest.mark.parametrize("draw", [rng.raw_draws, rng.uniforms,
                                      rng.complex_normals])
    def test_stream_batch_equals_per_stream(self, draw):
        streams = [0, 5, 2 ** 32, 2 ** 64 - 1, -1]
        for n in (1, 2, 7, 64):
            rows = draw(n, 11, streams)
            assert rows.shape == (len(streams), n)
            for row, stream in zip(rows, streams):
                assert np.array_equal(row, draw(n, 11, stream))

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -7, 12345])
    def test_rekeyed_words_equal_fresh_philox(self, seed):
        # the process's one generator, re-keyed per stream, gives the words
        # of a fresh Philox per (seed, stream), also after earlier streams
        from entbounds.cli import _LEMMA_STREAM_BASE
        mask = 2 ** 64 - 1
        streams = [0, 3, _LEMMA_STREAM_BASE, _LEMMA_STREAM_BASE + 1,
                   _LEMMA_STREAM_BASE + 10 ** 6, 2 ** 64 - 1, -1]
        rows = rng.raw_draws(9, seed, streams)
        assert rows.shape == (len(streams), 9)
        for row, stream in zip(rows, streams):
            key = np.array([seed & mask, stream & mask], dtype=np.uint64)
            fresh = np.random.Philox(key=key).random_raw(9)
            npt.assert_array_equal(row, fresh)
            npt.assert_array_equal(rng.raw_draws(9, seed, stream), fresh)

    def test_no_os_entropy_drawn(self, monkeypatch):
        # numpy seeds a generator built without a seed from OS entropy
        # through bit_generator.randbits; a call must not do that
        from numpy.random import bit_generator
        drawn = []
        real = bit_generator.randbits
        monkeypatch.setattr(bit_generator, "randbits",
                            lambda *args: drawn.append(args) or real(*args))
        np.random.Philox()
        assert drawn  # the spy sees an entropy-seeded generator
        drawn.clear()
        rng.raw_draws(9, 5, [0, 3, 2 ** 32])
        rng.uniforms(4, 5)
        assert drawn == []
        # nor does a fresh import, nor its first draw, which builds the
        # process's generator
        importlib.reload(rng)
        words = rng.raw_draws(9, 5, 3)
        assert drawn == []
        npt.assert_array_equal(words,
                               np.random.Philox(key=[5, 3]).random_raw(9))

    def test_threads_share_the_generator(self):
        # 4 threads (more than the cores of a small host) re-key the one
        # generator concurrently, switching often; each call's words are
        # its serial draw, which a lost re-keying would break
        jobs = [[(seed, [seed + k, 2 ** 32 + k, seed * k])
                 for k in range(50)] for seed in range(4)]
        serial = [[rng.raw_draws(5, seed, streams) for seed, streams in job]
                  for job in jobs]
        got = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def work(i):
            start.wait(timeout=30)
            got[i] = [rng.raw_draws(5, seed, streams)
                      for seed, streams in jobs[i]]

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for rows, expect in zip(got, serial):
            for a, b in zip(rows, expect):
                npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed, stream", [
        (5, 0.7), (5, [2.9]), (5, [0, 1.0]), (5, "3"), (5, ["3"]), (5.0, 1),
        ("5", [1])])
    def test_non_integer_seed_or_stream_raises(self, seed, stream):
        # int() would truncate 2.9 to stream 2 or parse "3" as stream 3
        message = (f"seed and stream must be integers, got seed {seed!r} "
                   f"and stream {stream!r}")
        with pytest.raises(TypeError) as err:
            rng.raw_draws(2, seed, stream)
        assert str(err.value) == message
        with pytest.raises(TypeError, match="must be integers"):
            haar_random_pure(4, seed, stream)

    @pytest.mark.parametrize("streams", [[[1, 2]], np.zeros((2, 2), int),
                                         [range(2), range(2)]])
    def test_streams_must_be_one_dimensional(self, streams):
        with pytest.raises(ValueError, match="1-D"):
            rng.raw_draws(2, 5, streams)


class TestStateSpecFormat:
    def test_bell_example(self):
        psi = parse_state_spec(
            "qubits 2\namp 0 0.707106781 0\namp 3 0.707106781 0\n")
        assert abs(psi.amplitudes[0] - 0.707106781) < 1e-15
        assert abs(psi.amplitudes[3] - 0.707106781) < 1e-15
        assert psi.amplitudes[1] == psi.amplitudes[2] == 0

    def test_eight_digit_bell_misses_the_gate(self):
        # 0.70710678 leaves the norm 1.7e-9 short, beyond the strict
        # tolerance; renormalize is the documented escape hatch
        text = "qubits 2\namp 0 0.70710678 0\namp 3 0.70710678 0\n"
        with pytest.raises(StateSpecError, match="normalized"):
            parse_state_spec(text)
        psi = parse_state_spec(text, renormalize=True)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15

    def test_duplicate_index(self):
        with pytest.raises(StateSpecError, match="duplicate index 0") as exc:
            parse_state_spec("qubits 1\namp 0 1 0\namp 0 1 0\n")
        assert exc.value.line == 3

    def test_index_out_of_range(self):
        with pytest.raises(StateSpecError, match="out of range"):
            parse_state_spec("qubits 1\namp 2 1 0\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(StateSpecError) as exc:
            parse_state_spec("qubits 2\namp 0 1 0\nbogus line\n")
        assert exc.value.line == 3

    def test_missing_header(self):
        with pytest.raises(StateSpecError, match="qubits"):
            parse_state_spec("amp 0 1 0\n")

    def test_comments_and_blanks(self):
        psi = parse_state_spec(
            "# a comment\n\nqubits 1\namp 0 1 0  # trailing comment\n")
        assert psi.amplitudes[0] == 1.0

    def test_normalization_failure_reports_norm(self):
        with pytest.raises(StateSpecError, match="0.5"):
            parse_state_spec("qubits 1\namp 0 0.5 0\n")

    def test_renormalize_opt_in(self):
        psi = parse_state_spec("qubits 1\namp 0 0.5 0\namp 1 0.5 0\n",
                               renormalize=True)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15

    def test_normalization_error_prints_a_plain_float(self):
        with pytest.raises(StateSpecError) as exc:
            parse_state_spec("qubits 1\namp 0 1 0\namp 1 0.5 0\n")
        assert str(exc.value) == ("line 1: state is not normalized: "
                                  "|psi| = 1.118033988749895 "
                                  "(pass renormalize to accept)")

    def test_renormalize_keeps_ordinary_amplitudes(self):
        amp = np.array([0.5, 0.25 - 0.5j, 0.0, complex(0.0, -0.125)])
        psi = parse_state_spec(
            "qubits 2\namp 0 0.5 0\namp 1 0.25 -0.5\namp 3 0 -0.125\n",
            renormalize=True)
        assert psi.amplitudes.tobytes() == (
            amp / np.sqrt(np.vdot(amp, amp).real)).tobytes()

    def test_normalized_means_what_pure_state_accepts(self, edge_spec):
        # this spec's squared norm lies within ulps of 1 + TAU_NUM, where
        # np.vdot's sum passes the tolerance and PureState's check does
        # not: the parser decides with PureState's check, so the spec is
        # rejected with the parser's message, or rescaled on request
        text, amp = edge_spec
        sq = np.vdot(amp, amp).real
        assert abs(sq - 1.0) <= TAU_NUM < abs(_squared_norms(amp) - 1.0)
        with pytest.raises(ValueError, match="not normalized"):
            PureState(qubit_shape(("A", "B")), amp)
        with pytest.raises(StateSpecError) as exc:
            parse_state_spec(text)
        assert str(exc.value) == ("line 1: state is not normalized: "
                                  "|psi| = 1.0000000004999998 "
                                  "(pass renormalize to accept)")
        psi = parse_state_spec(text, renormalize=True)
        assert psi.amplitudes.tobytes() == (amp / np.sqrt(sq)).tobytes()

    def test_huge_spec_is_rejected_without_a_warning(self):
        # PureState's squared norm overflows on 1e200; the parser reads
        # that as not normalized and numpy stays silent
        text = "qubits 1\namp 0 1e200 -1e200\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateSpecError, match=r"\|psi\| = inf "):
                parse_state_spec(text)
            psi = parse_state_spec(text, renormalize=True)
        assert psi.amplitudes.tolist() == [
            complex(0.7071067811865475, -0.7071067811865475), 0j]

    @pytest.mark.parametrize("scale", ["1e-200", "5e-324", "1e200", "1.7e308"])
    def test_renormalize_tiny_or_huge_amplitudes(self, scale):
        # the squared norm underflows to 0 or overflows (to inf, or to NaN
        # through a complex product); rescaling first gives the amplitudes
        # of the same spec at unit scale
        text = f"qubits 2\namp 0 {scale} -{scale}\namp 3 {scale} 0\n"
        unit = parse_state_spec(text.replace(scale, "1"), renormalize=True)
        psi = parse_state_spec(text, renormalize=True)
        assert psi.amplitudes.tobytes() == unit.amplitudes.tobytes()
        with pytest.raises(StateSpecError, match="not normalized"):
            parse_state_spec(text)

    @pytest.mark.parametrize("renormalize", [False, True])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["re", "im"])
    def test_non_finite_amplitude_names_its_line(self, field, value,
                                                 renormalize):
        # float() parses these; the parser, not PureState, rejects them
        amp = f"{value} 0" if field == "re" else f"0 {value}"
        with pytest.raises(StateSpecError) as exc:
            parse_state_spec(f"qubits 1\namp 0 {amp}\namp 1 1 0\n",
                             renormalize=renormalize)
        assert exc.value.line == 2
        assert str(exc.value) == (
            f"line 2: amplitude must be finite: 'amp 0 {amp}'")

    def test_non_finite_amplitude_after_other_line_errors(self):
        # a line's index and duplicate checks come first, as before
        with pytest.raises(StateSpecError, match="line 2: index 2 out of"):
            parse_state_spec("qubits 1\namp 2 nan 0\n")
        with pytest.raises(StateSpecError, match="line 3: duplicate index"):
            parse_state_spec("qubits 1\namp 0 1 0\namp 0 inf 0\n")

    def test_renormalize_zero_vector_raises(self):
        with pytest.raises(StateSpecError, match="cannot renormalize the zero"):
            parse_state_spec("qubits 2\namp 0 0 -0\n", renormalize=True)

    def test_round_trip_example1(self, example1_state):
        text = emit_state_spec(example1_state)
        back = parse_state_spec(text)
        npt.assert_array_equal(back.amplitudes, example1_state.amplitudes)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_round_trip_random(self, seed):
        psi = haar_random_pure(3, seed)
        back = parse_state_spec(emit_state_spec(psi))
        npt.assert_array_equal(back.amplitudes, psi.amplitudes)

    def test_round_trip_signed_zeros(self):
        from entbounds.linalg import qubit_shape
        amp = np.zeros(8, dtype=complex)
        amp[0] = complex(-0.0, 0.0)
        amp[1] = complex(0.0, -0.0)
        amp[2] = complex(-0.0, -0.0)
        amp[3] = complex(0.6, -0.0)
        amp[5] = complex(-0.0, 0.8)
        psi = PureState(qubit_shape(("A", "B", "C")), amp)
        back = parse_state_spec(emit_state_spec(psi))
        # bit patterns, so -0.0 and +0.0 differ
        assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()


class TestPureState:
    def test_rejects_unnormalized(self):
        from entbounds.linalg import qubit_shape
        with pytest.raises(ValueError, match="normalized"):
            PureState(qubit_shape(("A", "B")), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_normalization_error_prints_a_plain_float(self):
        from entbounds.linalg import qubit_shape
        with pytest.raises(ValueError) as exc:
            PureState(qubit_shape(("A", "B")), np.array([1.0, 0.5, 0.0, 0.0]))
        assert str(exc.value) == \
            "state is not normalized: |psi| = 1.118033988749895"

    def test_rejects_nan_squared_norm(self):
        # the complex product of 1e200 - 1e200j with its conjugate is NaN,
        # which no tolerance comparison may pass as normalized; the squared
        # norm overflows on the way, and numpy warns
        from entbounds.linalg import qubit_shape
        amp = np.array([1e200 - 1e200j, 1e200, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"\|psi\| = nan"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            PureState(qubit_shape(("A", "B")), amp)

    def test_stack_error_names_the_unnormalized_row(self):
        # every row is checked, and the error gives the first bad row's
        # norm as a one-state check gives it
        from entbounds.linalg import qubit_shape
        rows = haar_random_pure(3, 5, range(3)).amplitudes * [[1], [1.5], [1]]
        sq = float(np.vdot(rows[1], rows[1]).real)
        with pytest.raises(ValueError) as exc:
            PureState(qubit_shape(("A", "B", "C")), rows)
        assert str(exc.value) == \
            f"state is not normalized: |psi| = {math.sqrt(sq)!r}"
        rows[1] = [1e200, 0, 0, 0, 0, 0, 0, 0]   # squared norm inf
        with pytest.raises(ValueError, match=r"\|psi\| = inf$"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            PureState(qubit_shape(("A", "B", "C")), rows)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite_amplitudes(self, value):
        from entbounds.linalg import qubit_shape
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            PureState(qubit_shape(("A",)), np.array([value, 1.0]))

    def test_rejects_wrong_amplitude_count(self):
        from entbounds.linalg import qubit_shape
        with pytest.raises(ValueError, match="^amplitude count 3 does not "
                                             "match shape dimension 4$"):
            PureState(qubit_shape(("A", "B")), np.array([1.0, 0.0, 0.0]))

    def test_stack_of_states(self):
        from entbounds.linalg import qubit_shape
        states = [haar_random_pure(3, 61, stream=i) for i in range(4)]
        shape = qubit_shape(("A", "B", "C"))
        stack = PureState(shape, [psi.amplitudes for psi in states])
        assert stack.amplitudes.shape == (4, 8)
        npt.assert_array_equal(stack.amplitudes[2], states[2].amplitudes)
        assert PureState(shape, stack.amplitudes[:1]).amplitudes.shape == (1, 8)
        with pytest.raises(ValueError):
            stack.amplitudes[0, 0] = 9.0

    def test_stack_rejected_by_emit_state_spec(self):
        stack = haar_random_pure(3, 61, stream=range(3))
        with pytest.raises(ValueError, match="got a stack of 3"):
            emit_state_spec(stack)

    def test_amplitudes_read_only(self, example1_state):
        with pytest.raises(ValueError):
            example1_state.amplitudes[0] = 9.0

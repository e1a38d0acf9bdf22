import functools
import json
import math
import sys
from xml.etree import ElementTree

import numpy as np
import pytest

from entbounds import bounds, cli, measures, rng
from entbounds.bounds import (
    COMPARATOR_NAMES,
    monogamy_lower_AB,
    polygamy_bound_coa,
    polygamy_upper_AB,
)
from entbounds.cli import (
    FIG1_P,
    FIG1_PARAMS,
    FIG23_P,
    FIG23_PARAMS,
    CheckStat,
    FigureSpec,
    VerifyConfig,
    VerifyResult,
    figure_rows,
    main,
    run_bounds,
    run_figure,
    run_verify,
)
from entbounds.optimizer import optimize
from entbounds.states import (
    acin_state,
    emit_state_spec,
    haar_random_pure,
    wclass4_state,
)

from reference import CORPUS_DIR, ROOT, add, per_function_verify, read_corpus

REFERENCE_DIR = ROOT / "benchmark" / "reference"


@pytest.fixture(scope="module")
def example1_spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "example1.state"
    path.write_text(emit_state_spec(acin_state(FIG1_PARAMS)),
                    encoding="utf-8")
    return str(path)


class TestFigureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FigureSpec(id=4, out_csv="x.csv")
        with pytest.raises(ValueError):
            FigureSpec(id=1, out_csv="x.csv", samples=1)
        with pytest.raises(ValueError, match="^unknown figure id 4$"):
            figure_rows(4)

    @pytest.mark.parametrize("field, value", [
        ("id", 1.0), ("samples", 201.0), ("samples", "201"), ("id", None)])
    def test_integer_fields(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            FigureSpec(**{"id": 1, "out_csv": "x.csv", field: value})
        spec = FigureSpec(id=np.int64(2), out_csv="x.csv",
                          samples=np.int32(3))
        assert (spec.id, spec.samples) == (2, 3)
        assert type(spec.id) is type(spec.samples) is int


class TestFigure1:
    def test_rows_and_endpoints(self):
        header, rows = figure_rows(1, samples=21)
        assert header == ["beta", "lhs", "Z1", "Z2", "Z3", "Z4"]
        first, last = rows[0], rows[-1]
        assert first[0] == 0.0 and last[0] == 2.0
        assert abs(first[1] - 1.0) < 1e-15 and abs(first[2] - 1.0) < 1e-15
        for v in last[1:4]:  # lhs, Z1, Z2 all collapse to 3/4
            assert abs(v - 0.75) < 1e-12

    def test_row_ordering(self):
        _, rows = figure_rows(1, samples=51)
        for row in rows:
            assert np.min(np.diff(row[1:])) > -1e-9

    @pytest.mark.parametrize("fig_id,header", [
        (1, "beta,lhs,Z1,Z2,Z3,Z4"),
        (2, "alpha,lhs,T1,T2,T3,T4"),
        (3, "alpha,lhs,X1,X2,X3,X4"),
    ])
    def test_csv_bytes_stable(self, tmp_path, fig_id, header):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_figure(FigureSpec(id=fig_id, out_csv=str(out1), samples=21))
        run_figure(FigureSpec(id=fig_id, out_csv=str(out2), samples=21))
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 22

    @pytest.mark.parametrize("fig_id", [1, 2, 3])
    def test_csv_bytes_match_reference(self, tmp_path, fig_id):
        # the committed benchmark reference tables, written at 201 samples
        ref = REFERENCE_DIR / f"fig{fig_id}.csv"
        out = tmp_path / "fig.csv"
        run_figure(FigureSpec(id=fig_id, out_csv=str(out), samples=201))
        assert out.read_bytes() == ref.read_bytes()

    def test_svg_output(self, tmp_path):
        csv = tmp_path / "f.csv"
        svg = tmp_path / "f.svg"
        run_figure(FigureSpec(id=1, out_csv=str(csv), out_svg=str(svg),
                              samples=21))
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 5

    def test_svg_of_constant_rows(self, tmp_path):
        # flat series span one unit of y, not a zero-height axis (0/0):
        # every coordinate and tick label is a finite number
        svg = tmp_path / "flat.svg"
        header = ["beta", "lhs", "Z1"]
        cli._write_svg(str(svg), header,
                       [(x, 0.5, 0.5) for x in (0.0, 1.0, 2.0)])
        root = ElementTree.fromstring(svg.read_text(encoding="utf-8"))
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}polyline")) == 2
        numbers = [float(node.get(key)) for node in root.iter()
                   for key in ("x", "y", "x1", "y1", "x2", "y2")
                   if node.get(key) is not None]
        numbers += [float(v) for node in root.iter(f"{ns}polyline")
                    for point in node.get("points").split()
                    for v in point.split(",")]
        ticks = [float(node.text) for node in root.iter(f"{ns}text")
                 if node.text not in header]
        assert len(ticks) == 10 and 0.5 in ticks
        assert all(map(math.isfinite, numbers + ticks))


class TestFigures23:
    def test_fig2_alpha_two_row(self):
        header, rows = figure_rows(2, samples=21)
        assert header == ["alpha", "lhs", "T1", "T2", "T3", "T4"]
        last = rows[-1]
        assert abs(last[1] - 39 / 64) < 1e-12
        assert abs(last[2] - 15 / 64) < 1e-12

    def test_fig2_ordering(self):
        _, rows = figure_rows(2, samples=51)
        for row in rows:
            assert np.max(np.diff(row[1:])) < 1e-9  # lhs >= T1 >= ... >= T4

    def test_fig3_alpha_two_row(self):
        header, rows = figure_rows(3, samples=21)
        assert header == ["alpha", "lhs", "X1", "X2", "X3", "X4"]
        last = rows[-1]
        assert abs(last[1] - 39 / 64) < 1e-12
        assert abs(last[2] - 111 / 64) < 1e-12

    def test_fig3_ordering(self):
        _, rows = figure_rows(3, samples=51)
        for row in rows:
            assert np.min(np.diff(row[1:])) > -1e-9


class TestFigureColumns:
    """A figure table reads its cut's columns, not reports: each row is,
    bit for bit, the exponent and its public report function's lhs, ours
    and first three comparators, and a table makes the same Python-level
    calls whatever its number of samples."""

    REPORTS = {
        1: lambda es: polygamy_bound_coa(acin_state(FIG1_PARAMS), "A", es,
                                         p=FIG1_P),
        2: lambda es: monogamy_lower_AB(wclass4_state(FIG23_PARAMS), es,
                                        p=FIG23_P),
        3: lambda es: polygamy_upper_AB(wclass4_state(FIG23_PARAMS), es,
                                        p=FIG23_P),
    }

    @pytest.mark.parametrize("samples", [1, 11, 201])
    @pytest.mark.parametrize("fig_id", [1, 2, 3])
    def test_rows_equal_report_function(self, fig_id, samples):
        _, rows = figure_rows(fig_id, samples)
        exponents = np.linspace(0.0, 2.0, samples).tolist()
        want = [(e, rep.lhs, rep.ours,
                 *map(rep.comparators.get, COMPARATOR_NAMES[:3]))
                for e, rep in zip(exponents, self.REPORTS[fig_id](exponents))]
        assert [tuple(map(float.hex, row)) for row in rows] == [
            tuple(map(float.hex, row)) for row in want]

    @pytest.mark.parametrize("fig_id", [1, 2, 3])
    def test_calls_independent_of_samples(self, tmp_path, python_calls,
                                          fig_id):
        def figure(samples):
            return functools.partial(run_figure, FigureSpec(
                id=fig_id, out_csv=str(tmp_path / "f.csv"), samples=samples))

        assert python_calls(figure(11)) == python_calls(figure(201))


class TestVerify:
    def test_clean_run(self):
        cfg = VerifyConfig(qubits=4, trials=25, exponents=(0.5, 2.0), seed=42,
                           tol=1e-9)
        res = run_verify(cfg)
        assert res.violations == 0
        assert set(res.stats) >= {"lemma_key_inequality", "pair_coa_polygamy",
                                  "pair_conc_monogamy", "concurrence_lower_AB",
                                  "negativity_upper_AB"}

    def test_tripartite_checks_present_for_five_qubits(self):
        cfg = VerifyConfig(qubits=5, trials=5, exponents=(1.0,), seed=1,
                           tol=1e-9)
        res = run_verify(cfg)
        assert "tripartite_lower_ABC1" in res.stats
        assert res.violations == 0

    def test_negative_tol_exercises_failure_path(self):
        # tol = -1 turns the violation threshold into slack < +1, so every
        # check whose slack sits below 1 (the lemma and pair inequalities
        # here) reports failures and the run exits nonzero
        cfg = VerifyConfig(qubits=4, trials=3, exponents=(1.0,), seed=4,
                           tol=-1.0)
        res = run_verify(cfg)
        assert res.violations > 0
        for name in ("lemma_key_inequality", "lemma_chain_order",
                     "pair_conc_monogamy"):
            assert res.stats[name].violations == res.stats[name].samples

    def test_deterministic_worst_slacks(self):
        cfg = VerifyConfig(qubits=4, trials=10, exponents=(1.0,), seed=9,
                           tol=1e-9)
        a = run_verify(cfg)
        b = run_verify(cfg)
        assert {k: v.worst_slack for k, v in a.stats.items()} == \
               {k: v.worst_slack for k, v in b.stats.items()}

    def test_csv_summary(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--qubits", "4", "--trials", "3",
                     "--exponents", "1", "--seed", "2", "--tol", "1e-9",
                     "--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,worst_slack,violations,samples"
        assert len(lines) > 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VerifyConfig(qubits=3)
        with pytest.raises(ValueError):
            VerifyConfig(trials=0)
        with pytest.raises(ValueError, match=r"^exponent must be in \[0, 2\], "
                                             r"got 2\.5$"):
            VerifyConfig(exponents=(0.5, 2.5))
        with pytest.raises(ValueError, match="^need at least one exponent$"):
            VerifyConfig(exponents=())
        cfg = VerifyConfig(exponents=[0.5, 1])
        assert cfg.exponents == (0.5, 1.0)
        assert [type(e) for e in cfg.exponents] == [float, float]

    @pytest.mark.parametrize("field, value", [
        ("qubits", 4.0), ("trials", 2.0), ("seed", 1.5), ("seed", "42"),
        ("trials", None)])
    def test_integer_fields(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            VerifyConfig(**{field: value})
        cfg = VerifyConfig(qubits=np.int64(5), trials=np.uint8(2),
                           seed=np.int32(7))
        assert (cfg.qubits, cfg.trials, cfg.seed) == (5, 2, 7)
        assert {type(v) for v in (cfg.qubits, cfg.trials, cfg.seed)} == {int}


class TestCheckStat:
    """A NaN slack is a violation, never a held inequality, and stays the
    worst slack once seen."""

    def test_nan_slack_fails_verify(self, monkeypatch, capsys):
        # a NaN in one chunk; then chunks of two trials, a NaN in the first
        # chunk's slacks and -5.0 in the second's
        sandwiches = bounds.cut_sandwiches
        for chunk, trials, marks, counts in (
                (cli.VERIFY_CHUNK, 2, [np.nan], "1/2"),
                (2, 3, [np.nan, -5.0], "2/3")):
            def marked(psi, exponents, marks=iter(marks)):
                slacks = sandwiches(psi, exponents)
                slacks["negativity_upper_AB"][0, 0] = next(marks)
                return slacks

            monkeypatch.setattr(cli, "VERIFY_CHUNK", chunk)
            monkeypatch.setattr(cli, "cut_sandwiches", marked)
            code = main(["verify", "--qubits", "4", "--trials", str(trials),
                         "--exponents", "1"])
            assert code == 1
            assert ("negativity_upper_AB   worst slack  nan  violations "
                    f"{counts}  [FAIL]") in capsys.readouterr().out


class TestChunkFold:
    """``VerifyResult.record_chunk`` folds a chunk's slacks of every check
    at once, and gives each check what the reference fold gives it alone."""

    TOL = 1e-9

    @classmethod
    def chunk(cls, gen, nan_checks, marked=False):
        # 1-D and 2-D slack arrays of random sizes, with exact -tol, -0.0
        # and +0.0 entries mixed in, and a NaN in each of ``nan_checks``;
        # ``marked`` starts and ends each check with its own violation, so
        # a segment boundary off by one moves a minimum and a count
        out = {}
        for k in range(8):
            shape = (int(gen.integers(1, 300)),)
            if k % 2:
                shape = (int(gen.integers(1, 5)),) + shape
            s = gen.normal(size=shape) * 1e-9
            flat = s.reshape(-1)
            for value in (-cls.TOL, -0.0, 0.0, -0.0):
                flat[gen.integers(flat.size)] = value
            if k in nan_checks:
                flat[gen.integers(flat.size)] = np.nan
            if marked:
                flat[[0, -1]] = -1e-3 * (k + 1)
            out[f"check{k}"] = s
        return out

    @pytest.mark.parametrize("nan_checks", [(), (0,), (3,), (7,), (0, 4, 7)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_one_check_at_a_time(self, nan_checks, seed):
        gen = np.random.default_rng(seed)
        folded, alone = VerifyResult(), {}
        for chunk in (self.chunk(gen, nan_checks),
                      self.chunk(gen, (), marked=True)):
            folded.record_chunk(chunk, self.TOL)
            for name, slacks in chunk.items():
                add(alone.setdefault(name, CheckStat(name)), slacks, self.TOL)
        assert list(folded.stats) == list(alone)
        for name, st in alone.items():
            got = folded.stats[name]
            assert (got.samples, got.violations, repr(got.worst_slack)) == \
                (st.samples, st.violations, repr(st.worst_slack))
            assert np.isnan(got.worst_slack) == (int(name[-1]) in nan_checks)

    def test_edge_slacks(self):
        res = VerifyResult()
        res.record_chunk({
            "at_tol": np.array([-self.TOL]),
            "below_tol": np.array([np.nextafter(-self.TOL, -1.0)]),
            "signed_zeros": np.array([[0.0, -0.0], [-0.0, 0.0]]),
            "nan": np.array([1.0, np.nan, -1.0])}, self.TOL)
        assert [(st.samples, st.violations) for st in res.stats.values()] \
            == [(1, 0), (1, 1), (4, 0), (3, 2)]
        assert res.stats["at_tol"].worst_slack == -self.TOL
        assert repr(res.stats["signed_zeros"].worst_slack) == repr(
            float(np.array([0.0, -0.0, -0.0, 0.0]).min()))
        assert np.isnan(res.stats["nan"].worst_slack)
        # a later equal minimum keeps the earlier one, a signed zero too
        for zero in (0.0, -0.0):
            res.record_chunk({"zeros": np.array([zero])}, self.TOL)
        assert repr(res.stats["zeros"].worst_slack) == "0.0"


def summary(res: VerifyResult) -> list[tuple]:
    return [(st.name, st.violations, st.samples, float(st.worst_slack).hex())
            for st in res.stats.values()]


class TestVerifyReference:
    @pytest.mark.parametrize("qubits, trials", [
        (4, 12), (5, 6), (6, 4), (4, 1), (6, 1),
        (4, 2 * cli.VERIFY_CHUNK + 1)])   # three chunks, the last of one trial
    @pytest.mark.parametrize("seed", [3, 17])
    def test_equals_per_function_loop(self, qubits, trials, seed):
        cfg = VerifyConfig(qubits=qubits, trials=trials, seed=seed,
                           exponents=(0.0, 0.5, 1.0, 1.5, 2.0))
        assert summary(run_verify(cfg)) == summary(per_function_verify(cfg))

    @pytest.mark.parametrize("workload", ["verify-4q", "verify-6q"])
    def test_check_names_match_benchmark_reference(self, workload, tmp_path,
                                                   capsys):
        # the result, the printed summary and the CSV name the checks in
        # the order of the committed reference (read only)
        ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
        out_csv = tmp_path / "checks.csv"
        res = run_verify(VerifyConfig(qubits=ref["qubits"], trials=1, seed=5))
        assert main(["verify", "--qubits", str(ref["qubits"]), "--trials",
                     "1", "--seed", "5", "--csv", str(out_csv)]) == 0
        printed = capsys.readouterr().out.splitlines()[:len(ref["checks"])]
        rows = out_csv.read_text().splitlines()[1:]
        assert list(res.stats) == ref["checks"]
        assert [line.split()[0] for line in printed] == ref["checks"]
        assert [row.split(",")[0] for row in rows] == ref["checks"]

    @pytest.mark.parametrize("workload", ["verify-4q", "verify-6q"])
    def test_benchmark_reference_batches(self, workload):
        # the benchmark's correctness gate on a few of its pool batches,
        # read from the committed reference without changing it
        ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
        for batch in (0, 1, 500, len(ref["worst_slack"]) - 1):
            res = run_verify(VerifyConfig(
                qubits=ref["qubits"], trials=ref["trials"],
                exponents=tuple(ref["exponents"]),
                seed=ref["base_seed"] + batch))
            assert list(res.stats) == ref["checks"]
            for k, st in enumerate(res.stats.values()):
                assert st.violations == ref["violations"][batch][k]
                assert st.samples == ref["samples"][k]
                assert abs(st.worst_slack - ref["worst_slack"][batch][k]) <= 1e-12


class TestRunBounds:
    def test_benchmark_fixed_state_reference(self):
        # the benchmark's fixed-state gate on every corpus call, read from
        # the committed reference without changing it: where the reference
        # records a raise, the call may raise or give the closed form
        ref = json.loads((REFERENCE_DIR / "fixed-state.json").read_text())
        assert len(ref["calls"]) == 257
        corpus = read_corpus()
        for key, want in ref["calls"]:
            kind, name, arg, *p_mode = key.split()
            path = CORPUS_DIR / f"{name}.state"
            try:
                if kind == "bounds":
                    rep, _, _ = run_bounds(str(path), arg, ref["exponent"],
                                           *p_mode)
                    got = [rep.lhs, rep.ours] + [rep.comparators[k]
                                                 for k in COMPARATOR_NAMES]
                else:
                    got = [optimize(corpus[name], arg,
                                    ref["exponent"]).best_value]
            except ValueError:
                assert "seed_error" in want, key
                continue
            expected = want.get("values", want.get("closed_form"))
            assert len(got) == len(expected), key
            assert all(abs(a - b) <= 1e-12 for a, b in zip(got, expected)), \
                (key, got, expected)

    def test_example1_reference_value(self, example1_spec_file):
        rep, lines, csv_row = run_bounds(example1_spec_file, "A|BC", 1.0,
                                         "0.6")
        assert abs(rep.ours - 0.87152) < 5e-6
        assert any("0.871515" in line for line in lines)

    def test_exponent_two_exact(self, example1_spec_file):
        rep, _, _ = run_bounds(example1_spec_file, "A|BC", 2.0, "auto")
        assert abs(rep.ours - 0.75) < 1e-12

    def test_p_one_mode(self, example1_spec_file):
        rep, _, _ = run_bounds(example1_spec_file, "A|BC", 1.0, "1")
        assert abs(rep.ours - rep.comparators["p1_specialization"]) < 1e-15

    def test_unknown_cut_label(self, example1_spec_file):
        with pytest.raises(ValueError):
            run_bounds(example1_spec_file, "A|BQ", 1.0, "auto")


# run_bounds text lines (after the state-path line) at exponent 1, p auto.
GOLDEN_AUTO_LINES = {
    "A|BC": [  # the figure-1 state; descending singletons are admissible
        "cut: A|BC   exponent: 1",
        "lhs  C^b(left|rest) = 0.866025403784",
        "ours (parametrized) = 0.866025403784   gap = 3.33066907388e-16",
        "p1_specialization   = 0.895907736197",
        "pow2_chain          = 0.914213562373",
        "beta_half_chain     = 0.957106781187",
        "trivial_sum         = 1.20710678119",
        "focus A: groups [(0,), (1,)] p = [0.5]",
    ],
    "AB|C1C2": [  # GHZ-4: equal pair CoA, so both foci fall back
        "cut: AB|C1C2   exponent: 1",
        "lhs  C^b(left|rest) = 1",
        "ours (parametrized) = 3.46410161514   gap = 2.46410161514",
        "p1_specialization   = 3.46410161514",
        "pow2_chain          = 3.17157287525",
        "beta_half_chain     = 3.5",
        "trivial_sum         = 6",
        "focus A: groups [(0, 1, 2)] p = [] (fallback to single group)",
        "focus B: groups [(0, 1, 2)] p = [] (fallback to single group)",
    ],
    # Bell(AB) x |00>: the zero-CoA partners trail, no p needed.  The bound
    # is an exact equality here (C(A|rest) = C_a(A, B) = 1), so the gap's
    # sign and size are round-off of the lhs and the pair spectrum.
    "A|BC1C2": [
        "cut: A|BC1C2   exponent: 1",
        "lhs  C^b(left|rest) = 1",
        "ours (parametrized) = 1   gap = -4.4408920985e-16",
        "p1_specialization   = 1",
        "pow2_chain          = 1",
        "beta_half_chain     = 1",
        "trivial_sum         = 1",
        "focus A: groups [(0,), (1,), (2,)] p = []",
    ],
}
# The matching CSV rows, and the header the bounds command writes above them.
GOLDEN_AUTO_CSV = {
    "A|BC": "A|BC,1,0.866025403784,0.866025403784,0.895907736197,"
            "0.914213562373,0.957106781187,1.20710678119,3.33066907388e-16",
    "AB|C1C2": "AB|C1C2,1,1,3.46410161514,3.46410161514,3.17157287525,3.5,6,"
               "2.46410161514",
    "A|BC1C2": "A|BC1C2,1,1,1,1,1,1,1,-4.4408920985e-16",   # exact equality
}
GOLDEN_CSV_HEADER = ("cut,exponent,lhs,ours,p1_specialization,pow2_chain,"
                     "beta_half_chain,trivial_sum,gap")
_TWO_TERM_SPEC = "qubits 4\namp 0 0.7071067811865475 0\namp {} 0.7071067811865475 0\n"


class TestRunBoundsGolden:
    @staticmethod
    def _state_path(tmp_path, example1_spec_file, cut):
        if cut == "A|BC":
            return example1_spec_file
        path = tmp_path / "s.state"
        path.write_text(_TWO_TERM_SPEC.format(15 if cut == "AB|C1C2" else 12),
                        encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("cut", list(GOLDEN_AUTO_LINES))
    def test_auto_report_lines(self, tmp_path, example1_spec_file, cut):
        path = self._state_path(tmp_path, example1_spec_file, cut)
        _, lines, _ = run_bounds(path, cut, 1.0, "auto")
        assert lines[1:] == GOLDEN_AUTO_LINES[cut]

    @pytest.mark.parametrize("cut", list(GOLDEN_AUTO_CSV))
    def test_csv_file(self, tmp_path, example1_spec_file, cut, capsys):
        path = self._state_path(tmp_path, example1_spec_file, cut)
        out = tmp_path / "row.csv"
        assert main(["bounds", "--state", path, "--cut", cut, "--exponent",
                     "1", "--csv", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            GOLDEN_CSV_HEADER + "\n" + GOLDEN_AUTO_CSV[cut] + "\n")


class TestMainExitCodes:
    def test_figure_ok(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        code = main(["figure", "--id", "1", "--out", str(out),
                     "--samples", "11"])
        assert code == 0 and out.exists()

    def test_verify_ok(self, capsys):
        code = main(["verify", "--qubits", "4", "--trials", "3",
                     "--exponents", "1", "--seed", "5", "--tol", "1e-9"])
        assert code == 0
        assert "all inequalities hold" in capsys.readouterr().out

    def test_verify_violation_exit_one(self, capsys):
        code = main(["verify", "--qubits", "4", "--trials", "2",
                     "--exponents", "1", "--seed", "5", "--tol", "-1"])
        assert code == 1

    def test_bounds_ok(self, example1_spec_file, capsys):
        code = main(["bounds", "--state", example1_spec_file, "--cut", "A|BC",
                     "--exponent", "1", "--p", "0.6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.871515" in out
        assert "cut,exponent,lhs,ours" in out

    def test_bounds_infeasible_p_exit_two(self, example1_spec_file, capsys):
        code = main(["bounds", "--state", example1_spec_file, "--cut", "A|BC",
                     "--exponent", "1", "--p", "0.3"])
        assert code == 2
        assert "minimal feasible p" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0.9,7", "0.9,nan"])
    def test_bounds_out_of_range_p_exit_two(self, example1_spec_file, p,
                                            capsys):
        # entries past the one level of A|BC are checked too
        code = main(["bounds", "--state", example1_spec_file, "--cut", "A|BC",
                     "--exponent", "1", "--p", p])
        assert code == 2
        assert "parameters must lie in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["1,1,1,1,1", "0.9,0.95,1,1,1"])
    def test_bounds_padded_p_ok(self, example1_spec_file, p, capsys):
        code = main(["bounds", "--state", example1_spec_file, "--cut", "A|BC",
                     "--exponent", "1", "--p", p])
        assert code == 0

    @pytest.mark.parametrize("cut", ["AA|BC", "A|BCC"])
    def test_bounds_repeated_cut_label_exit_two(self, example1_spec_file,
                                                cut, capsys):
        code = main(["bounds", "--state", example1_spec_file, "--cut", cut,
                     "--exponent", "1"])
        assert code == 2
        assert "repeats a label" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, args, error", [
        ("qubits 1\namp 0 1 0\namp 0 1 0\n", [], "line 3: duplicate index 0"),
        ("qubits 1\nqubits 1\n", [], "line 2: duplicate 'qubits' header"),
        ("qubits\n", [], "line 1: expected 'qubits <n>'"),
        ("qubits two\n", [], "line 1: bad qubit count 'two'"),
        ("qubits 7\n", [], "line 1: qubit count 7 out of range [1, 6]"),
        ("qubits 1\namp 0 1\n", [],
         "line 2: expected 'amp <index> <re> <im>'"),
        ("qubits 1\namp 0 one 0\n", [], "line 2: bad amp line 'amp 0 one 0'"),
        ("# no header\n", [], "line 1: missing 'qubits' header"),
        (None, [], "[Errno 2] No such file or directory: '{state}'"),
        ("qubits 2\namp 0 1 0\n", ["--cut", "AB"],
         "cut 'AB' must contain exactly one '|'"),
        ("qubits 2\namp 0 1 0\n", ["--p", "x"],
         "cannot parse p specification 'x'"),
    ], ids=["duplicate-index", "duplicate-header", "header-fields",
            "qubit-count", "qubit-range", "amp-fields", "amp-values",
            "no-header", "missing-file", "cut-bar", "p-text"])
    def test_bounds_parse_error_exit_two(self, tmp_path, spec, args, error,
                                         capsys):
        state = tmp_path / "bad.state"
        if spec is not None:
            state.write_text(spec, encoding="utf-8")
        code = main(["bounds", "--state", str(state), "--cut", "A|B",
                     "--exponent", "1", "--p", "auto", *args])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: {error.format(state=state)}\n")

    def test_bounds_unnormalized_message(self, tmp_path, capsys):
        spec = tmp_path / "long.state"
        spec.write_text("qubits 3\namp 0 1 0\namp 7 0.5 0\n", encoding="utf-8")
        code = main(["bounds", "--state", str(spec), "--cut", "A|BC",
                     "--exponent", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 1: state is not normalized: |psi| = "
            "1.118033988749895 (pass renormalize to accept)\n")

    def test_bounds_norm_at_the_tolerance(self, tmp_path, edge_spec, capsys):
        # a spec whose squared norm np.vdot reads inside the tolerance and
        # PureState outside it: the parser's error without the flag, and
        # a report of the rescaled state with it
        spec = tmp_path / "edge.state"
        spec.write_text(edge_spec[0], encoding="utf-8")
        argv = ["bounds", "--state", str(spec), "--cut", "A|B",
                "--exponent", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: line 1: state is not normalized: |psi| = "
            "1.0000000004999998 (pass renormalize to accept)\n")
        assert main(argv + ["--renormalize"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out.splitlines()[1:3] == [
            "cut: A|B   exponent: 1", "lhs  C^b(left|rest) = 0.479960954153"]

    @pytest.mark.parametrize("scale", ["1e-200", "1e200"])
    def test_bounds_renormalizes_tiny_or_huge_amplitudes(self, tmp_path,
                                                         scale, capsys):
        # the same report as the spec at unit scale
        reports = []
        for amp in (scale, "1"):
            spec = tmp_path / f"ghz-{amp}.state"
            spec.write_text(f"qubits 3\namp 0 {amp} 0\namp 7 {amp} 0\n",
                            encoding="utf-8")
            code = main(["bounds", "--state", str(spec), "--cut", "A|BC",
                         "--exponent", "1", "--renormalize"])
            assert code == 0
            reports.append(capsys.readouterr().out.splitlines()[1:])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("renormalize", [[], ["--renormalize"]],
                             ids=["strict", "renormalize"])
    @pytest.mark.parametrize("amp", ["nan 0", "inf 0", "-inf 0", "0 nan",
                                     "0 inf", "0 -inf"])
    def test_bounds_non_finite_amplitude_names_its_line(
            self, tmp_path, amp, renormalize, capsys):
        spec = tmp_path / "bad.state"
        spec.write_text(f"qubits 2\namp 0 {amp}\namp 3 1 0\n",
                        encoding="utf-8")
        code = main(["bounds", "--state", str(spec), "--cut", "A|B",
                     "--exponent", "1", *renormalize])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: line 2: amplitude must be finite: 'amp 0 {amp}'\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "--trials", "2", "--csv", "{missing}/v.csv"],
        ["figure", "--id", "1", "--out", "{missing}/f.csv"],
        ["figure", "--id", "2", "--out", "{tmp}/f.csv",
         "--svg", "{missing}/f.svg"],
        ["bounds", "--state", "{state}", "--cut", "A|BC", "--exponent", "1",
         "--csv", "{missing}/b.csv"],
        ["verify", "--trials", "2", "--csv", "{dir}"],
        ["figure", "--id", "1", "--out", "{dir}"],
        ["figure", "--id", "2", "--out", "{tmp}/f.csv", "--svg", "{dir}"],
    ], ids=["verify-csv", "figure-out", "figure-svg", "bounds-csv",
            "verify-csv-dir", "figure-out-dir", "figure-svg-dir"])
    def test_missing_output_directory_fails_before_the_work(
            self, tmp_path, monkeypatch, example1_spec_file, argv, capsys):
        # the message and exit code a write after the work gave, for a
        # path in a missing directory or over a directory, but the work
        # does not run, nothing is written and nothing is printed
        work = []
        for name in ("run_verify", "figure_rows", "run_bounds"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kw: (
                work.append(name)))
        (tmp_path / "dir").mkdir()
        argv = [arg.format(missing=tmp_path / "missing", tmp=tmp_path,
                           dir=tmp_path / "dir", state=example1_spec_file)
                for arg in argv]
        error = ("[Errno 21] Is a directory" if argv[-1].endswith("dir")
                 else "[Errno 2] No such file or directory")
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {error}: {argv[-1]!r}\n")
        assert work == [] and [p.name for p in tmp_path.rglob("*")] == ["dir"]

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--id", "9", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_bad_config_exit_two(self, capsys):
        code = main(["verify", "--qubits", "9"])
        assert code == 2

    @pytest.mark.parametrize("qubits, exponents, error", [
        ("4", "3", "exponent must be in [0, 2], got 3.0"),
        ("4", "0.5,nan", "exponent must be in [0, 2], got nan"),
        ("3", "1,x", "could not convert string to float: 'x'")])
    def test_bad_verify_exponent_exit_two(self, qubits, exponents, error,
                                          capsys):
        # verify's exponents go through the one rule that bounds --exponent
        # reads, so both print the same words; they are checked first
        assert main(["verify", "--qubits", qubits, "--trials", "1",
                     "--exponents", exponents]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_exit_two(self, tol, capsys):
        # a nan tol would make every slack < -tol comparison false
        code = main(["verify", "--qubits", "4", "--trials", "1",
                     "--exponents", "1", f"--tol={tol}"])
        assert code == 2
        assert "tol must be finite" in capsys.readouterr().err


class TestPurePathNoDensityRoute:
    """A pure state's pair measures read its cut matrices: no pair density
    matrix is checked and no eigendecomposition runs, in verify, the
    figures or a bounds report."""

    @pytest.fixture
    def forbidden(self, monkeypatch):
        def raising(*args, **kwargs):
            raise AssertionError("density route called on a pure state")

        monkeypatch.setattr(measures.np.linalg, "eigh", raising)
        monkeypatch.setattr(measures, "_check_density", raising)

    @pytest.mark.parametrize("qubits", [4, 5, 6])
    def test_verify(self, forbidden, qubits):
        res = run_verify(VerifyConfig(qubits=qubits, trials=3,
                                      exponents=(0.5, 1.0, 2.0), seed=7))
        assert len(res.stats) == (8 if qubits == 4 else 10)
        assert res.violations == 0

    def test_figures_and_bounds(self, forbidden):
        for fig_id in (1, 2, 3):
            figure_rows(fig_id, samples=11)
        run_bounds(str(CORPUS_DIR / "haar-5q-a.state"), "AB|C1C2C3", 1.0,
                   "auto")

    def test_guard_is_live(self, forbidden):
        with pytest.raises(AssertionError, match="density route"):
            measures.cren_crenoa_two_qubit(np.eye(4) / 4)
        with pytest.raises(AssertionError, match="density route"):
            measures.np.linalg.eigh(np.eye(4))


class TestOncePerState:
    """A report call resolves each focus once, whatever the number of
    exponents, and a report call or a verify chunk makes one pair measure
    call for all its foci, trials and checks."""

    @pytest.fixture
    def pair_calls(self, spy):
        return spy(bounds, "pair_measures_sq", lambda psi, focus: focus)

    @pytest.fixture
    def spectrum_calls(self, spy):
        return spy(measures, "_mu_spectrum", lambda v: v)

    @pytest.mark.parametrize("qubits, foci, partner_rows",
                             [(4, 2, 6), (5, 3, 12), (6, 3, 15)])
    def test_verify_trial(self, pair_calls, spectrum_calls, qubits, foci,
                          partner_rows):
        # foci A and B, plus C1 from 5 qubits, in one pair measure call and
        # one stacked spin-flip spectrum call on the pair cut matrices
        # (4 x 2^(n-2) each), whatever the number of trials; the foci read
        # partner_rows pair values per trial, but a pair of two foci is one
        # matrix: 5, 9 and 12 matrices per trial (of 6, 10 and 15 pairs)
        distinct = partner_rows - foci * (foci - 1) // 2
        assert distinct == {4: 5, 5: 9, 6: 12}[qubits]
        for trials in (1, 5):
            pair_calls.clear()
            spectrum_calls.clear()
            run_verify(VerifyConfig(qubits=qubits, trials=trials,
                                    exponents=(0.5, 1.0, 1.5, 2.0), seed=7))
            assert pair_calls == [("A", "B", "C1")[:foci]]
            [m] = spectrum_calls
            assert m.shape == (trials, distinct, 4, 2 ** (qubits - 2))
            psi = haar_random_pure(qubits, 7, stream=range(trials))
            index, _ = measures._pair_plan(psi.shape.labels, pair_calls[0])
            assert np.array_equal(m, psi.amplitudes[..., index])

    @pytest.mark.parametrize("qubits", [4, 6])
    def test_verify_chunk_set_up_once(self, spy, dense_calls, qubits):
        # a chunk draws its states and its lemma triples in one call each,
        # and every reduction and cut concurrence reads cut matrices of the
        # amplitudes, never a 2^n x 2^n projector
        calls = []
        for name in ("haar_random_pure", "lemma_chain_grid"):
            spy(cli, name, lambda *args, _name=name, **kwargs: _name, calls)
        for trials, chunks in ((1, 1), (cli.VERIFY_CHUNK, 1),
                               (2 * cli.VERIFY_CHUNK + 1, 3)):
            calls.clear()
            run_verify(VerifyConfig(qubits=qubits, trials=trials,
                                    exponents=(0.5, 2.0), seed=7))
            assert sorted(calls) == sorted(
                ["haar_random_pure", "lemma_chain_grid"] * chunks)
        assert dense_calls == []

    def test_reports_build_no_projector(self, dense_calls):
        for name, psi in read_corpus().items():
            labels = psi.shape.labels
            for k in range(1, min(len(labels), 4)):
                cut = "".join(labels[:k]) + "|" + "".join(labels[k:])
                for p_mode in ("auto", "1"):
                    run_bounds(str(CORPUS_DIR / f"{name}.state"), cut, 1.0,
                               p_mode)
        for fig_id in (1, 2, 3):
            figure_rows(fig_id, samples=11)
        assert dense_calls == []

    def test_figure(self, pair_calls, spectrum_calls):
        figure_rows(2, samples=11)
        assert pair_calls == [("A", "B")]
        [m] = spectrum_calls
        assert m.shape == (5, 4, 4)   # AB, AC1, AC2, BC1, BC2 cut matrices
        psi = wclass4_state(cli.FIG23_PARAMS)
        pairs = [("A", "B"), ("A", "C1"), ("A", "C2"), ("B", "C1"),
                 ("B", "C2")]
        assert np.array_equal(m, np.stack([measures._cut_matrix(psi, pair)
                                           for pair in pairs]))

    @pytest.mark.parametrize("qubits", [4, 5])
    def test_verify_checks_once_per_chunk(self, monkeypatch, spy, pair_calls,
                                          qubits):
        # three trials in chunks of two: each cut_sandwiches call (one per
        # chunk) checks its exponents in one call and makes one pair
        # measure per focus; no p is checked, no focus is resolved and no
        # report sweep or report is built (groupings are built only in
        # _focus)
        exponent_checks = spy(bounds, "_check_exponents")
        params_checks = spy(bounds, "_check_params")
        built = [spy(bounds, name) for name in
                 ("_focus", "_sweep", "BoundReport")]
        monkeypatch.setattr(cli, "VERIFY_CHUNK", 2)
        exponents = (0.5, 1.0, 1.5, 2.0)
        res = run_verify(VerifyConfig(qubits=qubits, trials=3,
                                      exponents=exponents, seed=7))
        assert exponent_checks == [(exponents,)] * 2
        assert pair_calls == [("A", "B", "C1")[:qubits - 2]] * 2
        assert params_checks == []
        assert built == [[], [], []]
        assert {st.samples for name, st in res.stats.items()
                if name.endswith(("_AB", "_ABC1"))} == {3 * len(exponents)}

    @pytest.mark.parametrize("qubits", [4, 5, 6])
    @pytest.mark.parametrize("trials", [1, 5, 64])
    def test_verify_chunk_fixed_costs_once(self, monkeypatch, qubits,
                                           trials):
        # one chunk: 5 power calls (C^2(A|rest), the AB|rest negativity,
        # heads and radicands, every cut's lhs, the Schmidt-pair factor)
        # of the one _pow under either module name, no generator built
        # (the process's one, built by its first draw, serves every draw)
        # and one AB|rest cut matrix for both AB sandwiches
        assert trials <= cli.VERIFY_CHUNK
        rng.raw_draws(1, 0)
        pows, philox, ab_gathers = [], [], []
        power, philox_class = measures._pow, np.random.Philox
        cut_index = measures._cut_index
        assert bounds._pow is power
        for module in (bounds, measures):
            monkeypatch.setattr(module, "_pow", lambda *args: (
                pows.append(args) or power(*args)))
        monkeypatch.setattr(np.random, "Philox", lambda *args, **kwargs: (
            philox.append(args) or philox_class(*args, **kwargs)))

        def index(shape, lefts):
            if lefts == (("A", "B"),):
                ab_gathers.append(lefts)
            return cut_index(shape, lefts)

        monkeypatch.setattr(measures, "_cut_index", index)
        run_verify(VerifyConfig(qubits=qubits, trials=trials, seed=7))
        assert len(pows) == 5
        assert philox == []
        assert len(ab_gathers) == 1

    def test_bad_exponent_exits_two_before_any_focus(
            self, pair_calls, example1_spec_file, capsys):
        code = main(["bounds", "--state", example1_spec_file, "--cut", "A|BC",
                     "--exponent", "3"])
        assert code == 2
        assert "exponent must be in [0, 2]" in capsys.readouterr().err
        assert pair_calls == []


class TestNoPerStateLoop:
    """A verify chunk makes the same Python-level calls, in every module,
    whatever the number of states it checks: its per-state work is all in
    numpy and LAPACK."""

    @staticmethod
    def verify_call(qubits: int, trials: int):
        return functools.partial(run_verify, VerifyConfig(
            qubits=qubits, trials=trials, exponents=(0.5, 1.0), seed=7))

    @pytest.mark.parametrize("qubits", [4, 5, 6])
    def test_one_chunk(self, python_calls, qubits):
        assert cli.VERIFY_CHUNK >= 64
        assert (python_calls(self.verify_call(qubits, 2))
                == python_calls(self.verify_call(qubits, 64)))


PINNED_COUNTS = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11) or not np.__version__.startswith("2.4."),
    reason="the counts include CPython 3.11's comprehension calls and "
           "numpy 2.4's Python-level wrappers")


@PINNED_COUNTS
class TestOneStateFixedCost:
    """What a one-state call costs beside the numpy and LAPACK work on the
    state it reads, pinned as the Python-level calls in every module of
    the ``single_calls`` that ``scripts/profile.py bounds`` counts: the
    file is read without pathlib, the spec's norm is PureState's one
    check, the cut is parsed once, the pair kernel gathers by its cached
    plan and its QR skips np.triu, a focus is resolved without
    per-partner generators and every value is formatted once; a cut's
    concurrence is ``pure_concurrence``'s check, then the label reader
    that ``cut_sandwiches`` shares."""

    @pytest.fixture
    def calls_of(self, profile_script, python_calls):
        return lambda name: python_calls(profile_script.single_calls()[name])

    def test_run_bounds_six_qubits_two_foci(self, calls_of):
        assert calls_of("run_bounds haar-6q-a AB|C1C2C3C4") == 165

    def test_run_bounds_three_qubits(self, calls_of):
        assert calls_of("run_bounds ghz-3q A|BC") == 109

    def test_optimize(self, calls_of):
        assert calls_of("optimize haar-6q-a A") == 50


@PINNED_COUNTS
class TestVerifyChunkFixedCost:
    """What a verify chunk costs beside the numpy and LAPACK work on its
    states, pinned as the Python-level calls in every module of one
    ``run_verify`` of 8 trials (``scripts/profile.py verify``'s count):
    each cut is read once, through ``cut_measures`` and the label reader
    of a left|rest concurrence, and each shared combine is evaluated
    once, with no cut record, closure or report built."""

    @pytest.mark.parametrize("qubits, calls", [(4, 116), (6, 152)])
    def test_run_verify(self, python_calls, qubits, calls):
        assert python_calls(functools.partial(run_verify, VerifyConfig(
            qubits=qubits, trials=8, seed=0))) == calls


class TestLevelsOncePerFocus:
    """A focus's group heads, tail ratios and p are resolved once, whatever
    the number of exponents; the sweep only evaluates the recursion and
    never goes through the public ``theta``."""

    def test_figure_heads_independent_of_samples(self, spy):
        foci = spy(bounds, "_focus")
        figure_rows(2, samples=11)
        few = len(foci)
        figure_rows(2, samples=51)
        assert few > 0
        assert len(foci) - few == few

    def test_no_public_theta_call(self, spy):
        theta = spy(bounds, "theta")
        for fig_id in (1, 2, 3):
            figure_rows(fig_id, samples=11)
        for qubits in (4, 5):
            run_verify(VerifyConfig(qubits=qubits, trials=2, seed=7))
        assert theta == []

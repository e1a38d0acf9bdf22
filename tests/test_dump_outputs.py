from itertools import combinations

from entbounds.bounds import SANDWICH_NAMES

from reference import load_script, read_corpus


def test_verify_section_shows_every_sandwich_bound():
    """At exponent 0 every sandwich slack is a constant (1 on AB|rest, 2
    on ABC1|rest), so a dump that only prints the worst slack over all
    exponents never shows the bounds; per exponent, each check must show
    a slack that differs from that constant."""
    out = []
    load_script("dump_outputs").dump_verify(out, trials=2)
    slacks = {}
    for line in out:
        if line.startswith("verify "):
            run = line.split(" exponent=")[0]
            continue
        name, _, _, slack = line.split()
        slacks.setdefault((run, name), set()).add(float.fromhex(slack))
    for qubits in (4, 5, 6):
        names = SANDWICH_NAMES if qubits >= 5 else SANDWICH_NAMES[:4]
        for seed in (3, 11):
            for name in names:
                values = slacks[(f"verify qubits={qubits} seed={seed}", name)]
                assert len(values) > 1, (qubits, seed, name)


def test_reports_section_reaches_every_report_function():
    """Each of the six report functions is called directly, and each
    returns reports (not only errors) on some corpus state and p spec."""
    out = []
    load_script("dump_outputs").dump_reports(out)
    reported = set()
    for line in out:
        if line.startswith("reports "):
            name = line.split()[2]
        elif line.startswith("  focus "):
            reported.add(name)
    assert reported == {"polygamy_bound_coa", "multi_partition_polygamy",
                        "monogamy_lower_AB", "polygamy_upper_AB",
                        "negativity_bounds_AB", "tripartite_bounds"}


def test_pairs_section_gives_every_focus_one_row():
    """Every focus of every corpus state has a row from its one-label call
    and from the two all-foci calls, and the three rows are equal."""
    out = []
    load_script("dump_outputs").dump_pairs(out)
    rows = {}
    for line in out:
        _, state, call, focus, values = line.split(" ", 4)
        rows.setdefault((state, focus), {})[call] = values
    assert len({state for state, _ in rows}) == 26
    for (state, focus), calls in rows.items():
        assert len(calls) == 3 and focus in calls, (state, focus)
        assert len(set(calls.values())) == 1, (state, focus)


def test_cuts_section_covers_every_cut_and_pair():
    """Every corpus state has a row for each cut labels[:k]|rest (k = 1..3)
    and each label pair; ``cut_measures`` and the one-cut readers agree,
    and every value is written by ``float.hex``."""
    out = []
    load_script("dump_outputs").dump_cuts(out)
    cuts, pairs = {}, {}
    for line in out:
        kind, state, name, values = line.split(" ", 3)
        if kind == "cut":
            together, one_by_one = values.split(" | ")
            assert together == one_by_one, (state, name)
            assert len(together.split()) == 3
            cuts.setdefault(state, []).append(name)
        else:
            assert kind == "pair" and len(values.split()) == 2
            pairs.setdefault(state, []).append(name)
        for value in values.replace(" | ", " ").split():
            assert float.fromhex(value).hex() == value
    corpus = read_corpus()
    assert sorted(cuts) == sorted(pairs) == [f"{name}.state" for name in corpus]
    for name, psi in corpus.items():
        labels = psi.shape.labels
        assert cuts[f"{name}.state"] == [
            "".join(labels[:k]) + "|" + "".join(labels[k:])
            for k in range(1, min(4, len(labels)))]
        assert pairs[f"{name}.state"] == [p + q
                                         for p, q in combinations(labels, 2)]


def test_sandwiches_section_covers_every_stack_and_bound():
    """Each of the six stacks (corpus and Haar, 4-6 qubits) shows every
    state's pair values, one line of each pair inequality's slacks and
    every bound's slacks at every exponent."""
    script = load_script("dump_outputs")
    out = []
    script.dump_sandwiches(out)
    seen, pairs = {}, {}
    for line in out:
        if line.startswith("sandwiches "):
            stack = line.split(" ", 1)[1]
            continue
        kind, rest = line.split(maxsplit=1)
        if kind == "pairs":
            pairs[stack] = pairs.get(stack, 0) + 1
            continue
        if kind.startswith("pair_"):
            exponent, slacks = None, rest
        else:
            exponent, slacks = rest.split(" ", 1)
            exponent = float(exponent)
        assert (kind, exponent) not in seen.get(stack, set())
        seen.setdefault(stack, set()).add((kind, exponent))
        assert len(slacks.split()) == pairs[stack]
    assert sorted(seen) == sorted(f"{kind} {n}q" for kind in ("corpus", "haar")
                                  for n in (4, 5, 6))
    for stack, bounds in seen.items():
        names = SANDWICH_NAMES[:4] if stack.endswith("4q") else SANDWICH_NAMES
        assert bounds == {("pair_coa_polygamy", None),
                          ("pair_conc_monogamy", None)} | {
            (name, e) for name in names for e in script.EXPONENTS}, stack


def test_theta_section_reaches_each_function_at_exponents_zero_and_two():
    """theta, chain_bound and lemma_rhs each return values (not only
    errors) at exponent 0 and at exponent 2 (x = 0 and x = 1 for the
    lemma), and each also shows an error."""
    out = []
    load_script("dump_outputs").dump_theta(out)
    values, errors = {}, set()
    for line in out:
        name, exponent, rest = line.split(" ", 2)
        if "Error: " in rest:
            errors.add(name)
        else:
            values.setdefault(name, set()).add(float(exponent))
    assert errors == {"theta", "chain_bound", "lemma_rhs"}
    assert {0.0, 2.0} <= values["theta"]
    assert {0.0, 2.0} <= values["chain_bound"]
    assert {0.0, 1.0} <= values["lemma_rhs"]


def test_cli_errors_section_shows_each_error_once():
    """Each input error of ``entbounds bounds`` appears on exactly one
    line, with exit code 2 and the temporary directory as <tmp>."""
    out = []
    load_script("dump_outputs").dump_cli_errors(out)
    errors = ["line 2: duplicate 'qubits' header",
              "line 1: expected 'qubits <n>'",
              "line 1: bad qubit count 'two'",
              "line 1: qubit count 7 out of range [1, 6]",
              "line 2: expected 'amp <index> <re> <im>'",
              "line 2: bad amp line 'amp 0 one 0'",
              "line 1: missing 'qubits' header",
              "[Errno 2] No such file or directory: '<tmp>/7.state'",
              "cut 'ABC' must contain exactly one '|'",
              "cannot parse p specification 'x'"]
    assert len(out) == len(errors)
    for error in errors:
        [line] = [line for line in out if line.endswith(f" error: {error}")]
        assert line.startswith("cli ") and " exit 2 error: " in line

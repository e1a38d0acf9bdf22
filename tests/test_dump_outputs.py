import importlib.util
from pathlib import Path

from entbounds.bounds import SANDWICH_NAMES

ROOT = Path(__file__).resolve().parents[1]


def load_dump_script():
    spec = importlib.util.spec_from_file_location(
        "dump_outputs", ROOT / "scripts" / "dump_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_section_shows_every_sandwich_bound():
    """At exponent 0 every sandwich slack is a constant (1 on AB|rest, 2
    on ABC1|rest), so a dump that only prints the worst slack over all
    exponents never shows the bounds; per exponent, each check must show
    a slack that differs from that constant."""
    out = []
    load_dump_script().dump_verify(out, trials=2)
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
    load_dump_script().dump_reports(out)
    reported = set()
    for line in out:
        if line.startswith("reports "):
            name = line.split()[2]
        elif line.startswith("  focus "):
            reported.add(name)
    assert reported == {"polygamy_bound_coa", "multi_partition_polygamy",
                        "monogamy_lower_AB", "polygamy_upper_AB",
                        "negativity_bounds_AB", "tripartite_bounds"}

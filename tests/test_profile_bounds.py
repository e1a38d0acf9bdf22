import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_profile_script():
    spec = importlib.util.spec_from_file_location(
        "profile_bounds", ROOT / "scripts" / "profile_bounds.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_every_stage_and_restores_the_package(capsys):
    from entbounds import bounds, cli, measures, optimizer
    script = load_profile_script()
    wrapped = [(owner, name, owner.__dict__[name])
               for _, names in script.STAGES for owner, name in names]
    assert len(script.corpus_calls()) == 257   # the benchmark's calls
    assert script.main(["--repeats", "1"]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert head.startswith("257 corpus calls: median pass ")
    shares, counts = rows[:len(script.STAGES) + 1], rows[len(script.STAGES) + 1:]
    assert [row.rsplit(None, 1)[0].strip() for row in shares] == [
        stage for stage, _ in script.STAGES] + ["other"]
    # a stage that no call reaches reads 0; each of these is reached
    assert all(float(row.rsplit(None, 1)[1].rstrip("%")) > 0
               for row in shares)
    assert [row.split(":")[0] for row in counts] == [
        "run_bounds haar-6q-a AB|C1C2C3C4", "run_bounds ghz-3q A|BC",
        "optimize haar-6q-a A"]
    assert all(row.endswith(" Python calls") for row in counts)
    assert all(owner.__dict__[name] is original
               for owner, name, original in wrapped)
    assert {bounds, cli, optimizer, measures.Bipartition} >= {
        owner for owner, _, _ in wrapped}

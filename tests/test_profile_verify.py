import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_profile_script():
    spec = importlib.util.spec_from_file_location(
        "profile_verify", ROOT / "scripts" / "profile_verify.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_every_stage_and_restores_the_package(capsys):
    from entbounds import bounds, cli, rng, states
    script = load_profile_script()
    wrapped = [(owner, name, owner.__dict__[name])
               for _, names in script.STAGES for owner, name in names]
    assert script.main(["--qubits", "5", "--trials", "3",
                        "--repeats", "3"]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert head.startswith("run_verify qubits=5 trials=3: ")
    assert [row.rsplit(None, 1)[0].strip() for row in rows] == [
        stage for stage, _ in script.STAGES] + ["other"]
    # a stage that no call reaches reads 0; each of these is reached
    assert all(float(row.rsplit(None, 1)[1].rstrip("%")) > 0 for row in rows)
    assert all(owner.__dict__[name] is original
               for owner, name, original in wrapped)
    assert {bounds, cli, rng, states.PureState, cli.VerifyResult} >= {
        owner for owner, _, _ in wrapped}

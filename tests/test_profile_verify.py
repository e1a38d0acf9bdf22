"""Checks of ``scripts/profile.py verify`` beyond the smoke test that
tests/test_profile.py runs on every subcommand."""

import functools

from entbounds.cli import VerifyConfig, run_verify


def test_verify_count_is_python_calls(profile_script, capsys):
    assert profile_script.main(["verify", "--qubits", "5", "--trials", "3",
                                "--repeats", "1"]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    cfg = VerifyConfig(qubits=5, trials=3, seed=0)
    count = profile_script.python_calls(functools.partial(run_verify, cfg))
    assert head.startswith(f"run_verify qubits=5 trials=3: {count} Python "
                           "calls; ")

"""Checks of ``scripts/profile.py bounds`` beyond the smoke test that
tests/test_profile.py runs on every subcommand."""


def test_corpus_calls_are_the_benchmarks(profile_script):
    assert len(profile_script.corpus_calls()) == 257

import pytest

from entbounds import bounds, cli, measures, optimizer, rng, states

# command: (argv, head line start, stage table, the owners it may wrap,
#           the names of the count lines after the stage rows)
COMMANDS = {
    "verify": (["verify", "--qubits", "5", "--trials", "3", "--repeats", "3"],
               "run_verify qubits=5 trials=3: ", "VERIFY_STAGES",
               {bounds, cli, rng, states.PureState, cli.VerifyResult}, []),
    "bounds": (["bounds", "--repeats", "1"], "257 corpus calls: median pass ",
               "BOUNDS_STAGES", {bounds, cli, optimizer, measures.Bipartition},
               ["run_bounds haar-6q-a AB|C1C2C3C4", "run_bounds ghz-3q A|BC",
                "optimize haar-6q-a A"]),
    "figure": (["figure", "--repeats", "1"], "3 figure tables: median pass ",
               "FIGURE_STAGES", {bounds, cli},
               [f"figure {i} at {samples} samples"
                for i in (1, 2, 3) for samples in (11, 201)]),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_prints_every_stage_and_restores_the_package(profile_script, capsys,
                                                     command):
    argv, head_start, table, owners, count_names = COMMANDS[command]
    stages = getattr(profile_script, table)
    wrapped = [(owner, name, owner.__dict__[name])
               for _, names in stages for owner, name in names]
    assert profile_script.main(argv) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert head.startswith(head_start)
    shares, counts = rows[:len(stages) + 1], rows[len(stages) + 1:]
    assert [row.rsplit(None, 1)[0].strip() for row in shares] == [
        stage for stage, _ in stages] + ["other"]
    # a stage that no call reaches reads 0; each of these is reached
    assert all(float(row.rsplit(None, 1)[1].rstrip("%")) > 0
               for row in shares)
    assert [row.split(":")[0] for row in counts] == count_names
    assert all(row.endswith(" Python calls") for row in counts)
    assert all(owner.__dict__[name] is original
               for owner, name, original in wrapped)
    assert owners >= {owner for owner, _, _ in wrapped}


def test_figure_calls_independent_of_samples(profile_script, capsys):
    # each figure's count at 11 samples equals its count at 201
    assert profile_script.main(["figure", "--repeats", "1"]) == 0
    counts = [int(row.split(": ")[1].split()[0])
              for row in capsys.readouterr().out.splitlines()
              if row.startswith("figure ")]
    assert len(counts) == 6
    assert counts[0::2] == counts[1::2]

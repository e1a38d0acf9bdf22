"""Smoke test of ``scripts/make_figures.py``."""

from entbounds.cli import FigureSpec, run_figure

from reference import load_script


def test_writes_the_three_figures(tmp_path, monkeypatch, capsys):
    # the script's CSV and SVG of each figure are what run_figure writes
    # for the same spec
    monkeypatch.chdir(tmp_path)
    assert load_script("make_figures").main(["--out-dir", "tmp",
                                             "--samples", "3"]) == 0
    written = sorted(path.name for path in (tmp_path / "tmp").iterdir())
    assert written == [f"figure{i}.{ext}" for i in (1, 2, 3)
                       for ext in ("csv", "svg")]
    assert capsys.readouterr().out.splitlines() == [
        f"figure {i}: tmp/figure{i}.csv tmp/figure{i}.svg" for i in (1, 2, 3)]
    for i in (1, 2, 3):
        run_figure(FigureSpec(id=i, out_csv=str(tmp_path / "ref.csv"),
                              out_svg=str(tmp_path / "ref.svg"), samples=3))
        for ext in ("csv", "svg"):
            assert ((tmp_path / "tmp" / f"figure{i}.{ext}").read_bytes()
                    == (tmp_path / f"ref.{ext}").read_bytes())

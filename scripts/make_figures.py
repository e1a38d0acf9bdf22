#!/usr/bin/env python3
"""Regenerate all three figure data files (CSV + SVG) into out/."""

import argparse
import sys
from pathlib import Path

from entbounds.cli import FigureSpec, run_figure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--samples", type=int, default=201)
    args = parser.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fig_id in (1, 2, 3):
        spec = FigureSpec(id=fig_id,
                          out_csv=str(out / f"figure{fig_id}.csv"),
                          out_svg=str(out / f"figure{fig_id}.svg"),
                          samples=args.samples)
        run_figure(spec)
        print(f"figure {fig_id}: {spec.out_csv} {spec.out_svg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

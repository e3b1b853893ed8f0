"""Resolution ladder for the mixed-signature worked example.

Certifies diag(2, -1) against the identity Kahler class on a ladder of grid
sizes, optionally seeding the potential with a cosine bump so the solver has
actual work to do.  The pairing (L . omega) = 4 is positive while L itself is
indefinite, so the class is exactly (n-1)-positive: the certificate margin
should stabilise at 2/3 as the grid refines, with the eigenvalue product
pinned at D_3 = 10/9 up to solver tolerance.

Example:
    python3 scripts/certify_worked_example.py --grids 16,32,64 --amplitude 0.1
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from qposlab import (
    ConstantHermitianClass,
    KahlerClass,
    PotentialField,
    TorusModel,
    one_positive_pipeline,
)
from qposlab.fields_io import write_heatmap_csv

LINE_CLASS = np.array([[2.0, 0.0], [0.0, -1.0]])
KAHLER = np.eye(2)


def run_once(grid: int, amplitude: float, axis: int, q: int | None):
    torus = TorusModel(n=2, grid_size=grid)
    psi0 = None
    if amplitude != 0.0:
        x = torus.real_coordinates()[axis]
        psi0 = PotentialField(torus, amplitude * np.cos(2.0 * np.pi * x))
    t0 = time.perf_counter()
    run = one_positive_pipeline(
        ConstantHermitianClass(LINE_CLASS),
        KahlerClass(KAHLER),
        psi0=psi0,
        torus=torus,
        q=q,
    )
    elapsed = time.perf_counter() - t0
    cert = run.certificate
    return {
        "grid": grid,
        "q": run.q,
        "k": run.k,
        "dk": run.dk,
        "pairing": run.pairing,
        "min_margin": cert.min_margin,
        "product_error": run.product_error,
        "ma_iterations": run.ma_result.iterations,
        "ma_residual": run.ma_result.residual,
        "passed": cert.passed,
        "seconds": elapsed,
    }, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grids", default="16,32,64", help="comma-separated grid sizes (powers of two)")
    ap.add_argument("--amplitude", type=float, default=0.1, help="cosine seed amplitude (0 disables the seed)")
    ap.add_argument("--axis", type=int, default=0, help="real coordinate axis of the cosine seed")
    ap.add_argument("--q", type=int, default=None, help="override the certified q (default n-1)")
    ap.add_argument("--out", default=None, help="directory for the finest-grid margin heatmap")
    args = ap.parse_args()

    grids = [int(g) for g in args.grids.split(",")]
    rows = []
    finest = None
    for grid in grids:
        row, finest = run_once(grid, args.amplitude, args.axis, args.q)
        rows.append(row)
    print(json.dumps(rows, indent=2, sort_keys=True))

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # the margin field of the last (finest) run, computed on this read
        write_heatmap_csv(out / "margin_heatmap.csv", finest.margin_field)

    return 0 if all(r["passed"] for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())

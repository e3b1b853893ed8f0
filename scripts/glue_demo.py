"""Glue a log-pole potential to a flat buffer and certify the three regions.

Builds the singular potential (w/2) log(sin^2 pi(x-cx) + sin^2 pi(y-cy)) on
the n = 1 torus (weight w on log|z - c| near the pole), glues it to the zero
buffer under the identity background, and
runs the threshold / glue / smooth / certify pipeline.  The report lists the
dyadic threshold, the smoothing epsilon the sweep settled on, both model
declarations, and the per-region eigenvalue margins (switching band
excluded).  A failed sweep exits 2 with the stuck region and grid point; a
region that holds no grid points is reported as failed and exits 1.

Example:
    python3 scripts/glue_demo.py --grid 64 --weight 0.05 --lower-bound 0.5
"""

import argparse
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from qposlab import (
    ConstantHermitianClass,
    PotentialField,
    SingularPotential,
    TorusModel,
    zariski_fujita_pipeline,
)
from qposlab.errors import PipelineFailure
from qposlab.fields_io import write_heatmap_csv


def log_trig_pole(torus: TorusModel, center: tuple[float, float], weight: float,
                  lower_bound: float) -> SingularPotential:
    x, y = torus.real_coordinates()
    radial = np.sin(np.pi * (x - center[0])) ** 2 + np.sin(np.pi * (y - center[1])) ** 2
    with np.errstate(divide="ignore"):
        values = (weight / 2.0) * np.log(radial)
    return SingularPotential(torus, values, lower_bound=lower_bound)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=64)
    ap.add_argument("--weight", type=float, default=0.05, help="pole weight of the log potential")
    ap.add_argument("--lower-bound", type=float, default=0.5, help="declared Kahler lower bound off the poles")
    ap.add_argument("--center", type=float, nargs=2, default=(0.5, 0.5), metavar=("CX", "CY"))
    ap.add_argument("--margin", type=float, default=0.0, help="required eigenvalue margin per region")
    ap.add_argument("--eps-min", type=float, default=2.0**-20, help="floor of the dyadic smoothing sweep")
    ap.add_argument("--out", default=None, help="directory for the glued-potential heatmap")
    args = ap.parse_args()

    torus = TorusModel(n=1, grid_size=args.grid)
    singular = log_trig_pole(torus, tuple(args.center), args.weight, args.lower_bound)
    phi_b = PotentialField.zero(torus)

    try:
        report = zariski_fujita_pipeline(
            ConstantHermitianClass(np.eye(1)),
            phi_b,
            singular,
            margin=args.margin,
            eps_min=args.eps_min,
        )
    except PipelineFailure as exc:
        print(json.dumps({"passed": False, "region": exc.region,
                          "worst_point": exc.worst_point, "error": str(exc)}, indent=2))
        return 2

    verdict = {
        "passed": report.passed,
        "threshold": report.result.threshold,
        "smoothing_eps": report.result.smoothing_eps,
        "declarations": report.declarations,
        "regions": [asdict(c) for c in report.certificates],
    }
    print(json.dumps(verdict, indent=2, sort_keys=True))

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_heatmap_csv(out / "psi_heatmap.csv", report.result.psi.values)

    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

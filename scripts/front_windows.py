"""Fit the pulled-front speed of the chi = 0 scenario over trailing
windows [t0, t_end].  The fitted speed creeps toward 2 from below as
the window moves out; the deficit at accessible times is dominated by
the logarithmic front-position correction, so even the latest window
sits a few percent low.

    python scripts/front_windows.py --starts "4,6,8,10,12,14"
"""

import argparse
import sys

import numpy as np

from kslogistic.diagnostics import estimate_speed
from kslogistic.harness import run
from kslogistic.scenario import bundled_scenario_path, load_scenario


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="fisher_1d")
    ap.add_argument("--starts", default="4,6,8,10,12,14")
    args = ap.parse_args(argv)

    scenario = load_scenario(bundled_scenario_path(args.scenario))
    report = run(scenario)
    if report.abort is not None:
        print(f"run aborted: {report.abort['message']}")
        return 1

    trace = report.times, report.series["front_radius"], report.series["front_valid"]
    t_end = float(report.times[-1])
    print(f"{args.scenario}: window -> fitted speed (target 2 as t -> inf)")
    for t0 in (float(tok) for tok in args.starts.split(",") if tok.strip()):
        est = estimate_speed(*trace, window=(t0, t_end))
        # expected deficit from the (3/2) ln t front lag across the window
        lag = 1.5 * (np.log(t_end) - np.log(t0)) / (t_end - t0)
        print(
            f"  [{t0:5.1f}, {t_end:g}]: {est.speed:.4f} +/- {est.stderr:.4f} "
            f"({est.n_samples} pts), log-lag prediction {2.0 - lag:.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

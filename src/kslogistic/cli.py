"""Command line front end.

Subcommands: run, sweep, classify, verify-all, scenarios.  Output goes
under --out, else $KSLOGISTIC_OUTDIR, else ./out.  Exit status is 0
only when every asserted verdict passed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .grid import DIMS
from .harness import (
    HarnessError,
    output_root,
    run_experiment,
    sweep,
    write_sweep_csv,
)
from .params import Params
from .reference import classify, cstar_lower_bound_formula
from .scenario import (
    ScenarioError,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
)

__all__ = ["main"]


def _resolve_scenario(token: str):
    path = Path(token)
    if path.suffix in (".yaml", ".yml") or path.exists():
        return load_scenario(path)
    return load_scenario(bundled_scenario_path(token))


def _print_report(report, paths) -> None:
    print(f"scenario {report.scenario.name}: {len(report.times)} samples, "
          f"{report.wall_time:.2f} s")
    if report.abort is not None:
        print(f"  ABORT {report.abort['kind']} at t={report.abort['t']:.6g}: "
              f"{report.abort['message']}")
    for ev in report.events:
        if ev["kind"] != "abort":
            print(f"  event t={ev['t']:.6g} {ev['kind']}: {ev['message']}")
    measured = [(e, t) for t, e in zip(report.times, report.series["time_error"]) if not math.isnan(e)]
    if measured:
        e, t = max(measured)
        print(f"  local time error estimate: largest {e:.3g} at t={t:.6g}")
    if report.speed is not None:
        s = report.speed
        print(f"  front speed {s['speed']:.6g} +/- {s['stderr']:.2g} "
              f"over t in [{s['window'][0]:g}, {s['window'][1]:g}]")
    for v in report.checks:
        tag = "PASS" if v.passed else "FAIL"
        role = "asserted" if v.asserted else "informational"
        print(f"  [{tag}] {v.name} ({role}, margin {v.margin:.3g}): {v.detail}")
    print(f"  wrote {paths['report']}")
    print(f"  overall: {'ok' if report.ok else 'FAILED'}")


def _cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    report, paths = run_experiment(scenario, outdir=args.out, force=args.force)
    if args.json:
        print(paths["report"].read_text(), end="")
    else:
        _print_report(report, paths)
    return 0 if report.ok else 1


def _parse_values(text: str) -> list:
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            vals.append(float(tok))
    return vals


def _cmd_sweep(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    values = _parse_values(args.values)
    slug = args.axis.replace(".", "_")
    root = output_root(args.out) / f"{scenario.name}_sweep_{slug}"
    csv_path = root / "sweep.csv"
    if csv_path.exists() and not args.force:
        raise HarnessError(f"{csv_path} exists; pass --force to overwrite")
    rows = sweep(scenario, args.axis, values, workers=args.workers)
    root.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, args.axis, csv_path)
    all_ok = True
    for row in rows:
        ok = row["status"] == "ok"
        all_ok &= ok
        speed = row["speed"]
        speed_txt = "-" if speed is None else f"{speed:.4g}"
        print(f"  {args.axis}={row['value']:<10g} {row['status']:<13} "
              f"speed={speed_txt:<8} {row['message']}")
    print(f"wrote {csv_path}")
    return 0 if all_ok else 1


def _cmd_classify(args) -> int:
    p = Params(chi=args.chi, a=args.a, b=args.b, dim=args.dim)
    rep = classify(p)
    floor = cstar_lower_bound_formula(p)
    if args.json:
        out = rep.to_dict()
        out["cstar_floor"] = floor
        print(json.dumps(out, indent=2))
        return 0
    d = rep.to_dict()
    print(f"chi={p.chi:g} a={p.a:g} b={p.b:g} dim={p.dim}")
    for key in ("global_exists", "global_bounded", "moment_route_bounded",
                "stability", "spreading"):
        print(f"  {key}: {d[key]}")
    print(f"  max_safe_r: {d['max_safe_r']}")
    print(f"  cstar_floor: {'undefined' if floor is None else f'{floor:.6g}'}")
    for name, val in d["thresholds"].items():
        print(f"  threshold {name}: {val:g}")
    return 0


def _cmd_verify_all(args) -> int:
    from .acceptance import run_all

    results = run_all(names=args.only, echo=print)
    return 0 if all(r.passed for r in results) else 1


def _cmd_scenarios(_args) -> int:
    for name in bundled_scenario_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kslogistic",
        description=(
            "Spectral simulator for the chemotaxis-logistic system "
            "u_t = lap u - chi div(u grad v) + u (a - b u), "
            "0 = lap v + u - v, on periodic boxes."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write outputs")
    p_run.add_argument("scenario", help="scenario file path or bundled name")
    p_run.add_argument("--out", default=None, help="output root directory")
    p_run.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
    p_run.add_argument("--json", action="store_true",
                       help="print the full report as JSON")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun a scenario over one axis")
    p_sweep.add_argument("scenario", help="scenario file path or bundled name")
    p_sweep.add_argument("--axis", required=True,
                         help="dotted field path, e.g. params.chi")
    p_sweep.add_argument("--values", required=True,
                         help="comma separated numbers")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--force", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cls = sub.add_parser("classify", help="report the parameter regime")
    p_cls.add_argument("--chi", type=float, required=True)
    p_cls.add_argument("--a", type=float, required=True)
    p_cls.add_argument("--b", type=float, required=True)
    p_cls.add_argument("--dim", type=int, default=1, choices=DIMS,
                       help="spatial dimension N of R^N")
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=_cmd_classify)

    p_ver = sub.add_parser("verify-all",
                           help="run the full acceptance suite")
    p_ver.add_argument("--only", nargs="+", default=None,
                       help="criterion names to run (default: all)")
    p_ver.set_defaults(func=_cmd_verify_all)

    p_ls = sub.add_parser("scenarios", help="list bundled scenarios")
    p_ls.set_defaults(func=_cmd_scenarios)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, HarnessError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

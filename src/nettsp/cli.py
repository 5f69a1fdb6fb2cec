"""Command line front end: tsp run / gen / validate / oracle."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NetTspError
from .io import FORMATS, KINDS, generate_instance, load_instance, save_points_csv
from .runner import MODES, SOLVER_KEYS, render_report, run


def _add_solver_args(p):
    """Solver flags; one left out is not passed on, so SolveParams' default holds."""
    p.add_argument("--eps", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--m-cap", dest="m_cap", type=int)
    p.add_argument("--guesses", type=int)
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(prog="tsp", description="metric TSP toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a pipeline mode and emit a report")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--format", required=True, choices=FORMATS)
    p_run.add_argument("--mode", required=True, choices=MODES)
    _add_solver_args(p_run)
    p_run.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen", help="generate an instance as CSV points")
    p_gen.add_argument("--kind", required=True, choices=KINDS)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="check that a file is a valid metric instance")
    p_val.add_argument("--instance", required=True)
    p_val.add_argument("--format", required=True, choices=FORMATS)

    p_orc = sub.add_parser("oracle", help="exact optimum for small instances")
    p_orc.add_argument("--instance", required=True)
    p_orc.add_argument("--format", required=True, choices=FORMATS)
    p_orc.add_argument("--seed", type=int, default=0)
    p_orc.add_argument("--out", default=None)
    return parser


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            if args.kind == "matrix_random_metric":
                space = generate_instance(args.kind, args.n, args.seed)
                payload = {"matrix": space.matrix.tolist()}
                _emit(json.dumps(payload) + "\n", args.out)
            else:
                space = generate_instance(args.kind, args.n, args.seed)
                save_points_csv(space, args.out)
            return 0

        space = load_instance(args.instance, args.format)   # raises on every failed check
        if args.command == "validate":
            print("pass")
            return 0

        config = {"space": space, "seed": args.seed}
        if args.command == "oracle":
            config["mode"] = "oracle"
        else:
            config["mode"] = args.mode
            for key in SOLVER_KEYS:
                val = getattr(args, key)
                if val is not None:
                    config[key] = val
        report = run(config)
        _emit(render_report(report), getattr(args, "out", None))
        return 0
    except NetTspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: simulate, train, evaluate, trace, oracle.

Exit code 0 on success; failures print one machine-readable line
`ERROR {...json...}` to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import experiment, lsm, policy_io, snell
from .regression import BACKEND_KINDS


def _load_config(args) -> experiment.ExperimentConfig:
    if getattr(args, "config", None):
        config = experiment.load_config(args.config)
    else:
        config = experiment.ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(
            config, params=dataclasses.replace(config.params, seed=args.seed)
        )
    if getattr(args, "backend", None) is not None:
        config = dataclasses.replace(
            config, backend=dataclasses.replace(config.backend, kind=args.backend)
        )
    if getattr(args, "paired", None) is not None:
        config = dataclasses.replace(config, paired=args.paired)
    return config


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    n = args.n if args.n is not None else config.n_train
    domain = {"train": experiment.DOMAIN_TRAIN, "test": experiment.DOMAIN_TEST}[args.domain]
    batch = experiment.generate_paths(
        config.params, n, domain, fixed_v0=config.fixed_v0
    )
    experiment.write_output_dir(
        args.out, {"paths.csv": experiment.render_paths_csv(batch, config)}
    )
    print(f"wrote {Path(args.out) / 'paths.csv'} ({n} paths, horizon {config.params.horizon})")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    if args.paths:
        batch = experiment.load_paths_csv(args.paths)
        policy = lsm.train(
            batch.h, config.backend, metadata={"seed": config.params.seed}
        )
    else:
        policy, _ = experiment.train_policy(config)
    experiment.write_output_dir(args.out, {"policy.txt": policy_io.policy_to_text(policy)})
    print(f"wrote {Path(args.out) / 'policy.txt'} (horizon {policy.horizon})")
    return 0


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    policy = policy_io.load_policy(args.policy)
    report, _ = experiment.evaluate_policy(config, policy)
    files = experiment.render_evaluation(report, config)
    experiment.write_output_dir(args.out, files)
    print(
        f"mean_algorithmic={report.mean_algorithmic!r} "
        f"mean_myopic={report.mean_myopic!r} "
        f"mean_difference={report.mean_difference!r}"
    )
    print(f"wrote {len(files)} files to {args.out}")
    return 0


def _cmd_trace(args) -> int:
    config = _load_config(args)
    trials = args.trial or [0]
    config = dataclasses.replace(config, trace_trials=tuple(trials))
    batch = experiment.generate_paths(
        config.params, config.n_test, experiment.DOMAIN_TEST, fixed_v0=config.fixed_v0
    )
    files = {f"trace_{i}.csv": experiment.render_trace(batch, i, config) for i in trials}
    experiment.write_output_dir(args.out, files)
    print(f"wrote {len(files)} trace files to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    problem = snell.load_problem(args.problem)
    solution = snell.backward_induction(problem)
    print(f"root_value={solution.root_value!r}")
    if args.out:
        sizes = [len(h) for h in problem.payoffs]
        table = experiment._table(
            None,
            {
                "t": np.repeat(np.arange(len(sizes)), sizes),
                "node": np.concatenate([np.arange(n) for n in sizes]),
                "exit_payoff": np.concatenate(problem.payoffs),
                "envelope": np.concatenate(solution.values),
                "stop": np.concatenate(solution.stop),
            },
        )
        text = table + f"# root_value,{solution.root_value!r}\n"
        experiment.write_output_dir(args.out, {"solution.csv": text})
        print(f"wrote {Path(args.out) / 'solution.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optstop",
        description="Purchase-timing policies against a personalized-pricing seller.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument(
            "--backend", choices=BACKEND_KINDS,
            help="override the regression backend",
        )
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("simulate", help="generate sample paths as CSV")
    common(p)
    p.add_argument("--n", type=int, help="number of paths (default: config n_train)")
    p.add_argument("--domain", choices=["train", "test"], default="train")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train a stopping policy")
    common(p)
    p.add_argument("--paths", help="ingest a paths CSV instead of simulating")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a policy against the myopic baseline")
    common(p)
    p.add_argument("--policy", required=True, help="policy file from `train`")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--paired", dest="paired", action="store_true", default=None,
        help="myopic baseline on identical test paths (default)",
    )
    mode.add_argument(
        "--independent", dest="paired", action="store_false",
        help="myopic baseline on a disjoint test batch",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("trace", help="single-path diagnostic table")
    common(p)
    p.add_argument(
        "--trial", type=int, action="append",
        help="test-path index to trace (repeatable; default 0)",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("oracle", help="exact stopping solution of a finite-tree fixture")
    p.add_argument("--problem", required=True, help="JSON finite-tree problem file")
    p.add_argument("--out", help="output directory for the solution table")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface one machine-readable line and fail
        print(
            "ERROR " + json.dumps({"type": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())

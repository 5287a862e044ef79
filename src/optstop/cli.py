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

from . import experiment, policy_io, snell
from .regression import BACKEND_KINDS


def _with_seed(config: experiment.ExperimentConfig, seed: int) -> experiment.ExperimentConfig:
    return dataclasses.replace(config, params=dataclasses.replace(config.params, seed=seed))


def _load_config(args) -> tuple[experiment.ExperimentConfig, str | None]:
    """The command's config, its --config file parsed once, and how the
    command states its seed, None where it takes the default; a --config
    file states one only if its model object holds seed."""
    config, stated = experiment.ExperimentConfig(), None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        config = experiment.ExperimentConfig.from_dict(d)
        if "seed" in d.get("model", {}):
            stated = f"the seed {config.params.seed} of --config {args.config}"
    if args.seed is not None:
        config, stated = _with_seed(config, args.seed), f"--seed {args.seed}"
    return config, stated


def _cmd_simulate(args) -> int:
    config, _ = _load_config(args)
    batch = experiment.generate_paths(config.params, config.n_train, experiment.DOMAIN_TRAIN)
    experiment.write_output_dir(args.out, {"paths.csv": experiment.render_paths_csv(batch, config)})
    print(f"wrote {Path(args.out) / 'paths.csv'} ({batch.n_paths} paths, horizon {batch.horizon})")
    return 0


def _cmd_train(args) -> int:
    config, stated = _load_config(args)
    if args.backend is not None:
        config = dataclasses.replace(
            config, backend=dataclasses.replace(config.backend, kind=args.backend)
        )
    batch = None
    if args.paths:
        # The seed recorded is the one that made the paths, from the file's
        # config echo; a seed the command states must be the same. The
        # loader holds the file's horizon T to the echo's.
        seed, _ = experiment.paths_csv_echo(args.paths)
        if seed is None:
            seed = config.params.seed
        elif config.params.seed != seed and stated:
            raise ValueError(
                f"{stated} differs from the seed {seed} in the config echo of {args.paths}"
            )
        config = _with_seed(config, seed)
        batch = experiment.load_paths_csv(args.paths)
    policy, _ = experiment.train_policy(config, batch)
    experiment.write_output_dir(args.out, {"policy.txt": policy_io.policy_to_text(policy)})
    print(f"wrote {Path(args.out) / 'policy.txt'} (horizon {policy.horizon})")
    return 0


def _cmd_evaluate(args) -> int:
    config, _ = _load_config(args)
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
    config, _ = _load_config(args)
    trials = args.trial or [0]
    for i in trials:  # before the test paths are drawn and priced
        experiment.check_index("trace trial", i, config.n_test)
    traced = dict.fromkeys(trials)  # only these test paths are drawn, each once
    batch = experiment.generate_paths(
        config.params, config.n_test, experiment.DOMAIN_TEST, list(traced)
    )
    files = {
        f"trace_{i}.csv": experiment.render_trace(batch, row, config)
        for row, i in enumerate(traced)
    }
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

    def common(p):
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="write the training paths that `train` draws, as CSV")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train a stopping policy")
    common(p)
    p.add_argument("--backend", choices=BACKEND_KINDS, help="override the regression backend")
    p.add_argument("--paths", help="ingest a paths CSV instead of simulating")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a policy against the myopic baseline")
    common(p)
    p.add_argument("--policy", required=True, help="policy file from `train`")
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
        if args.out:  # before any work, so a taken --out wastes none
            experiment.check_output_dir(args.out)
        return args.func(args)
    except Exception as exc:  # surface one machine-readable line and fail
        print(
            "ERROR " + json.dumps({"type": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Mutation gate: single fixed-seed mutations of a paths CSV, a policy and an
oracle problem, each run through the CLI under the error-line contract of
test_cli.cli_outcome (exit 0 and a silent stderr, or exit 1 and one ERROR
line of a ValueError), with every warning an error."""

import hashlib
import json
import random

import pytest

from optstop import snell
from optstop.model import ModelParams
from optstop.policy_io import FORMAT_LINE
from test_cli import cli_outcome

# Each input takes this many mutations, drawn from one fixed seed.
MUTATIONS = 200
SEED = 20240601

# What a mutated JSON value becomes: every JSON type, the edges of the
# numbers, and the non-finite numbers Python's json reads.
JSON_VALUES = [
    0, -1, 1, 0.5, 2, 1e308, -1e308, 1e-320, 2**63, -0.0,
    float("nan"), float("inf"), "x", True, None, [], {},
]
# What a mutated paths CSV field becomes.
CSV_FIELDS = [
    "", "abc", "nan", "inf", "-1", "0", "-0.0", "1e308", "-1e308", "1e-320",
    "2.5", "9223372036854775807", "9223372036854775808", "1_0", " 1",
]


def leaves(value, path=()):
    """(path, value) of every scalar in a decoded JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, (*path, key))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from leaves(item, (*path, k))
    else:
        yield path, value


def sites(document) -> list[list[tuple]]:
    """The leaf paths of document, grouped by their first two keys (an
    epoch's array, say), so that a short array is mutated as often as a
    long one."""
    groups: dict[tuple, list[tuple]] = {}
    for path, _ in leaves(document):
        groups.setdefault(path[:2], []).append(path)
    return list(groups.values())


def replaced(document, path, value):
    """A copy of document with the leaf at path set to value."""
    document = json.loads(json.dumps(document))
    *head, last = path
    parent = document
    for key in head:
        parent = parent[key]
    parent[last] = value
    return document


def mutate_csv(lines: list[str], rng: random.Random) -> list[str]:
    """lines (config echo and header first) with one field of a data row
    changed, or that row deleted or duplicated."""
    lines = list(lines)
    k = rng.randrange(2, len(lines))
    kind = rng.choice(["field", "delete", "duplicate"])
    if kind == "delete":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    else:
        fields = lines[k].rstrip("\n").split(",")
        fields[rng.randrange(len(fields))] = rng.choice(CSV_FIELDS)
        lines[k] = ",".join(fields) + "\n"
    return lines


def signed(payload: dict) -> str:
    """A policy file holding payload, with a checksum that matches it."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{FORMAT_LINE}\nsha256 {hashlib.sha256(text.encode('utf-8')).hexdigest()}\n{text}\n"


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 20-path config, its simulated paths CSV and its trained policy."""
    root = tmp_path_factory.mktemp("small")
    config = root / "config.json"
    config.write_text(json.dumps({"n_train": 20, "n_test": 20, "model": {"horizon": 5}}))
    assert cli_outcome(["simulate", "--config", str(config), "--out", str(root / "sim")]) == (0, None)
    assert cli_outcome(["train", "--config", str(config), "--out", str(root / "fit")]) == (0, None)
    return config, root / "sim" / "paths.csv", root / "fit" / "policy.txt"


def test_paths_csv_mutations_hold_the_contract(small, tmp_path):
    config, csv, _ = small
    lines = csv.read_text().splitlines(keepends=True)
    rng = random.Random(SEED)
    for k in range(MUTATIONS):
        file = tmp_path / f"paths{k}.csv"
        file.write_text("".join(mutate_csv(lines, rng)))
        argv = ["train", "--paths", str(file), "--config", str(config), "--out", str(tmp_path / f"o{k}")]
        cli_outcome(argv)


def test_policy_payload_mutations_hold_the_contract(small, tmp_path):
    config, _, policy = small
    payload = json.loads(policy.read_text().split("\n", 2)[2])
    groups = sites(payload)
    rng = random.Random(SEED)
    for k in range(MUTATIONS):
        path = rng.choice(rng.choice(groups))
        file = tmp_path / f"policy{k}.txt"
        file.write_text(signed(replaced(payload, path, rng.choice(JSON_VALUES))))
        argv = ["evaluate", "--policy", str(file), "--config", str(config), "--out", str(tmp_path / f"o{k}")]
        cli_outcome(argv)


def test_oracle_problem_mutations_hold_the_contract(tmp_path):
    problem = snell.discretize_consumer_problem(ModelParams(horizon=2), levels=3).to_dict()
    groups = sites(problem)
    rng = random.Random(SEED)
    for k in range(MUTATIONS):
        path = rng.choice(rng.choice(groups))
        file = tmp_path / f"problem{k}.json"
        file.write_text(json.dumps(replaced(problem, path, rng.choice(JSON_VALUES))))
        cli_outcome(["oracle", "--problem", str(file), "--out", str(tmp_path / f"o{k}")])

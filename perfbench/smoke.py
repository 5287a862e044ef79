"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 perfbench/smoke.py

Checks that every workload reports exactly the metrics BENCHMARK.json names,
each with its unit, in both modes; that the end-to-end times are corrected
for host speed; that traced self times sum to no more than
the traced wall time; and that a corrupted output (a truncated policy file)
is counted as a failed operation instead of crashing the run. Exits nonzero
on the first problem found.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "reference": {"n_train": 40, "n_test": 60},
    "train_csv": {"n_paths": 60},
    "oracle_lattice": {"n_paths": 20_000, "cases": [[4, 2]]},
}
SEED = 3
SECONDS = 0.5
OUT = run.OUT / "smoke"


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke FAIL: {message}")


def check_metrics(spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for name, sizes in TINY.items():
            result, record = run.run_benchmark(name, SEED, SECONDS, trace, sizes, out=OUT)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0, f"{label}: {record['errors']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: metrics differ from BENCHMARK.json {key}: "
                   f"missing {sorted(wanted.keys() - got.keys())}, "
                   f"extra {sorted(got.keys() - wanted.keys())}, "
                   f"units {[k for k in wanted.keys() & got.keys() if wanted[k] != got[k]]}")
            for k, v in result["metrics"].items():
                expect(isinstance(v["value"], (int, float)) and v["value"] == v["value"],
                       f"{label}: {k} is not a number")
            if trace:
                self_s = record["self_s_total"]
                expect(min(self_s.values()) >= -1e-9, f"{label}: negative self time {self_s}")
                total, wall = sum(self_s.values()), sum(record["samples"]["traced_wall_s"])
                expect(total <= wall, f"{label}: self times {total} exceed traced wall {wall}")
            else:
                samples = record["samples"]
                expect(len(samples.get("host_speed", [])) == len(samples["wall_s"]),
                       f"{label}: wall_s not corrected for host speed")
            print(f"smoke ok: {label}", flush=True)


def check_corrupted_policy() -> None:
    """Truncate the first policy file the CLI writes: that operation must count as failed."""
    from optstop import experiment

    original = experiment.write_output_dir
    truncated = []

    def truncating(outdir, files):
        if not truncated:
            truncated.append(outdir)
            text = files["policy.txt"]
            files = {**files, "policy.txt": text[: len(text) // 2]}
        return original(outdir, files)

    experiment.write_output_dir = truncating
    try:
        result, record = run.run_benchmark("train_csv", SEED, SECONDS, False, TINY["train_csv"], out=OUT)
    finally:
        experiment.write_output_dir = original
    n = result["attempted"]
    expect(not result["correct"], "truncated policy file passed its check")
    expect(result["failed"] == 1 and n >= 2, f"failed {result['failed']} of {n}, expected 1")
    expect(result["metrics"]["ok_frac"]["value"] == (n - 1) / n, "ok_frac does not count the failure")
    expect(len(record["errors"]) == 1 and "PolicyFormatError" in record["errors"][0],
           f"errors {record['errors']}")
    print("smoke ok: truncated policy file counted as failed", flush=True)


def main() -> int:
    run.import_package()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        check_metrics(spec)
        check_corrupted_policy()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

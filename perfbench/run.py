"""optstop benchmark: times the reproduction pipeline end to end and layer by layer.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. Each workload is a closed
loop: one caller in this process runs the operation back to back for
`--seconds` seconds (at least MIN_OPS times) and checks every output.

--trace 0 prints the end-to-end metrics. Their times are corrected for the
shared host's speed, probed while each operation runs with the workload's
probe (see hostspeed.py); the plain times are kept in the record as
raw_wall_s and raw_cpu_s. --trace 1 runs some operations untraced and then
some with every layer wrapped (see spans.py), and prints the per-layer
metrics from plain times. The last line of standard output is the result JSON;
lines before it starting with "#" carry the environment block and the
fingerprints. A full record of the run, and the spans of a traced run, are
written under perfbench/out/.

BLAS threads are left at the library default on purpose: the default is what
users get, and it is the cause of known nondeterminism and oversubscription.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 3
MIN_TRACED_OPS = 2
SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 150

LAYER_PREFIXES = (
    "rng", "consumer", "seller", "experiment", "lsm",
    "regression", "policy_io", "snell", "cli",
)


def import_package():
    """Import optstop from this checkout's src/, or exit without a result."""
    if not (SRC / "optstop" / "__init__.py").is_file():
        sys.exit(f"error: no optstop package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import optstop

    if Path(optstop.__file__).resolve().parent != SRC / "optstop":
        sys.exit(f"error: imported optstop from {optstop.__file__}, not {SRC}")
    return optstop


# ---------------------------------------------------------------------------
# Environment block


def _openblas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            return sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []


def _blas_threads() -> dict:
    """Thread count and build string as each loaded OpenBLAS reports them."""
    import ctypes

    out = {}
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            out[Path(path).name] = {
                "threads": threads(),
                "config": config().decode("ascii", "replace").strip(),
            }
            break
    return out


def speed_probe() -> float:
    """Median seconds of a fixed scalar Python loop, the simulator's kind of work."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0.5
        for i in range(1_000_000):
            x = math.erfc(x * 0.5) + (i & 7) * 1e-3
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "probe_s": speed_probe(),
    }


# ---------------------------------------------------------------------------
# Running a workload


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the package, timed inside it."""
    code = (
        "import time; t = time.perf_counter(); import optstop; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload, workdir: Path, repeats: int) -> list[float]:
    """Set the workload up `repeats` times; each time is a fresh import plus input preparation."""
    times = []
    for k in range(repeats):
        target = workdir / f"setup-{k}"
        target.mkdir()
        t0 = time.perf_counter()
        workload.prepare(target)
        times.append(import_seconds() + time.perf_counter() - t0)
    return times


class Runner:
    """Runs operations back to back, checks each, and keeps the samples."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fingerprints: list[dict] = []

    def once(self, trace_ctx=None, probe: str | None = None) -> dict | None:
        """One timed operation and its check; its times, or None if it raised.

        With a hostspeed `probe`, the host's speed is probed during the
        operation and wall_s and cpu_s are the corrected times; raw_* are
        the plain ones.
        """
        k = self.ops
        self.ops += 1
        try:
            sampler = hostspeed.SpeedSampler(probe) if probe else None
            with sampler or contextlib.nullcontext():
                c0, t0 = hostspeed.cpu_time(), time.perf_counter()
                with trace_ctx or contextlib.nullcontext():
                    result = self.workload.run(k)
                wall, cpu = time.perf_counter() - t0, hostspeed.cpu_time() - c0
            sample = {"wall_s": wall, "cpu_s": cpu, "raw_wall_s": wall, "raw_cpu_s": cpu}
            if sampler is not None:
                sample["wall_s"], sample["cpu_s"] = sampler.corrected(wall, cpu)
                sample["host_speed"] = sampler.speed()
            self.fingerprints.append(self.workload.check(result, wall))
            if result.outdir is not None:
                shutil.rmtree(result.outdir, ignore_errors=True)
        except Exception as exc:  # an operation or its check failed: count it, keep going
            self.failed += 1
            self.errors.append(f"op {k}: {type(exc).__name__}: {exc}")
            print(f"# op {k} failed\n" + traceback.format_exc(), file=sys.stderr)
            return None
        return sample

    def loop(self, seconds: float, min_ops: int, trace_ctx_factory=None, probe=None):
        """Samples of the operations that completed, as lists keyed like once()'s dict."""
        samples: dict[str, list[float]] = {}
        start = time.perf_counter()
        n = 0
        while n < min_ops or time.perf_counter() - start < seconds:
            ctx = None if trace_ctx_factory is None else trace_ctx_factory()
            sample = self.once(ctx, probe)
            n += 1
            for key, value in (sample or {}).items():
                samples.setdefault(key, []).append(value)
        return samples


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(runner: Runner, samples: dict, setup_times) -> dict:
    mean_difference = _median([f["mean_difference"] for f in runner.fingerprints])
    return {
        "wall_s": (_median(samples.get("wall_s", [])), "s"),
        "cpu_s": (_median(samples.get("cpu_s", [])), "s"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((runner.ops - runner.failed) / runner.ops, "ratio"),
        "mean_difference": (mean_difference, "payoff"),
    }


def blas1_digest(workload_name: str, seed: int, sizes: dict) -> str:
    """Policy digest of one operation rerun in a child with a single BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
        "--seed", str(seed), "--digest-only", json.dumps(sizes),
    ]
    done = subprocess.run(
        argv, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["policy_sha256"]


# Per-layer metrics: self time per span name, calls per span name, and the
# counters spans.py records at call boundaries (with their units).
SELF_TIMED = (
    "rng.standard_normal", "consumer.step_valuation", "consumer.purchase_payoff",
    "seller.kalman", "seller.myopic_price", "experiment.generate_paths",
    "experiment.load_paths_csv", "experiment.render", "experiment.write_output_dir",
    "lsm.train", "lsm.evaluate", "regression.fit", "regression.gram", "regression.factor",
    "regression.predict", "policy_io.policy_to_text", "snell.discretize",
    "snell.backward_induction", "snell.simulate_paths", "cli.main",
)
CALLED = ("rng.standard_normal", "consumer.purchase_payoff", "seller.myopic_price", "regression.fit")
COUNTERS = {
    "rng.RngStream.calls": "count",
    "rng.q_function.calls": "count",
    "experiment.generate_paths.paths": "count",
    "experiment.load_paths_csv.rows": "count",
    "experiment.write_output_dir.bytes": "bytes-computed",
    "regression.factor.flops": "flop-computed",
    "regression.support_points": "count",
    "regression.predict.kernel_evals": "evals-computed",
    "policy_io.bytes": "bytes",
    "snell.nodes": "count",
    "snell.simulate_paths.bytes": "bytes-computed",
}


def per_layer(tracer, n_traced: int, walls, traced_walls, runner: Runner, blas1_match) -> dict:
    """Per-operation layer metrics from the traced operations."""
    import spans

    self_s, calls = tracer.self_times(), tracer.call_counts()
    metrics = {f"{n}.self_s": (self_s.get(n, 0.0) / n_traced, "s") for n in SELF_TIMED}
    metrics.update({f"{n}.calls": (calls.get(n, 0) / n_traced, "count") for n in CALLED})
    metrics.update({k: (tracer.counts.get(k, 0.0) / n_traced, u) for k, u in COUNTERS.items()})
    gaps = [f["lsm_gap"] for f in runner.fingerprints if "lsm_gap" in f]
    traced_wall = _median(traced_walls)
    metrics.update({
        "regression.max_abs_weight": (tracer.maxima.get("regression.max_abs_weight", 0.0), "1"),
        "snell.lsm_gap": (max(gaps) if gaps else 0.0, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.other_self_s": (self_s.get(spans.ROOT, 0.0) / n_traced, "s"),
        "trace.overhead_s": (traced_wall - _median(walls), "s"),
        "determinism.blas1_match": (blas1_match, "bool"),
    })
    return metrics


def layer_shares(tracer, traced_wall_total: float) -> dict:
    """Share of traced wall time spent in each layer's own code."""
    shares: dict[str, float] = {}
    for name, value in tracer.self_times().items():
        layer = name.split(".")[0] if name.split(".")[0] in LAYER_PREFIXES else "other"
        shares[layer] = shares.get(layer, 0.0) + value / traced_wall_total
    return dict(sorted(shares.items()))


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, sizes=None, out: Path = OUT):
    """One benchmark run; returns (result dict, record dict). Work files and
    spans go under `out`."""
    import spans
    from workloads import WORKLOADS

    sizes = dict(sizes or {})
    env = environment()
    workload = WORKLOADS[name](seed, **sizes)
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=out))
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "sizes": sizes, "env": env}
    try:
        setup_times = set_up(workload, workdir, SETUP_REPEATS)
        runner = Runner(workload)
        if not trace:
            samples = runner.loop(seconds, MIN_OPS, probe=workload.speed_probe)
            metrics = end_to_end(runner, samples, setup_times)
            record["samples"] = dict(samples, setup_s=setup_times)
        else:
            walls = runner.loop(seconds / 2, MIN_TRACED_OPS).get("wall_s", [])
            tracer = spans.Tracer()
            traced_walls = runner.loop(
                seconds / 2, MIN_TRACED_OPS, trace_ctx_factory=lambda: spans.traced(tracer)
            ).get("wall_s", [])
            n_traced = max(len(tracer.durations("op")), 1)
            try:
                digest = blas1_digest(name, seed, sizes)
                blas1_match = float(digest == runner.fingerprints[0]["policy_sha256"])
                record["blas1_policy_sha256"] = digest
            except (subprocess.SubprocessError, IndexError, KeyError, ValueError) as exc:
                blas1_match = -1.0
                record["blas1_error"] = f"{type(exc).__name__}: {exc}"
            metrics = per_layer(tracer, n_traced, walls, traced_walls, runner, blas1_match)
            record["samples"] = {"wall_s": walls, "traced_wall_s": traced_walls}
            record["layer_shares"] = layer_shares(tracer, sum(tracer.durations("op")))
            record["self_s_total"] = tracer.self_times()
            spans_path = out / f"spans-{name}-seed{seed}.npz"
            tracer.save(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["errors"] = runner.errors
    record["fingerprints"] = runner.fingerprints
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.ops,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    return result, record


def digest_only(name: str, seed: int, sizes: dict) -> dict:
    """Set up and run one operation; report its policy digest."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, **sizes)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"digest-{name}-", dir=OUT))
    try:
        workload.prepare(workdir)
        result = workload.run(0)
        return {"policy_sha256": workload.check(result, 0.0)["policy_sha256"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--digest-only", metavar="SIZES_JSON",
                        help="internal: run one operation and print its policy digest")
    args = parser.parse_args(argv)

    if args.digest_only is not None:
        print(json.dumps(digest_only(args.workload, args.seed, json.loads(args.digest_only))))
        return 0

    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    unmeasured = [k for k, m in result["metrics"].items() if math.isnan(m["value"])]
    if unmeasured:
        sys.exit(f"error: no operation completed, nothing measured for {unmeasured}: {record['errors']}")
    print("# env " + json.dumps(record["env"]))
    print("# samples " + json.dumps(record["samples"]))
    print("# fingerprint " + json.dumps(record["fingerprints"][0] if record["fingerprints"] else None))
    if "layer_shares" in record:
        print("# layer_shares " + json.dumps(record["layer_shares"]))
    if record["errors"]:
        print("# errors " + json.dumps(record["errors"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the haarfactor workbench.

    python3 bench/run.py --workload factorize|certify|game|all \\
        [--seed N] [--seconds S] [--trace 0|1]

One process runs one workload in a closed loop with a single client: jobs
run one after another, and passes over the workload's job list repeat until
``--seconds`` of measuring are spent and at least two passes are done (a
started pass always finishes).
BLAS and OpenMP threads are capped at the number of usable cores.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (untraced and traced passes alternate, so the
tracing overhead is measured too).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs each workload in its own process and
prints every metric of each.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# Two passes at least, so that two artifact digests are compared; in a
# traced run the second pass is the first traced one.
MIN_PASSES = 2
REFERENCE = BENCH / "reference_digests.json"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
    "artifact_kb": "KiB",
    "ok_share": "ratio",
}

PER_LAYER = {
    "grids.dense_s": "s",
    "grids.dense_calls": "count",
    "grids.cells": "count",
    "grids.lp_norm_s": "s",
    "grids.lp_norm_calls": "count",
    "haarsys.realize_s": "s",
    "haarsys.realize_calls": "count",
    "haarsys.distribution_check_s": "s",
    "haarsys.distribution_check_calls": "count",
    "haarsys.distribution_sampled_share": "ratio",
    "operators.neumann_invert_s": "s",
    "randsigns.sign_search_s": "s",
    "randsigns.sign_search_calls": "count",
    "randsigns.patterns": "count",
    "randsigns.hit_share": "ratio",
    "randsigns.exact_moments_s": "s",
    "reduction.reduce_to_diagonal_s": "s",
    "reduction.reduce_to_scalar_s": "s",
    "reduction.interaction_matrix_s": "s",
    "reduction.compose_s": "s",
    "reduction.verify_certificate_s": "s",
    "reduction.verify_calls": "count",
    "factorize.factor_large_diagonal_s": "s",
    "factorize.primary_dichotomy_s": "s",
    "factorize.sample_max_ratio_s": "s",
    "weightedlp.play_game_s": "s",
    "weightedlp.transcript_verify_s": "s",
    "weightedlp.xpw_norm_s": "s",
    "weightedlp.xpw_norm_calls": "count",
    "weightedlp.weights_s": "s",
    "weightedlp.weight_entries": "count",
    "weightedlp.impartial_equivalence_s": "s",
    "weightedlp.block_span_project_s": "s",
    "serialize.dumps_s": "s",
    "serialize.loads_s": "s",
    "serialize.bytes_out": "bytes",
    "serialize.bytes_in": "bytes",
    "cli.run_self_s": "s",
    "trace.overhead_share": "ratio",
}

CALL_COUNTS = (
    "grids.dense", "grids.lp_norm", "haarsys.realize",
    "haarsys.distribution_check", "randsigns.sign_search", "weightedlp.xpw_norm",
)
COUNTERS = (
    "grids.cells", "randsigns.patterns", "weightedlp.weight_entries",
    "serialize.bytes_out", "serialize.bytes_in",
)


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except ``trace.overhead_share``."""
    self_s, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    out = {f"{key}_s": seconds for key, seconds in self_s.items()}
    out["cli.run_self_s"] = out.pop("cli.run_s")
    for key in CALL_COUNTS:
        out[f"{key}_calls"] = calls[key]
    out["reduction.verify_calls"] = calls["reduction.verify_certificate"]
    for key in COUNTERS:
        out[key] = counts.get(key, 0)
    checks, searches = calls["haarsys.distribution_check"], calls["randsigns.sign_search"]
    out["haarsys.distribution_sampled_share"] = (
        counts.get("haarsys.distribution_sampled", 0) / checks if checks else 0.0
    )
    out["randsigns.hit_share"] = counts.get("randsigns.hits", 0) / searches if searches else 0.0
    return out


# -- one pass --------------------------------------------------------------------


class Pass:
    """Runs every job once, in order, and records times, verdicts and artifacts."""

    def __init__(self, jobs, out_dir: Path):
        for stale in out_dir.iterdir():  # a job must not re-read last pass's file
            stale.unlink()
        self.job_s: list[float] = []
        self.failures: list[tuple[str, list[str], bool]] = []
        artifacts: list[Path] = []
        for job in jobs:
            start = time.perf_counter()
            try:
                written, problems = job.run()
            except Exception as exc:  # a raising job is a failed job, not a crash
                written, problems = [], [f"raised {type(exc).__name__}: {exc}"]
            self.job_s.append(time.perf_counter() - start)
            artifacts += written
            if problems:
                known = tuple(problems) == job.known_problems
                self.failures.append((job.name, problems, known))
        self.run_s = sum(self.job_s)
        digest = hashlib.sha256()
        self.artifact_bytes = 0
        for path in artifacts:
            data = path.read_bytes()
            self.artifact_bytes += len(data)
            digest.update(path.name.encode() + b"\0" + data)
        self.digest = digest.hexdigest()


def time_setup(workload: str, seed: int) -> tuple[float, set[str]]:
    """Median wall time from spawning a fresh interpreter to inputs built."""
    times, digests = [], set()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - start)
            probe.stdout.read()
        if probe.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up probe for {workload} exited {probe.returncode}")
        digests.add(line.strip())
    return statistics.median(times), digests


def reference_problems(workload: str, seed: int, digest: str) -> list[str]:
    """Compare with the artifact digest recorded at the reference seed.

    The reference holds for the numpy version it was recorded with; other
    versions may round differently and are not compared.
    """
    import numpy

    reference = json.loads(REFERENCE.read_text())
    if seed != reference["seed"] or numpy.__version__ != reference["numpy"]:
        return []
    if digest != reference["artifacts"][workload]:
        return [f"artifacts differ from the seed-{seed} digest in {REFERENCE.name}"]
    return []


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import Tracer
    from setup_probe import inputs_digest

    setup_s = probe_digests = None
    if not trace:
        setup_s, probe_digests = time_setup(workload, seed)

    scratch = BENCH / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        jobs = workloads.build(workload, seed, work)
        input_digest = inputs_digest(work)
        plain, traced, layers = [], [], []
        tracer = Tracer()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(plain) + len(traced) < MIN_PASSES:
            if trace and len(traced) < len(plain):
                tracer.reset()
                with tracer:
                    traced.append(Pass(jobs, work / "out"))
                layers.append(layer_metrics(tracer))
            else:
                plain.append(Pass(jobs, work / "out"))
    finally:
        shutil.rmtree(work)

    passes = plain + traced
    digests = {p.digest for p in passes}
    unexpected = {name for p in passes for name, _, known in p.failures if not known}
    problems = []
    if len(digests) != 1:
        problems.append(f"artifact digests differ between passes: {sorted(digests)}")
    else:
        problems += reference_problems(workload, seed, next(iter(digests)))
    if probe_digests is not None and probe_digests != {input_digest}:
        problems.append("set-up probes generated other inputs than this process")
    if unexpected:
        problems.append(f"jobs failed: {sorted(unexpected)}")

    attempted = sum(len(p.job_s) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    if trace:
        overhead = (
            statistics.median(p.run_s for p in traced)
            / statistics.median(p.run_s for p in plain) - 1.0
        )
        values = {
            name: statistics.median(layer[name] for layer in layers)
            for name in PER_LAYER if name != "trace.overhead_share"
        }
        values["trace.overhead_share"] = overhead
        units = PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(p.run_s for p in plain),
            "job_p50_s": statistics.median(t for p in plain for t in p.job_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "artifact_kb": plain[0].artifact_bytes / 1024,
            "ok_share": (attempted - failed) / attempted,
        }
        units = END_TO_END

    print(f"workload {workload}  seed {seed}  passes {len(plain)} untraced"
          f" + {len(traced)} traced  jobs/pass {len(jobs)}")
    print("pass run_s: untraced " + " ".join(f"{p.run_s:.3f}" for p in plain)
          + "; traced " + " ".join(f"{p.run_s:.3f}" for p in traced))
    print(f"inputs sha256 {input_digest}")
    print(f"artifacts sha256 {sorted(digests)[0]}")
    for name, reasons, known in passes[0].failures:
        tag = "known defect" if known else "FAILED"
        print(f"  {tag}: {name}: {'; '.join(reasons)}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit}")
    if trace:
        run_s = statistics.median(p.run_s for p in traced)
        print(f"traced run_s {run_s:.4f} s; self-time shares of it:")
        for name, value in sorted(values.items(), key=lambda kv: -kv[1]):
            if name.endswith("_s") and value > 0:
                print(f"  {name:40s} {value:10.4f} s  {value / run_s:6.1%}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process; metrics keyed ``<workload>.<name>``."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "haarfactor" / "__init__.py").is_file():
        print(f"error: no haarfactor sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in workloads.WORKLOADS:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"unknown workload {args.workload!r}; choices: "
                     + ", ".join(workloads.WORKLOADS + ("all",)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

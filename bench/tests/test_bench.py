"""Tests of the benchmark's own code: ``python3 -m pytest -q bench/tests``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import haarfactor  # noqa: E402
import run as bench_run  # noqa: E402
from haarfactor import cli  # noqa: E402
from tracer import TARGETS, Span, Tracer  # noqa: E402
from workloads import Job  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings():
    """Every attribute of every haarfactor module and wrapped class."""
    seen = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "haarfactor" or name.startswith("haarfactor.")):
            seen.update({(name, attr): value for attr, value in vars(mod).items()})
    for target in TARGETS:
        if "." in target.attr:
            cls_name = target.attr.split(".")[0]
            cls = getattr(sys.modules[f"haarfactor.{target.layer}"], cls_name)
            seen.update({(cls_name, attr): value for attr, value in vars(cls).items()})
    return seen


def test_self_time_subtracts_wrapped_children_only():
    tracer = Tracer()
    tracer.spans[:] = [
        Span("cli.run", None, 0.0, 10.0),
        Span("reduction.verify_certificate", 0, 2.0, 5.0),
        Span("grids.lp_norm", 1, 3.0, 4.0),
        Span("grids.lp_norm", 0, 6.0, 8.0),
        Span("grids.lp_norm", None, 11.0, 11.5),
    ]
    self_s = tracer.self_times()
    assert self_s["cli.run"] == 10.0 - 3.0 - 2.0
    assert self_s["reduction.verify_certificate"] == 3.0 - 1.0
    assert self_s["grids.lp_norm"] == 1.0 + 2.0 + 0.5
    assert sum(self_s.values()) == 10.5  # the top-level spans, counted once
    assert tracer.calls()["grids.lp_norm"] == 3
    assert set(self_s) == {f"{t.layer}.{t.stem}" for t in TARGETS}


def test_wrappers_are_restored_after_tracing_and_after_an_error():
    before = _bindings()
    with Tracer():
        assert haarfactor.grids.lp_norm is not before[("haarfactor.grids", "lp_norm")]
        # a name copied by `from .grids import lp_norm` is rebound too
        assert haarfactor.reduction.lp_norm is haarfactor.grids.lp_norm
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("inside a traced region")
    assert _bindings() == before


def _tiny_jobs(out: Path) -> list[bytes]:
    cli.run(cli.ExperimentConfig("dichotomy", copies=(5,), out=str(out / "w.json")))
    cli.run(cli.ExperimentConfig(
        "xpw-game", eps="1/10", rounds=3, samples=20, out=str(out / "t.json")
    ))
    return [(out / name).read_bytes() for name in ("w.json", "t.json")]


def test_traced_run_writes_the_same_bytes_and_times_every_layer(tmp_path):
    plain = _tiny_jobs(tmp_path)
    with Tracer() as tracer:
        traced = _tiny_jobs(tmp_path)
    assert traced == plain
    calls = tracer.calls()
    # lp_norm reaches the factorization through copied module bindings
    assert calls["grids.lp_norm"] > 0 and calls["factorize.primary_dichotomy"] == 1
    assert calls["weightedlp.play_game"] == 1 and calls["cli.run"] == 2
    assert tracer.counts["serialize.bytes_out"] == sum(len(b) for b in plain)
    assert all(t >= 0.0 for t in tracer.self_times().values())
    metrics = bench_run.layer_metrics(tracer)
    assert set(metrics) | {"trace.overhead_share"} == set(bench_run.PER_LAYER)


def test_a_known_defect_is_known_only_with_exactly_its_problems(tmp_path):
    defect = ("status 2 (certificate_ok)", "w.json: does not re-verify after a load")

    def failing(*problems):
        return lambda: ([], list(problems))

    def raising():
        raise ValueError("boom")

    jobs = [
        Job("defect", failing(*defect), defect),
        Job("defect and more", failing(*defect, "w.json: dumps(load(file)) differs"), defect),
        Job("other check", failing("status 2 (bound_ok)"), defect),
        Job("raises", raising, defect),
        Job("unmarked", failing(*defect)),
        Job("passes", failing(), defect),
    ]
    known = {name: k for name, _, k in bench_run.Pass(jobs, tmp_path).failures}
    assert known == {
        "defect": True, "defect and more": False, "other check": False,
        "raises": False, "unmarked": False,
    }


def test_reference_digests_are_compared_at_the_reference_seed_only():
    import numpy

    reference = json.loads(bench_run.REFERENCE.read_text())
    assert set(reference["artifacts"]) == {"factorize", "certify", "game"}
    seed, digest = reference["seed"], reference["artifacts"]["game"]
    assert bench_run.reference_problems("game", seed + 1, "0" * 64) == []
    if numpy.__version__ == reference["numpy"]:
        assert bench_run.reference_problems("game", seed, digest) == []
        assert bench_run.reference_problems("game", seed, "0" * 64) != []


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert declared == {**bench_run.END_TO_END, **bench_run.PER_LAYER}
    for name in declared:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == ["factorize", "certify", "game"]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "game", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

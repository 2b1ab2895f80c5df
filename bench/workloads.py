"""The benchmark's seeded workloads.

``build(name, seed, work)`` is the set-up: it generates the workload's
inputs from the workload seed, writes the input operators under
``work/in`` and returns the jobs in the order one pass runs them.  Jobs go
through ``cli.run(ExperimentConfig(...))`` where a command fits and through
the public API otherwise.  Each job returns the artifacts it wrote and the
reasons it failed; a job fails if it raises, if its report ``status`` is
not 0, if an artifact does not re-verify after a load from its bytes, if
``dumps(load(file))`` differs from the file bytes, or if a search result
differs from its known answer.

Seed 0 reproduces the acceptance-gate instances; seed ``s`` shifts every
instance seed by ``s``, with three exceptions.  The dichotomy seeds 0-9 stay
fixed, so the three of them that fail ``certificate_ok`` today are measured
at every workload seed.  The three games stay the acceptance games, and
the seed draws only their contraction samples: the random adversary's
moves set the size of the median game job, which should not move with
the seed.  The composite stages stay the acceptance instance: their scalar
stage needs 3 of only 4 level means in one width-0.15 bin, which the
pigeonhole argument does not guarantee, so on some instances (2 of 40
random seeds) ``reduce-scalar`` rightly refuses with "no bin ... holds 3
usable levels".

Library functions are looked up on their module at call time
(``serialize.dumps``, not a copied name), so the tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from haarfactor import cli, randsigns, reduction, serialize, weightedlp
from haarfactor.dyadic import intervals_at_level
from haarfactor.haarsys import BasisRegistry
from haarfactor.operators import DiagonalOperator, OperatorMatrix

ACCEPTANCE_SOURCE = {5: 4, 6: 5, 7: 6}  # 221 basis functions, 2^18 grid cells
DICHOTOMY_SEEDS = range(10)
# ROADMAP item 0: these dichotomy composites fail certificate_ok today
KNOWN_FAILING_DICHOTOMY = (1, 7, 9)
SEARCH_SIGNS = 20
# Half of acceptance test 08's 1000: the greedy transcript's checks take
# half of a game pass, and a run of two passes must fit the time budget.
CONTRACTION_CHECKS = 500
CHECK_BATCH = 100
GAME_SEED = 5  # RandomAdversary(5), as in acceptance test 08


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], tuple[list[Path], list[str]]]
    # The exact problems of a defect the benchmark keeps measuring.  A job
    # that fails with any other problems is an unexpected failure.
    known_problems: tuple[str, ...] = ()


# -- verdict helpers ------------------------------------------------------------


def _status(report: dict) -> list[str]:
    if report["status"] == 0:
        return []
    failed = sorted(k for k, ok in report.get("checks", {}).items() if not ok)
    return [f"status {report['status']} ({', '.join(failed) or 'no checks'})"]


def _reload(path: Path, reverify: Callable | None = None) -> list[str]:
    """Round-trip an artifact through its bytes and re-verify the copy."""
    data = path.read_bytes()
    obj = serialize.loads(data.decode())
    problems = []
    if serialize.dumps(obj).encode() != data:
        problems.append(f"{path.name}: dumps(load(file)) differs from the file")
    if reverify is not None and not reverify(obj):
        problems.append(f"{path.name}: does not re-verify after a load")
    return problems


def _certificate_ok(cert) -> bool:
    return bool(reduction.verify_certificate(cert)["ok"])


def _witness_ok(witness) -> bool:
    return bool(reduction.verify_certificate(witness.certificate)["ok"])


def _transcript_ok(transcript) -> bool:
    return bool(transcript.verify()["ok"])


def _cli_job(name, config: cli.ExperimentConfig, reverify=None, known_problems=()) -> Job:
    def run():
        report = cli.run(config)
        problems = _status(report)
        artifacts = [Path(config.out)] if config.out else []
        for path in artifacts:
            problems += _reload(path, reverify)
        return artifacts, problems

    return Job(name, run, known_problems)


def _failing_certificate(path: Path) -> tuple[str, ...]:
    """The problems of a witness whose certificate fails ``certificate_ok``:
    the command reports it, and the reloaded copy does not re-verify."""
    return ("status 2 (certificate_ok)", f"{path.name}: does not re-verify after a load")


# -- input generators (the acceptance-gate constructions) -------------------------


def _unit_noise(rng, dim: int) -> np.ndarray:
    N = rng.standard_normal((dim, dim))
    np.fill_diagonal(N, 0.0)
    return N / np.abs(N).sum(axis=0).max()


def noisy_identity(source: BasisRegistry, p, seed: int) -> OperatorMatrix:
    """``I + 0.05 N``: zero-diagonal noise ``N`` of unit column sum."""
    N = _unit_noise(np.random.default_rng(seed), source.dim)
    return OperatorMatrix(p, source.indices, np.eye(source.dim) + 0.05 * N)


def bounded_operator(source: BasisRegistry, p, seed: int) -> OperatorMatrix:
    """Random diagonal in [-1, 1] plus ``0.9 N``."""
    rng = np.random.default_rng(seed)
    N = _unit_noise(rng, source.dim)
    d = rng.uniform(-1.0, 1.0, source.dim)
    return OperatorMatrix(p, source.indices, np.diag(d) + 0.9 * N)


def near_scalar_diagonal(source: BasisRegistry, seed: int) -> DiagonalOperator:
    rng = np.random.default_rng(seed)
    return DiagonalOperator(4.0, source.indices, 0.55 + rng.uniform(-0.05, 0.05, source.dim))


def near_scalar_operator(source: BasisRegistry, seed: int) -> OperatorMatrix:
    rng = np.random.default_rng(seed)
    N = _unit_noise(rng, source.dim)
    d = 0.55 + rng.uniform(-0.05, 0.05, source.dim)
    return OperatorMatrix(4.0, source.indices, np.diag(d) + 0.05 * N)


def parity_target(seed: int) -> np.ndarray:
    """Integer coefficients with one even and 19 odd entries.

    Every signed sum is odd, so no pattern gets ``|theta . c| < 1``: the
    known answer is "no pattern" after all ``2^20`` patterns are scanned.
    """
    rng = np.random.default_rng(seed)
    c = (2 * rng.integers(0, 5, SEARCH_SIGNS) + 1).astype(float)
    c[0] = 2.0 * rng.integers(1, 5)
    return c * rng.choice((-1.0, 1.0), SEARCH_SIGNS)


# -- workloads ------------------------------------------------------------------


def _factorize(seed: int, work: Path) -> list[Job]:
    op = work / "in" / "operator.json"
    serialize.save(op, noisy_identity(BasisRegistry(ACCEPTANCE_SOURCE), 4.0, 5 + seed))
    config = cli.ExperimentConfig(
        "factorize", p=4.0, delta=1.0, eps="0.25", seed=5 + seed,
        inputs=(str(op),), out=str(work / "out" / "witness.json"),
    )
    return [_cli_job("factorize", config, _witness_ok)]


def _certify(seed: int, work: Path) -> list[Job]:
    inp, out = work / "in", work / "out"
    source = BasisRegistry(ACCEPTANCE_SOURCE)
    single = BasisRegistry.single_copy(7)
    jobs = []

    certs = []
    for p in (1.5, 2.0, 4.0):
        op, cert = inp / f"bounded_p{p}.json", out / f"diagonal_p{p}.json"
        serialize.save(op, bounded_operator(source, p, 42 + seed))
        certs.append(cert)
        jobs.append(_cli_job(f"reduce-diagonal p={p}", cli.ExperimentConfig(
            "reduce-diagonal", p=p, eps="0.25", seed=7 + seed,
            inputs=(str(op),), out=str(cert),
        )))
    for cert in certs:  # re-verifies each certificate from its bytes
        jobs.append(_cli_job(f"check-distribution {cert.name}", cli.ExperimentConfig(
            "check-distribution", inputs=(str(cert),),
        )))

    diag = inp / "scalar_diagonal.json"
    serialize.save(diag, near_scalar_diagonal(single, 77 + seed))
    jobs.append(_cli_job("reduce-scalar", cli.ExperimentConfig(
        "reduce-scalar", p=4.0, depths=(3,), eps="0.3", seed=seed,
        inputs=(str(diag),), out=str(out / "scalar.json"),
    ), _certificate_ok))

    composite_source = near_scalar_operator(single, 3)
    c1, c2 = out / "composite_c1.json", out / "composite_c2.json"

    def diagonal_stage():
        cert = reduction.reduce_to_diagonal(
            composite_source, {4: 3}, 0.25, seed=2, k_schedule={4: 3}
        )
        serialize.save(c1, cert)
        problems = [] if cert.certified_bound < 0.25 else ["certified bound not below eps"]
        return [c1], problems + _reload(c1, _certificate_ok)

    jobs.append(Job("composite diagonal stage", diagonal_stage))
    jobs.append(_cli_job("composite scalar stage", cli.ExperimentConfig(
        "reduce-scalar", p=4.0, depths=(3,), eps="0.3", seed=0,
        inputs=(str(c1),), out=str(c2),
    ), _certificate_ok))
    jobs.append(_cli_job("compose", cli.ExperimentConfig(
        "compose", inputs=(str(c1), str(c2)), out=str(out / "composite.json"),
    ), _certificate_ok))

    spec = randsigns.RandomBlockSpec(
        BasisRegistry({6: 5}), 6, intervals_at_level(5)[:SEARCH_SIGNS]
    )
    target = parity_target(seed)

    def exhaustive_search():
        result = randsigns.sign_search(spec, [(target, 1.0)])
        if not isinstance(result, randsigns.SignSearchFailure):
            return [], [f"found {result.signs}; the known answer is no pattern"]
        if result.evaluated != 2**SEARCH_SIGNS:
            return [], [f"scanned {result.evaluated} patterns, not 2^{SEARCH_SIGNS}"]
        return [], []

    jobs.append(Job(f"sign-search n={SEARCH_SIGNS}", exhaustive_search))
    jobs.append(_cli_job("verify-moments", cli.ExperimentConfig("verify-moments", seed=seed)))

    # The dichotomy jobs are the median job; spreading them over the pass
    # samples the machine's speed across the pass, not in one short window.
    dichotomies = []
    for k in DICHOTOMY_SEEDS:
        op, witness = inp / f"dichotomy_{k}.json", out / f"dichotomy_{k}.json"
        rng = np.random.default_rng(k)
        serialize.save(op, OperatorMatrix.from_diagonal(
            4.0, single.indices, rng.uniform(0, 1, single.dim)
        ))
        dichotomies.append(_cli_job(f"dichotomy seed={k}", cli.ExperimentConfig(
            "dichotomy", p=4.0, eps="0.25", seed=k,
            inputs=(str(op),), out=str(witness),
        ), _witness_ok,
            _failing_certificate(witness) if k in KNOWN_FAILING_DICHOTOMY else ()))
    mixed = []
    for job, dichotomy in zip(jobs, dichotomies):
        mixed += [job, dichotomy]
    return mixed + jobs[len(dichotomies):]


def _game(seed: int, work: Path) -> list[Job]:
    jobs = []
    for adversary in ("fixed", "random", "greedy"):
        jobs += _game_jobs(adversary, work / "out" / f"game_{adversary}.json", 23 + seed)
    return jobs


def _game_jobs(adversary: str, path: Path, sample_seed: int) -> list[Job]:
    """One game with its transcript re-verified after a load, then
    ``CONTRACTION_CHECKS`` checks that ``block_span_project`` never raises
    the X_{p,w} norm (test 08), in batches of ``CHECK_BATCH``.  Each batch is a job of its own, so
    the median job is one of many similar batches, not a single game."""
    config = cli.ExperimentConfig(
        "xpw-game", p=4.0, eps="1/10", decay="1/4", rounds=8,
        adversary=adversary, samples=1000, seed=GAME_SEED, out=str(path),
    )
    state = {}

    def game():
        state.clear()  # a batch must not check last pass's transcript
        problems = _status(cli.run(config)) + _reload(path, _transcript_ok)
        state["transcript"] = serialize.loads(path.read_text())
        state["rng"] = np.random.default_rng(sample_seed)
        return [path], problems

    def checks():
        transcript, rng = state["transcript"], state["rng"]
        blocks, size = transcript.blocks(), transcript.ambient_size()
        worst = 0.0
        for _ in range(CHECK_BATCH):
            x = weightedlp.XpwVector(rng.standard_normal(size), transcript.weights)
            projected = weightedlp.block_span_project(x, blocks)
            worst = max(worst, weightedlp.xpw_norm(projected) - weightedlp.xpw_norm(x))
        return [], [f"projection grew a norm by {worst}"] if worst > 1e-9 else []

    batches = CONTRACTION_CHECKS // CHECK_BATCH
    return [Job(f"xpw-game {adversary}", game)] + [
        Job(f"xpw-game {adversary} contraction {b + 1}/{batches}", checks)
        for b in range(batches)
    ]


_BUILDERS = {"factorize": _factorize, "certify": _certify, "game": _game}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, work: Path) -> list[Job]:
    """Generate the inputs of workload ``name`` under ``work`` and return its jobs."""
    (work / "in").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed, work)

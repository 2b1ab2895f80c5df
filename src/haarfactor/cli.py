"""Command-line runner: seeded experiments, artifact files, run reports.

Every command prints one self-describing run report to stdout (canonical
JSON; the only varying bytes across identical runs live in the report's
``metadata.created`` stamp) and exits with

* ``0`` when every invariant the run checks came out true,
* ``2`` on a verified negative (a search or reduction that provably
  failed, or a check that evaluated false),
* ``1`` on errors (malformed files, bad parameters, infeasible setups).

Artifacts (operators, certificates, witnesses, transcripts) are written
with ``--out`` and read back with ``--in``; every emitted verdict can be
recomputed from the artifact alone.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from .constants import constants_report, dichotomy_constant, large_diagonal_constant
from .errors import ReductionError, ResourceLimitError
from .factorize import factor_large_diagonal, primary_dichotomy
from .haarsys import BasisRegistry, realize
from .operators import DiagonalOperator, OperatorMatrix, max_column_sum
from .randsigns import RandomBlockSpec, exact_moments
from .reduction import (
    ReductionCertificate,
    compose_certificates,
    reduce_to_diagonal,
    reduce_to_scalar_finite,
    verify_certificate,
)
from .serialize import SchemaError, document, dumps, load, save
from .weightedlp import (
    FixedScheduleAdversary,
    GreedyMaxAdversary,
    RandomAdversary,
    WeightSequence,
    XpwVector,
    impartial_equivalence,
    play_game,
    xpw_norm,
)
from .dyadic import DyadicInterval, OmegaIndex, intervals_at_level

OK, NEGATIVE, ERROR = 0, 2, 1


# -- named file operations ----------------------------------------------------


def load_operator(path):
    """Read an operator artifact (dense or diagonal)."""
    obj = load(path)
    if not isinstance(obj, (OperatorMatrix, DiagonalOperator)):
        raise SchemaError(f"{path}: expected an operator document")
    return obj


def load_certificate(path) -> ReductionCertificate:
    obj = load(path)
    if not isinstance(obj, ReductionCertificate):
        raise SchemaError(f"{path}: expected a reduction-certificate document")
    return obj


def save_certificate(path, cert: ReductionCertificate) -> None:
    save(path, cert)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, pinned down completely.

    Field defaults equal the command-line defaults, so a config built
    from flag values reproduces that invocation.  Identical configs give
    identical report bodies and artifact bytes; wall-clock time enters
    only the ``metadata.created`` stamp of the printed report.
    """

    command: str
    p: float = 4.0
    copies: tuple[int, ...] | None = None
    depths: tuple[int, ...] | None = None
    eps: str = "0.25"
    delta: float = 1.0
    seed: int = 0
    mode: str = "adaptive"
    search: str = "exhaustive"
    budget: int | None = None
    inputs: tuple[str, ...] = ()
    out: str | None = None
    # xpw-game only; ignored elsewhere
    rounds: int = 8
    decay: str = "1/4"
    adversary: str = "fixed"
    moves: tuple[int, ...] | None = None
    samples: int = 1000


def run(config: ExperimentConfig) -> dict:
    """Execute one configured experiment and return its run report.

    The report carries ``status`` (the would-be exit code) and the same
    ``config``/``results``/``checks`` body the command-line run prints;
    artifacts go to ``config.out`` when set.  Unknown commands raise
    ``ValueError`` naming the choices.
    """
    if config.command not in _HANDLERS:
        raise ValueError(
            f"unknown command {config.command!r}; choices: "
            + ", ".join(sorted(_HANDLERS))
        )
    handler = _HANDLERS[config.command]
    ns = argparse.Namespace(
        command=config.command, func=handler, p=config.p,
        copies=config.copies, depths=config.depths, eps=config.eps,
        delta=config.delta, seed=config.seed, mode=config.mode,
        search=config.search, budget=config.budget,
        inputs=list(config.inputs) or None, out=config.out,
    )
    if config.command == "xpw-game":
        ns.rounds = config.rounds
        ns.decay = config.decay
        ns.adversary = config.adversary
        ns.moves = config.moves
        ns.samples = config.samples
    report, status = handler(ns)
    report["status"] = status
    return report


# -- plumbing ------------------------------------------------------------------


def _stamp() -> dict:
    return {"created": datetime.now(timezone.utc).isoformat()}


def _emit(report: dict, stream=None) -> None:
    # bind the stream at call time so redirection and test capture work
    (sys.stdout if stream is None else stream).write(
        dumps(document(report, metadata=_stamp()))
    )


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _registry(args, fallback_copies=(5, 6, 7), fallback_depths=(4, 5, 6)) -> BasisRegistry:
    copies = args.copies if args.copies is not None else fallback_copies
    depths = args.depths if args.depths is not None else fallback_depths
    if len(copies) != len(depths):
        raise ValueError(
            f"--copies lists {len(copies)} copies but --depths lists "
            f"{len(depths)} depths"
        )
    return BasisRegistry(dict(zip(copies, depths)))


def _seeded_operator(registry: BasisRegistry, p: float, seed: int, scale: float = 0.05):
    """Identity plus a scaled zero-diagonal perturbation of unit column sum."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((registry.dim, registry.dim))
    np.fill_diagonal(noise, 0.0)
    total = max_column_sum(noise)
    if total > 0:
        noise /= total
    return OperatorMatrix(p, registry.indices, np.eye(registry.dim) + scale * noise)


def _derive_reduction_plan(T) -> tuple[dict[int, int], dict[int, int]]:
    """Feasible (target_depths, k_schedule) for the operator's registry.

    Hosts the deepest available copies: target copy ``n`` goes to the
    ``n``-th largest copy ``c`` with block depth ``k = c - n``, shrinking
    the target count until every host is deep enough.
    """
    depths: dict[int, int] = {}
    for ix in T.basis:
        depths[ix.copy] = max(depths.get(ix.copy, -1), ix.interval.level)
    copies = sorted(depths)
    for m in range(min(3, len(copies)), 0, -1):
        hosts = copies[-m:]
        plan_t, plan_k = {}, {}
        for n, host in enumerate(hosts, start=1):
            k = host - n
            if k < 1 or depths[host] < k + (n - 1):
                break
            plan_t[n] = n - 1
            plan_k[n] = k
        else:
            return plan_t, plan_k
    raise ValueError(
        "no feasible target/host assignment inside this source registry"
    )


def _report(args, results: dict, checks: dict, **extra) -> tuple[dict, int]:
    report = {
        "command": args.command,
        "config": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("command", "func") and value is not None
        },
        "results": results,
        "checks": checks,
        **extra,
    }
    status = OK if all(checks.values()) else NEGATIVE
    report["status"] = status
    return report, status


# -- commands -------------------------------------------------------------------


def cmd_constants(args) -> tuple[dict, int]:
    results = constants_report(args.p, delta=args.delta, eps=float(args.eps))
    return _report(args, results, checks={})


def cmd_verify_moments(args) -> tuple[dict, int]:
    depth = (args.depths or (2,))[0]
    copy = depth + 1
    registry = BasisRegistry({copy: depth})
    count = args.budget or 6
    rng = np.random.default_rng(args.seed)
    summaries = []
    all_ok = True
    # canonical pinned case first: the level-1 pair population against its
    # own first Haar function has mean 0 and variance exactly 1/4
    pair_spec = RandomBlockSpec(registry, copy, intervals_at_level(1))
    canonical = exact_moments(
        "Y", pair_spec, registry.haar(OmegaIndex(copy, DyadicInterval(1, 1))),
        exponent=2.0,
    )
    ok = canonical.mean == 0.0 and canonical.variance == 0.25 and canonical.bound_passed
    all_ok = all_ok and ok
    summaries.append({**canonical.summary(), "ok": ok, "canonical": True})
    for i in range(count):
        level = int(rng.integers(1, depth + 1))
        pool = intervals_at_level(level)
        size = int(rng.integers(1, min(len(pool), 10) + 1))
        picks = [pool[j] for j in sorted(rng.choice(len(pool), size, replace=False))]
        spec = RandomBlockSpec(registry, copy, picks)
        kind = ("Y", "W", "Z")[i % 3]
        if kind == "Z":
            data = OperatorMatrix.from_diagonal(
                args.p, registry.indices, rng.uniform(-1, 1, registry.dim)
            )
        else:
            data = realize(registry, rng.standard_normal(registry.dim))
        rep = exact_moments(kind, spec, data, exponent=args.p)
        ok = (
            abs(rep.mean) <= 1e-12
            and abs(rep.variance - rep.closed_form) <= 1e-10
            and rep.bound_passed
        )
        all_ok = all_ok and ok
        summaries.append({**rep.summary(), "ok": ok})
    results = {"reports": summaries, "draws": count}
    report, status = _report(
        args,
        results,
        checks={
            "means_vanish": all(abs(s["mean"]) <= 1e-12 for s in summaries),
            "closed_forms_match": all(
                abs(s["variance"] - s["closed_form"]) <= 1e-10 for s in summaries
            ),
            "bounds_hold": all(s["bound_passed"] for s in summaries),
        },
        conventions={"condition_star_log_base": 2},
    )
    return report, status


def _certificate_results(cert: ReductionCertificate) -> dict:
    return {
        "mode": cert.mode,
        "certified_bound": cert.certified_bound,
        "column_sum_bound": cert.column_sum_bound,
        "diagonal_gap_bound": cert.diagonal_gap_bound,
        "eps": cert.eps,
        "targets": [str(t) for t in cert.targets],
        "target_entries": list(cert.target_entries),
        "scalar": cert.scalar,
    }


def cmd_reduce_diagonal(args) -> tuple[dict, int]:
    if args.inputs:
        T = load_operator(args.inputs[0])
    else:
        T = _seeded_operator(_registry(args), args.p, args.seed)
    target_depths, k_schedule = _derive_reduction_plan(T)
    kwargs = {"mode": args.mode, "search": args.search, "seed": args.seed}
    if args.mode == "adaptive":
        kwargs["k_schedule"] = k_schedule
    if args.budget:
        kwargs["pattern_budget"] = args.budget
    cert = reduce_to_diagonal(T, target_depths, float(args.eps), **kwargs)
    verdict = verify_certificate(cert, distribution="exact", seed=args.seed)
    if args.out:
        save_certificate(args.out, cert)
    return _report(
        args,
        _certificate_results(cert),
        checks={
            "certified_below_eps": cert.certified_bound < float(args.eps),
            "certificate_ok": bool(verdict["ok"]),
        },
    )


def cmd_reduce_scalar(args) -> tuple[dict, int]:
    if args.inputs:
        T = load(args.inputs[0])
        if isinstance(T, ReductionCertificate):
            T = T.target_operator()  # continue a diagonal-stage certificate
        if isinstance(T, OperatorMatrix):
            if not T.is_diagonal():
                raise ValueError("scalar reduction starts from a diagonal operator")
            T = DiagonalOperator(T.exponent, T.basis, T.diagonal())
        if not isinstance(T, DiagonalOperator):
            raise SchemaError(
                f"{args.inputs[0]}: expected an operator or certificate document"
            )
    else:
        copy = (args.copies or (7,))[0]
        registry = BasisRegistry.single_copy(copy)
        rng = np.random.default_rng(args.seed)
        center = rng.uniform(0.2, 0.8)
        T = DiagonalOperator(
            args.p,
            registry.indices,
            center + 0.05 * rng.uniform(-1, 1, registry.dim),
        )
    steps = (args.depths or (2,))[0]
    cert = reduce_to_scalar_finite(
        T, steps, float(args.eps), mode=args.mode, search=args.search,
        seed=args.seed,
        **({"pattern_budget": args.budget} if args.budget else {}),
    )
    verdict = verify_certificate(cert, distribution="exact", seed=args.seed)
    if args.out:
        save_certificate(args.out, cert)
    results = _certificate_results(cert)
    results["scalar_witness_positions"] = len(cert.scalar_witness.positions)
    return _report(
        args,
        results,
        checks={
            "certified_below_eps": cert.certified_bound < float(args.eps),
            "certificate_ok": bool(verdict["ok"]),
            "scalar_witness_ok": cert.scalar_witness.verify(cert.source),
        },
    )


def cmd_compose(args) -> tuple[dict, int]:
    if not args.inputs or len(args.inputs) != 2:
        raise ValueError("compose needs exactly two --in certificates (stage order)")
    first = load_certificate(args.inputs[0])
    second = load_certificate(args.inputs[1])
    composite = compose_certificates(first, second)
    verdict = verify_certificate(composite, distribution="exact", seed=args.seed)
    if args.out:
        save_certificate(args.out, composite)
    results = _certificate_results(composite)
    results["triangle_bound"] = composite.metadata.get("triangle_bound")
    results["stage_certified"] = composite.metadata.get("stage_certified")
    return _report(
        args,
        results,
        checks={
            "certificate_ok": bool(verdict["ok"]),
            "within_triangle_bound": (
                composite.certified_bound
                <= composite.metadata["triangle_bound"] + 1e-12
            ),
        },
    )


def _witness_results(w) -> dict:
    return {
        "kind": w.kind,
        "branch": w.branch,
        "scalar": w.scalar,
        "residual": w.residual,
        "norm_factors": dict(w.norm_factors),
        "norm_product_bound": w.norm_product_bound,
        "constant": w.constant,
        "certified_bound": w.certificate.certified_bound,
    }


def cmd_factorize(args) -> tuple[dict, int]:
    if args.inputs:
        T = load_operator(args.inputs[0])
    else:
        T = _seeded_operator(_registry(args), args.p, args.seed)
    target_depths, k_schedule = _derive_reduction_plan(T)
    witness = factor_large_diagonal(
        T, args.delta, float(args.eps), seed=args.seed, search=args.search,
        target_depths=target_depths, k_schedule=k_schedule,
    )
    if args.out:
        save(args.out, witness)
    sampled = witness.sample_max_ratio(samples=100, seed=args.seed)
    results = _witness_results(witness)
    results["sampled_max_ratio"] = sampled
    return _report(
        args,
        results,
        checks={
            "product_below_constant": (
                witness.norm_product_bound
                <= large_diagonal_constant(args.p, args.delta, float(args.eps))
            ),
            "sampled_within_residual": sampled <= witness.residual + 1e-9,
            "certificate_ok": bool(verify_certificate(witness.certificate)["ok"]),
        },
    )


def cmd_dichotomy(args) -> tuple[dict, int]:
    if args.inputs:
        T = load_operator(args.inputs[0])
    else:
        copy = (args.copies or (7,))[0]
        registry = BasisRegistry.single_copy(copy)
        rng = np.random.default_rng(args.seed)
        T = OperatorMatrix.from_diagonal(
            args.p, registry.indices, rng.uniform(0, 1, registry.dim)
        )
    top = max(ix.copy for ix in T.basis)
    if top < 4:
        raise ValueError(
            f"dichotomy hosts its depth-2 target on copy >= 4; the source "
            f"tops out at copy {top}"
        )
    witness = primary_dichotomy(
        T, float(args.eps), seed=args.seed, search=args.search,
        k_schedule={3: top - 3},
    )
    if args.out:
        save(args.out, witness)
    sampled = witness.sample_max_ratio(samples=100, seed=args.seed)
    results = _witness_results(witness)
    results["sampled_max_ratio"] = sampled
    return _report(
        args,
        results,
        checks={
            "product_below_constant": (
                witness.norm_product_bound
                <= dichotomy_constant(args.p, float(args.eps))
            ),
            "scalar_witness_ok": witness.scalar_witness.verify(
                witness.source if isinstance(witness.source, DiagonalOperator)
                else witness.source
            ),
            "sampled_within_residual": sampled <= witness.residual + 1e-9,
            "certificate_ok": bool(verify_certificate(witness.certificate)["ok"]),
        },
    )


def cmd_xpw_game(args) -> tuple[dict, int]:
    eps = Fraction(args.eps)
    w = WeightSequence(Fraction(str(args.p)), decay=Fraction(args.decay))
    if args.adversary == "fixed":
        moves = args.moves or tuple(range(1, args.rounds + 1))
        adversary = FixedScheduleAdversary(moves)
    elif args.adversary == "random":
        adversary = RandomAdversary(args.seed)
    else:
        adversary = GreedyMaxAdversary()
    transcript = play_game(
        adversary, args.rounds, w, eps,
        index_budget=args.budget or 100_000,
    )
    verdict = transcript.verify()
    if args.out:
        save(args.out, transcript)
    size = transcript.ambient_size()
    xs = [v.coeffs for v in transcript.block_vectors()]
    ys = [np.eye(args.rounds)[i] for i in range(args.rounds)]

    def norm_w(arr):
        return xpw_norm(XpwVector(arr, w))

    estimate = impartial_equivalence(
        xs, ys, norm_w, norm_w, samples=args.samples, seed=args.seed
    )
    limit = float(1 + eps) + 1e-9
    results = {
        "rounds": [
            {
                "move": r.move,
                "indices": list(r.indices),
                "beta": r.beta,
                "budget": str(r.block.budget),
            }
            for r in transcript.rounds
        ],
        "ambient_size": size,
        "equivalence": {
            "constant": estimate.constant,
            "forward": estimate.forward,
            "backward": estimate.backward,
            "samples": estimate.samples,
        },
        "transcript_checks": verdict,
    }
    return _report(
        args,
        results,
        checks={
            "transcript_ok": bool(verdict["ok"]),
            "equivalence_within_eps": (
                estimate.forward <= limit and estimate.backward <= limit
            ),
        },
        conventions={"growth_constant_log_base": "e (stated without a base)"},
    )


def cmd_check_distribution(args) -> tuple[dict, int]:
    if not args.inputs:
        raise ValueError("check-distribution needs --in with a certificate file")
    cert = load_certificate(args.inputs[0])
    mode = "exact" if args.search == "exhaustive" else "sampled"
    verdict = verify_certificate(cert, distribution=mode, seed=args.seed)
    results = {key: value for key, value in verdict.items()}
    return _report(
        args,
        results,
        checks={"certificate_ok": bool(verdict["ok"])},
    )


# -- entry point ------------------------------------------------------------------


_HANDLERS = {
    "constants": cmd_constants,
    "verify-moments": cmd_verify_moments,
    "reduce-diagonal": cmd_reduce_diagonal,
    "reduce-scalar": cmd_reduce_scalar,
    "compose": cmd_compose,
    "factorize": cmd_factorize,
    "dichotomy": cmd_dichotomy,
    "xpw-game": cmd_xpw_game,
    "check-distribution": cmd_check_distribution,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=float, default=4.0, help="exponent p")
    common.add_argument("--copies", type=_int_list, default=None,
                        help="comma list of copy labels, e.g. 5,6,7")
    common.add_argument("--depths", type=_int_list, default=None,
                        help="comma list of depths matching --copies")
    common.add_argument("--eps", default="0.25",
                        help="tolerance (decimal or fraction string)")
    common.add_argument("--delta", type=float, default=1.0,
                        help="diagonal lower bound for factorize")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--mode", choices=("paper", "adaptive"), default="adaptive")
    common.add_argument("--search", choices=("exhaustive", "sampled"),
                        default="exhaustive")
    common.add_argument("--budget", type=int, default=None,
                        help="pattern/sample/index budget, command dependent")
    common.add_argument("--in", dest="inputs", action="append", default=None,
                        metavar="PATH", help="input artifact (repeatable)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="artifact output path")

    parser = argparse.ArgumentParser(
        prog="haarfactor",
        description="finite Haar-system reduction and factorization workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=func)
        return p

    add("constants", cmd_constants, help="print the named constants at p")
    add("verify-moments", cmd_verify_moments,
        help="enumerate sign-pattern moments on seeded block populations")
    add("reduce-diagonal", cmd_reduce_diagonal,
        help="compress an operator to a diagonal with a certified bound")
    add("reduce-scalar", cmd_reduce_scalar,
        help="compress a diagonal operator to a scalar multiple")
    add("compose", cmd_compose, help="chain two reduction certificates")
    add("factorize", cmd_factorize,
        help="factor the identity through a large-diagonal operator")
    add("dichotomy", cmd_dichotomy,
        help="factor the identity through T or I-T, whichever is large")
    game = add("xpw-game", cmd_xpw_game,
               help="play the block-building game and check the transcript")
    game.add_argument("--rounds", type=int, default=8)
    game.add_argument("--decay", default="1/4",
                      help="weight decay exponent (fraction string)")
    game.add_argument("--adversary", choices=("fixed", "random", "greedy"),
                      default="fixed")
    game.add_argument("--moves", type=_int_list, default=None,
                      help="fixed adversary move list")
    game.add_argument("--samples", type=int, default=1000)
    add("check-distribution", cmd_check_distribution,
        help="re-verify a certificate including its distributional law")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, status = args.func(args)
    except (ReductionError, ResourceLimitError) as exc:
        report = {
            "command": args.command,
            "verified_negative": {"type": type(exc).__name__, "message": str(exc)},
            "status": NEGATIVE,
        }
        _emit(report)
        return NEGATIVE
    except (SchemaError, ValueError, ArithmeticError, OSError) as exc:
        _emit(
            {
                "command": args.command,
                "error": {"type": type(exc).__name__, "message": str(exc)},
                "status": ERROR,
            },
            stream=sys.stderr,
        )
        return ERROR
    _emit(report)
    return status


if __name__ == "__main__":
    sys.exit(main())

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

Every invocation is an :class:`ExperimentConfig`.  A command's handler
takes that config and returns its report body (``results``, ``checks`` and
any ``conventions``) and its artifact (or ``None``); :func:`run` alone saves
the artifact to ``--out``, echoes the config and sets the status.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from .constants import CLOSED_FORM_TOL, ROUNDOFF_TOL, SAMPLED_SLACK, constants_report
from .errors import ReductionError, ResourceLimitError
from .factorize import FactorizationWitness, factor_large_diagonal, primary_dichotomy
from .haarsys import BasisRegistry, realize
from .operators import DiagonalOperator, OperatorMatrix, max_column_sum
from .randsigns import RandomBlockSpec, exact_moments
from .reduction import (
    ReductionCertificate,
    column_sum_bound,
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
    play_game,
)
from .dyadic import DyadicInterval, OmegaIndex, deepest_levels, intervals_at_level

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, pinned down completely.

    The command-line flags take their defaults from these fields, and
    :func:`main` runs every invocation as the config of its flag values.
    Each command's handler takes the config and returns its report body
    and its artifact; :func:`run` alone saves the artifact to ``out`` and
    sets the status.  Identical configs give identical report bodies and
    artifact bytes; wall-clock time enters only the ``metadata.created``
    stamp of the printed report.
    """

    command: str
    p: float = 4.0
    copies: tuple[int, ...] | None = None
    depths: tuple[int, ...] | None = None
    eps: str = "0.25"
    delta: float = 1.0
    seed: int = 0
    mode: str = "adaptive"
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

    The report carries the command, the config's non-``None`` fields, the
    handler's ``results``/``checks`` body (the one the command-line run
    prints) and ``status``: :data:`OK` when every check holds, else
    :data:`NEGATIVE`.  The artifact goes to ``config.out``; a command that
    makes no artifact raises ``ValueError`` naming ``--out`` when it is set.
    Unknown commands raise ``ValueError`` naming the choices.
    """
    if config.command not in _HANDLERS:
        raise ValueError(
            f"unknown command {config.command!r}; choices: "
            + ", ".join(sorted(_HANDLERS))
        )
    body, artifact = _HANDLERS[config.command](config)
    if config.out:
        if artifact is None:
            raise ValueError(
                f"--out: {config.command} makes no artifact to save"
            )
        save(config.out, artifact)
    echo = {f.name: getattr(config, f.name) for f in fields(config)}
    return {
        "command": echo.pop("command"),
        "config": {key: value for key, value in echo.items() if value is not None},
        **body,
        "status": OK if all(body["checks"].values()) else NEGATIVE,
    }


# -- plumbing ------------------------------------------------------------------


def _stamp() -> dict:
    return {"created": datetime.now(timezone.utc).isoformat()}


def _emit(report: dict, stream=None) -> None:
    # bind the stream at call time so redirection and test capture work
    (sys.stdout if stream is None else stream).write(
        dumps(document(report, metadata=_stamp()))
    )


def _eps(config) -> float:
    """``--eps`` parsed one way for every command: as an exact decimal or
    fraction string, then rounded once, so ``"1/3"`` is accepted and
    ``"nan"`` or ``"inf"`` is refused with ``ValueError``."""
    return float(Fraction(config.eps))


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _registry(config) -> BasisRegistry:
    """The source model of ``--copies`` and ``--depths``, by default copies
    5, 6 and 7 at depths 4, 5 and 6."""
    copies = config.copies if config.copies is not None else (5, 6, 7)
    depths = config.depths if config.depths is not None else (4, 5, 6)
    if len(copies) != len(depths):
        raise ValueError(
            f"--copies lists {len(copies)} copies but --depths lists "
            f"{len(depths)} depths"
        )
    return BasisRegistry(dict(zip(copies, depths)))


def _seeded_operator(registry: BasisRegistry, p: float, seed: int):
    """Identity plus 0.05 times a zero-diagonal perturbation of unit column sum."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((registry.dim, registry.dim))
    np.fill_diagonal(noise, 0.0)
    total = max_column_sum(noise)
    if total > 0:
        noise /= total
    return OperatorMatrix(p, registry.indices, np.eye(registry.dim) + 0.05 * noise)


def _derive_reduction_plan(T) -> tuple[dict[int, int], dict[int, int]]:
    """Feasible (target_depths, k_schedule) for the operator's registry.

    Hosts the deepest available copies: target copy ``n`` goes to the
    ``n``-th largest copy ``c`` with block depth ``k = c - n``, shrinking
    the target count until every host is deep enough.
    """
    depths = deepest_levels(T.basis)
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


def _certificate_body(cert: ReductionCertificate) -> tuple[dict, dict]:
    """The report body every certificate command shares, and the verdict.

    The results summarize the certificate; the one check is
    ``certificate_ok``, re-derived by :func:`verify_certificate`.  A command
    that reports more checks reads them from the returned verdict, which
    decides each of them once.
    """
    verdict = verify_certificate(cert)
    results = {
        "mode": cert.mode,
        "certified_bound": cert.certified_bound,
        "column_sum_bound": cert.column_sum_bound,
        "diagonal_gap_bound": cert.diagonal_gap_bound,
        "eps": cert.eps,
        "targets": [str(t) for t in cert.targets],
        "target_entries": list(cert.target_entries),
        "scalar": cert.scalar,
    }
    checks = {"certificate_ok": bool(verdict["ok"])}
    return {"results": results, "checks": checks}, verdict


def _witness_body(witness: FactorizationWitness, seed: int) -> tuple[dict, dict]:
    """The report body every factorization command shares, and the
    certificate's verdict.

    The checks are the witness's own claims: its norm product within its
    own ``constant``, a seeded sample of ``A T' B - I`` within its
    ``residual``, and its certificate re-derived by
    :func:`verify_certificate`.
    """
    sampled = witness.sample_max_ratio(samples=100, seed=seed)
    results = {
        "kind": witness.kind,
        "branch": witness.branch,
        "scalar": witness.scalar,
        "residual": witness.residual,
        "norm_factors": dict(witness.norm_factors),
        "norm_product_bound": witness.norm_product_bound,
        "constant": witness.constant,
        "certified_bound": witness.certificate.certified_bound,
        "sampled_max_ratio": sampled,
    }
    verdict = verify_certificate(witness.certificate)
    checks = {
        "product_below_constant": witness.norm_product_bound <= witness.constant,
        "sampled_within_residual": sampled <= witness.residual + SAMPLED_SLACK,
        "certificate_ok": bool(verdict["ok"]),
    }
    return {"results": results, "checks": checks}, verdict


# -- commands -------------------------------------------------------------------
#
# A command takes the config and returns ``(body, artifact)``: ``body`` holds
# ``results``, ``checks`` and any ``conventions``; ``artifact`` is what
# ``--out`` saves, or ``None``.


def cmd_constants(config):
    results = constants_report(config.p, delta=config.delta, eps=_eps(config))
    return {"results": results, "checks": {}}, None


def _moment_verdict(rep) -> dict:
    """The predicates of one moment report, each decided once: the command's
    checks are their conjunctions over every report, and a drawn report's
    ``ok`` is their conjunction over its own."""
    return {
        "means_vanish": abs(rep.mean) <= ROUNDOFF_TOL,
        "closed_forms_match": abs(rep.variance - rep.closed_form) <= CLOSED_FORM_TOL,
        "bounds_hold": rep.bound_passed,
    }


def cmd_verify_moments(config):
    depth = (config.depths or (2,))[0]
    copy = depth + 1
    registry = BasisRegistry({copy: depth})
    count = 6 if config.budget is None else config.budget
    if count < 0:
        raise ValueError(f"--budget {count}: verify-moments draws no negative count")
    rng = np.random.default_rng(config.seed)
    summaries = []
    # canonical pinned case first: the level-1 pair population against its
    # own first Haar function has mean 0 and variance exactly 1/4
    pair_spec = RandomBlockSpec(registry, copy, intervals_at_level(1))
    canonical = exact_moments(
        "Y", pair_spec, registry.haar(OmegaIndex(copy, DyadicInterval(1, 1))),
        exponent=2.0,
    )
    ok = canonical.mean == 0.0 and canonical.variance == 0.25 and canonical.bound_passed
    summaries.append({**asdict(canonical), "ok": ok, "canonical": True})
    verdicts = [_moment_verdict(canonical)]
    for i in range(count):
        level = int(rng.integers(1, depth + 1))
        pool = intervals_at_level(level)
        size = int(rng.integers(1, min(len(pool), 10) + 1))
        picks = [pool[j] for j in sorted(rng.choice(len(pool), size, replace=False))]
        spec = RandomBlockSpec(registry, copy, picks)
        kind = ("Y", "W", "Z")[i % 3]
        if kind == "Z":
            data = OperatorMatrix.from_diagonal(
                config.p, registry.indices, rng.uniform(-1, 1, registry.dim)
            )
        else:
            data = realize(registry, rng.standard_normal(registry.dim))
        rep = exact_moments(kind, spec, data, exponent=config.p)
        verdicts.append(_moment_verdict(rep))
        summaries.append({**asdict(rep), "ok": all(verdicts[-1].values())})
    checks = {name: all(v[name] for v in verdicts) for name in verdicts[0]}
    return {
        "results": {"reports": summaries, "draws": count},
        "checks": checks,
        "conventions": {"condition_star_log_base": 2},
    }, None


def cmd_reduce_diagonal(config):
    if config.inputs:
        T = load_operator(config.inputs[0])
    else:
        T = _seeded_operator(_registry(config), config.p, config.seed)
    target_depths, k_schedule = _derive_reduction_plan(T)
    kwargs = {"mode": config.mode, "seed": config.seed}
    if config.mode == "adaptive":
        kwargs["k_schedule"] = k_schedule
    else:
        # the paper's depth schedule needs an upper bound on ||T||_p; the
        # column sum of T over its own registry is a sound one
        kwargs["t_norm_upper"] = column_sum_bound(
            T.registry, T.to_matrix().entries, T.exponent
        )[1]
    if config.budget is not None:
        kwargs["pattern_budget"] = config.budget
    cert = reduce_to_diagonal(T, target_depths, _eps(config), **kwargs)
    body, verdict = _certificate_body(cert)
    body["checks"]["certified_below_eps"] = verdict["certified_below_eps"]
    return body, cert


def cmd_reduce_scalar(config):
    if config.inputs:
        T = load(config.inputs[0])
        if isinstance(T, ReductionCertificate):
            T = T.target_operator()  # continue a diagonal-stage certificate
        if isinstance(T, OperatorMatrix):
            if not T.is_diagonal():
                raise ValueError("scalar reduction starts from a diagonal operator")
            T = DiagonalOperator(T.exponent, T.basis, T.diagonal())
        if not isinstance(T, DiagonalOperator):
            raise SchemaError(
                f"{config.inputs[0]}: expected an operator or certificate document"
            )
    else:
        copy = (config.copies or (7,))[0]
        registry = BasisRegistry.single_copy(copy)
        rng = np.random.default_rng(config.seed)
        center = rng.uniform(0.2, 0.8)
        T = DiagonalOperator(
            config.p,
            registry.indices,
            center + 0.05 * rng.uniform(-1, 1, registry.dim),
        )
    steps = (config.depths or (2,))[0]
    cert = reduce_to_scalar_finite(
        T, steps, _eps(config), mode=config.mode, seed=config.seed,
        **({} if config.budget is None else {"pattern_budget": config.budget}),
    )
    body, verdict = _certificate_body(cert)
    body["checks"]["certified_below_eps"] = verdict["certified_below_eps"]
    body["checks"]["scalar_witness_ok"] = verdict["scalar_witness"]
    body["results"]["scalar_witness_positions"] = len(cert.scalar_witness.positions)
    return body, cert


def cmd_compose(config):
    if len(config.inputs) != 2:
        raise ValueError("compose needs exactly two --in certificates (stage order)")
    first = load_certificate(config.inputs[0])
    second = load_certificate(config.inputs[1])
    composite = compose_certificates(first, second)
    body, _ = _certificate_body(composite)
    body["results"]["triangle_bound"] = composite.metadata.get("triangle_bound")
    body["results"]["stage_certified"] = composite.metadata.get("stage_certified")
    return body, composite


def cmd_factorize(config):
    if config.inputs:
        T = load_operator(config.inputs[0])
    else:
        T = _seeded_operator(_registry(config), config.p, config.seed)
    target_depths, k_schedule = _derive_reduction_plan(T)
    witness = factor_large_diagonal(
        T, config.delta, _eps(config), seed=config.seed,
        target_depths=target_depths, k_schedule=k_schedule,
    )
    return _witness_body(witness, config.seed)[0], witness


def cmd_dichotomy(config):
    if config.inputs:
        T = load_operator(config.inputs[0])
    else:
        copy = (config.copies or (7,))[0]
        registry = BasisRegistry.single_copy(copy)
        rng = np.random.default_rng(config.seed)
        T = OperatorMatrix.from_diagonal(
            config.p, registry.indices, rng.uniform(0, 1, registry.dim)
        )
    top = max(ix.copy for ix in T.basis)
    if top < 4:
        raise ValueError(
            f"dichotomy hosts its depth-2 target on copy >= 4; the source "
            f"tops out at copy {top}"
        )
    witness = primary_dichotomy(
        T, _eps(config), seed=config.seed, k_schedule={3: top - 3},
    )
    body, verdict = _witness_body(witness, config.seed)
    # the witness records its certificate's scalar witness, over the same source
    body["checks"]["scalar_witness_ok"] = verdict["scalar_witness"]
    return body, witness


def cmd_xpw_game(config):
    eps = Fraction(config.eps)
    w = WeightSequence.power(Fraction(str(config.p)), Fraction(config.decay))
    if config.adversary == "fixed":
        moves = config.moves or tuple(range(1, config.rounds + 1))
        adversary = FixedScheduleAdversary(moves)
    elif config.adversary == "random":
        adversary = RandomAdversary(config.seed)
    else:
        adversary = GreedyMaxAdversary()
    transcript = play_game(
        adversary, config.rounds, w, eps,
        **({} if config.budget is None else {"index_budget": config.budget}),
    )
    verdict = transcript.verify()
    equivalence = transcript.equivalence(config.samples, config.seed)
    estimate = equivalence.sampled
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
        "ambient_size": transcript.ambient_size(),
        "equivalence": {
            "constant": estimate.constant,
            "forward": estimate.forward,
            "backward": estimate.backward,
            "samples": estimate.samples,
            "forward_bound": equivalence.forward_bound,
        },
        "transcript_checks": verdict,
    }
    checks = {
        "transcript_ok": bool(verdict["ok"]),
        "equivalence_within_eps": bool(verdict["ok"]) and equivalence.within_eps,
    }
    return {
        "results": results,
        "checks": checks,
        "conventions": {"growth_constant_log_base": "e (stated without a base)"},
    }, transcript


def cmd_check_distribution(config):
    if not config.inputs:
        raise ValueError("check-distribution needs --in with a certificate file")
    body, verdict = _certificate_body(load_certificate(config.inputs[0]))
    return {**body, "results": dict(verdict)}, None


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
    d = {f.name: f.default for f in fields(ExperimentConfig)}
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=float, default=d["p"], help="exponent p")
    common.add_argument("--copies", type=_int_list, default=d["copies"],
                        help="comma list of copy labels, e.g. 5,6,7")
    common.add_argument("--depths", type=_int_list, default=d["depths"],
                        help="comma list of depths matching --copies")
    common.add_argument("--eps", default=d["eps"],
                        help="tolerance (decimal or fraction string)")
    common.add_argument("--delta", type=float, default=d["delta"],
                        help="diagonal lower bound for factorize")
    common.add_argument("--seed", type=int, default=d["seed"])
    common.add_argument("--mode", choices=("paper", "adaptive"), default=d["mode"])
    common.add_argument(
        "--budget", type=int, default=d["budget"],
        help="reduce-diagonal, reduce-scalar: sign patterns a block may "
        "enumerate before its signs are fixed one by one (default 2^20, 2^16); "
        "xpw-game: indices a round may scan (default 100000); both at least 1. "
        "verify-moments: random block populations (default 6)",
    )
    common.add_argument("--in", dest="inputs", action="append", default=None,
                        metavar="PATH", help="input artifact (repeatable)")
    common.add_argument("--out", default=d["out"], metavar="PATH",
                        help="artifact output path")

    parser = argparse.ArgumentParser(
        prog="haarfactor",
        description="finite Haar-system reduction and factorization workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    add("constants", help="print the named constants at p")
    add("verify-moments",
        help="enumerate sign-pattern moments on seeded block populations")
    add("reduce-diagonal",
        help="compress an operator to a diagonal with a certified bound")
    add("reduce-scalar", help="compress a diagonal operator to a scalar multiple")
    add("compose", help="chain two reduction certificates")
    add("factorize", help="factor the identity through a large-diagonal operator")
    add("dichotomy",
        help="factor the identity through T or I-T, whichever is large")
    game = add("xpw-game",
               help="play the block-building game and check the transcript")
    game.add_argument("--rounds", type=int, default=d["rounds"])
    game.add_argument("--decay", default=d["decay"],
                      help="weight decay exponent (fraction string)")
    game.add_argument("--adversary", choices=("fixed", "random", "greedy"),
                      default=d["adversary"])
    game.add_argument("--moves", type=_int_list, default=d["moves"],
                      help="fixed adversary move list")
    game.add_argument("--samples", type=int, default=d["samples"])
    add("check-distribution",
        help="re-verify a certificate including its distributional law")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    args["inputs"] = tuple(args["inputs"] or ())
    config = ExperimentConfig(**args)
    try:
        report = run(config)
        status = report["status"]
    except (ReductionError, ResourceLimitError) as exc:
        report = {
            "command": config.command,
            "verified_negative": {"type": type(exc).__name__, "message": str(exc)},
            "status": NEGATIVE,
        }
        _emit(report)
        return NEGATIVE
    except (SchemaError, ValueError, ArithmeticError, OSError) as exc:
        _emit(
            {
                "command": config.command,
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

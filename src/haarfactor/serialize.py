"""Self-describing JSON documents for every artifact the package emits.

One format for operators, reduction certificates, factorization witnesses,
game transcripts, moment reports and run reports:

    {"schema": "haarfactor/1", "kind": "...", "payload": {...},
     "metadata": {...}}

Rules that keep the artifacts trustworthy as records:

* rendering is canonical (sorted keys, fixed indentation, ``\\n`` ends),
  so identical objects produce identical bytes; anything time-dependent
  (such as a created-at stamp) lives only in ``metadata``;
* floats render as shortest round-tripping decimals, so entries reload
  to the exact same binary values; exact rationals render as ``"13/12"``
  strings; basis lists reload to the exact same index tuples;
* loading validates: the schema version, the exact field set of every
  object (unknown or missing fields are named), basis lists in the
  copy/level/position order, and shape agreement between bases and
  entry matrices.  JSON syntax errors surface with line/column.

Dictionaries inside free-form ``schedule``/``metadata`` trees may have
integer keys (copy labels); they are encoded as ``{"~pairs": [[k, v],
...]}`` and restored exactly.  Tuples in those trees reload as lists.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .dyadic import DyadicInterval, OmegaIndex, compare_omega, parse_interval, parse_omega
from .factorize import FactorizationWitness
from .haarsys import BlockAssignment, BlockFamily
from .operators import DiagonalAverageWitness, DiagonalOperator, OperatorMatrix
from .randsigns import MomentReport
from .reduction import ReductionCertificate
from .weightedlp import Block, GameRound, GameTranscript, WeightSequence

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "document",
    "undocument",
    "dumps",
    "loads",
    "save",
    "load",
]

SCHEMA_VERSION = "haarfactor/1"


class SchemaError(ValueError):
    """An artifact violates the document format; the message names where."""


def _expect_fields(mapping, required, optional=(), where="document"):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where} must be an object, got {type(mapping).__name__}")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"unknown field {sorted(unknown)[0]!r} in {where}")
    for field in required:
        if field not in mapping:
            raise SchemaError(f"missing field {field!r} in {where}")
    return mapping


# -- free-form trees (schedule / metadata) -----------------------------------


def _encode_tree(value, where):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, Fraction):
        return {"~fraction": str(value)}
    if isinstance(value, (list, tuple)):
        return [_encode_tree(v, where) for v in value]
    if isinstance(value, np.ndarray):
        return [_encode_tree(v, where) for v in value.tolist()]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: _encode_tree(v, f"{where}.{k}") for k, v in value.items()}
        pairs = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return {
            "~pairs": [
                [_encode_tree(k, where), _encode_tree(v, where)] for k, v in pairs
            ]
        }
    raise SchemaError(f"{where}: cannot encode {type(value).__name__} values")


def _decode_tree(value):
    if isinstance(value, list):
        return [_decode_tree(v) for v in value]
    if isinstance(value, dict):
        if set(value) == {"~fraction"}:
            return Fraction(value["~fraction"])
        if set(value) == {"~pairs"}:
            return {
                _freeze(_decode_tree(k)): _decode_tree(v) for k, v in value["~pairs"]
            }
        return {k: _decode_tree(v) for k, v in value.items()}
    return value


def _freeze(key):
    return tuple(key) if isinstance(key, list) else key


# -- typed pieces -------------------------------------------------------------


def _basis_payload(basis) -> list[str]:
    return [str(ix) for ix in basis]


def _basis_from(strings, where) -> tuple[OmegaIndex, ...]:
    if not isinstance(strings, list) or not strings:
        raise SchemaError(f"{where}: basis must be a non-empty list")
    out = []
    for pos, text in enumerate(strings):
        try:
            out.append(parse_omega(text))
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"{where}: basis entry {pos}: {exc}") from exc
    for pos in range(1, len(out)):
        if compare_omega(out[pos - 1], out[pos]) >= 0:
            raise SchemaError(
                f"{where}: basis out of order at position {pos}: "
                f"{strings[pos]!r} after {strings[pos - 1]!r}"
            )
    return tuple(out)


def _matrix_from(rows, dim, where) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise SchemaError(f"{where}: expected {dim} rows")
    for pos, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(
                f"{where}: row {pos} has {len(row) if isinstance(row, list) else 'no'}"
                f" columns, expected {dim}"
            )
    return np.array(rows, dtype=float)


def _floats(values, where) -> list[float]:
    if not isinstance(values, list):
        raise SchemaError(f"{where} must be a list")
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _operator_payload(op) -> dict:
    if isinstance(op, DiagonalOperator):
        return {
            "kind": "diagonal-operator",
            "p": float(op.exponent.p),
            "basis": _basis_payload(op.basis),
            "diagonal": [float(d) for d in op.diag],
        }
    return {
        "kind": "operator",
        "p": float(op.exponent.p),
        "basis": _basis_payload(op.basis),
        "entries": [[float(x) for x in row] for row in op.entries],
    }


def _operator_from(payload, where):
    _expect_fields(payload, ("kind",), ("p", "basis", "entries", "diagonal"), where)
    kind = payload["kind"]
    if kind == "operator":
        _expect_fields(payload, ("kind", "p", "basis", "entries"), (), where)
        basis = _basis_from(payload["basis"], where)
        entries = _matrix_from(payload["entries"], len(basis), f"{where}.entries")
        return OperatorMatrix(payload["p"], basis, entries)
    if kind == "diagonal-operator":
        _expect_fields(payload, ("kind", "p", "basis", "diagonal"), (), where)
        basis = _basis_from(payload["basis"], where)
        diag = _floats(payload["diagonal"], f"{where}.diagonal")
        if len(diag) != len(basis):
            raise SchemaError(
                f"{where}: diagonal length {len(diag)} does not match "
                f"basis length {len(basis)}"
            )
        return DiagonalOperator(payload["p"], basis, diag)
    raise SchemaError(f"{where}: unknown operator kind {kind!r}")


def _witness_payload(w: DiagonalAverageWitness) -> dict:
    return {
        "value": float(w.value),
        "positions": [str(ix) for ix in w.positions],
    }


def _witness_from(payload, where) -> DiagonalAverageWitness:
    _expect_fields(payload, ("value", "positions"), (), where)
    try:
        positions = tuple(parse_omega(s) for s in payload["positions"])
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{where}.positions: {exc}") from exc
    return DiagonalAverageWitness(float(payload["value"]), positions)


def _family_payload(family: BlockFamily) -> list[dict]:
    out = []
    for t in family.targets:
        a = family.assignments[t]
        out.append(
            {
                "target": str(t),
                "host": a.host_copy,
                "intervals": [str(K) for K in a.intervals],
                "signs": list(a.signs),
            }
        )
    return out


def _family_from(payload, where) -> BlockFamily:
    if not isinstance(payload, list) or not payload:
        raise SchemaError(f"{where} must be a non-empty list of blocks")
    assignments = {}
    for pos, item in enumerate(payload):
        spot = f"{where}[{pos}]"
        _expect_fields(item, ("target", "host", "intervals", "signs"), (), spot)
        try:
            target = parse_omega(item["target"])
            intervals = tuple(parse_interval(s) for s in item["intervals"])
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"{spot}: {exc}") from exc
        try:
            assignments[target] = BlockAssignment(
                host_copy=int(item["host"]),
                intervals=intervals,
                signs=tuple(int(s) for s in item["signs"]),
            )
        except ValueError as exc:
            raise SchemaError(f"{spot}: {exc}") from exc
    try:
        return BlockFamily(assignments)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _depths_payload(depths: dict) -> list[list[int]]:
    return [[int(c), int(d)] for c, d in sorted(depths.items())]


def _depths_from(payload, where) -> dict[int, int]:
    if not isinstance(payload, list):
        raise SchemaError(f"{where} must be a list of [copy, depth] pairs")
    out = {}
    for pair in payload:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{where}: expected [copy, depth] pairs")
        out[int(pair[0])] = int(pair[1])
    return out


# -- certificate / witness payloads -------------------------------------------

_CERTIFICATE_FIELDS = (
    "p", "mode", "source", "source_depths", "target_depths", "family",
    "block_averages", "witnesses", "target_entries", "scalar",
    "scalar_witness", "residuals", "column_sum_bound", "diagonal_gap_bound",
    "certified_bound", "eps", "schedule", "run_data",
)


def _certificate_payload(cert: ReductionCertificate) -> dict:
    return {
        "p": float(cert.exponent),
        "mode": cert.mode,
        "source": _operator_payload(cert.source),
        "source_depths": _depths_payload(cert.source_depths),
        "target_depths": _depths_payload(cert.target_depths),
        "family": _family_payload(cert.family),
        "block_averages": [float(v) for v in cert.block_averages],
        "witnesses": [_witness_payload(w) for w in cert.witnesses],
        "target_entries": [float(v) for v in cert.target_entries],
        "scalar": None if cert.scalar is None else float(cert.scalar),
        "scalar_witness": (
            None if cert.scalar_witness is None
            else _witness_payload(cert.scalar_witness)
        ),
        "residuals": [float(v) for v in cert.residuals],
        "column_sum_bound": float(cert.column_sum_bound),
        "diagonal_gap_bound": (
            None if cert.diagonal_gap_bound is None
            else float(cert.diagonal_gap_bound)
        ),
        "certified_bound": float(cert.certified_bound),
        "eps": float(cert.eps),
        "schedule": _encode_tree(cert.schedule, "schedule"),
        "run_data": _encode_tree(cert.metadata, "run_data"),
    }


def _certificate_from(payload, where="certificate payload") -> ReductionCertificate:
    _expect_fields(payload, _CERTIFICATE_FIELDS, (), where)
    n = len(payload["target_entries"])
    if len(payload["witnesses"]) != n or len(payload["block_averages"]) != n:
        raise SchemaError(
            f"{where}: block_averages/witnesses/target_entries lengths disagree"
        )
    return ReductionCertificate(
        exponent=float(payload["p"]),
        mode=payload["mode"],
        source=_operator_from(payload["source"], f"{where}.source"),
        source_depths=_depths_from(payload["source_depths"], f"{where}.source_depths"),
        target_depths=_depths_from(payload["target_depths"], f"{where}.target_depths"),
        family=_family_from(payload["family"], f"{where}.family"),
        block_averages=tuple(_floats(payload["block_averages"], f"{where}.block_averages")),
        witnesses=tuple(
            _witness_from(w, f"{where}.witnesses[{i}]")
            for i, w in enumerate(payload["witnesses"])
        ),
        target_entries=tuple(_floats(payload["target_entries"], f"{where}.target_entries")),
        scalar=None if payload["scalar"] is None else float(payload["scalar"]),
        scalar_witness=(
            None if payload["scalar_witness"] is None
            else _witness_from(payload["scalar_witness"], f"{where}.scalar_witness")
        ),
        residuals=tuple(_floats(payload["residuals"], f"{where}.residuals")),
        column_sum_bound=float(payload["column_sum_bound"]),
        diagonal_gap_bound=(
            None if payload["diagonal_gap_bound"] is None
            else float(payload["diagonal_gap_bound"])
        ),
        certified_bound=float(payload["certified_bound"]),
        eps=float(payload["eps"]),
        schedule=_decode_tree(payload["schedule"]),
        metadata=_decode_tree(payload["run_data"]),
    )


_WITNESS_DOC_FIELDS = (
    "p", "kind", "branch", "source", "certificate", "scalar",
    "scalar_witness", "left_factor", "right_factor", "residual",
    "norm_factors", "norm_product_bound", "constant", "eps", "delta",
    "run_data",
)


def _factorization_payload(w: FactorizationWitness) -> dict:
    return {
        "p": float(w.exponent),
        "kind": w.kind,
        "branch": w.branch,
        "source": _operator_payload(w.source),
        "certificate": _certificate_payload(w.certificate),
        "scalar": None if w.scalar is None else float(w.scalar),
        "scalar_witness": (
            None if w.scalar_witness is None else _witness_payload(w.scalar_witness)
        ),
        "left_factor": [[float(x) for x in row] for row in w.A],
        "right_factor": [[float(x) for x in row] for row in w.B],
        "residual": float(w.residual),
        "norm_factors": {k: float(v) for k, v in w.norm_factors.items()},
        "norm_product_bound": float(w.norm_product_bound),
        "constant": float(w.constant),
        "eps": float(w.eps),
        "delta": None if w.delta is None else float(w.delta),
        "run_data": _encode_tree(w.metadata, "run_data"),
    }


def _factorization_from(payload, where="witness payload") -> FactorizationWitness:
    _expect_fields(payload, _WITNESS_DOC_FIELDS, (), where)
    source = _operator_from(payload["source"], f"{where}.source")
    cert = _certificate_from(payload["certificate"], f"{where}.certificate")
    target_dim = len(cert.target_entries)
    source_dim = source.dim
    A = np.array(payload["left_factor"], dtype=float)
    B = np.array(payload["right_factor"], dtype=float)
    if A.shape != (target_dim, source_dim):
        raise SchemaError(
            f"{where}.left_factor: shape {A.shape} does not map the "
            f"{source_dim}-dim source onto the {target_dim}-dim target"
        )
    if B.shape != (source_dim, target_dim):
        raise SchemaError(
            f"{where}.right_factor: shape {B.shape} does not map the "
            f"{target_dim}-dim target into the {source_dim}-dim source"
        )
    return FactorizationWitness(
        exponent=float(payload["p"]),
        kind=payload["kind"],
        branch=payload["branch"],
        source=source,
        certificate=cert,
        scalar=None if payload["scalar"] is None else float(payload["scalar"]),
        scalar_witness=(
            None if payload["scalar_witness"] is None
            else _witness_from(payload["scalar_witness"], f"{where}.scalar_witness")
        ),
        A=A,
        B=B,
        residual=float(payload["residual"]),
        norm_factors={k: float(v) for k, v in payload["norm_factors"].items()},
        norm_product_bound=float(payload["norm_product_bound"]),
        constant=float(payload["constant"]),
        eps=float(payload["eps"]),
        delta=None if payload["delta"] is None else float(payload["delta"]),
        metadata=_decode_tree(payload["run_data"]),
    )


# -- game transcripts ----------------------------------------------------------


def _weights_payload(w: WeightSequence) -> dict:
    if w.kind == "power":
        return {"family": "power", "p": str(w.p), "decay": str(w.decay)}
    return {
        "family": "explicit",
        "p": str(w.p),
        "values": [str(v) for v in w.values],
    }


def _weights_from(payload, where) -> WeightSequence:
    _expect_fields(payload, ("family", "p"), ("decay", "values"), where)
    try:
        if payload["family"] == "power":
            _expect_fields(payload, ("family", "p", "decay"), (), where)
            return WeightSequence(Fraction(payload["p"]), decay=Fraction(payload["decay"]))
        if payload["family"] == "explicit":
            _expect_fields(payload, ("family", "p", "values"), (), where)
            return WeightSequence(
                Fraction(payload["p"]),
                values=[Fraction(v) for v in payload["values"]],
            )
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}: unknown weight family {payload['family']!r}")


def _transcript_payload(t: GameTranscript) -> dict:
    rounds = []
    for r in t.rounds:
        rounds.append(
            {
                "move": int(r.move),
                "indices": [int(n) for n in r.block.indices],
                "beta": float(r.block.beta),
                "budget": str(r.block.budget),
                "budget_target": str(r.budget_target),
                "block_coeffs": [float(c) for c in r.block.coeffs],
                "functional_coeffs": [float(c) for c in r.block.functional()],
            }
        )
    return {
        "weights": _weights_payload(t.weights),
        "eps": str(t.eps),
        "index_budget": int(t.index_budget),
        "rounds": rounds,
    }


def _transcript_from(payload, where="transcript payload") -> GameTranscript:
    _expect_fields(payload, ("weights", "eps", "index_budget", "rounds"), (), where)
    w = _weights_from(payload["weights"], f"{where}.weights")
    if not payload["rounds"]:
        raise SchemaError(f"{where}.rounds: a game has at least one round")
    rounds = []
    for pos, item in enumerate(payload["rounds"]):
        spot = f"{where}.rounds[{pos}]"
        _expect_fields(
            item,
            ("move", "indices", "beta", "budget", "budget_target",
             "block_coeffs", "functional_coeffs"),
            (),
            spot,
        )
        if not item["indices"]:
            raise SchemaError(f"{spot}.indices: a block has at least one index")
        block = Block(
            indices=tuple(int(n) for n in item["indices"]),
            coeffs=np.array(item["block_coeffs"], dtype=float),
            beta=float(item["beta"]),
            budget=Fraction(item["budget"]),
            weights=w,
        )
        stored = np.array(item["functional_coeffs"], dtype=float)
        if not np.array_equal(stored, block.functional()):
            raise SchemaError(
                f"{spot}: functional coefficients do not match the block data"
            )
        target = Fraction(item["budget_target"])
        q = w.p / (w.p - 2)
        cap_ok = (block.budget / target) ** q.denominator <= (
            1 + Fraction(payload["eps"])
        ) ** q.numerator
        rounds.append(
            GameRound(
                move=int(item["move"]),
                block=block,
                budget_target=target,
                budget_cap_ok=cap_ok,
            )
        )
    return GameTranscript(
        weights=w,
        eps=Fraction(payload["eps"]),
        rounds=tuple(rounds),
        index_budget=int(payload["index_budget"]),
    )


# -- moment reports -------------------------------------------------------------

_MOMENT_FIELDS = (
    "kind", "mode", "mean", "variance", "closed_form", "bound",
    "bound_passed", "count", "standard_error",
)


def _moment_from(payload, where="moment payload") -> MomentReport:
    _expect_fields(payload, _MOMENT_FIELDS, (), where)
    return MomentReport(**payload)


# -- documents -------------------------------------------------------------------


def document(obj, *, metadata: dict | None = None) -> dict:
    """Wrap a package object into its self-describing document."""
    if isinstance(obj, (OperatorMatrix, DiagonalOperator)):
        payload = _operator_payload(obj)
        kind = payload.pop("kind")
    elif isinstance(obj, ReductionCertificate):
        kind, payload = "reduction-certificate", _certificate_payload(obj)
    elif isinstance(obj, FactorizationWitness):
        kind, payload = "factorization-witness", _factorization_payload(obj)
    elif isinstance(obj, GameTranscript):
        kind, payload = "game-transcript", _transcript_payload(obj)
    elif isinstance(obj, MomentReport):
        kind, payload = "moment-report", obj.summary()
    elif isinstance(obj, dict):
        kind, payload = "run-report", _encode_tree(obj, "report")
    else:
        raise SchemaError(f"no document form for {type(obj).__name__}")
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "payload": payload,
        "metadata": _encode_tree(metadata or {}, "metadata"),
    }


def undocument(doc: dict):
    """Reconstruct the package object held by a document."""
    _expect_fields(doc, ("schema", "kind", "payload"), ("metadata",))
    if doc["schema"] != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema {doc['schema']!r} (expected {SCHEMA_VERSION!r})"
        )
    kind = doc["kind"]
    payload = doc["payload"]
    if kind in ("operator", "diagonal-operator"):
        return _operator_from({**payload, "kind": kind}, f"{kind} payload")
    if kind == "reduction-certificate":
        return _certificate_from(payload)
    if kind == "factorization-witness":
        return _factorization_from(payload)
    if kind == "game-transcript":
        return _transcript_from(payload)
    if kind == "moment-report":
        return _moment_from(payload)
    if kind == "run-report":
        return _decode_tree(payload)
    raise SchemaError(f"unknown document kind {kind!r}")


def dumps(obj, *, metadata: dict | None = None) -> str:
    """Canonical text of the object's document: byte-stable per object."""
    doc = obj if _is_document(obj) else document(obj, metadata=metadata)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return undocument(doc)


def _is_document(obj) -> bool:
    return isinstance(obj, dict) and {"schema", "kind", "payload"} <= set(obj)


def save(path, obj, *, metadata: dict | None = None) -> None:
    Path(path).write_text(dumps(obj, metadata=metadata))


def load(path):
    return loads(Path(path).read_text())

"""Self-describing JSON documents for every artifact the package emits.

One format for operators, reduction certificates, factorization witnesses,
game transcripts, moment reports and run reports:

    {"schema": "haarfactor/1", "kind": "...", "payload": {...},
     "metadata": {...}}

Rules that keep the artifacts trustworthy as records:

* rendering is canonical: one renderer writes the format of
  ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)`` byte for
  byte (sorted keys, two-space indentation, ASCII escapes) plus a final
  ``\\n``, and an oracle test against ``json.dumps`` pins this; identical
  objects produce identical bytes, and anything time-dependent (such as a
  created-at stamp) lives only in ``metadata``;
* NaN and the infinities have no place in an artifact: rendering refuses
  them with ``ValueError`` before any byte is written, and loading rejects
  the ``NaN``/``Infinity``/``-Infinity`` tokens with :class:`SchemaError`;
* floats render as shortest round-tripping decimals, so entries reload
  to the exact same binary values; exact rationals render as ``"13/12"``
  strings; basis lists reload to the exact same index tuples;
* loading validates: the schema version, the exact field set of every
  object (unknown or missing fields are named), basis lists in the
  copy/level/position order, and shape agreement between bases and
  entry matrices.  JSON syntax errors surface with line/column.

Each kind declares its format once.  Certificates, factorization
witnesses and moment reports are record tables of rows ``(payload key,
attribute, write, read)``, written by one walker and read by another; the
other kinds and pieces have hand-written codecs.  One map ``kind ->
(class, write, read)`` drives :func:`document` and :func:`undocument`.

Dictionaries inside free-form ``schedule``/``metadata`` trees may have
integer keys (copy labels); they are encoded as ``{"~pairs": [[k, v],
...]}`` and restored exactly.  Tuples in those trees reload as lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from fractions import Fraction
from itertools import chain
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
    return _rows_from(rows, where)


def _rows_from(rows, where) -> np.ndarray:
    """A matrix from a list of equally long rows of JSON numbers."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SchemaError(f"{where} must be a list of rows")
    widths = sorted({len(row) for row in rows})
    if len(widths) > 1:
        raise SchemaError(f"{where}: ragged rows of lengths {widths}")
    # one pass over the entry types; only a failing matrix is walked entry
    # by entry, so that the error names the first entry `_number` rejects
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                _number(value, f"{where}[{i}][{j}]")
    try:
        return np.array(rows, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _floats(values, where) -> list[float]:
    """A list of JSON numbers read as floats, each checked by `_number`."""
    if not isinstance(values, list):
        raise SchemaError(f"{where} must be a list")
    return [_number(v, f"{where}[{pos}]") for pos, v in enumerate(values)]


def _operator_payload(op, where) -> dict:
    if isinstance(op, DiagonalOperator):
        return {
            "kind": "diagonal-operator",
            "p": float(op.exponent.p),
            "basis": _basis_payload(op.basis),
            "diagonal": np.asarray(op.diag, dtype=float).tolist(),
        }
    return {
        "kind": "operator",
        "p": float(op.exponent.p),
        "basis": _basis_payload(op.basis),
        "entries": np.asarray(op.entries, dtype=float).tolist(),
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


def _operator_kind(cls, kind):
    """``(class, write, read)`` of a top-level operator: the document, not
    its payload, carries the kind."""

    def write(op, where) -> dict:
        payload = _operator_payload(op, where)
        del payload["kind"]
        return payload

    def read(payload, where):
        return _operator_from({**payload, "kind": kind}, where)

    return cls, write, read


def _witness_payload(w: DiagonalAverageWitness, where) -> dict:
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


def _family_payload(family: BlockFamily, where) -> list[dict]:
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


def _depths_payload(depths: dict, where) -> list[list[int]]:
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


# -- codecs ----------------------------------------------------------------------
#
# A codec is a pair ``(write, read)``: ``write(value, where)`` gives the JSON
# form and ``read(json, where)`` the value back; ``where`` names the spot for
# error messages.


def _same(convert):
    """Codec for a JSON-native value converted alike in both directions; a
    value that does not convert is a :class:`SchemaError` at ``where``."""

    def code(value, where):
        try:
            return convert(value)
        except (AttributeError, TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: {exc}") from exc

    return code, code


def _optional(codec):
    """``codec``, with ``None`` standing for itself."""
    write, read = codec
    return (
        lambda value, where: None if value is None else write(value, where),
        lambda value, where: None if value is None else read(value, where),
    )


def _number(value, where) -> float:
    """A JSON number read as a float; a bool or string is a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _number_map(values, where) -> dict:
    """A JSON object of numbers read as floats, each checked by `_number`."""
    if not isinstance(values, dict):
        raise SchemaError(f"{where} must be an object, got {type(values).__name__}")
    return {k: _number(v, f"{where}.{k}") for k, v in values.items()}


_AS_IS = _same(lambda value: value)
_FLOAT = (_same(float)[0], _number)
_FLOAT_MAP = (_same(lambda values: {k: float(v) for k, v in values.items()})[0], _number_map)
_FLOATS = (
    lambda values, where: np.asarray(values, dtype=float).tolist(),
    lambda values, where: tuple(_floats(values, where)),
)
_MATRIX = (
    lambda matrix, where: np.asarray(matrix, dtype=float).tolist(),
    _rows_from,
)
_TREE = (_encode_tree, lambda value, where: _decode_tree(value))
_OPERATOR = (_operator_payload, _operator_from)
_DEPTHS = (_depths_payload, _depths_from)
_FAMILY = (_family_payload, _family_from)
_WITNESS = (_witness_payload, _witness_from)
_WITNESSES = (
    lambda ws, where: [_witness_payload(w, where) for w in ws],
    lambda items, where: tuple(
        _witness_from(w, f"{where}[{i}]") for i, w in enumerate(items)
    ),
)


# -- record kinds ------------------------------------------------------------------


def _record(cls, rows, check=lambda values, where: None):
    """``(class, write, read)`` of a record kind declared by its table.

    Each row is ``(payload key, attribute, write, read)``.  Reading checks
    the exact field set, reads every field at ``where.key``, runs the
    kind's cross-field ``check`` on the attribute values and builds ``cls``.
    """
    keys = tuple(key for key, _, _, _ in rows)

    def write(obj, where) -> dict:
        return {
            key: put(getattr(obj, attr), f"{where}.{key}")
            for key, attr, put, _ in rows
        }

    def read(payload, where):
        _expect_fields(payload, keys, (), where)
        values = {
            attr: get(payload[key], f"{where}.{key}")
            for key, attr, _, get in rows
        }
        check(values, where)
        return cls(**values)

    return cls, write, read


def _check_certificate(values, where) -> None:
    n = len(values["target_entries"])
    if len(values["witnesses"]) != n or len(values["block_averages"]) != n:
        raise SchemaError(
            f"{where}: block_averages/witnesses/target_entries lengths disagree"
        )


def _check_witness(values, where) -> None:
    target_dim = len(values["certificate"].target_entries)
    source_dim = values["source"].dim
    if values["A"].shape != (target_dim, source_dim):
        raise SchemaError(
            f"{where}.left_factor: shape {values['A'].shape} does not map the "
            f"{source_dim}-dim source onto the {target_dim}-dim target"
        )
    if values["B"].shape != (source_dim, target_dim):
        raise SchemaError(
            f"{where}.right_factor: shape {values['B'].shape} does not map the "
            f"{target_dim}-dim target into the {source_dim}-dim source"
        )


_CERTIFICATE = _record(
    ReductionCertificate,
    (
        ("p", "exponent", *_FLOAT),
        ("mode", "mode", *_AS_IS),
        ("source", "source", *_OPERATOR),
        ("source_depths", "source_depths", *_DEPTHS),
        ("target_depths", "target_depths", *_DEPTHS),
        ("family", "family", *_FAMILY),
        ("block_averages", "block_averages", *_FLOATS),
        ("witnesses", "witnesses", *_WITNESSES),
        ("target_entries", "target_entries", *_FLOATS),
        ("scalar", "scalar", *_optional(_FLOAT)),
        ("scalar_witness", "scalar_witness", *_optional(_WITNESS)),
        ("residuals", "residuals", *_FLOATS),
        ("column_sum_bound", "column_sum_bound", *_FLOAT),
        ("diagonal_gap_bound", "diagonal_gap_bound", *_optional(_FLOAT)),
        ("certified_bound", "certified_bound", *_FLOAT),
        ("eps", "eps", *_FLOAT),
        ("schedule", "schedule", *_TREE),
        ("run_data", "metadata", *_TREE),
    ),
    _check_certificate,
)

_FACTORIZATION = _record(
    FactorizationWitness,
    (
        ("p", "exponent", *_FLOAT),
        ("kind", "kind", *_AS_IS),
        ("branch", "branch", *_AS_IS),
        ("source", "source", *_OPERATOR),
        ("certificate", "certificate", *_CERTIFICATE[1:]),
        ("scalar", "scalar", *_optional(_FLOAT)),
        ("scalar_witness", "scalar_witness", *_optional(_WITNESS)),
        ("left_factor", "A", *_MATRIX),
        ("right_factor", "B", *_MATRIX),
        ("residual", "residual", *_FLOAT),
        ("norm_factors", "norm_factors", *_FLOAT_MAP),
        ("norm_product_bound", "norm_product_bound", *_FLOAT),
        ("constant", "constant", *_FLOAT),
        ("eps", "eps", *_FLOAT),
        ("delta", "delta", *_optional(_FLOAT)),
        ("run_data", "metadata", *_TREE),
    ),
    _check_witness,
)

_MOMENT = _record(
    MomentReport, tuple((f.name, f.name, *_AS_IS) for f in fields(MomentReport))
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


def _transcript_payload(t: GameTranscript, where) -> dict:
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


def _transcript_from(payload, where) -> GameTranscript:
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
        rounds.append(
            GameRound(
                move=int(item["move"]),
                block=block,
                budget_target=Fraction(item["budget_target"]),
            )
        )
    return GameTranscript(
        weights=w,
        eps=Fraction(payload["eps"]),
        rounds=tuple(rounds),
        index_budget=int(payload["index_budget"]),
    )


# -- documents -------------------------------------------------------------------

# kind -> (class, write, read), for every top-level document
_KINDS = {
    "operator": _operator_kind(OperatorMatrix, "operator"),
    "diagonal-operator": _operator_kind(DiagonalOperator, "diagonal-operator"),
    "reduction-certificate": _CERTIFICATE,
    "factorization-witness": _FACTORIZATION,
    "game-transcript": (GameTranscript, _transcript_payload, _transcript_from),
    "moment-report": _MOMENT,
    "run-report": (dict, _encode_tree, lambda payload, where: _decode_tree(payload)),
}


def document(obj, *, metadata: dict | None = None) -> dict:
    """Wrap a package object into its self-describing document."""
    for kind, (cls, write, _) in _KINDS.items():
        if isinstance(obj, cls):
            return {
                "schema": SCHEMA_VERSION,
                "kind": kind,
                "payload": write(obj, f"{kind} payload"),
                "metadata": _encode_tree(metadata or {}, "metadata"),
            }
    raise SchemaError(f"no document form for {type(obj).__name__}")


def undocument(doc: dict):
    """Reconstruct the package object held by a document."""
    _expect_fields(doc, ("schema", "kind", "payload"), ("metadata",))
    if doc["schema"] != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema {doc['schema']!r} (expected {SCHEMA_VERSION!r})"
        )
    kind = doc["kind"]
    if kind not in _KINDS:
        raise SchemaError(f"unknown document kind {kind!r}")
    return _KINDS[kind][2](doc["payload"], f"{kind} payload")


def dumps(obj, *, metadata: dict | None = None) -> str:
    """Canonical text of the object's document: byte-stable per object.

    The text is ``json.dumps(doc, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"`` byte for byte, written by :func:`_render`.
    A NaN or infinite float raises ``ValueError``; a dict key that is not a
    ``str`` and a value of any non-JSON type raise ``TypeError``.
    """
    doc = obj if _is_document(obj) else document(obj, metadata=metadata)
    out: list[str] = []
    _render(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def loads(text: str):
    """The object held by a document's text; the ``NaN``, ``Infinity`` and
    ``-Infinity`` tokens, which :func:`dumps` never writes, are a
    :class:`SchemaError`."""
    try:
        doc = json.loads(text, parse_constant=_non_finite_token)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return undocument(doc)


def _non_finite_token(token: str):
    raise SchemaError(f"non-finite number {token} is not allowed in a document")


_quote = json.encoder.encode_basestring_ascii


def _render(value, out: list[str], newline: str) -> None:
    """Append the canonical text of a JSON tree to ``out``.

    Types dispatch in ``json``'s own order (``str``; ``None``, ``True``,
    ``False`` before ``int``; ``float`` and its subclasses through
    ``float.__repr__``; list or tuple; dict), and ``newline`` is the line
    break plus the indentation of the current depth.  A row of exact
    floats, where nearly all of an artifact's bytes are, is one join.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_finite(float.__repr__(value), (value,)))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[" + inner)
        if set(map(type, value)) == {float}:
            out.append(_finite(("," + inner).join(map(float.__repr__, value)), value))
        else:
            for pos, item in enumerate(value):
                if pos:
                    out.append("," + inner)
                _render(item, out, inner)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        out.append("{" + inner)
        for pos, key in enumerate(sorted(value)):
            if pos:
                out.append("," + inner)
            out.append(_quote(key) + ": ")
            _render(value[key], out, inner)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _finite(text: str, values) -> str:
    """``text``, the joined reprs of ``values``, unless one is NaN or
    infinite: no finite float's repr contains an ``n``."""
    if "n" in text:
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return text


def _is_document(obj) -> bool:
    return isinstance(obj, dict) and {"schema", "kind", "payload"} <= set(obj)


def save(path, obj, *, metadata: dict | None = None) -> None:
    Path(path).write_text(dumps(obj, metadata=metadata))


def load(path):
    return loads(Path(path).read_text())

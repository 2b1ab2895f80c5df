"""Self-describing JSON documents for every artifact the package emits.

One format for operators, reduction certificates, factorization witnesses,
game transcripts and run reports:

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
  to the exact same binary values.  Each float's text is its
  ``float.__repr__``, so the bytes are those ``json.dumps`` writes.  Float
  vectors and matrices go to the renderer as float64 arrays and are
  written in chunks of whole rows.  An entry whose bits are all zero is
  ``+0.0``, whose repr is always ``"0.0"``; a chunk's other entries
  (``-0.0`` among them) are written by one orjson call, whose shortest
  digits (Ryu; Adams, PLDI 2018) are repr's (Gay, 1990), and whose text
  is repr's for every magnitude in ``[1e-4, 1e16)``; only the entries
  outside it, where orjson spells the exponent otherwise, go through
  ``float.__repr__``.  Exact rationals render as ``"13/12"`` strings;
  basis lists reload to the exact same index tuples;
* loading validates: the schema version, the exact field set of every
  object (unknown or missing fields are named), the JSON type of every
  field, basis lists in the copy/level/position order, and shape agreement
  between bases and entry matrices.  JSON syntax errors surface with
  line/column.

Each kind declares its format once.  Every field is read by a typed leaf
codec that accepts exactly one JSON type (a bool is no number) and names
the field's path otherwise.  Every kind but the free-form run report, and
every piece of one, is a record table of rows ``(payload key, attribute,
write, read)``, written by one walker and read by another; the operator
kinds and the weight families are tagged unions of such tables.  One map
``kind -> (class, write, read)`` drives :func:`document` and
:func:`undocument`.

Dictionaries inside free-form ``schedule``/``metadata`` trees may have
integer keys (copy labels); they are encoded as ``{"~pairs": [[k, v],
...]}`` and restored exactly, and a fraction as ``{"~fraction": "13/12"}``;
a marker of any other shape is a :class:`SchemaError` naming its path.
Tuples in those trees reload as lists.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np
import orjson

from .dyadic import (
    compare_omega, deepest_levels, parse_interval, parse_omega, truncation_size,
)
from .factorize import FactorizationWitness
from .haarsys import BlockAssignment, BlockFamily
from .operators import DiagonalAverageWitness, DiagonalOperator, OperatorMatrix
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


def _typed(value, json_types, name, where):
    """``value``, if its JSON type is one of ``json_types`` (JSON values have
    exact types, so a bool is no int); else a SchemaError at ``where``."""
    if type(value) not in json_types:
        raise SchemaError(f"{where}: expected {name}, got {type(value).__name__}")
    return value


def _build(make, where, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError or ArithmeticError it raises
    becomes a SchemaError at ``where``.  No ``make`` raises a SchemaError
    itself: every one is a parser or a constructor outside this module."""
    try:
        return make(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# -- codecs ----------------------------------------------------------------------
#
# A codec is a pair ``(write, read)``: ``write(value, where)`` gives the JSON
# form and ``read(json, where)`` the value back; ``where`` names the spot for
# error messages.


def _leaf(json_types, name, parse, write=None):
    """Codec of a value stored as one JSON type: reading refuses every other
    type and turns a ValueError or ArithmeticError of ``parse`` into a
    SchemaError at ``where``; writing applies ``write`` (default ``parse``)."""
    write = write or parse

    def read(value, where):
        return _build(parse, where, _typed(value, json_types, name, where))

    return lambda value, where: write(value), read


def _finite(value) -> float:
    """``float(value)``, refusing the infinities of literals past the range."""
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {out!r}")
    return out


# Distinct texts each string leaf keeps parsed: an artifact repeats its
# indices, intervals and fractions (a basis, then a family over it), and the
# benchmark's workloads read 247 distinct index texts, 127 interval texts
# and 34 fraction texts.
_PARSED_TEXTS = 1 << 12


def _spelled(parse):
    """``parse``, refusing every text but the one ``str`` writes for its value,
    so that a loaded document re-dumps to its own bytes.

    Each distinct text is parsed once: the values are frozen, so sharing
    them is safe, and a refused text raises again on every read, since
    ``lru_cache`` keeps no exception."""

    @lru_cache(maxsize=_PARSED_TEXTS)
    def read(text):
        value = parse(text)
        if str(value) != text:
            raise ValueError(f"{text!r} is not written as {str(value)!r}")
        return value

    return read


_NUMBER = _leaf((int, float), "a number", _finite, float)
_INTEGER = _leaf((int,), "an integer", int)
_STRING = _leaf((str,), "a string", str)
_FRACTION = _leaf((str,), "a fraction string", _spelled(Fraction), str)
_INDEX = _leaf((str,), "an index string", _spelled(parse_omega), str)
_INTERVAL = _leaf((str,), "an interval string", _spelled(parse_interval), str)
# an operator's exponent, stored as its ``p``
_EXPONENT = (lambda exponent, where: float(exponent.p), _NUMBER[1])


def _optional(codec):
    """``codec``, with ``None`` standing for itself."""
    write, read = codec
    return (
        lambda value, where: None if value is None else write(value, where),
        lambda value, where: None if value is None else read(value, where),
    )


def _list(codec, empty=None):
    """Codec of a list of ``codec`` values, read as a tuple; ``empty``, if
    given, is the complaint about an empty list."""
    put, get = codec

    def write(values, where) -> list:
        return [put(v, f"{where}[{i}]") for i, v in enumerate(values)]

    def read(values, where) -> tuple:
        if not _typed(values, (list,), "a list", where) and empty:
            raise SchemaError(f"{where}: {empty}")
        return tuple(get(v, f"{where}[{i}]") for i, v in enumerate(values))

    return write, read


def _map(codec):
    """Codec of a JSON object whose values are all ``codec`` values."""
    put, get = codec

    def write(mapping, where) -> dict:
        return {k: put(v, f"{where}.{k}") for k, v in mapping.items()}

    def read(mapping, where) -> dict:
        _typed(mapping, (dict,), "an object", where)
        return {k: get(v, f"{where}.{k}") for k, v in mapping.items()}

    return write, read


def _pairs(key, value):
    """Codec of a dict stored as a list of ``[key, value]`` pairs in key order."""
    (put_key, get_key), (put_value, get_value) = key, value

    def write(mapping, where) -> list:
        pairs = sorted(mapping.items())
        return [[put_key(k, where), put_value(v, where)] for k, v in pairs]

    def read(items, where) -> dict:
        out = {}
        for i, pair in enumerate(_typed(items, (list,), "a list of pairs", where)):
            at = f"{where}[{i}]"
            if type(pair) is not list or len(pair) != 2:
                raise SchemaError(f"{at}: expected a [key, value] pair")
            out[get_key(pair[0], f"{at}[0]")] = get_value(pair[1], f"{at}[1]")
        return out

    return write, read


def _finite_array(values, where) -> np.ndarray:
    """A float array of JSON numbers already type-checked; one ``isfinite``
    pass refuses the infinities of literals past the range, naming the
    first such entry."""
    out = _build(np.array, where, values, dtype=float)
    finite = np.isfinite(out)
    if not finite.all():
        at = np.argwhere(~finite)[0]
        raise SchemaError(
            where + "".join(f"[{k}]" for k in at)
            + f": expected a finite number, got {float(out[tuple(at)])!r}"
        )
    return out


def _vector_from(values, where) -> np.ndarray:
    """A float array from a list of finite JSON numbers."""
    _typed(values, (list,), "a list of numbers", where)
    # one pass over the entry types; only a failing list is walked entry by
    # entry, so that the error names the first entry `_NUMBER` rejects
    if not set(map(type, values)) <= {int, float}:
        for j, value in enumerate(values):
            _NUMBER[1](value, f"{where}[{j}]")
    return _finite_array(values, where)


def _rows_from(rows, where) -> np.ndarray:
    """A matrix from a list of equally long rows of finite JSON numbers."""
    _typed(rows, (list,), "a list of rows", where)
    for i, row in enumerate(rows):
        if type(row) is not list:
            raise SchemaError(f"{where}[{i}]: expected a row, got {type(row).__name__}")
        if len(row) != len(rows[0]):
            raise SchemaError(
                f"{where}: row {i} has {len(row)} columns, expected {len(rows[0])}"
            )
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        for i, row in enumerate(rows):
            _vector_from(row, f"{where}[{i}]")
    return _finite_array(rows, where)


def _basis_from(strings, where) -> tuple:
    if type(strings) is not list or not strings:
        raise SchemaError(f"{where}: basis must be a non-empty list")
    out = [_INDEX[1](s, f"{where}: basis entry {pos}") for pos, s in enumerate(strings)]
    for pos in range(1, len(out)):
        if compare_omega(out[pos - 1], out[pos]) >= 0:
            raise SchemaError(
                f"{where}: basis out of order at position {pos}: "
                f"{strings[pos]!r} after {strings[pos - 1]!r}"
            )
    return tuple(out)


def _float_array(values, where) -> np.ndarray:
    """The float64 array `_render` writes as the list its ``tolist()`` is."""
    return np.asarray(values, dtype=float)


_VECTOR = (_float_array, _vector_from)
_FLOATS = (_float_array, lambda v, where: tuple(_vector_from(v, where).tolist()))
_MATRIX = (_float_array, _rows_from)
_BASIS = (lambda basis, where: [str(ix) for ix in basis], _basis_from)


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


def _decode_tree(value, where):
    """A tree back from its JSON form: a ``~fraction`` marker holds a
    fraction string and a ``~pairs`` marker a list of ``[key, value]``
    pairs with hashable keys; any other marker, and a float literal past
    the float range, is a SchemaError there."""
    if type(value) is float:
        return _NUMBER[1](value, where)
    if type(value) is list:
        return [
            _decode_tree(v, f"{where}[{i}]") if type(v) in (list, dict, float) else v
            for i, v in enumerate(value)
        ]
    if type(value) is dict:
        if len(value) == 1 and "~fraction" in value:
            return _FRACTION[1](value["~fraction"], f"{where}.~fraction")
        if len(value) == 1 and "~pairs" in value:
            return _TREE_PAIRS[1](value["~pairs"], f"{where}.~pairs")
        return {k: _decode_tree(v, f"{where}.{k}") for k, v in value.items()}
    return value


def _tree_key(value, where):
    """A ``~pairs`` key: a decoded tree, a list frozen to a tuple."""
    key = _decode_tree(value, where)
    key = tuple(key) if type(key) is list else key
    try:
        hash(key)
    except TypeError as exc:
        raise SchemaError(f"{where}: a key must be hashable: {exc}") from exc
    return key


_TREE = (_encode_tree, _decode_tree)
_TREE_PAIRS = _pairs((_encode_tree, _tree_key), _TREE)


# -- records -----------------------------------------------------------------------


def _record(build, rows, check=lambda values, where: None):
    """Codec of a record declared by its table of rows ``(payload key,
    attribute, write, read)``; an attribute ``a.b`` is ``b`` of ``a``.

    Reading checks the exact field set, reads every field at ``where.key``,
    runs the cross-field ``check`` on the attribute values and calls
    ``build`` with them as keywords, those of ``a.b`` rows gathered into a
    dict ``a``; an error of ``build`` is a SchemaError at ``where`` (`_build`).
    """
    keys = tuple(row[0] for row in rows)
    writers = tuple((key, attrgetter(attr), put) for key, attr, put, _ in rows)
    readers = tuple((key, attr.partition("."), get) for key, attr, _, get in rows)

    def write(obj, where) -> dict:
        return {key: put(get(obj), f"{where}.{key}") for key, get, put in writers}

    def read(payload, where):
        _expect_fields(payload, keys, (), where)
        values = {}
        for key, (outer, dot, inner), get in readers:
            value = get(payload[key], f"{where}.{key}")
            if dot:
                values.setdefault(outer, {})[inner] = value
            else:
                values[outer] = value
        check(values, where)
        return _build(build, where, **values)

    return write, read


def _tagged(tag, which, cases):
    """Codec of a union of record tables told apart by the field ``tag``:
    ``which(value)`` names the case of a value, ``cases`` maps each name to
    its table, which reads the other fields."""

    def write(value, where) -> dict:
        name = which(value)
        return {tag: name, **cases[name][0](value, where)}

    def read(payload, where):
        _expect_fields(payload, (tag,), payload, where)  # the case checks the rest
        name = _STRING[1](payload[tag], f"{where}.{tag}")
        if name not in cases:
            raise SchemaError(f"{where}: unknown {tag} {name!r}")
        return cases[name][1]({k: v for k, v in payload.items() if k != tag}, where)

    return write, read


def _check_square(values, where) -> None:
    n = len(values["basis"])
    if values["entries"].shape != (n, n):
        raise SchemaError(
            f"{where}.entries: expected {n} rows of {n} columns, "
            f"got shape {values['entries'].shape}"
        )


def _check_diagonal(values, where) -> None:
    if len(values["diag"]) != len(values["basis"]):
        raise SchemaError(
            f"{where}: diagonal length {len(values['diag'])} does not match "
            f"basis length {len(values['basis'])}"
        )


def _check_certificate(values, where) -> None:
    n = len(values["target_entries"])
    if len(values["witnesses"]) != n or len(values["block_averages"]) != n:
        raise SchemaError(
            f"{where}: block_averages/witnesses/target_entries lengths disagree"
        )
    _check_exponent(values["source"].exponent.p, values["exponent"], f"{where}.source.p")
    # The verifier reads the source model from the source basis and the
    # target model from the family's targets.  Sorted distinct indices
    # enumerate the truncation of their deepest levels exactly when there
    # are as many of them as it has.
    source_basis, targets = values["source"].basis, values["family"].targets
    for field, basis in (("source_depths", source_basis), ("target_depths", targets)):
        depths = values[field]
        if depths != deepest_levels(basis) or truncation_size(depths) != len(basis):
            raise SchemaError(f"{where}.{field}: the indices do not fill these depths")


def _check_exponent(got: float, want: float, where: str) -> None:
    if got != want:
        raise SchemaError(f"{where}: exponent {got!r} differs from p {want!r}")


def _check_witness(values, where) -> None:
    _check_exponent(values["source"].exponent.p, values["exponent"], f"{where}.source.p")
    _check_exponent(
        values["certificate"].exponent, values["exponent"], f"{where}.certificate.p"
    )
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


_OPERATOR_ROWS = (("p", "exponent", *_EXPONENT), ("basis", "basis", *_BASIS))
_MATRIX_OPERATOR = _record(
    OperatorMatrix, (*_OPERATOR_ROWS, ("entries", "entries", *_MATRIX)), _check_square
)
_DIAGONAL_OPERATOR = _record(
    DiagonalOperator, (*_OPERATOR_ROWS, ("diagonal", "diag", *_VECTOR)), _check_diagonal
)

# an operator inside another payload carries its document kind
_OPERATOR = _tagged(
    "kind",
    lambda op: "diagonal-operator" if isinstance(op, DiagonalOperator) else "operator",
    {"operator": _MATRIX_OPERATOR, "diagonal-operator": _DIAGONAL_OPERATOR},
)

_WITNESS = _record(
    DiagonalAverageWitness,
    (("value", "value", *_NUMBER), ("positions", "positions", *_list(_INDEX))),
)

# one block of a family: its target and the target's assignment
_Entry = namedtuple("_Entry", "target block")
_ENTRIES = _list(
    _record(
        lambda target, block: _Entry(target, BlockAssignment(**block)),
        (
            ("target", "target", *_INDEX),
            ("host", "block.host_copy", *_INTEGER),
            ("intervals", "block.intervals", *_list(_INTERVAL)),
            ("signs", "block.signs", *_list(_INTEGER)),
        ),
    )
)
_FAMILY = (
    lambda family, where: _ENTRIES[0](
        map(_Entry._make, family.assignments.items()), where
    ),
    lambda items, where: _build(BlockFamily, where, dict(_ENTRIES[1](items, where))),
)

_DEPTHS = _pairs(_INTEGER, _INTEGER)

_CERTIFICATE = _record(
    ReductionCertificate,
    (
        ("p", "exponent", *_NUMBER),
        ("mode", "mode", *_STRING),
        ("source", "source", *_OPERATOR),
        ("source_depths", "source_depths", *_DEPTHS),
        ("target_depths", "target_depths", *_DEPTHS),
        ("family", "family", *_FAMILY),
        ("block_averages", "block_averages", *_FLOATS),
        ("witnesses", "witnesses", *_list(_WITNESS)),
        ("target_entries", "target_entries", *_FLOATS),
        ("scalar", "scalar", *_optional(_NUMBER)),
        ("scalar_witness", "scalar_witness", *_optional(_WITNESS)),
        ("residuals", "residuals", *_FLOATS),
        ("column_sum_bound", "column_sum_bound", *_NUMBER),
        ("diagonal_gap_bound", "diagonal_gap_bound", *_optional(_NUMBER)),
        ("certified_bound", "certified_bound", *_NUMBER),
        ("eps", "eps", *_NUMBER),
        ("schedule", "schedule", *_TREE),
        ("run_data", "metadata", *_TREE),
    ),
    _check_certificate,
)

_FACTORIZATION = _record(
    FactorizationWitness,
    (
        ("p", "exponent", *_NUMBER),
        ("kind", "kind", *_STRING),
        ("branch", "branch", *_STRING),
        ("source", "source", *_OPERATOR),
        ("certificate", "certificate", *_CERTIFICATE),
        ("scalar", "scalar", *_optional(_NUMBER)),
        ("scalar_witness", "scalar_witness", *_optional(_WITNESS)),
        ("left_factor", "A", *_MATRIX),
        ("right_factor", "B", *_MATRIX),
        ("residual", "residual", *_NUMBER),
        ("norm_factors", "norm_factors", *_map(_NUMBER)),
        ("norm_product_bound", "norm_product_bound", *_NUMBER),
        ("constant", "constant", *_NUMBER),
        ("eps", "eps", *_NUMBER),
        ("delta", "delta", *_optional(_NUMBER)),
        ("run_data", "metadata", *_TREE),
    ),
    _check_witness,
)

# -- game transcripts ----------------------------------------------------------

_WEIGHTS = _tagged(
    "family",
    attrgetter("kind"),
    {
        "power": _record(
            WeightSequence, (("p", "p", *_FRACTION), ("decay", "decay", *_FRACTION))
        ),
        "explicit": _record(
            WeightSequence,
            (("p", "p", *_FRACTION), ("values", "values", *_list(_FRACTION))),
        ),
    },
)

# A stored round reads as a dict, since its block needs the transcript's
# weights; ``block.functional``, a method, is written as its value.
_ROUND = _record(
    dict,
    (
        ("move", "move", *_INTEGER),
        ("indices", "block.indices", *_list(_INTEGER, "a block has at least one index")),
        ("beta", "block.beta", *_NUMBER),
        ("budget", "block.budget", *_FRACTION),
        ("budget_target", "budget_target", *_FRACTION),
        ("block_coeffs", "block.coeffs", *_VECTOR),
        ("functional_coeffs", "block.functional",
         lambda functional, where: _float_array(functional(), where), _vector_from),
    ),
)


def _transcript(weights, eps, index_budget, rounds) -> GameTranscript:
    """A transcript from its stored rounds: each block gets the weights, and
    its stored functional must be the rebuilt block's."""
    built = []
    for pos, stored in enumerate(rounds):
        functional = stored["block"].pop("functional")
        block = Block(**stored["block"], weights=weights)
        if not np.array_equal(functional, block.functional()):
            raise ValueError(
                f"rounds[{pos}]: functional coefficients do not match the block data"
            )
        built.append(GameRound(stored["move"], block, stored["budget_target"]))
    return GameTranscript(weights, eps, tuple(built), index_budget)


_TRANSCRIPT = _record(
    _transcript,
    (
        ("weights", "weights", *_WEIGHTS),
        ("eps", "eps", *_FRACTION),
        ("index_budget", "index_budget", *_INTEGER),
        ("rounds", "rounds", *_list(_ROUND, "a game has at least one round")),
    ),
)


# -- documents -------------------------------------------------------------------


def _report_from(payload, where) -> dict:
    """A run report: a free-form tree with an object at its root."""
    return _decode_tree(_typed(payload, (dict,), "an object", where), where)


# kind -> (class, write, read), for every top-level document; an operator
# document's kind is the document's own
_KINDS = {
    "operator": (OperatorMatrix, *_MATRIX_OPERATOR),
    "diagonal-operator": (DiagonalOperator, *_DIAGONAL_OPERATOR),
    "reduction-certificate": (ReductionCertificate, *_CERTIFICATE),
    "factorization-witness": (FactorizationWitness, *_FACTORIZATION),
    "game-transcript": (GameTranscript, *_TRANSCRIPT),
    "run-report": (dict, _encode_tree, _report_from),
}


def document(obj, *, metadata: dict | None = None) -> dict:
    """Wrap a package object into its self-describing document, a tree of
    JSON types only."""
    return _json_types(_document(obj, metadata))


def _document(obj, metadata: dict | None) -> dict:
    """The document of ``obj``, with its float vectors and matrices left as
    float64 arrays for `_render`."""
    for kind, (cls, write, _) in _KINDS.items():
        if isinstance(obj, cls):
            return {
                "schema": SCHEMA_VERSION,
                "kind": kind,
                "payload": write(obj, f"{kind} payload"),
                "metadata": _encode_tree(metadata or {}, "metadata"),
            }
    raise SchemaError(f"no document form for {type(obj).__name__}")


def _json_types(tree):
    """``tree`` with each array replaced by its ``tolist()``, in one walk."""
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if type(tree) is dict:
        return {key: _json_types(value) for key, value in tree.items()}
    if type(tree) is list:
        return [_json_types(value) for value in tree]
    return tree


def undocument(doc: dict):
    """Reconstruct the package object held by a document."""
    _expect_fields(doc, ("schema", "kind", "payload"), ("metadata",))
    if doc["schema"] != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema {doc['schema']!r} (expected {SCHEMA_VERSION!r})"
        )
    kind = _STRING[1](doc["kind"], "document kind")
    if kind not in _KINDS:
        raise SchemaError(f"unknown document kind {kind!r}")
    return _KINDS[kind][2](doc["payload"], f"{kind} payload")


def dumps(obj) -> str:
    """Canonical text of a document, or of an object's document with empty
    ``metadata``: byte-stable per object.  A document that carries metadata
    is built by :func:`document`, the one place that takes it.

    The text is ``json.dumps(doc, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"`` byte for byte, written by :func:`_render`.
    A NaN or infinite float raises ``ValueError``; a dict key that is not a
    ``str`` and a value of any non-JSON type raise ``TypeError``.  Each
    distinct float array is rendered once per document (see
    :func:`_render`): a witness holds its source operator twice, once
    itself and once in its certificate.
    """
    doc = obj if _is_document(obj) else _document(obj, None)
    out: list[str] = []
    _render(doc, out, "\n", {})
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

# Entries whose bits key the render memo of :func:`_render`: hashing every
# byte of a certify pass's 136 arrays cost about 4-15% of its dumps time.
_MEMO_SAMPLES = 64

# The most entries `_float_rows` writes with one orjson call, in whole
# rows.  One seed-0 pass of the factorize and certify artifacts renders in
# 28.7 and 54.2 ms at 2^10 cells, against 28.1 and 50.9 ms at 2^12 (best
# of 15, 2-core VM); but a chunk's texts take about 0.3 MB at 2^12 cells,
# and the benchmark's certify runs then peaked at 51.1-51.3 MB, against
# 50.5 MB at 2^10.
_ROW_CELLS = 1 << 10

# The magnitudes, other than zero, that ``float.__repr__`` writes without
# an exponent.  Inside them orjson writes the same text (no difference in
# 3.0 M random bit patterns and 1.0 M values spread over the range, orjson
# 3.8.3); outside them it spells the exponent otherwise (``1e16``,
# ``0.00001`` and ``4.9e-6`` against ``1e+16``, ``1e-05`` and ``4.9e-06``).
_POSITIONAL = (1e-4, 1e16)


def _render(value, out: list[str], newline: str, memo: dict) -> None:
    """Append the canonical text of a JSON tree to ``out``.

    Types dispatch in ``json``'s own order (``str``; ``None``, ``True``,
    ``False`` before ``int``; ``float`` and its subclasses through
    ``float.__repr__``; list or tuple; dict), and ``newline`` is the line
    break plus the indentation of the current depth.  A float64 array of
    one or two dimensions is written as the list its ``tolist()`` is, and
    so is a list of exact floats, by `_float_rows`, where nearly all of an
    artifact's bytes are: it writes the entries of each chunk of rows,
    but its ``+0.0`` ones, with one orjson call, and puts
    ``float.__repr__`` back where orjson spells a float otherwise.  The
    tree itself is walked here, not by orjson, which writes non-ASCII text
    as UTF-8 where ``json`` escapes it, refuses integers past 64 bits, and
    spells a float's exponent otherwise.

    ``memo`` holds one entry per float array rendered so far in the
    document, keyed by its shape and a hash of :data:`_MEMO_SAMPLES`
    evenly spaced entries' bits: the array and where its pieces of ``out``
    start and end.  An array with the same key and the same bits (checked
    in full, not by the key alone) takes those pieces again instead of a
    new rendering.  Its text is the
    same up to the indentation, and a float's text holds no line break, so
    every line break in the pieces is one of the list's own, made of the
    first occurrence's ``newline`` and some further spaces; putting this
    occurrence's ``newline`` in its place gives this occurrence's text.
    The memo keeps no copy of the bits and no joined text: only the array,
    and the pieces already in ``out``.
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
        if not math.isfinite(value):
            raise _out_of_range(value)
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        elif set(map(type, value)) == {float}:
            _memo_float_rows(np.array(value), out, newline, memo)
        else:
            inner = newline + "  "
            out.append("[" + inner)
            for pos, item in enumerate(value):
                if pos:
                    out.append("," + inner)
                _render(item, out, inner, memo)
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
            _render(value[key], out, inner, memo)
        out.append(newline + "}")
    elif (
        isinstance(value, np.ndarray) and value.dtype == np.float64
        and value.ndim in (1, 2)
    ):
        _memo_float_rows(value, out, newline, memo)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _memo_float_rows(array: np.ndarray, out: list[str], newline: str, memo: dict) -> None:
    """`_float_rows`, or the pieces of an equal array that ``memo`` holds,
    re-indented; see :func:`_render`.

    Only C-ordered arrays are memoized, as only their bits can be viewed
    without a copy, and only those with no ``+0.0`` entry, the entries
    `_float_rows` leaves out of its orjson calls: a diagonal 127 x 127
    matrix renders faster than its text is re-indented (0.47-0.52 against
    0.67-0.75 ms), while a 221 x 221 matrix with no zero renders slower
    (7.8-11 ms, or 23-27 ms when a third of its entries lie below 1e-4,
    against 4.9-6.1 ms; 2-core VM, numpy 2.4.6, orjson 3.8.3).
    """
    bits = array.reshape(-1).view(np.uint64) if array.flags.c_contiguous else None
    if bits is None or not bits.all():
        _float_rows(array, out, newline)
        return
    key = (array.shape, hash(bits[::max(1, len(bits) // _MEMO_SAMPLES)].tobytes()))
    seen = memo.get(key)
    if seen is not None:
        first, first_newline, start, end = seen
        if np.array_equal(first.view(np.uint64), array.view(np.uint64)):
            pieces = out[start:end]
            if newline != first_newline:
                pieces = [piece.replace(first_newline, newline) for piece in pieces]
            out += pieces
            return
    start = len(out)
    _float_rows(array, out, newline)
    memo.setdefault(key, (array, newline, start, len(out)))


def _out_of_range(value) -> ValueError:
    """``json``'s complaint about a NaN or infinite float, naming it as a
    Python float."""
    return ValueError(f"Out of range float values are not JSON compliant: {float(value)!r}")


def _float_rows(array: np.ndarray, out: list[str], newline: str) -> None:
    """Append the canonical text of ``array.tolist()``, for a float64 array
    of one or two dimensions, in chunks of whole rows.

    One ``isfinite`` pass refuses a NaN or an infinity, naming the first.
    A chunk holds at most :data:`_ROW_CELLS` entries, and at least one row.
    Its entries whose bits are not all zero (``-0.0`` among them) are
    written by one orjson call, and those outside :data:`_POSITIONAL` get
    their ``float.__repr__`` back; the others are ``+0.0``, whose repr is
    ``"0.0"``.  So each entry's text is its repr, and each row's text is the
    one ``json`` makes of the same floats.

    Each row's text is a piece of ``out`` of its own, apart from its
    brackets (joining them on cost the benchmark's ``certify`` runs about
    2 MB of peak memory, of 50 MB), and a chunk's texts are freed before
    the next chunk's are made (with two chunks' texts alive at once, at
    2^12 cells a chunk, 4-second ``certify`` runs peaked at 50.5-51.2 MB,
    against 49.8-50.5 MB).
    """
    finite = np.isfinite(array)
    if not finite.all():
        raise _out_of_range(array[~finite][0])
    if not len(array):
        out.append("[]")
        return
    rows = array if array.ndim == 2 else array[None]
    length = rows.shape[1]
    row_newline = newline + "  " if array.ndim == 2 else newline
    inner = row_newline + "  "
    sep = "," + inner
    # one string object of each kind, however many rows
    between, opening, closing = "," + row_newline, "[" + inner, row_newline + "]"
    low, high = _POSITIONAL
    if array.ndim == 2:
        out.append("[" + row_newline)
    step = max(1, _ROW_CELLS // max(1, length))
    for top in range(0, len(rows), step):
        chunk = rows[top:top + step]
        nonzero = chunk.view(np.uint64) != 0
        values = chunk[nonzero]
        text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        texts = text.split(",") if text else []
        magnitudes = np.abs(values)
        by_repr = magnitudes < low
        by_repr |= magnitudes >= high
        for place, entry in zip(np.flatnonzero(by_repr).tolist(), values[by_repr].tolist()):
            texts[place] = float.__repr__(entry)
        cells = texts
        if len(values) < chunk.size:
            cells = ["0.0"] * chunk.size
            for place, entry in zip(np.flatnonzero(nonzero).tolist(), texts):
                cells[place] = entry
        for i in range(len(chunk)):
            if top + i:
                out.append(between)
            if not length:
                out.append("[]")
                continue
            out.append(opening)
            out.append(sep.join(cells[i * length:(i + 1) * length]))
            out.append(closing)
        del text, texts, cells  # before the next chunk's are made
    if array.ndim == 2:
        out.append(newline + "]")


def _is_document(obj) -> bool:
    return isinstance(obj, dict) and {"schema", "kind", "payload"} <= set(obj)


def save(path, obj) -> None:
    """Write :func:`dumps` of ``obj``, an object or a document, to ``path``."""
    Path(path).write_text(dumps(obj))


def load(path):
    return loads(Path(path).read_text())

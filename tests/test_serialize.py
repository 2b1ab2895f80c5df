"""Artifact documents: round trips, canonical bytes, schema rejection."""

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_golden_bytes import CASES as GOLDEN

from haarfactor import serialize as sz
from haarfactor.cli import ExperimentConfig, run
from haarfactor.factorize import factor_large_diagonal, primary_dichotomy
from haarfactor.haarsys import BasisRegistry
from haarfactor.operators import DiagonalOperator, OperatorMatrix, max_column_sum
from haarfactor.reduction import (
    compose_certificates,
    reduce_to_diagonal,
    reduce_to_scalar_finite,
    verify_certificate,
)
from haarfactor.weightedlp import (
    Block,
    FixedScheduleAdversary,
    WeightSequence,
    play_game,
)

SMALL = BasisRegistry({3: 2})


def seeded_matrix(seed=5, scale=0.05):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((SMALL.dim, SMALL.dim))
    np.fill_diagonal(noise, 0.0)
    noise /= max_column_sum(noise)
    return OperatorMatrix(4.0, SMALL.indices, np.eye(SMALL.dim) + scale * noise)


class TestOperatorRoundTrip:
    def test_seeded_matrix_reloads_identically(self):
        T = seeded_matrix()
        back = sz.loads(sz.dumps(T))
        assert back.basis == T.basis
        assert np.array_equal(back.entries, T.entries)
        assert back.exponent.p == T.exponent.p

    def test_awkward_float_entries_survive(self):
        # shortest-decimal rendering reloads to the exact binary values
        entries = np.array([[1 / 3, 1e-300], [0.1, 12345678.000000001]])
        reg = BasisRegistry({1: 0, 2: 1})
        basis = (reg.indices[0], reg.indices[1])
        T = OperatorMatrix(1.5, basis, entries)
        back = sz.loads(sz.dumps(T))
        assert np.array_equal(back.entries, entries)

    def test_diagonal_operator_round_trip(self):
        D = DiagonalOperator(4.0, SMALL.indices, np.linspace(0.5, 2.0, SMALL.dim))
        back = sz.loads(sz.dumps(D))
        assert isinstance(back, DiagonalOperator)
        assert back.basis == D.basis
        assert np.array_equal(back.diag, D.diag)

    def test_save_load_files(self, tmp_path):
        T = seeded_matrix()
        path = tmp_path / "op.json"
        sz.save(path, T)
        back = sz.load(path)
        assert np.array_equal(back.entries, T.entries)


class TestCertificateRoundTrip:
    def diagonal_cert(self):
        return reduce_to_diagonal(seeded_matrix(), {1: 0}, 0.25, k_schedule={1: 2})

    def test_all_fields_reload(self):
        cert = self.diagonal_cert()
        back = sz.loads(sz.dumps(cert))
        assert back.mode == cert.mode
        assert back.exponent == cert.exponent
        assert back.source_depths == cert.source_depths
        assert back.target_depths == cert.target_depths
        assert back.block_averages == cert.block_averages
        assert back.witnesses == cert.witnesses
        assert back.target_entries == cert.target_entries
        assert back.residuals == cert.residuals
        assert back.certified_bound == cert.certified_bound
        assert back.schedule == cert.schedule
        assert back.metadata == cert.metadata
        assert back.family.targets == cert.family.targets
        assert back.family.assignments == cert.family.assignments

    def test_reloaded_certificate_still_verifies(self):
        back = sz.loads(sz.dumps(self.diagonal_cert()))
        assert verify_certificate(back)["ok"]

    def test_bytes_are_canonical(self):
        cert = self.diagonal_cert()
        text = sz.dumps(cert)
        assert text == sz.dumps(cert)
        assert text == sz.dumps(sz.loads(text))

    def test_composite_certificate_round_trip(self):
        D = DiagonalOperator(
            4.0, BasisRegistry.single_copy(5).indices,
            np.full(31, 0.625),
        )
        c1 = reduce_to_diagonal(D.to_matrix(), {3: 2}, 0.2, k_schedule={3: 2})
        mid = DiagonalOperator(4.0, BasisRegistry.single_copy(3).indices, c1.target_entries)
        c2 = reduce_to_scalar_finite(mid, 2, 0.2)
        comp = compose_certificates(c1, c2)
        back = sz.loads(sz.dumps(comp))
        assert back.mode == "composite"
        assert back.scalar == comp.scalar
        assert back.scalar_witness == comp.scalar_witness
        assert back.metadata == comp.metadata
        assert verify_certificate(back)["ok"]


class TestWitnessRoundTrip:
    def test_large_diagonal_witness(self):
        D = DiagonalOperator(4.0, SMALL.indices, [1, 2, 0.5, 4, 1, 2, 0.5])
        w = factor_large_diagonal(D, 0.5, 0.25)
        back = sz.loads(sz.dumps(w))
        assert back.kind == w.kind and back.branch == w.branch
        assert np.array_equal(back.A, w.A) and np.array_equal(back.B, w.B)
        assert back.norm_factors == w.norm_factors
        assert back.norm_product_bound == w.norm_product_bound
        assert back.residual == w.residual
        assert back.metadata == w.metadata
        assert sz.dumps(back) == sz.dumps(w)

    def test_dichotomy_witness(self):
        reg = BasisRegistry.single_copy(5)
        rng = np.random.default_rng(11)
        T = OperatorMatrix.from_diagonal(4.0, reg.indices, rng.uniform(0, 1, reg.dim))
        w = primary_dichotomy(T, 0.25, k_schedule={3: 2})
        back = sz.loads(sz.dumps(w))
        assert back.branch == w.branch
        assert back.scalar == w.scalar
        assert back.scalar_witness == w.scalar_witness
        assert back.certificate.certified_bound == w.certificate.certified_bound
        # the reloaded witness supports the same evaluations
        assert back.sample_max_ratio(20, seed=3) == w.sample_max_ratio(20, seed=3)


class TestTranscriptRoundTrip:
    def test_game_reloads_and_verifies(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        t = play_game(FixedScheduleAdversary([1, 2, 3]), 3, w, Fraction(1, 10))
        back = sz.loads(sz.dumps(t))
        assert back.eps == Fraction(1, 10)
        assert [r.indices for r in back.rounds] == [r.indices for r in t.rounds]
        assert [r.block.budget for r in back.rounds] == [
            r.block.budget for r in t.rounds
        ]
        assert back.verify()["ok"]
        assert sz.dumps(back) == sz.dumps(t)

    def test_explicit_weight_family_round_trip(self):
        w = WeightSequence.explicit(4, [Fraction(1), Fraction(1), Fraction(1, 2)])
        back = sz.loads(sz.dumps(play_game(FixedScheduleAdversary([1]), 1, w, 1)))
        assert back.weights.kind == "explicit"
        assert back.weights.values == w.values

    @pytest.mark.parametrize("field", ["block_coeffs", "beta"])
    def test_tampered_block_no_longer_verifies(self, field):
        # Scaled coefficients come with a functional recomputed to match,
        # so the document loads; only re-deriving the block exposes them.
        w = WeightSequence.power(4, Fraction(1, 4))
        t = play_game(FixedScheduleAdversary([1, 2]), 2, w, Fraction(1, 10))
        doc = json.loads(sz.dumps(t))
        item = doc["payload"]["rounds"][1]
        if field == "beta":
            item["beta"] = float(np.nextafter(item["beta"], 2.0))
        else:
            item["block_coeffs"] = [3 * c for c in item["block_coeffs"]]
            forged = Block(
                indices=tuple(item["indices"]),
                coeffs=np.array(item["block_coeffs"]),
                beta=item["beta"],
                budget=Fraction(item["budget"]),
                weights=w,
            )
            item["functional_coeffs"] = [float(c) for c in forged.functional()]
        report = sz.loads(json.dumps(doc)).verify()
        assert not report["block_data"]
        assert not report["ok"]
        assert report["budget_window"] and report["biorthogonal"]

    def test_tampered_budget_target_no_longer_verifies(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        t = play_game(FixedScheduleAdversary([1, 2, 3]), 3, w, Fraction(1, 10))
        doc = json.loads(sz.dumps(t))
        doc["payload"]["rounds"][1]["budget_target"] = "1/1000000"
        report = sz.loads(json.dumps(doc)).verify()
        assert not report["budget_window"]
        assert not report["ok"]
        assert report["block_data"] and report["biorthogonal"]

    def test_tampered_functional_is_rejected(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        t = play_game(FixedScheduleAdversary([1]), 1, w, Fraction(1, 10))
        doc = json.loads(sz.dumps(t))
        doc["payload"]["rounds"][0]["functional_coeffs"][0] *= 2
        with pytest.raises(sz.SchemaError, match="functional coefficients"):
            sz.undocument(doc)

    def test_round_with_empty_indices_is_rejected(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        t = play_game(FixedScheduleAdversary([1, 2]), 2, w, Fraction(1, 10))
        doc = json.loads(sz.dumps(t))
        item = doc["payload"]["rounds"][1]
        item["indices"], item["block_coeffs"], item["functional_coeffs"] = [], [], []
        with pytest.raises(sz.SchemaError, match=r"rounds\[1\]\.indices"):
            sz.loads(json.dumps(doc))

    def test_game_without_rounds_is_rejected(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        t = play_game(FixedScheduleAdversary([1]), 1, w, Fraction(1, 10))
        doc = json.loads(sz.dumps(t))
        doc["payload"]["rounds"] = []
        with pytest.raises(sz.SchemaError, match="at least one round"):
            sz.loads(json.dumps(doc))


class TestMomentAndReportDocuments:
    def test_moment_report_is_no_document_kind(self):
        # verify-moments makes no artifact, so no moment-report kind is read
        doc = {
            "schema": sz.SCHEMA_VERSION, "kind": "moment-report", "metadata": {},
            "payload": {
                "kind": "Y", "mean": 0.0, "variance": 0.25, "closed_form": 0.25,
                "bound": 0.3535, "bound_passed": True, "count": 4,
            },
        }
        with pytest.raises(sz.SchemaError, match="unknown document kind 'moment-report'"):
            sz.loads(json.dumps(doc))

    def test_run_report_trees_keep_exact_values(self):
        report = {
            "command": "demo",
            "depths": {1: 0, 2: 1},
            "eps": Fraction(13, 12),
            "values": [1, 2.5, None, True],
        }
        back = sz.loads(sz.dumps(report))
        assert back["depths"] == {1: 0, 2: 1}
        assert back["eps"] == Fraction(13, 12)
        assert back["values"] == [1, 2.5, None, True]

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            sz.dumps({"x": float("nan")})

    def test_arrays_in_a_tree_reload_as_lists(self):
        report = {"row": np.array([0.5, -0.0]), "rows": np.array([[1.0], [2.0]])}
        back = sz.loads(sz.dumps(report))
        assert back == {"row": [0.5, -0.0], "rows": [[1.0], [2.0]]}
        assert str(back["row"][1]) == "-0.0"

    def test_a_value_of_no_json_form_in_a_tree_is_named(self):
        with pytest.raises(sz.SchemaError, match=r"payload\.x: cannot encode object values"):
            sz.dumps({"x": object()})

    def test_unserializable_object_is_named(self):
        with pytest.raises(sz.SchemaError, match="no document form"):
            sz.document(object())


class TestSchemaRejection:
    def operator_doc(self):
        return json.loads(sz.dumps(seeded_matrix()))

    def test_basis_out_of_order(self):
        doc = self.operator_doc()
        b = doc["payload"]["basis"]
        b[0], b[1] = b[1], b[0]
        with pytest.raises(sz.SchemaError, match="out of order at position 1"):
            sz.undocument(doc)

    def test_a_document_or_payload_that_is_no_object(self):
        with pytest.raises(sz.SchemaError, match="document must be an object, got list"):
            sz.loads("[]")
        doc = self.operator_doc()
        doc["payload"] = [1.0]
        with pytest.raises(sz.SchemaError, match="payload must be an object, got list"):
            sz.undocument(doc)

    def test_a_row_that_is_no_list(self):
        doc = self.operator_doc()
        doc["payload"]["entries"][2] = 1.0
        with pytest.raises(sz.SchemaError, match=r"entries\[2\]: expected a row, got float"):
            sz.undocument(doc)

    @pytest.mark.parametrize("basis", [[], "3/1:0", None])
    def test_an_empty_basis_or_none_at_all(self, basis):
        doc = self.operator_doc()
        doc["payload"]["basis"] = basis
        with pytest.raises(sz.SchemaError, match="basis must be a non-empty list"):
            sz.undocument(doc)

    @pytest.mark.parametrize("field", ["block_averages", "witnesses"])
    def test_certificate_lists_of_other_lengths(self, field):
        doc = json.loads(sz.dumps(TestCertificateRoundTrip().diagonal_cert()))
        doc["payload"][field].append(doc["payload"][field][0])
        with pytest.raises(sz.SchemaError, match="lengths disagree"):
            sz.undocument(doc)

    def test_unknown_field_is_named(self):
        doc = self.operator_doc()
        doc["payload"]["surprise"] = 1
        with pytest.raises(sz.SchemaError, match="surprise"):
            sz.undocument(doc)

    def test_missing_field_is_named(self):
        doc = self.operator_doc()
        del doc["payload"]["entries"]
        with pytest.raises(sz.SchemaError, match="missing field 'entries'"):
            sz.undocument(doc)

    def test_wrong_schema_version(self):
        doc = self.operator_doc()
        doc["schema"] = "haarfactor/999"
        with pytest.raises(sz.SchemaError, match="haarfactor/999"):
            sz.undocument(doc)

    def test_unknown_kind(self):
        doc = self.operator_doc()
        doc["kind"] = "mystery"
        with pytest.raises(sz.SchemaError, match="mystery"):
            sz.undocument(doc)

    def test_json_syntax_error_reports_line_and_column(self):
        with pytest.raises(sz.SchemaError, match=r"line \d+ column \d+"):
            sz.loads('{"schema": "haarfactor/1",\n  "kind": }')

    def test_bad_basis_entry_reports_position(self):
        doc = self.operator_doc()
        doc["payload"]["basis"][2] = "not-an-index"
        with pytest.raises(sz.SchemaError, match="basis entry 2"):
            sz.undocument(doc)

    def test_entry_shape_mismatch(self):
        doc = self.operator_doc()
        doc["payload"]["entries"] = doc["payload"]["entries"][:-1]
        with pytest.raises(sz.SchemaError, match="expected 7 rows"):
            sz.undocument(doc)
        doc = self.operator_doc()
        doc["payload"]["entries"][3] = doc["payload"]["entries"][3][:-1]
        with pytest.raises(sz.SchemaError, match="row 3 has 6 columns"):
            sz.undocument(doc)

    def test_diagonal_length_mismatch(self):
        doc = json.loads(
            sz.dumps(DiagonalOperator(4.0, SMALL.indices, np.ones(SMALL.dim)))
        )
        doc["payload"]["diagonal"].append(1.0)
        with pytest.raises(sz.SchemaError, match="diagonal length 8"):
            sz.undocument(doc)

    def test_weight_family_validation_becomes_schema_error(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        t = play_game(FixedScheduleAdversary([1]), 1, w, Fraction(1, 10))
        doc = json.loads(sz.dumps(t))
        doc["payload"]["weights"]["family"] = "mystery"
        with pytest.raises(sz.SchemaError, match="mystery"):
            sz.undocument(doc)
        doc["payload"]["weights"] = {"family": "power", "p": "2", "decay": "1/4"}
        with pytest.raises(sz.SchemaError, match="p > 2"):
            sz.undocument(doc)


def factorize_source() -> OperatorMatrix:
    """The benchmark's `factorize` input: I + 0.05 N on the acceptance source."""
    source = BasisRegistry({5: 4, 6: 5, 7: 6})
    noise = np.random.default_rng(5).standard_normal((source.dim, source.dim))
    np.fill_diagonal(noise, 0.0)
    noise /= max_column_sum(noise)
    return OperatorMatrix(4.0, source.indices, np.eye(source.dim) + 0.05 * noise)


@pytest.fixture(scope="module")
def seed0_witness(tmp_path_factory):
    """The benchmark's `factorize` job on `factorize_source`."""
    root = tmp_path_factory.mktemp("factorize")
    op = root / "operator.json"
    sz.save(op, factorize_source())
    out = root / "witness.json"
    run(ExperimentConfig(
        "factorize", p=4.0, delta=1.0, eps="0.25", seed=5,
        inputs=(str(op),), out=str(out),
    ))
    return out


# free-form trees, whose leaves may hold any JSON value
FREE_FORM = {"schedule", "run_data", "metadata"}


def leaf_paths(doc) -> list[tuple]:
    """One path of keys and positions per field path of ``doc``'s leaves,
    list positions collapsed; free-form trees and nulls are left out."""
    first = {}

    def walk(node, path, field):
        if isinstance(node, dict):
            for key, value in node.items():
                if key not in FREE_FORM:
                    walk(value, (*path, key), (*field, key))
        elif isinstance(node, list):
            for pos, value in enumerate(node):
                walk(value, (*path, pos), (*field, "[]"))
        elif node is not None:
            first.setdefault(field, path)

    walk(doc, (), ())
    return list(first.values())


def swapped(value):
    """The leaf in another JSON type: number -> string, int -> x + 0.5,
    string -> int, bool -> string."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return value + 0.5
    if isinstance(value, float):
        return repr(value)
    return 7


def power_game():
    w = WeightSequence.power(4, Fraction(1, 4))
    return play_game(FixedScheduleAdversary([1, 2]), 2, w, Fraction(1, 10))


class TestFieldTypes:
    """Every leaf of every document kind is read by a codec that accepts one
    JSON type: a leaf of another type is a SchemaError naming its field.
    The swapped documents go to `undocument`, which `loads` runs on the
    parsed text, so that a large document is not re-rendered per leaf."""

    def refusals(self, doc) -> list[str]:
        """The leaf paths whose swapped value loads, or fails without
        naming the leaf's key."""
        misses = []
        for path in leaf_paths(doc):
            node = doc
            for step in path[:-1]:
                node = node[step]
            leaf = node[path[-1]]
            node[path[-1]] = swapped(leaf)
            key = next(step for step in reversed(path) if isinstance(step, str))
            try:
                sz.undocument(doc)
                misses.append(f"{path}: loaded")
            except sz.SchemaError as exc:
                if key not in str(exc):
                    misses.append(f"{path}: {exc}")
            finally:
                node[path[-1]] = leaf
        return misses

    @pytest.mark.parametrize(
        "name", sorted(set(GOLDEN) - {"run_report"}) + ["power_game"]
    )
    def test_golden_documents(self, name):
        build = power_game if name == "power_game" else GOLDEN[name][0]
        assert self.refusals(sz.document(build())) == []

    def test_seed0_factorize_witness(self, seed0_witness):
        assert self.refusals(json.loads(seed0_witness.read_text())) == []


# -- canonical rendering ------------------------------------------------------------


def oracle(doc) -> str:
    """The canonical format, as the standard library writes it."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def json_types_only(tree) -> bool:
    if type(tree) is dict:
        return all(type(k) is str and json_types_only(v) for k, v in tree.items())
    if type(tree) is list:
        return all(json_types_only(v) for v in tree)
    return type(tree) in (str, int, float, bool, type(None))


# repr switches to an exponent below 1e-4 and from 1e16 on, and orjson,
# which spells the exponent otherwise, below 1e-5 and from 1e16 on: each
# switch point with the float just below it, and 1.5e16, an exponent with a
# fraction; 1e-7 and 1e21 are where ECMAScript's shortest form switches
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
    1e16, 9999999999999998.0, 1.5e16, 1e21, 1e-5, 1.0000000000000002e-5,
    9.999999999999999e-06, 0.0001, 9.999999999999999e-05, 1e-7, 0.1, -2.5,
]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    EDGE_FLOATS
)
integers = st.integers() | st.integers(2**64, 2**70) | st.integers(-(2**70), -(2**64))
texts = st.text() | st.sampled_from(["", "é", "\x00\x1f\x7f", " ", "😀", '"\\/'])
scalars = st.one_of(
    st.none(), st.booleans(), integers, finite_floats, texts,
    finite_floats.map(np.float64),
)
rows = st.lists(finite_floats, min_size=1, max_size=300)
trees = st.recursive(
    scalars | rows | st.lists(integers | finite_floats),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)
documents = st.fixed_dictionaries(
    {"schema": texts, "kind": texts, "payload": trees, "metadata": trees}
)


class TestCanonicalRendering:
    """`dumps` writes exactly the bytes of ``json.dumps(doc, sort_keys=True,
    indent=2, allow_nan=False)`` plus a final newline."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(documents)
    def test_matches_the_json_oracle(self, doc):
        assert sz.dumps(doc) == oracle(doc)

    # `dumps` of an object renders its float vectors and matrices as arrays,
    # while `document` gives JSON types only
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_cases_match_the_oracle(self, name):
        obj = GOLDEN[name][0]()
        doc = sz.document(obj)
        assert json_types_only(doc)
        assert sz.dumps(obj) == sz.dumps(doc) == oracle(doc)

    def test_seed0_factorize_witness_matches_the_oracle(self, seed0_witness):
        obj = sz.load(seed0_witness)
        doc = sz.document(obj)
        assert json_types_only(doc)
        assert seed0_witness.read_text() == sz.dumps(obj) == sz.dumps(doc) == oracle(doc)

    def test_non_str_key_is_a_type_error(self):
        # json.dumps would coerce 1 to "1"; documents carry int keys as
        # ``~pairs``, so a bare one is refused instead
        doc = {"schema": "s", "kind": "k", "payload": {1: 0.5}, "metadata": {}}
        with pytest.raises(TypeError, match="keys must be str, not int"):
            sz.dumps(doc)

    # only a float64 array of one or two dimensions stands for a list
    @pytest.mark.parametrize(
        "value",
        [np.int64(3), np.bool_(True), object(), np.zeros(3, np.float32),
         np.zeros((2, 2), np.int64), np.zeros(2, object), np.zeros((2, 2, 2)),
         np.array(1.0)],
    )
    def test_non_json_value_is_a_type_error(self, value):
        doc = {"schema": "s", "kind": "k", "payload": [1.0, value], "metadata": {}}
        with pytest.raises(TypeError, match="not JSON serializable"):
            sz.dumps(doc)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@st.composite
def float_arrays(draw):
    """A float64 array of one of the shapes ``(0,)``, ``(n,)``, ``(m, 0)``,
    ``(0, n)`` and ``(m, n)``, whose rows hold any share of ``+0.0``, on
    either side of the renderer's quarter-zeros gate, as a contiguous array
    or as a transposed or strided view."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(0,), (n,), (m, 0), (0, n), (m, n)]))
    rows = []
    for _ in range(shape[0] if len(shape) == 2 else 1):
        width = shape[-1]
        row = draw(st.lists(finite_floats, min_size=width, max_size=width))
        zeros = draw(st.integers(0, width))
        for j in draw(st.permutations(range(width)))[:zeros]:
            row[j] = 0.0
        rows.append(row)
    array = np.array(rows, dtype=float).reshape(shape)
    view = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    if view == "transposed":
        array = np.ascontiguousarray(array.T).T
    elif view == "strided":
        wide = np.full(tuple(2 * k for k in shape), 7.5)
        wide[tuple(slice(None, None, 2) for _ in shape)] = array
        array = wide[tuple(slice(None, None, 2) for _ in shape)]
    return array


class TestArrayRendering:
    """Float64 arrays in a document render as the lists their ``tolist()``
    gives, through the same renderer as `dumps` of a package object."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(float_arrays(), float_arrays())
    def test_matches_the_json_oracle_of_the_lists(self, first, second):
        def doc(a, b):
            return {"schema": "s", "kind": "k", "metadata": {},
                    "payload": {"a": a, "rows": [a, 1, b], "b": b}}

        assert sz.dumps(doc(first, second)) == oracle(doc(first.tolist(), second.tolist()))

    @pytest.mark.parametrize("view", ["contiguous", "transposed", "strided"])
    def test_a_wide_seeded_matrix_matches_the_json_oracle(self, view):
        # the benchmark's factorize source, I + 0.05 N: about a third of its
        # entries lie below 1e-4
        array = factorize_source().entries
        if view == "transposed":
            array = np.ascontiguousarray(array.T).T
        elif view == "strided":
            wide = np.full((442, 442), 7.5)
            wide[::2, ::2] = array
            array = wide[::2, ::2]
        doc = {"schema": "s", "kind": "k", "metadata": {}, "payload": {"a": array}}
        assert sz.dumps(doc) == oracle(sz._json_types(doc))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("shape, at", [((5,), (3,)), ((3, 4), (2, 1)), ((4, 3), (0, 0))])
    def test_a_non_finite_entry_is_named(self, bad, shape, at):
        array = np.zeros(shape)
        array[at] = bad
        array.flat[-1] = np.nan if np.isinf(bad) else np.inf  # a later one
        doc = {"schema": "s", "kind": "k", "payload": {"a": array}, "metadata": {}}
        with pytest.raises(ValueError) as raised:
            sz.dumps(doc)
        assert str(raised.value) == (
            f"Out of range float values are not JSON compliant: {float(bad)!r}"
        )


def render_without_memo(doc) -> str:
    """The text of ``doc`` with every float array rendered afresh."""

    class NoMemo(dict):
        def get(self, key, default=None):
            return default

    out = []
    sz._render(doc, out, "\n", NoMemo())
    return "".join(out) + "\n"


@pytest.fixture(params=["sampled", "colliding"])
def digests(request, monkeypatch):
    """The render memo's keys as they are, or one key for every array of a
    shape (every hash 0), so that only the full comparison of bits tells
    arrays apart."""
    if request.param == "colliding":
        monkeypatch.setattr(sz, "hash", lambda data: 0, raising=False)


class TestOneRenderingPerArray:
    """Equal float arrays in one document are rendered once and re-indented;
    the bytes are those of rendering each afresh.  Arrays that differ in
    shape or bits are told apart by a full comparison, also when their
    digests collide."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(float_arrays(), st.data())
    def test_equal_arrays_at_different_depths(self, array, data):
        twin = array.copy()
        listed = array.tolist()
        payload = {"a": array, "deep": [1, {"b": twin, "c": [[array, listed]]}],
                   "z": [listed, array]}
        if array.ndim == 1 and data.draw(st.booleans()):
            payload["floats"] = [float(x) for x in listed]
        doc = {"schema": "s", "kind": "k", "metadata": {"m": array}, "payload": payload}
        assert sz.dumps(doc) == render_without_memo(doc) == oracle(sz._json_types(doc))

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(float_arrays(), st.data())
    def test_signed_zeros_are_rendered_apart(self, digests, array, data):
        flipped = np.array(array)  # C-ordered
        zeros = np.flatnonzero(flipped.reshape(-1) == 0.0)
        if zeros.size:
            at = data.draw(st.sampled_from(zeros.tolist()))
            flipped.reshape(-1)[at] = -flipped.reshape(-1)[at]
        plain = np.array(array)
        doc = {"schema": "s", "kind": "k", "metadata": {},
               "payload": {"a": plain, "b": flipped, "c": [plain, flipped]}}
        assert (plain == flipped).all()
        text = sz.dumps(doc)
        assert text == render_without_memo(doc) == oracle(sz._json_types(doc))

    @pytest.mark.parametrize("shapes", [((6,), (2, 3)), ((2, 3), (3, 2)), ((6,), (6, 1))])
    def test_same_bytes_in_other_shapes_are_rendered_apart(self, digests, shapes):
        values = np.array([0.5, -0.0, 3.0, 0.0, 1e-7, 2.5])
        first, second = (values.reshape(shape) for shape in shapes)
        doc = {"schema": "s", "kind": "k", "metadata": {},
               "payload": {"a": first, "b": second, "c": [second, first]}}
        text = sz.dumps(doc)
        assert text == render_without_memo(doc) == oracle(sz._json_types(doc))

    def test_the_witness_renders_its_source_once(self, seed0_witness, monkeypatch):
        witness = sz.load(seed0_witness)
        source = witness.source.entries
        assert np.array_equal(witness.certificate.source.entries.view(np.uint64),
                              source.view(np.uint64))
        shapes = []
        float_rows = sz._float_rows

        def counted(array, out, newline):
            shapes.append(array.shape)
            float_rows(array, out, newline)

        monkeypatch.setattr(sz, "_float_rows", counted)
        assert sz.dumps(witness) == seed0_witness.read_text()
        assert shapes.count(source.shape) == 1


class TestParseOnce:
    """Each distinct index, interval and fraction text is parsed once per
    process; a refused text is refused on every load."""

    def test_a_malformed_index_is_refused_on_every_load(self):
        doc = json.loads(sz.dumps(seeded_matrix()))
        doc["payload"]["basis"][2] = "3/1:02"
        text = json.dumps(doc)
        for _ in range(3):
            with pytest.raises(sz.SchemaError, match="basis entry 2"):
                sz.loads(text)

    @pytest.mark.parametrize("name", ["composite", "diagonal_derandomized", "game_explicit"])
    def test_two_loads_give_equal_objects(self, name):
        text = sz.dumps(GOLDEN[name][0]())
        first, second = sz.loads(text), sz.loads(text)
        assert sz.dumps(first) == sz.dumps(second) == text
        if name == "game_explicit":
            assert first.weights.values == second.weights.values
            assert first.eps == second.eps
            assert [r.block.budget for r in first.rounds] == [
                r.block.budget for r in second.rounds
            ]
        else:
            assert first.source.basis == second.source.basis
            assert first.family.assignments == second.family.assignments


class TestNonFiniteRefused:
    """NaN and the infinities raise before any byte is written."""

    def doc(self, payload):
        return {"schema": sz.SCHEMA_VERSION, "kind": "k", "payload": payload, "metadata": {}}

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", [0, 110, 220])
    def test_in_a_float_row(self, bad, where):
        row = np.linspace(-1.0, 1.0, 221).tolist()
        row[where] = bad
        with pytest.raises(ValueError, match="not JSON compliant"):
            sz.dumps(self.doc({"entries": [row]}))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_as_a_nested_scalar(self, bad):
        with pytest.raises(ValueError, match="not JSON compliant"):
            sz.dumps(self.doc({"a": [1, {"b": bad}]}))
        with pytest.raises(ValueError, match="not JSON compliant"):
            sz.dumps(self.doc({"a": np.float64(bad)}))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_in_run_data_and_no_file_is_saved(self, bad, tmp_path):
        cert = TestCertificateRoundTrip().diagonal_cert()
        cert = replace(cert, metadata={**cert.metadata, "probe": [0.5, bad]})
        with pytest.raises(ValueError, match="not JSON compliant"):
            sz.dumps(cert)
        path = tmp_path / "cert.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            sz.save(path, cert)
        assert not path.exists()


class TestNonFiniteTokensRejected:
    """`loads` refuses the NaN/Infinity tokens that `dumps` never writes."""

    @pytest.mark.parametrize("bad, token", zip(NON_FINITE, ["NaN", "Infinity", "-Infinity"]))
    def test_in_a_certified_bound(self, bad, token):
        source = BasisRegistry.single_copy(5)
        d = 0.4 + np.random.default_rng(0).uniform(-0.01, 0.01, source.dim)
        cert = reduce_to_scalar_finite(DiagonalOperator(4.0, source.indices, d), 2, 0.2)
        doc = json.loads(sz.dumps(cert))
        doc["payload"]["certified_bound"] = bad
        text = json.dumps(doc)  # the standard library writes the token
        assert token in text
        with pytest.raises(sz.SchemaError, match=f"non-finite number {token} "):
            sz.loads(text)


SENTINEL = 123456.789  # a number written only to be swapped for a literal


def edited_text(doc, edit, literal="1e400") -> str:
    """``doc`` after ``edit``, as text, with the sentinel spelled ``literal``."""
    edit(doc)
    return json.dumps(doc).replace(repr(SENTINEL), literal)


class TestLeavesReDumpToTheirOwnBytes:
    """A loaded leaf re-dumps to its own bytes: a string leaf must be the
    spelling `dumps` writes, and a number literal past the float range,
    which JSON parsing turns into an infinity, is refused, both naming the
    field."""

    @staticmethod
    def set_at(*path, value):
        def edit(doc):
            node = doc
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        return edit

    @pytest.mark.parametrize(
        "build, path, value, where",
        [
            (power_game, ("eps",), "0.1", r"payload\.eps: '0\.1' is not written as '1/10'"),
            (power_game, ("rounds", 1, "budget_target"), lambda t: " " + t,
             r"rounds\[1\]\.budget_target: ' 1/2' is not written as '1/2'"),
            (GOLDEN["scalar_paper"][0], ("family", 0, "target"),
             lambda t: t.replace(":", ":0"),
             r"family\[0\]\.target: '2/0:01' is not written as '2/0:1'"),
            (GOLDEN["scalar_paper"][0], ("family", 0, "intervals", 0),
             lambda t: "0" + t,
             r"family\[0\]\.intervals\[0\]: '02:1' is not written as '2:1'"),
        ],
    )
    def test_string_leaf_in_another_spelling(self, build, path, value, where):
        doc = json.loads(sz.dumps(build()))
        text = edited_text(doc, self.set_at("payload", *path, value=value))
        with pytest.raises(sz.SchemaError, match=where):
            sz.loads(text)

    @pytest.mark.parametrize(
        "build, path, literal, where",
        [
            (GOLDEN["scalar_paper"][0], ("eps",), "1e400",
             r"payload\.eps: expected a finite number, got inf"),
            (GOLDEN["dense_operator"][0], ("entries", 2, 1), "-1e400",
             r"payload\.entries\[2\]\[1\]: expected a finite number, got -inf"),
            (GOLDEN["scalar_paper"][0], ("residuals", 0), "1e999",
             r"payload\.residuals\[0\]: expected a finite number, got inf"),
            (power_game, ("rounds", 1, "beta"), "1e400",
             r"rounds\[1\]\.beta: expected a finite number, got inf"),
        ],
    )
    def test_number_literal_past_the_float_range(self, build, path, literal, where):
        doc = json.loads(sz.dumps(build()))
        text = edited_text(doc, self.set_at("payload", *path, value=SENTINEL), literal)
        assert literal in text
        with pytest.raises(sz.SchemaError, match=where):
            sz.loads(text)

    @pytest.mark.parametrize(
        "probe, literal, where",
        [
            (SENTINEL, "1e400", r"run_data\.probe: expected a finite number, got inf"),
            ([0.5, [2, SENTINEL]], "-1e400",
             r"run_data\.probe\[1\]\[1\]: expected a finite number, got -inf"),
            ({"~pairs": [[1, SENTINEL]]}, "1e999",
             r"run_data\.probe\.~pairs\[0\]\[1\]: expected a finite number, got inf"),
        ],
    )
    def test_number_literal_past_the_float_range_in_a_tree(self, probe, literal, where):
        doc = json.loads(sz.dumps(GOLDEN["scalar_paper"][0]()))
        text = edited_text(doc, self.set_at("payload", "run_data", "probe", value=probe), literal)
        assert literal in text
        with pytest.raises(sz.SchemaError, match=where):
            sz.loads(text)

    def test_finite_tree_floats_load_and_redump(self):
        doc = json.loads(sz.dumps(GOLDEN["scalar_paper"][0]()))
        doc["payload"]["run_data"]["probe"] = [1e300, -0.0, 5e-324, [2, 0.1]]
        text = sz.dumps(doc)
        loaded = sz.loads(text)
        assert loaded.metadata["probe"] == [1e300, -0.0, 5e-324, [2, 0.1]]
        assert sz.dumps(loaded) == text


CERTIFICATES = [
    "identity", "composite", "diagonal_paper", "diagonal_relaxed",
    "diagonal_derandomized", "diagonal_of_diagonal", "scalar_paper", "scalar_relaxed",
    "scalar_derandomized",
]
WITNESSES = [
    "factorization_exact", "factorization_compressed", "dichotomy_of_t",
    "dichotomy_of_complement",
]


class TestExponentsAgree:
    """A certificate or witness whose exponents disagree is refused on load,
    naming the field: its bounds hold for one exponent only, and the
    verifier would otherwise re-derive them under the other."""

    @staticmethod
    def loaded(name, *paths):
        """Golden ``name`` loaded after setting each ``payload`` path to 1.5."""
        doc = json.loads(sz.dumps(GOLDEN[name][0]()))
        for path in paths:
            node = doc["payload"]
            for step in path[:-1]:
                node = node[step]
            assert node[path[-1]] != 1.5
            node[path[-1]] = 1.5
        return sz.loads(json.dumps(doc))

    @pytest.mark.parametrize("name", CERTIFICATES + WITNESSES)
    def test_source_exponent(self, name):
        with pytest.raises(sz.SchemaError, match=r" payload\.source\.p: exponent 1\.5 differs"):
            self.loaded(name, ("source", "p"))

    @pytest.mark.parametrize("name", WITNESSES)
    def test_witness_exponent(self, name):
        with pytest.raises(
            sz.SchemaError, match=r" payload\.source\.p: exponent 4\.0 differs from p 1\.5"
        ):
            self.loaded(name, ("p",))

    @pytest.mark.parametrize("name", WITNESSES)
    def test_witness_certificate_exponent(self, name):
        with pytest.raises(
            sz.SchemaError, match=r" payload\.certificate\.source\.p: exponent 4\.0 differs"
        ):
            self.loaded(name, ("certificate", "p"))
        # a certificate that agrees with itself must still agree with its witness
        with pytest.raises(
            sz.SchemaError, match=r" payload\.certificate\.p: exponent 1\.5 differs from p 4\.0"
        ):
            self.loaded(name, ("certificate", "p"), ("certificate", "source", "p"))


def _deeper_copy(pairs):
    pairs.append([pairs[-1][0] + 1, 0])


def _shallower(pairs):
    pairs[-1][1] -= 1


class TestDepthsEnumerateTheirModels:
    """A certificate whose recorded depths are not the models it acts on is
    refused on load, naming the field: the verifier reads the source model
    from the source basis and the target model from the family's targets,
    so edited depths would otherwise load and be ignored or crash it."""

    @staticmethod
    def loaded(name, path, edit):
        """Golden ``name`` loaded after ``edit`` of the depth pairs at
        ``payload`` path ``path``."""
        doc = json.loads(sz.dumps(GOLDEN[name][0]()))
        node = doc["payload"]
        for step in path:
            node = node[step]
        edit(node)
        return sz.loads(json.dumps(doc))

    @pytest.mark.parametrize("edit", [_deeper_copy, _shallower])
    @pytest.mark.parametrize("field", ["source_depths", "target_depths"])
    @pytest.mark.parametrize("name", CERTIFICATES)
    def test_certificate(self, name, field, edit):
        with pytest.raises(
            sz.SchemaError, match=rf" payload\.{field}: the indices do not fill"
        ):
            self.loaded(name, (field,), edit)

    @pytest.mark.parametrize("field", ["source_depths", "target_depths"])
    @pytest.mark.parametrize("name", WITNESSES)
    def test_witness_certificate(self, name, field):
        with pytest.raises(
            sz.SchemaError, match=rf" payload\.certificate\.{field}: the indices do not fill"
        ):
            self.loaded(name, ("certificate", field), _deeper_copy)

    @staticmethod
    def scalar_document():
        """A scalar certificate over ``single_copy(5)``, target ``{2: 1}``."""
        registry = BasisRegistry.single_copy(5)
        rng = np.random.default_rng(0)
        T = DiagonalOperator(
            4.0, registry.indices, 0.5 + 0.05 * rng.uniform(-1, 1, registry.dim)
        )
        cert = reduce_to_scalar_finite(T, 2, 0.3)
        assert cert.target_depths == {2: 1}
        return json.loads(sz.dumps(cert))

    @pytest.mark.parametrize("depths", [[[3, 1]], [[2, 0]], [[2, 1], [3, 0]], []])
    def test_target_depths_of_another_model(self, depths):
        doc = self.scalar_document()
        doc["payload"]["target_depths"] = depths
        with pytest.raises(sz.SchemaError, match=r" payload\.target_depths: "):
            sz.loads(json.dumps(doc))

    def test_family_relabelled_onto_another_copy(self):
        doc = self.scalar_document()
        for entry in doc["payload"]["family"]:
            entry["target"] = entry["target"].replace("2/", "3/", 1)
        with pytest.raises(sz.SchemaError, match=r" payload\.target_depths: "):
            sz.loads(json.dumps(doc))

    def test_source_depths_of_another_model(self):
        doc = self.scalar_document()
        doc["payload"]["source_depths"] = [[5, 3]]
        with pytest.raises(sz.SchemaError, match=r" payload\.source_depths: "):
            sz.loads(json.dumps(doc))

    def test_the_unedited_document_loads_and_verifies(self):
        cert = sz.loads(json.dumps(self.scalar_document()))
        assert verify_certificate(cert)["ok"]

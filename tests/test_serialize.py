"""Artifact documents: round trips, canonical bytes, schema rejection."""

import json
from fractions import Fraction

import numpy as np
import pytest

from haarfactor import serialize as sz
from haarfactor.factorize import factor_large_diagonal, primary_dichotomy
from haarfactor.haarsys import BasisRegistry
from haarfactor.operators import DiagonalOperator, OperatorMatrix, max_column_sum
from haarfactor.randsigns import MomentReport
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
    def test_moment_report_round_trip(self):
        rep = MomentReport(
            kind="Y", mode="exact", mean=0.0, variance=0.25, closed_form=0.25,
            bound=0.3535, bound_passed=True, count=4,
        )
        back = sz.loads(sz.dumps(rep))
        assert back == rep

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

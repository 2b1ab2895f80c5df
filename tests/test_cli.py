"""Command-line runner: exit codes, report contents, artifact determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from haarfactor import serialize as sz
from haarfactor import cli
from haarfactor.cli import (
    ERROR,
    NEGATIVE,
    OK,
    ExperimentConfig,
    load_operator,
    main,
    run,
)
from haarfactor.factorize import factor_large_diagonal
from haarfactor.haarsys import BasisRegistry
from haarfactor.operators import (
    DiagonalAverageWitness,
    DiagonalOperator,
    OperatorMatrix,
    max_column_sum,
)
from haarfactor.reduction import (
    ReductionCertificate,
    column_sum_bound,
    identity_certificate,
    paper_block_depth,
    verify_certificate,
)
from haarfactor.weightedlp import GameTranscript


@pytest.fixture(scope="module")
def arts(tmp_path_factory):
    """Small operator artifacts shared across command tests."""
    root = tmp_path_factory.mktemp("arts")
    reg = BasisRegistry({3: 2})
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((reg.dim, reg.dim))
    np.fill_diagonal(noise, 0.0)
    noise /= max_column_sum(noise)
    op = root / "op.json"
    sz.save(op, OperatorMatrix(4.0, reg.indices, np.eye(reg.dim) + 0.05 * noise))

    r5 = BasisRegistry.single_copy(5)
    diag = root / "diag.json"
    sz.save(
        diag,
        DiagonalOperator(4.0, r5.indices, np.random.default_rng(11).uniform(0, 1, r5.dim)),
    )
    return {"root": root, "op": str(op), "diag": str(diag)}


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstantsCommand:
    def test_p4_values(self, capsys):
        code, out, _ = invoke(capsys, "constants", "--p", "4")
        assert code == OK
        body = sz.loads(out)
        assert body["status"] == OK
        assert body["results"]["projection_core"] == 25.455844122715714
        assert body["results"]["large_diagonal"]["value"] == 610.9402589451771
        assert body["results"]["subspace_growth"]["log_base_ambiguous"] is True

    def test_p2_collapses_to_one(self, capsys):
        code, out, _ = invoke(capsys, "constants", "--p", "2")
        assert code == OK
        body = sz.loads(out)
        assert body["results"]["projection_core"] == 1.0
        assert body["config"]["p"] == 2.0

    def test_timestamp_only_in_metadata(self, capsys):
        _, out, _ = invoke(capsys, "constants")
        doc = json.loads(out)
        assert "created" in doc["metadata"]
        assert "created" not in json.dumps(doc["payload"])


class TestVerifyMomentsCommand:
    @pytest.mark.parametrize("budget, reports", [("0", 1), ("2", 3)])
    def test_budget_counts_the_drawn_populations(self, capsys, budget, reports):
        code, out, _ = invoke(capsys, "verify-moments", "--budget", budget)
        assert code == OK
        body = sz.loads(out)
        assert len(body["results"]["reports"]) == reports  # the canonical case first
        assert set(body["results"]["reports"][0]) == {
            "kind", "mean", "variance", "closed_form", "bound", "bound_passed",
            "count", "ok", "canonical",
        }

    def test_a_negative_budget_is_an_error(self, capsys):
        code, out, err = invoke(capsys, "verify-moments", "--budget", "-1")
        assert code == ERROR and not out
        assert "no negative count" in sz.loads(err)["error"]["message"]

    def test_canonical_entry_and_checks(self, capsys):
        code, out, _ = invoke(capsys, "verify-moments", "--seed", "1")
        assert code == OK
        body = sz.loads(out)
        first = body["results"]["reports"][0]
        assert first["canonical"] is True
        assert first["mean"] == 0.0
        assert first["variance"] == 0.25
        assert first["bound"] == 0.3535533905932738
        assert body["checks"] == {
            "means_vanish": True,
            "closed_forms_match": True,
            "bounds_hold": True,
        }
        assert body["conventions"]["condition_star_log_base"] == 2


class TestReduceDiagonalCommand:
    def test_reduces_and_certifies(self, arts, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = invoke(
            capsys, "reduce-diagonal", "--in", arts["op"], "--out", str(cert_path)
        )
        assert code == OK
        body = sz.loads(out)
        assert body["checks"]["certified_below_eps"] is True
        assert body["checks"]["certificate_ok"] is True
        assert body["results"]["certified_bound"] < 0.25
        cert = sz.load(cert_path)
        assert isinstance(cert, ReductionCertificate)
        assert verify_certificate(cert)["ok"]

    def test_artifact_bytes_deterministic(self, arts, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        invoke(capsys, "reduce-diagonal", "--in", arts["op"], "--out", str(a))
        invoke(capsys, "reduce-diagonal", "--in", arts["op"], "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_report_body_deterministic(self, arts, capsys):
        _, out1, _ = invoke(capsys, "reduce-diagonal", "--in", arts["op"])
        _, out2, _ = invoke(capsys, "reduce-diagonal", "--in", arts["op"])
        assert sz.loads(out1) == sz.loads(out2)  # timestamps live in metadata
        assert json.loads(out1)["payload"] == json.loads(out2)["payload"]

    def test_default_budget_changes_no_byte(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert invoke(capsys, "reduce-diagonal", "--out", str(a))[0] == OK
        code, _, _ = invoke(
            capsys, "reduce-diagonal", "--budget", "1048576", "--out", str(b)
        )
        assert code == OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("budget, search", [
        (65536, "exhaustive"), (65535, "derandomized"),
    ])
    def test_a_budget_below_the_search_fixes_signs_one_by_one(
        self, capsys, tmp_path, budget, search
    ):
        # every sign search of the seeded source has 16 signs: a budget of
        # 2^16 patterns enumerates them, one pattern less does not
        path = tmp_path / "cert.json"
        code, _, _ = invoke(
            capsys, "reduce-diagonal", "--budget", str(budget), "--out", str(path)
        )
        assert code == OK
        run_data = json.loads(path.read_text())["payload"]["run_data"]
        assert {step["block_size"] for step in run_data["steps"]} == {16}
        assert (run_data["search"], run_data["pattern_budget"]) == (search, budget)

    def test_the_default_plan_past_the_cap_certifies(self, capsys, tmp_path):
        # copies 6, 7, 8 host level-5 blocks: 32 signs, 2^32 patterns
        path = tmp_path / "c.json"
        code, _, _ = invoke(
            capsys, "reduce-diagonal", "--copies", "6,7,8", "--depths", "5,6,7",
            "--out", str(path),
        )
        assert code == OK
        run_data = json.loads(path.read_text())["payload"]["run_data"]
        assert run_data["search"] == "derandomized" and not run_data["relaxed_steps"]
        code, out, _ = invoke(capsys, "check-distribution", "--in", str(path))
        assert code == OK
        assert sz.loads(out)["checks"]["certificate_ok"] is True

    @pytest.mark.parametrize("argv", [
        ["reduce-diagonal", "--budget", "0"],
        ["reduce-diagonal", "--copies", "3,4", "--depths", "2,3", "--budget", "-3"],
        ["reduce-scalar", "--budget", "0"],
        ["xpw-game", "--rounds", "2", "--eps", "0.1", "--budget", "0"],
    ], ids=["diagonal-zero", "diagonal-negative", "scalar-zero", "game-zero"])
    def test_a_budget_below_one_is_an_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == ERROR and not out
        error = sz.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert f"budget {argv[-1]} is below 1" in error["message"]

    @pytest.mark.parametrize("argv, message", [
        (["--copies", "5,6,7,8,9", "--depths", "4,5,6,7,8"],
         "grid would have 34359738368 cells, exceeding the cap 4194304"),
        (["--copies", "21", "--depths", "20"],
         "truncation has 2097151 indices, exceeding the cap 1048576"),
    ], ids=["grid", "truncation"])
    def test_a_cap_is_a_verified_negative_naming_only_count_and_cap(
        self, capsys, argv, message
    ):
        # no CLI option raises either cap, so the message advises none
        code, out, _ = invoke(capsys, "reduce-diagonal", *argv)
        assert code == NEGATIVE
        negative = sz.loads(out)["verified_negative"]
        assert negative == {"message": message, "type": "ResourceLimitError"}


class TestReduceDiagonalPaperMode:
    """Paper mode takes its norm bound from the column sum of the input."""

    @pytest.fixture(params=["dense", "diagonal"])
    def operator_path(self, request, tmp_path):
        # the golden ``diagonal_paper`` operator: copy 4 at depth 3, p = 2
        reg = BasisRegistry({4: 3})
        noise = np.random.default_rng(5).standard_normal((reg.dim, reg.dim))
        np.fill_diagonal(noise, 0.0)
        T = OperatorMatrix(2.0, reg.indices, 0.5 * np.eye(reg.dim) + 1e-9 * noise)
        assert column_sum_bound(reg, T.entries, 2.0)[1] == pytest.approx(7.5)
        if request.param == "diagonal":
            T = DiagonalOperator(2.0, reg.indices, T.diagonal())
        path = tmp_path / "op.json"
        sz.save(path, T)
        return str(path)

    def test_loose_eps_certifies(self, operator_path, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = invoke(
            capsys, "reduce-diagonal", "--in", operator_path, "--p", "2",
            "--mode", "paper", "--eps", "30000", "--out", str(cert_path),
        )
        assert code == OK
        assert sz.loads(out)["results"]["mode"] == "paper"
        depth = paper_block_depth(1, 2.0, 7.5, 30000.0)
        assert sz.load(cert_path).schedule["block_depths"] == {1: depth}

    def test_tight_eps_needs_a_deeper_source(self, operator_path, capsys):
        code, _, err = invoke(
            capsys, "reduce-diagonal", "--in", operator_path, "--p", "2",
            "--mode", "paper", "--eps", "0.25",
        )
        assert code == ERROR
        assert "lacks copy 71" in sz.loads(err)["error"]["message"]


class TestReduceScalarCommand:
    def test_from_diagonal_operator(self, arts, capsys):
        code, out, _ = invoke(capsys, "reduce-scalar", "--in", arts["diag"])
        assert code == OK
        body = sz.loads(out)
        assert body["checks"]["scalar_witness_ok"] is True
        assert body["results"]["scalar"] is not None

    def test_diagonal_matrix_input_matches_the_diagonal_operator(
        self, capsys, tmp_path
    ):
        reg = BasisRegistry.single_copy(7)
        d = np.random.default_rng(3).uniform(0.2, 0.8, reg.dim)
        sources = {
            "operator": OperatorMatrix.from_diagonal(4.0, reg.indices, d),
            "diagonal-operator": DiagonalOperator(4.0, reg.indices, d),
        }
        certs = {}
        for kind, op in sources.items():
            path, out = tmp_path / f"{kind}.json", tmp_path / f"{kind}-cert.json"
            sz.save(path, op)
            assert json.loads(path.read_text())["kind"] == kind
            code, _, _ = invoke(
                capsys, "reduce-scalar", "--in", str(path), "--depths", "3",
                "--eps", "0.3", "--out", str(out),
            )
            assert code == OK
            certs[kind] = out.read_bytes()
        assert certs["operator"] == certs["diagonal-operator"]

    def test_dense_nondiagonal_input_is_an_error(self, arts, capsys, tmp_path):
        reg = BasisRegistry({3: 2})
        entries = np.eye(reg.dim)
        entries[0, 1] = 0.5
        path = tmp_path / "dense.json"
        sz.save(path, OperatorMatrix(4.0, reg.indices, entries))
        code, _, err = invoke(capsys, "reduce-scalar", "--in", str(path))
        assert code == ERROR
        assert "diagonal operator" in sz.loads(err)["error"]["message"]

    def test_game_transcript_input_is_an_error(self, capsys, tmp_path):
        game = tmp_path / "game.json"
        code, _, _ = invoke(
            capsys, "xpw-game", "--rounds", "2", "--eps", "0.1", "--out", str(game)
        )
        assert code == OK
        code, out, err = invoke(capsys, "reduce-scalar", "--in", str(game))
        assert code == ERROR and not out
        error = sz.loads(err)["error"]
        assert error["type"] == "SchemaError"
        assert error["message"] == f"{game}: expected an operator or certificate document"


class TestScalarWitnessOkIsTheVerdict:
    """``scalar_witness_ok`` is the verifier's ``scalar_witness`` check of the
    same certificate, so no command re-checks the witness on its own."""

    @pytest.mark.parametrize("command", ["reduce-scalar", "dichotomy"])
    def test_reads_the_verifier(self, command, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the witness is re-checked outside the verifier")

        monkeypatch.setattr(DiagonalAverageWitness, "verify", refuse)
        report = run(ExperimentConfig(command, seed=1))
        assert report["checks"]["scalar_witness_ok"] is True
        assert report["status"] == OK


class TestComposeChain:
    def test_three_stage_chain(self, arts, capsys, tmp_path):
        s1, s2, comp = (tmp_path / n for n in ("s1.json", "s2.json", "comp.json"))
        code, *_ = invoke(
            capsys, "reduce-diagonal", "--in", arts["diag"], "--out", str(s1)
        )
        assert code == OK
        # stage 1 lands on a depth-0 target, so the scalar stage pigeonholes
        # a single level
        code, *_ = invoke(
            capsys, "reduce-scalar", "--in", str(s1), "--depths", "1", "--out", str(s2)
        )
        assert code == OK
        code, out, _ = invoke(
            capsys, "compose", "--in", str(s1), "--in", str(s2), "--out", str(comp)
        )
        assert code == OK
        body = sz.loads(out)
        # the certified bound is the smaller route, so it never exceeds the
        # triangle route; the verifier re-derives it exactly
        assert body["checks"] == {"certificate_ok": True}
        assert body["results"]["certified_bound"] <= body["results"]["triangle_bound"]
        composite = sz.load(comp)
        assert composite.mode == "composite"
        assert verify_certificate(composite)["ok"]

    def test_single_input_is_an_error(self, arts, capsys, tmp_path):
        s1 = tmp_path / "s1.json"
        invoke(capsys, "reduce-diagonal", "--in", arts["diag"], "--out", str(s1))
        code, _, err = invoke(capsys, "compose", "--in", str(s1))
        assert code == ERROR
        body = sz.loads(err)
        assert body["error"]["type"] == "ValueError"
        assert "exactly two" in body["error"]["message"]


class TestFactorizeCommand:
    def test_identity_factors_through_perturbed_identity(self, arts, capsys, tmp_path):
        wit = tmp_path / "wit.json"
        code, out, _ = invoke(
            capsys, "factorize", "--in", arts["op"], "--out", str(wit)
        )
        assert code == OK
        body = sz.loads(out)
        assert body["checks"] == {
            "certificate_ok": True,
            "product_below_constant": True,
            "sampled_within_residual": True,
        }
        assert body["results"]["norm_product_bound"] <= 610.9402589451771
        reloaded = sz.load(wit)
        assert reloaded.norm_product_bound == body["results"]["norm_product_bound"]


class TestConstantOfTheWitness:
    """``product_below_constant`` compares a witness's norm product with
    the witness's own constant, which follows the factored operator's
    exponent; ``--p`` does not move it."""

    @pytest.mark.parametrize("command, artifact", [("factorize", "op"), ("dichotomy", "diag")])
    def test_p_flag_does_not_move_the_constant(
        self, arts, capsys, tmp_path, command, artifact
    ):
        wit = tmp_path / "wit.json"
        code, out, _ = invoke(
            capsys, command, "--in", arts[artifact], "--p", "2", "--out", str(wit)
        )
        assert code == OK
        body = sz.loads(out)
        assert body["checks"]["product_below_constant"] is True
        witness = sz.load(wit)
        assert witness.exponent == 4.0
        assert body["results"]["constant"] == witness.constant
        assert witness.norm_product_bound <= witness.constant


class TestDichotomyCommand:
    def test_uniform_diagonal_picks_a_branch(self, arts, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "dichotomy", "--in", arts["diag"], "--out",
            str(tmp_path / "dich.json"),
        )
        assert code == OK
        body = sz.loads(out)
        assert body["results"]["branch"] in ("T", "I-T")
        assert all(body["checks"].values())

    def test_shallow_registry_is_an_error(self, capsys, tmp_path):
        reg = BasisRegistry.single_copy(3)
        path = tmp_path / "shallow.json"
        sz.save(path, DiagonalOperator(4.0, reg.indices, np.full(reg.dim, 0.5)))
        code, _, err = invoke(capsys, "dichotomy", "--in", str(path))
        assert code == ERROR
        assert sz.loads(err)["error"]["type"] == "ValueError"


class TestXpwGameCommand:
    def test_transcript_artifact_verifies(self, capsys, tmp_path):
        game = tmp_path / "game.json"
        code, out, _ = invoke(
            capsys, "xpw-game", "--rounds", "4", "--eps", "0.1", "--out", str(game)
        )
        assert code == OK
        body = sz.loads(out)
        assert body["checks"]["transcript_ok"] is True
        assert body["checks"]["equivalence_within_eps"] is True
        assert body["results"]["equivalence"]["constant"] <= 1.1 + 1e-9
        transcript = sz.load(game)
        assert isinstance(transcript, GameTranscript)
        assert transcript.verify()["ok"]

    def test_exhausted_index_budget_is_a_verified_negative(self, capsys):
        code, out, _ = invoke(
            capsys, "xpw-game", "--rounds", "2", "--eps", "0.1", "--budget", "2"
        )
        assert code == NEGATIVE
        body = sz.loads(out)
        assert body["verified_negative"]["type"] == "ResourceLimitError"
        assert "round 1" in body["verified_negative"]["message"]

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_no_samples_is_an_error(self, capsys, samples):
        code, out, err = invoke(
            capsys, "xpw-game", "--rounds", "2", "--eps", "0.1", "--samples", samples
        )
        assert code == ERROR and not out
        error = sz.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "at least one sample" in error["message"]

    def test_greedy_adversary(self, capsys):
        code, out, _ = invoke(
            capsys, "xpw-game", "--rounds", "3", "--adversary", "greedy",
            "--eps", "0.1", "--samples", "200",
        )
        assert code == OK
        assert sz.loads(out)["checks"]["transcript_ok"] is True


class TestCheckDistributionCommand:
    def make_cert(self, arts, capsys, tmp_path):
        path = tmp_path / "cert.json"
        invoke(capsys, "reduce-diagonal", "--in", arts["op"], "--out", str(path))
        return path

    def test_the_law_is_checked_exactly(self, arts, capsys, tmp_path):
        cert = self.make_cert(arts, capsys, tmp_path)
        code, out, _ = invoke(capsys, "check-distribution", "--in", str(cert))
        assert code == OK
        body = sz.loads(out)
        assert body["checks"]["certificate_ok"] is True
        assert body["results"]["distribution_mode"] == "exact"

    def test_tampered_value_fails_verification(self, arts, capsys, tmp_path):
        cert = self.make_cert(arts, capsys, tmp_path)
        doc = json.loads(cert.read_text())
        doc["payload"]["target_entries"][0] += 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "check-distribution", "--in", str(bad))
        assert code == NEGATIVE
        assert sz.loads(out)["checks"]["certificate_ok"] is False

    def test_tampered_schema_is_an_error(self, arts, capsys, tmp_path):
        cert = self.make_cert(arts, capsys, tmp_path)
        doc = json.loads(cert.read_text())
        doc["payload"]["surprise"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, "check-distribution", "--in", str(bad))
        assert code == ERROR
        body = sz.loads(err)
        assert body["error"]["type"] == "SchemaError"
        assert "surprise" in body["error"]["message"]

    def test_witness_outside_the_source_is_a_false_verdict(self, capsys, tmp_path):
        registry = BasisRegistry({2: 1, 3: 2})
        S = DiagonalOperator(4.0, registry.indices, np.linspace(0.1, 0.9, registry.dim))
        doc = json.loads(sz.dumps(identity_certificate(S)))
        doc["payload"]["witnesses"][0]["positions"] = ["4/0:1"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = invoke(capsys, "check-distribution", "--in", str(bad))
        assert code == NEGATIVE
        assert sz.loads(out)["results"]["witnesses"] is False

    def test_missing_file_is_an_error(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "check-distribution", "--in", str(tmp_path / "nope.json")
        )
        assert code == ERROR
        assert sz.loads(err)["status"] == ERROR

    def test_operator_input_is_an_error(self, arts, capsys):
        code, out, err = invoke(capsys, "check-distribution", "--in", arts["op"])
        assert code == ERROR and not out
        error = sz.loads(err)["error"]
        assert error["type"] == "SchemaError"
        assert error["message"].endswith("expected a reduction-certificate document")

    def test_no_input_is_an_error(self, capsys):
        code, out, err = invoke(capsys, "check-distribution")
        assert code == ERROR and not out
        error = sz.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == "check-distribution needs --in with a certificate file"


class TestMalformedWitness:
    """A witness field of the wrong JSON type or shape is an exit-1 error
    report naming the field."""

    @pytest.fixture(scope="class")
    def witness_doc(self):
        registry = BasisRegistry({2: 1, 3: 2})
        d = np.random.default_rng(21).uniform(0.5, 2.0, registry.dim)
        T = OperatorMatrix.from_diagonal(4.0, registry.indices, d)
        return json.loads(sz.dumps(factor_large_diagonal(T, 0.5, 0.25)))

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("norm_factors", lambda payload: list(payload["norm_factors"].values())),
            ("residual", lambda payload: [1.0]),
            ("left_factor", lambda payload: [*payload["left_factor"][:-1], [1.0]]),
            ("left_factor", lambda payload: payload["left_factor"][:-1]),
            ("right_factor", lambda payload: payload["right_factor"][:-1]),
            ("left_factor", lambda payload: [["x"]] * len(payload["left_factor"])),
            ("residual", lambda payload: "1e-3"),
            ("eps", lambda payload: True),
            ("left_factor", lambda payload: [
                [str(x) for x in row] for row in payload["left_factor"]
            ]),
            ("left_factor", lambda payload: [
                [True, *row[1:]] for row in payload["left_factor"]
            ]),
            ("certificate", lambda payload: {
                **payload["certificate"],
                "residuals": ["0.5", *payload["certificate"]["residuals"][1:]],
            }),
            ("certificate", lambda payload: {
                **payload["certificate"],
                "residuals": [*payload["certificate"]["residuals"][:-1], False],
            }),
        ],
        ids=[
            "map-as-list", "float-as-list", "ragged-rows", "left-lost-a-row",
            "right-lost-a-row", "non-numeric-entries",
            "float-as-string", "float-as-bool", "matrix-entry-as-string",
            "matrix-entry-as-bool", "float-list-entry-as-string",
            "float-list-entry-as-bool",
        ],
    )
    def test_is_an_error_naming_the_field(
        self, witness_doc, capsys, tmp_path, field, edit
    ):
        doc = json.loads(json.dumps(witness_doc))
        doc["payload"][field] = edit(doc["payload"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, "reduce-scalar", "--in", str(bad))
        assert code == ERROR
        body = sz.loads(err)
        assert body["error"]["type"] == "SchemaError"
        assert f"payload.{field}" in body["error"]["message"]


class TestMalformedTreeMarker:
    """A ``~pairs`` or ``~fraction`` marker of the wrong shape in a free-form
    tree is an exit-1 error report naming the marker's path."""

    @pytest.fixture(scope="class")
    def scalar_doc(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("scalar") / "scalar.json"
        run(ExperimentConfig("reduce-scalar", copies=(5,), seed=0, out=str(path)))
        return json.loads(path.read_text())

    @pytest.mark.parametrize(
        "marker, where",
        [
            ({"~pairs": 5}, "chain.~pairs"),
            ({"~pairs": [[{"a": 1}, 2]]}, "chain.~pairs[0][0]"),
            ({"~pairs": [[1]]}, "chain.~pairs[0]"),
            ({"~fraction": "x/y"}, "chain.~fraction"),
        ],
        ids=["pairs-not-a-list", "unhashable-key", "not-a-pair", "bad-fraction"],
    )
    def test_is_an_error_naming_the_marker(
        self, scalar_doc, capsys, tmp_path, marker, where
    ):
        doc = json.loads(json.dumps(scalar_doc))
        doc["payload"]["run_data"]["chain"] = marker
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, "check-distribution", "--in", str(bad))
        assert code == ERROR
        error = sz.loads(err)["error"]
        assert error["type"] == "SchemaError"
        assert f"payload.run_data.{where}:" in error["message"]


class TestProgrammaticEntry:
    def test_run_matches_cli_body(self, capsys):
        report = run(ExperimentConfig(command="constants", p=4.0))
        _, out, _ = invoke(capsys, "constants", "--p", "4")
        body = sz.loads(out)
        assert report["status"] == OK
        assert report["results"]["projection_core"] == body["results"]["projection_core"]
        assert report["checks"] == body["checks"]

    def test_run_writes_artifacts(self, arts, tmp_path):
        out_path = tmp_path / "cert.json"
        report = run(
            ExperimentConfig(
                command="reduce-diagonal", inputs=(arts["op"],), out=str(out_path)
            )
        )
        assert report["status"] == OK
        assert isinstance(sz.load(out_path), ReductionCertificate)

    def test_unknown_command_names_choices(self):
        with pytest.raises(ValueError, match="xpw-game"):
            run(ExperimentConfig(command="bogus"))

    def test_load_operator_rejects_other_kinds(self, capsys, tmp_path):
        game = tmp_path / "game.json"
        invoke(capsys, "xpw-game", "--rounds", "1", "--out", str(game))
        with pytest.raises(sz.SchemaError, match="operator"):
            load_operator(game)


@pytest.fixture(scope="module")
def stages(arts):
    """A diagonal-stage and a scalar-stage certificate, in stage order."""
    s1, s2 = str(arts["root"] / "stage1.json"), str(arts["root"] / "stage2.json")
    run(ExperimentConfig("reduce-diagonal", inputs=(arts["diag"],), out=s1))
    run(ExperimentConfig("reduce-scalar", depths=(1,), inputs=(s1,), out=s2))
    return s1, s2


def command_cases(s1, s2) -> dict:
    """Each command's flags and the same settings as config fields."""
    return {
        "constants": (["--p", "2"], {"p": 2.0}),
        "verify-moments": (["--seed", "1"], {"seed": 1}),
        "reduce-diagonal": (
            ["--copies", "4,5", "--depths", "3,4"], {"copies": (4, 5), "depths": (3, 4)}
        ),
        "reduce-scalar": (["--copies", "5", "--seed", "3"], {"copies": (5,), "seed": 3}),
        "compose": (["--in", s1, "--in", s2], {"inputs": (s1, s2)}),
        "factorize": (
            ["--copies", "3,4", "--depths", "2,3"], {"copies": (3, 4), "depths": (2, 3)}
        ),
        "dichotomy": (["--copies", "5", "--seed", "4"], {"copies": (5,), "seed": 4}),
        "xpw-game": (["--rounds", "3", "--samples", "200"], {"rounds": 3, "samples": 200}),
        "check-distribution": (["--in", s1], {"inputs": (s1,)}),
    }


class TestMainAgreesWithRun:
    """``main(argv)`` prints the body ``run`` returns for the same config,
    and the report's ``config`` is exactly the config's non-``None``
    fields."""

    def test_every_command_has_a_case(self):
        assert set(command_cases("a", "b")) == set(cli._HANDLERS)

    @pytest.mark.parametrize("command", sorted(command_cases("a", "b")))
    def test_same_body(self, stages, capsys, command):
        argv, settings = command_cases(*stages)[command]
        code, out, _ = invoke(capsys, command, *argv)
        config = ExperimentConfig(command, **settings)
        report = run(config)
        assert code == report["status"] == OK
        assert json.loads(out)["payload"] == json.loads(sz.dumps(report))["payload"]
        echoed = {
            f.name: getattr(config, f.name)
            for f in fields(config)
            if f.name != "command" and getattr(config, f.name) is not None
        }
        assert report["config"] == echoed
        assert set(sz.loads(out)["config"]) == set(echoed)


class TestOutWithoutArtifact:
    """``--out`` on a command that makes no artifact is an error."""

    @pytest.mark.parametrize(
        "command", ["constants", "verify-moments", "check-distribution"]
    )
    def test_is_an_error_naming_out(self, stages, capsys, tmp_path, command):
        argv, _ = command_cases(*stages)[command]
        path = tmp_path / "x.json"
        code, _, err = invoke(capsys, command, *argv, "--out", str(path))
        assert code == ERROR
        assert "--out" in sz.loads(err)["error"]["message"]
        assert not path.exists()


class TestSeededDefaults:
    """Commands run without --in on seeded inputs derived from the flags."""

    def test_reduce_diagonal_seeded(self, capsys):
        code, out, _ = invoke(
            capsys, "reduce-diagonal", "--copies", "4,5", "--depths", "3,4"
        )
        assert code == OK
        assert all(sz.loads(out)["checks"].values())

    def test_reduce_scalar_seeded(self, capsys):
        code, out, _ = invoke(capsys, "reduce-scalar", "--copies", "5", "--seed", "3")
        assert code == OK
        assert sz.loads(out)["checks"]["scalar_witness_ok"] is True

    def test_dichotomy_seeded(self, capsys):
        code, out, _ = invoke(capsys, "dichotomy", "--copies", "5", "--seed", "4")
        assert code == OK
        assert all(sz.loads(out)["checks"].values())


class TestNonFiniteValues:
    """NaN and the infinities never enter or leave an artifact file."""

    @pytest.fixture()
    def scalar_cert(self, tmp_path):
        path = tmp_path / "scalar.json"
        run(ExperimentConfig("reduce-scalar", copies=(5,), seed=0, out=str(path)))
        return path

    @pytest.mark.parametrize(
        "value, token",
        [(float("nan"), "NaN"), (float("inf"), "Infinity"), (float("-inf"), "-Infinity")],
    )
    def test_in_file_with_a_non_finite_token_is_an_error(
        self, scalar_cert, capsys, tmp_path, value, token
    ):
        doc = json.loads(scalar_cert.read_text())
        doc["payload"]["certified_bound"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert token in bad.read_text()
        code, _, err = invoke(capsys, "check-distribution", "--in", str(bad))
        assert code == ERROR
        error = sz.loads(err)["error"]
        assert error["type"] == "SchemaError"
        assert f"non-finite number {token} " in error["message"]

    def test_out_of_a_non_finite_artifact_writes_no_file(self, monkeypatch, tmp_path):
        made = cli.reduce_to_scalar_finite

        def with_nan(*args, **kwargs):
            cert = made(*args, **kwargs)
            return replace(cert, metadata={**cert.metadata, "probe": float("nan")})

        monkeypatch.setattr(cli, "reduce_to_scalar_finite", with_nan)
        path = tmp_path / "scalar.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            run(ExperimentConfig("reduce-scalar", copies=(5,), seed=0, out=str(path)))
        assert not path.exists()


class TestEpsIsParsedOneWay:
    """``--eps`` is a decimal or fraction string for every command."""

    @pytest.mark.parametrize(
        "command, source",
        [("reduce-diagonal", "op"), ("factorize", "op"), ("dichotomy", "diag")],
    )
    def test_a_fraction_runs_as_its_rounded_decimal(self, arts, capsys, command, source):
        runs = [
            invoke(capsys, command, "--in", arts[source], "--eps", eps)
            for eps in ("1/3", repr(1 / 3))
        ]
        (code, out, _), (decimal_code, decimal_out, _) = runs
        assert code != ERROR and code == decimal_code
        assert sz.loads(out)["results"] == sz.loads(decimal_out)["results"]

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("constants",),
            ("reduce-diagonal", "--copies", "3", "--depths", "2"),
            ("reduce-scalar", "--copies", "4"),
            ("factorize", "--copies", "3", "--depths", "2"),
            ("dichotomy", "--copies", "5"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_non_finite_eps_is_an_error(self, capsys, argv, eps):
        code, out, err = invoke(capsys, *argv, "--eps", eps)
        assert code == ERROR and not out
        assert sz.loads(err)["error"]["type"] == "ValueError"


def test_a_source_too_shallow_to_host_a_target_is_an_error(capsys):
    code, out, err = invoke(capsys, "reduce-diagonal", "--copies", "1", "--depths", "0")
    assert code == ERROR and not out
    error = sz.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == "no feasible target/host assignment inside this source registry"


def test_a_copies_list_that_is_not_integers_is_refused_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce-diagonal", "--copies", "5,x"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "not a comma-separated int list: '5,x'" in err


def test_copies_and_depths_of_different_lengths_are_an_error(capsys):
    code, out, err = invoke(
        capsys, "reduce-diagonal", "--copies", "5,6,7", "--depths", "4,5"
    )
    assert code == ERROR and not out
    message = sz.loads(err)["error"]["message"]
    assert "3 copies" in message and "2 depths" in message


# -- a bounded sweep over small configs ----------------------------------------


@st.composite
def small_configs(draw):
    """The argv of one small run: `reduce-diagonal`, `factorize` or
    `dichotomy` on one to three copies numbered 2 to 7 at drawn depths (a
    draw shrinks toward the deepest), ``p`` in {1.5, 2, 4, 12} and a
    fractional ``--eps``.  These sources give sign searches of shapes the
    benchmark workloads never run."""
    command = draw(st.sampled_from(("reduce-diagonal", "factorize", "dichotomy")))
    copies = sorted(draw(st.lists(st.integers(2, 7), min_size=1, max_size=3, unique=True)))
    depths = [c - 1 - draw(st.integers(0, c - 1)) for c in copies]
    p = draw(st.sampled_from((1.5, 2.0, 4.0, 12.0)))
    eps = draw(st.fractions(Fraction(1, 16), Fraction(3, 2), max_denominator=16))
    return [
        command, "--p", str(p), "--eps", str(eps),
        "--copies", ",".join(map(str, copies)), "--depths", ",".join(map(str, depths)),
    ]


def test_small_configs_end_mapped_and_their_artifacts_reverify(tmp_path):
    """No exception escapes `main` but the types it maps; a run that writes
    an artifact writes one that reloads to its own bytes and whose
    certificate re-verifies with the verdict the run reported."""
    out = tmp_path / "artifact.json"
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_configs())
    def sweep(argv):
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        if code == ERROR:
            seen.add("error")
            return
        report = sz.loads(stdout.getvalue())
        if "verified_negative" in report:
            seen.add("verified negative")
            return
        text = out.read_text()
        artifact = sz.loads(text)
        assert sz.dumps(artifact) == text
        cert = artifact if isinstance(artifact, ReductionCertificate) else artifact.certificate
        assert verify_certificate(cert)["ok"] == report["checks"]["certificate_ok"]
        seen.add((argv[0], code))

    sweep()
    assert {"error", ("reduce-diagonal", OK), ("factorize", OK), ("dichotomy", OK)} <= seen

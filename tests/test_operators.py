"""Operator matrices, norm bounds, inversion, diagonal-average witnesses."""

import numpy as np
import pytest

from haarfactor.dyadic import DyadicInterval, OmegaIndex, UNIT, enumerate_truncated
from haarfactor.operators import (
    DiagonalAverageWitness,
    DiagonalOperator,
    OperatorMatrix,
    diagonal_average,
    max_column_sum,
    neumann_invert,
    opnorm_upper_unconditional,
)

TWO = tuple(enumerate_truncated({1: 0, 2: 0}))  # two root Haars, equal cell weights
ELEVEN = tuple(enumerate_truncated({1: 0, 2: 1, 3: 2}))


class TestOperatorMatrix:
    def test_column_convention(self):
        # column 2 holds the image of the second basis vector
        T = OperatorMatrix(2, TWO, [[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(T.apply([0.0, 1.0]), [1.0, 0.0])
        np.testing.assert_array_equal(T.apply([1.0, 0.0]), [0.0, 0.0])

    def test_basis_order_enforced(self):
        with pytest.raises(ValueError):
            OperatorMatrix(2, (TWO[1], TWO[0]), np.eye(2))
        with pytest.raises(ValueError):
            OperatorMatrix(2, (TWO[0], TWO[0]), np.eye(2))

    def test_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            OperatorMatrix(2, TWO, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            OperatorMatrix(2, TWO, [[np.inf, 0], [0, 0]])

    def test_diagonal_helpers(self):
        T = OperatorMatrix.from_diagonal(2, TWO, [2.0, -3.0])
        assert T.is_diagonal()
        np.testing.assert_array_equal(T.diagonal(), [2.0, -3.0])
        assert T.diagonal_map()[TWO[1]] == -3.0


class TestDiagonalOperator:
    def test_apply_and_convert(self):
        D = DiagonalOperator(4, TWO, [0.5, 2.0])
        np.testing.assert_array_equal(D.apply([1.0, 1.0]), [0.5, 2.0])
        assert D.to_matrix().is_diagonal()

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagonalOperator(4, TWO, [1.0])
        with pytest.raises(ValueError):
            DiagonalOperator(4, TWO, [1.0, np.nan])


class TestTruncatedModel:
    """Each operator reads the truncated model its basis enumerates, one
    shared model per basis."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: OperatorMatrix.identity(2, ELEVEN),
            lambda: DiagonalOperator(4, ELEVEN, np.linspace(0.5, 1.5, len(ELEVEN))),
        ],
        ids=["matrix", "diagonal"],
    )
    def test_registry_is_built_once_and_spans_the_basis(self, make):
        T = make()
        assert T.registry is T.registry
        assert T.registry.indices == T.basis == ELEVEN
        assert T.registry.depths == {1: 0, 2: 1, 3: 2}
        assert T.dim == len(ELEVEN)
        assert not hasattr(T, "index_of")

    def test_operators_on_one_basis_share_one_model(self):
        d = np.linspace(0.5, 1.5, len(ELEVEN))
        first, second = OperatorMatrix.identity(2, ELEVEN), DiagonalOperator(4, ELEVEN, d)
        assert first.registry is second.registry
        assert first.registry is not OperatorMatrix.identity(2, ELEVEN[:1]).registry

    @pytest.mark.parametrize("cls", [OperatorMatrix.from_diagonal, DiagonalOperator])
    def test_a_partial_truncation_has_no_model(self, cls):
        # copy 2 lacks its second level-1 interval
        T = cls(4, ELEVEN[:2] + ELEVEN[3:], np.ones(len(ELEVEN) - 1))
        with pytest.raises(ValueError, match="not a full truncation"):
            T.registry

    def test_diagonal_map_holds_the_diagonal(self):
        d = np.linspace(-1.0, 1.0, len(ELEVEN)) / 3.0
        for T in (OperatorMatrix.from_diagonal(2, ELEVEN, d), DiagonalOperator(2, ELEVEN, d)):
            assert list(T.diagonal_map()) == list(ELEVEN)
            assert list(T.diagonal_map().values()) == d.tolist()


class TestOpnorms:
    def test_unconditional_upper_examples(self):
        lam = OperatorMatrix.from_diagonal(2, TWO, [0.7, 0.7])
        assert opnorm_upper_unconditional(lam) == pytest.approx(0.7)
        mixed = OperatorMatrix.from_diagonal(4, TWO, [1.0, -2.0])
        assert opnorm_upper_unconditional(mixed) == pytest.approx(18.0)

    def test_unconditional_upper_requires_diagonal(self):
        T = OperatorMatrix(2, TWO, [[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            opnorm_upper_unconditional(T)


class TestNeumannInvert:
    def test_recorded_bound(self):
        A = OperatorMatrix.from_diagonal(2, TWO, [1.1, 0.9])
        inv = neumann_invert(A, 0.1)
        assert inv.norm_bound == pytest.approx(1.0 / 0.9)
        assert inv.residual <= 1e-8
        product = A.entries @ inv.operator.entries
        assert max_column_sum(product - np.eye(2)) <= 1e-8

    def test_contraction_bound_required(self):
        A = OperatorMatrix.identity(2, TWO)
        with pytest.raises(ValueError):
            neumann_invert(A, 1.0)
        with pytest.raises(ValueError):
            neumann_invert(A, -0.2)

    def test_random_inverse_residual(self):
        rng = np.random.default_rng(9)
        E = OperatorMatrix(4, ELEVEN, np.eye(11) + 0.05 * rng.standard_normal((11, 11)))
        bound = max_column_sum(E.entries - np.eye(11))
        inv = neumann_invert(E, min(bound, 0.99))
        assert max_column_sum(E.entries @ inv.operator.entries - np.eye(11)) <= 1e-8


class TestAverages:
    def test_mean(self):
        assert diagonal_average([1.0, 2.0, 6.0]) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            diagonal_average([])

    def test_witness_verification(self):
        T = OperatorMatrix.from_diagonal(2, ELEVEN, np.arange(11.0))
        w = DiagonalAverageWitness(2.0, (ELEVEN[1], ELEVEN[3]))
        assert w.verify(T)  # (1 + 3) / 2
        assert not DiagonalAverageWitness(2.1, (ELEVEN[1], ELEVEN[3])).verify(T)

    def test_singleton_witness_exact(self):
        T = OperatorMatrix.from_diagonal(2, ELEVEN, np.arange(11.0) * 0.1)
        w = DiagonalAverageWitness(float(T.entries[4, 4]), (ELEVEN[4],))
        assert w.verify(T, tol=0.0)

    def test_default_tolerance_is_exact(self):
        # verify recomputes the mean as diagonal_average built it, bit for bit
        T = OperatorMatrix.from_diagonal(2, ELEVEN, np.arange(11.0) * 0.1)
        positions = (ELEVEN[1], ELEVEN[3], ELEVEN[7])
        value = diagonal_average(T.entries[i, i] for i in (1, 3, 7))
        assert DiagonalAverageWitness(value, positions).verify(T)
        assert not DiagonalAverageWitness(value + 5e-13, positions).verify(T)

    def test_unknown_position(self):
        T = OperatorMatrix.from_diagonal(2, TWO, [1.0, 2.0])
        w = DiagonalAverageWitness(1.0, (ELEVEN[5],))
        assert w.verify(T) is False

    def test_empty_positions_rejected(self):
        with pytest.raises(ValueError):
            DiagonalAverageWitness(0.0, ())

"""Golden bytes: pinned ``serialize.dumps`` digests for artifacts the
benchmark never builds, and for every top-level document kind.

Each case is a small seeded instance.  The digests were recorded with the
numpy version in ``NUMPY``; float results may round differently under
another numpy, so the comparison runs only when the versions match (the
benchmark's reference digests follow the same rule).
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from haarfactor import serialize
from haarfactor.factorize import factor_large_diagonal, primary_dichotomy
from haarfactor.haarsys import BasisRegistry
from haarfactor.operators import DiagonalOperator, OperatorMatrix
from haarfactor.reduction import (
    compose_certificates,
    identity_certificate,
    reduce_to_diagonal,
    reduce_to_scalar_finite,
)
from haarfactor.weightedlp import FixedScheduleAdversary, WeightSequence, play_game

NUMPY = "2.4.6"


def _perturbed(registry, p, seed, diag, scale):
    rng = np.random.default_rng(seed)
    N = rng.standard_normal((registry.dim, registry.dim))
    np.fill_diagonal(N, 0.0)
    return OperatorMatrix(p, registry.indices, diag * np.eye(registry.dim) + scale * N)


def identity():
    registry = BasisRegistry({2: 1, 3: 2})
    rng = np.random.default_rng(15)
    S = DiagonalOperator(4.0, registry.indices, rng.uniform(-1, 1, registry.dim))
    return identity_certificate(S)


def composite():
    # a multi-copy diagonal to a scalar: onto one copy, then compressed
    source = BasisRegistry({4: 3, 5: 4, 6: 5})
    rng = np.random.default_rng(11)
    d = 0.6 + rng.uniform(-0.01, 0.01, source.dim)
    c1 = reduce_to_diagonal(DiagonalOperator(4.0, source.indices, d), {3: 2}, 0.25)
    return compose_certificates(c1, reduce_to_scalar_finite(c1.target_operator(), 2, 0.25))


def diagonal_paper():
    T = _perturbed(BasisRegistry({4: 3}), 2.0, 5, 0.5, 1e-9)
    return reduce_to_diagonal(T, {1: 0}, 4096.0, mode="paper", t_norm_upper=1.0)


def diagonal_relaxed():
    T = _perturbed(BasisRegistry({4: 3}), 2.0, 5, 0.5, 0.3)
    return reduce_to_diagonal(T, {1: 0}, 1e-12)


def diagonal_derandomized():
    # 32-member blocks: 2^32 patterns are past the budget, so the signs are
    # fixed one at a time
    T = _perturbed(BasisRegistry({6: 5, 7: 6}), 4.0, 13, 1.0, 0.01)
    return reduce_to_diagonal(T, {1: 0, 2: 1}, 0.25, k_schedule={1: 5, 2: 5}, seed=3)


def diagonal_of_diagonal():
    # a diagonal source: no Z forms, and Y/W forms from diagonal columns
    registry = BasisRegistry({4: 3, 5: 4})
    d = np.random.default_rng(9).uniform(-1, 1, registry.dim)
    T = DiagonalOperator(4.0, registry.indices, d)
    return reduce_to_diagonal(T, {1: 0, 2: 1}, 0.5, k_schedule={1: 3, 2: 3})


def scalar_paper():
    source = BasisRegistry.single_copy(4)
    d = 0.3 + np.random.default_rng(6).uniform(-0.01, 0.01, source.dim)
    T = DiagonalOperator(2.0, source.indices, d)
    return reduce_to_scalar_finite(T, 2, 32.0, mode="paper", t_norm_upper=1.0)


def scalar_relaxed():
    source = BasisRegistry.single_copy(6)
    d = np.random.default_rng(1).uniform(-1, 1, source.dim)
    return reduce_to_scalar_finite(DiagonalOperator(2.0, source.indices, d), 3, 1.0)


def scalar_derandomized():
    # the means of levels 0, 4 and 6 share the bin [0, 0.5); the level-4
    # blocks have 8 members, and 2^8 patterns are past the budget 16, so
    # their signs are fixed one at a time
    source = BasisRegistry.single_copy(7)
    level = np.array([w.interval.level for w in source.indices])
    d = np.where(np.isin(level, (0, 4, 6)), 0.25, 2.0 * level + 3)
    d = d + np.random.default_rng(4).uniform(-0.2, 0.2, source.dim)
    T = DiagonalOperator(2.0, source.indices, d)
    return reduce_to_scalar_finite(
        T, 3, 1.0, seed=4, t_norm_upper=16.0, pattern_budget=16
    )


def factorization_exact():
    registry = BasisRegistry({2: 1, 3: 2})
    d = np.random.default_rng(21).uniform(0.5, 2.0, registry.dim)
    T = OperatorMatrix.from_diagonal(4.0, registry.indices, d)
    return factor_large_diagonal(T, 0.5, 0.25)


def factorization_compressed():
    T = _perturbed(BasisRegistry({4: 3, 5: 4}), 4.0, 17, 1.0, 0.01)
    return factor_large_diagonal(
        T, 0.5, 0.25, target_depths={1: 0, 2: 1}, k_schedule={1: 3, 2: 3}
    )


def _dichotomy(seed):
    registry = BasisRegistry.single_copy(6)
    d = np.random.default_rng(seed).uniform(0, 1, registry.dim)
    T = OperatorMatrix.from_diagonal(4.0, registry.indices, d)
    return primary_dichotomy(T, 0.25, seed=seed, k_schedule={3: 3})


def dichotomy_of_t():
    return _dichotomy(4)


def dichotomy_of_complement():
    return _dichotomy(7)


def dense_operator():
    return _perturbed(BasisRegistry({3: 2}), 4.0, 7, 1.0, 0.05)


def diagonal_operator():
    registry = BasisRegistry({2: 1, 3: 2})
    d = np.random.default_rng(8).uniform(-1, 1, registry.dim)
    return DiagonalOperator(4.0, registry.indices, d)


def game_explicit():
    values = [Fraction(1)] * 2 + [Fraction(1, 2)] * 30
    w = WeightSequence.explicit(4, values)
    return play_game(FixedScheduleAdversary([1, 2, 3]), 3, w, Fraction(1, 10))


def run_report():
    return {
        "command": "demo",
        "depths": {1: 0, 2: 1},
        "eps": Fraction(13, 12),
        "values": [1, 2.5, None, True],
    }


CASES = {
    "identity": (
        identity,
        "a31a93df890465e9020b219cf655edae6081ddd6cd95bfda64806d87e9b57439",
    ),
    "composite": (
        composite,
        "b802b9473a1ac40d343ed0f2a9184576f8c4dde8fa89ee38eff2aacefddaa8de",
    ),
    "diagonal_paper": (
        diagonal_paper,
        "3ddcaa7b40a8d536d171310e77c1796c16905e0b651306a9acbc9b6b3a61d4b0",
    ),
    "diagonal_relaxed": (
        diagonal_relaxed,
        "0d278b216a15c11246139e17b96de116ac56af1d58e0410d67f3d29bcab40e1c",
    ),
    "diagonal_derandomized": (
        diagonal_derandomized,
        "0d607ff1713573469be2a311e7d6ec305c6b05cbc77a6b8e47b1d13f5aa3d846",
    ),
    "diagonal_of_diagonal": (
        diagonal_of_diagonal,
        "a591a6b2ed6eb57a2a3b29ca0d96658e6e3ec0df377234db9740acf5a60b4d71",
    ),
    "scalar_paper": (
        scalar_paper,
        "b284b88e468e42dd471c9fcf14fc7baf9b2638cb7c6f6d9925797c90fc38d6ca",
    ),
    "scalar_relaxed": (
        scalar_relaxed,
        "5342487eef087823b076f664088ca9ab11232d791a667c90445ece477bdb96a5",
    ),
    "scalar_derandomized": (
        scalar_derandomized,
        "325c3f69b642d0610e22e4d75cb65ba837a8ac0fbc9b1f608e75f41dd0ec3922",
    ),
    "factorization_exact": (
        factorization_exact,
        "72aa4e17d0de9ee0d5371fba38e0cca037cdf906095af1edfd9a92321faea7cc",
    ),
    "factorization_compressed": (
        factorization_compressed,
        "0d0cd074f29e187db52e2cc169f30f32949b20bcdfc4b1bc907c734fa0c86722",
    ),
    "dichotomy_of_t": (
        dichotomy_of_t,
        "4a48c97c450a04cf4b163a6a5df1004a12b2ccbeb9368dac7686732520fa61ae",
    ),
    "dichotomy_of_complement": (
        dichotomy_of_complement,
        "7e4777a869b39cf30ff22772f433176460f77ad59b4b772276999df753f28440",
    ),
    "dense_operator": (
        dense_operator,
        "626f07441010b991ee91115d1d5c3066d351b05f21d9b969876877e24d474ea8",
    ),
    "diagonal_operator": (
        diagonal_operator,
        "95f014f6f5c5c9935d39b9ec311d477417a831d06c7389e607aec0fca40ec5a2",
    ),
    "game_explicit": (
        game_explicit,
        "dc3a3729a260950a53db499d26925bdd0b3062ae0480abb6512a18202d1a4a10",
    ),
    "run_report": (
        run_report,
        "b2462bbbf88a6678918874217d8417cfe94ea1bfb14d3fbe4be599399c62ee54",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_serialized_bytes_are_pinned(name):
    build, digest = CASES[name]
    obj = build()
    text = serialize.dumps(obj)
    assert serialize.dumps(serialize.loads(text)) == text
    if np.__version__ == NUMPY:
        assert hashlib.sha256(text.encode()).hexdigest() == digest

"""Weighted two-norm sequence space: norms, blocks, the building game."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from haarfactor import serialize, weightedlp
from haarfactor.cli import ExperimentConfig, run
from haarfactor.errors import ResourceLimitError
from haarfactor.weightedlp import (
    Block,
    FixedScheduleAdversary,
    GameRound,
    GameTranscript,
    GreedyMaxAdversary,
    RandomAdversary,
    WeightSequence,
    XpwVector,
    block_data,
    block_span_project,
    impartial_equivalence,
    play_game,
    star_property,
    xpw_norm,
    xpw_norms,
)
from test_randsigns import _dynamic_openblas

# ---------------------------------------------------------------- oracles
# Written before the implementations they check; each recomputes the claim
# through an independent route (fsum arithmetic, pure Fractions, or sympy).


def seq_norm_oracle(coeffs, weight_values, p):
    """Two-norm maximum evaluated directly with fsum, no numpy."""
    lp = math.fsum(abs(c) ** p for c in coeffs) ** (1.0 / p)
    l2 = math.sqrt(
        math.fsum((c * w) ** 2 for c, w in zip(coeffs, weight_values))
    )
    return max(lp, l2)


def greedy_rounds_oracle(moves, eps, rounds):
    """Re-derive round index sets for w_n = n**(-1/4), p = 4, in Fractions.

    There the budget term of index n is 1/n, the round-k target is 1/k and
    the cap multiplier is (1+eps)**2, so the whole greedy run is exact
    rational arithmetic with no shared code.
    """
    out = []
    frontier = 0
    for k in range(1, rounds + 1):
        target = Fraction(1, k)
        cap = (1 + Fraction(eps)) ** 2 * target
        total = Fraction(0)
        chosen = []
        n = max(moves[k - 1], frontier) + 1
        while total < target:
            if total + Fraction(1, n) <= cap:
                total += Fraction(1, n)
                chosen.append(n)
            n += 1
        out.append((tuple(chosen), total))
        frontier = chosen[-1]
    return out


def symbolic_pairings(index_sets):
    """Every pairing functional(k) applied to normalized block l, in sympy.

    For w_n = n**(-1/4) and p = 4 the block coefficient at n is n**(-1/4)
    itself; the matrix should simplify to the identity, which is the exact
    algebra behind the transcript verifier's biorthogonality claim.
    """
    data = []
    for E in index_sets:
        c = {n: sp.Integer(n) ** sp.Rational(-1, 4) for n in E}
        p_norm = sp.root(sum(v**4 for v in c.values()), 4)
        two_sq = sum(v**2 for v in c.values())
        data.append((c, p_norm, two_sq))
    m = len(data)
    out = sp.zeros(m, m)
    for k in range(m):
        ck, pk, sk = data[k]
        for l in range(m):
            cl, pl, _ = data[l]
            out[k, l] = sp.simplify(
                sum((pk / sk) * ck[n] * (cl[n] / pl) for n in set(ck) & set(cl))
            )
    return out


def test_symbolic_pairings_oracle_gives_identity():
    # The cancellation behind "diagonal pairings are exactly one" checked
    # end to end in exact symbolic arithmetic on three disjoint sets.
    grid = symbolic_pairings([(2, 3, 4), (5, 6, 7), (8, 9, 10)])
    assert grid == sp.eye(3)


# ------------------------------------------------------------- weight data


class TestWeightSequence:
    def test_power_weight_values(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        assert w.weight(1) == 1.0
        assert w.weight(2) == 2.0**-0.25
        assert w.weight(16) == 0.5

    def test_power_budget_is_exact_harmonic_term(self):
        # decay 1/4 with p = 4 puts the budget exponent at one: terms 1/n.
        w = WeightSequence.power(4, Fraction(1, 4))
        assert w.budget_exponent == 4
        assert w.budget(3) == Fraction(1, 3)
        assert w.budget(10) == Fraction(1, 10)

    @pytest.mark.parametrize(
        "decay", [Fraction(1, 4), Fraction(1, 3), Fraction(-1, 4), Fraction(0)]
    )
    def test_power_weight_is_the_per_call_conversion(self, decay):
        # the exponent is converted once; each weight keeps the bits of
        # converting the Fraction on every call
        w = WeightSequence.power(4, decay)
        for n in (1, 2, 3, 17, 7859, 10**6):
            assert w.weight(n).hex() == (float(n) ** (-float(decay))).hex()

    def test_growing_power_budget(self):
        w = WeightSequence.power(4, Fraction(-1, 4))
        assert w.budget(3) == Fraction(3)

    def test_explicit_weights_and_budgets(self):
        w = WeightSequence.explicit(4, [Fraction(1, 2), Fraction(1, 4)])
        assert w.weight(2) == 0.25
        assert w.budget(1) == Fraction(1, 16)
        assert w.budget(2) == Fraction(1, 256)
        assert len(w) == 2

    def test_rejects_p_at_most_two(self):
        with pytest.raises(ValueError, match="p > 2"):
            WeightSequence.power(2, Fraction(1, 4))
        with pytest.raises(ValueError, match="p > 2"):
            WeightSequence.power(Fraction(3, 2), Fraction(1, 4))

    def test_rejects_bad_kind_combinations(self):
        with pytest.raises(ValueError, match="exactly one"):
            WeightSequence(4)
        with pytest.raises(ValueError, match="exactly one"):
            WeightSequence(4, decay=Fraction(1, 4), values=[1])

    def test_rejects_nonpositive_explicit_weights(self):
        with pytest.raises(ValueError, match="positive"):
            WeightSequence.explicit(4, [Fraction(1, 2), 0])

    def test_index_bounds(self):
        w = WeightSequence.explicit(4, [Fraction(1, 2)])
        with pytest.raises(ValueError, match="start at 1"):
            w.weight(0)
        with pytest.raises(ValueError, match="beyond the 1 explicit"):
            w.weight(2)
        with pytest.raises(ValueError, match="beyond the 1 explicit"):
            w.budget(5)

    def test_budget_needs_integral_exponent(self):
        # decay 1/3 with p = 4 gives exponent 4/3: no exact audit possible.
        w = WeightSequence.power(4, Fraction(1, 3))
        with pytest.raises(ValueError, match="not an integer"):
            w.budget(2)

    def test_repr_names_the_family_without_its_values(self):
        assert repr(WeightSequence.power(4, Fraction(1, 4))) == (
            "WeightSequence(p=4, decay=1/4)"
        )
        assert repr(WeightSequence.explicit(4, [1] * 300)) == (
            "WeightSequence(p=4, 300 explicit weights)"
        )

    def test_power_family_has_no_length(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        with pytest.raises(TypeError):
            len(w)


class TestWeightTable:
    """``weights(count)`` reads a cached table that must stay bitwise equal
    to the per-index ``weight(n)`` values, however the table was grown."""

    @staticmethod
    def per_index(w, count):
        return np.array([w.weight(n) for n in range(1, count + 1)])

    @pytest.mark.parametrize(
        "decay", [Fraction(1, 4), Fraction(1, 3), Fraction(1), Fraction(0)]
    )
    @pytest.mark.parametrize(
        "counts", [(1, 2, 7, 30, 31, 100), (100, 31, 30, 7, 2, 1), (3, 5000, 17)]
    )
    def test_table_is_bitwise_the_per_index_weights(self, decay, counts):
        w = WeightSequence.power(4, decay)
        for count in counts:
            got = w.weights(count)
            assert got.dtype == np.float64 and got.shape == (count,)
            assert got.tobytes() == self.per_index(w, count).tobytes()

    def test_slice_is_read_only(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        head = w.weights(4)
        with pytest.raises(ValueError, match="read-only"):
            head[0] = 2.0
        w.weights(50)  # growing the table leaves the earlier slice intact
        assert head.tobytes() == self.per_index(w, 4).tobytes()

    def test_empty_and_negative_counts(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        assert w.weights(0).shape == (0,)
        w.weights(9)
        assert w.weights(0).shape == (0,)
        with pytest.raises(ValueError, match="non-negative"):
            w.weights(-1)

    def test_explicit_table_is_the_finite_list(self):
        w = WeightSequence.explicit(4, [Fraction(1, 2), Fraction(1, 3), 2])
        assert w.weights(2).tobytes() == np.array([0.5, 1 / 3]).tobytes()
        assert w.weights(3).tobytes() == self.per_index(w, 3).tobytes()
        with pytest.raises(ValueError, match="index 4 beyond the 3 explicit"):
            w.weights(4)
        with pytest.raises(ValueError, match="non-negative"):
            w.weights(-2)

    def test_norms_compute_each_weight_once(self, monkeypatch):
        # Guard against a path that rebuilds the weights on every norm.
        calls = [0]
        original = WeightSequence.weight

        def counted(self, n):
            calls[0] += 1
            return original(self, n)

        monkeypatch.setattr(WeightSequence, "weight", counted)
        w = WeightSequence.power(4, Fraction(1, 4))
        x = XpwVector(np.random.default_rng(3).standard_normal(4096), w)
        for _ in range(100):
            xpw_norm(x)
        assert calls[0] <= 4096


class TestStarProperty:
    def test_quarter_decay_at_p_four_holds(self):
        report = star_property(WeightSequence.power(4, Fraction(1, 4)))
        assert report.holds is True
        assert report.detail["series_exponent"] == 1

    def test_half_decay_at_p_four_fails(self):
        report = star_property(WeightSequence.power(4, Fraction(1, 2)))
        assert report.holds is False
        assert report.detail["series_exponent"] == 2

    def test_constant_weights_fail(self):
        report = star_property(WeightSequence.power(4, 0))
        assert report.holds is False
        assert "tend to zero" in report.reason

    def test_growing_weights_fail(self):
        assert star_property(WeightSequence.power(4, Fraction(-1, 4))).holds is False

    def test_other_exponent_boundary(self):
        # p = 3 makes the budget exponent 6: decay 1/6 sits on the boundary.
        assert star_property(WeightSequence.power(3, Fraction(1, 6))).holds is True
        assert star_property(WeightSequence.power(3, Fraction(1, 5))).holds is False

    def test_explicit_weights_are_undecidable(self):
        w = WeightSequence.explicit(4, [Fraction(1, 2), Fraction(1, 4)])
        report = star_property(w)
        assert report.holds is None
        assert "finitely many" in report.reason
        assert report.detail["partial_budget_sums"] == (
            Fraction(1, 16),
            Fraction(17, 256),
        )


# ------------------------------------------------------------------- norms


class TestXpwNorm:
    def test_first_unit_vector_has_norm_one(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        assert xpw_norm(XpwVector(np.array([1.0]), w)) == 1.0

    def test_two_ones_with_halved_weights(self):
        # Frozen: coefficients (1, 1) against weights (1/2, 1/4) at p = 4
        # give max(2**(1/4), sqrt(5/16)) = 2**(1/4).
        w = WeightSequence.explicit(4, [Fraction(1, 2), Fraction(1, 4)])
        x = XpwVector(np.array([1.0, 1.0]), w)
        assert xpw_norm(x) == pytest.approx(1.189207115002721, abs=1e-15)
        assert xpw_norm(x) == pytest.approx(2.0**0.25, abs=0)

    def test_weighted_part_can_dominate(self):
        w = WeightSequence.explicit(4, [3, 3])
        x = XpwVector(np.array([1.0, 1.0]), w)
        assert xpw_norm(x) == pytest.approx(math.sqrt(18.0), rel=1e-15)

    def test_matches_direct_fsum_oracle(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        rng = np.random.default_rng(7)
        for _ in range(25):
            c = rng.standard_normal(9)
            got = xpw_norm(XpwVector(c, w))
            want = seq_norm_oracle(c.tolist(), w.weights(9).tolist(), 4.0)
            assert got == pytest.approx(want, rel=1e-13)

    def test_zero_vector(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        assert xpw_norm(XpwVector(np.zeros(4), w)) == 0.0
        assert xpw_norm(XpwVector(np.zeros(0), w)) == 0.0

    def test_vector_sugar(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        x = XpwVector(np.array([1.0, 0.0]), w)
        assert x.norm() == xpw_norm(x)
        padded = x.padded(5)
        assert padded.coeffs.shape == (5,)
        assert padded.norm() == x.norm()
        with pytest.raises(ValueError, match="smaller"):
            x.padded(1)
        with pytest.raises(ValueError, match="one-dimensional"):
            XpwVector(np.zeros((2, 2)), w)


# ------------------------------------------------------------------ blocks


class TestBlockData:
    def test_singleton_width_is_the_weight_itself(self):
        # The exponents cancel identically for one index, so the value is
        # read straight off the weight rather than through a power round
        # trip: equality is exact.
        w = WeightSequence.power(4, Fraction(1, 4))
        b = block_data([5], w)
        assert b.beta == w.weight(5)
        assert b.budget == Fraction(1, 5)

    def test_two_index_block_with_constant_half_weights(self):
        # Frozen: E = {1, 2}, both weights 1/2, p = 4: coefficients are
        # (1/2, 1/2), the budget is 1/8, and beta = (1/8)**(1/4).
        w = WeightSequence.explicit(4, [Fraction(1, 2), Fraction(1, 2)])
        b = block_data([1, 2], w)
        assert np.array_equal(b.coeffs, np.array([0.5, 0.5]))
        assert b.budget == Fraction(1, 8)
        assert b.beta == pytest.approx(0.5946035575013605, abs=1e-15)
        assert b.beta == pytest.approx(0.125**0.25, abs=0)

    def test_normalized_block_has_unit_p_norm(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        b = block_data([3, 4, 5, 6], w)
        tilde = b.normalized()
        assert math.fsum(abs(t) ** 4 for t in tilde) ** 0.25 == pytest.approx(
            1.0, abs=1e-14
        )

    def test_block_vector_placement(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        b = block_data([2, 4], w)
        v = b.vector(6)
        assert v.coeffs.shape == (6,)
        assert v.coeffs[1] == b.normalized()[0]
        assert v.coeffs[3] == b.normalized()[1]
        assert v.coeffs[[0, 2, 4, 5]].tolist() == [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="support"):
            b.vector(3)

    def test_block_validation(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        with pytest.raises(ValueError, match="at least one"):
            block_data([], w)
        with pytest.raises(ValueError, match="distinct"):
            block_data([2, 2], w)
        with pytest.raises(ValueError, match="start at 1"):
            block_data([0, 1], w)

    def test_one_shot_iterable_is_read_once(self):
        w = WeightSequence.power(4, Fraction(1, 4))
        b = block_data((n for n in [5, 6, 7]), w)
        assert b.indices == (5, 6, 7)
        assert np.array_equal(b.coeffs, block_data([5, 6, 7], w).coeffs)
        with pytest.raises(ValueError, match="distinct"):
            block_data((n for n in [5, 5]), w)


class TestBlockSpanProject:
    W = WeightSequence.power(4, Fraction(1, 4))

    def test_off_support_input_maps_to_exact_zero(self):
        blocks = [block_data([1, 2], self.W), block_data([4, 5], self.W)]
        x = XpwVector(np.array([0.0, 0.0, 3.5, 0.0, 0.0, -2.0]), self.W)
        out = block_span_project(x, blocks)
        assert np.array_equal(out.coeffs, np.zeros(6))

    def test_singleton_blocks_reproduce_unit_vectors(self):
        blocks = [block_data([2], self.W), block_data([3], self.W)]
        x = XpwVector(np.array([0.0, 1.0, 0.0, 0.0]), self.W)
        out = block_span_project(x, blocks)
        assert np.allclose(out.coeffs, x.coeffs, atol=1e-12, rtol=0)

    def test_normalized_blocks_are_fixed_points(self):
        blocks = [block_data([1, 2, 3], self.W), block_data([5, 6], self.W)]
        x = blocks[0].vector(6)
        out = block_span_project(x, blocks)
        assert np.allclose(out.coeffs, x.coeffs, atol=1e-12, rtol=0)

    def test_span_combinations_are_fixed_points(self):
        blocks = [block_data([1, 2, 3], self.W), block_data([5, 6], self.W)]
        combo = 2.0 * blocks[0].vector(7).coeffs - 0.75 * blocks[1].vector(7).coeffs
        x = XpwVector(combo, self.W)
        out = block_span_project(x, blocks)
        assert np.allclose(out.coeffs, combo, atol=1e-12, rtol=0)

    def test_idempotent_on_samples(self):
        blocks = [block_data([1, 2], self.W), block_data([3, 4, 5], self.W)]
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = XpwVector(rng.standard_normal(8), self.W)
            once = block_span_project(x, blocks)
            twice = block_span_project(once, blocks)
            assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-10

    def test_contractive_on_samples(self):
        blocks = [block_data([1, 2], self.W), block_data([3, 4, 5], self.W)]
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = XpwVector(rng.standard_normal(8), self.W)
            out = block_span_project(x, blocks)
            assert xpw_norm(out) <= xpw_norm(x) * (1.0 + 1e-9)

    def test_overlapping_blocks_are_rejected(self):
        blocks = [block_data([1, 2, 3], self.W), block_data([3, 4], self.W)]
        x = XpwVector(np.zeros(4), self.W)
        with pytest.raises(ValueError, match="overlap at index 3"):
            block_span_project(x, blocks)

    def test_block_past_the_vector_is_harmless(self):
        blocks = [block_data([2, 9], self.W)]
        x = XpwVector(np.array([1.0, 1.0, 1.0]), self.W)
        out = block_span_project(x, blocks)
        assert out.coeffs.shape == (3,)
        assert xpw_norm(out) <= xpw_norm(x) * (1.0 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_float_pairings_near_identity_on_random_disjoint_blocks(data):
    # Float-level counterpart of the symbolic oracle: functional(k) paired
    # with normalized block l stays within 1e-12 of the Kronecker delta for
    # arbitrary disjoint index sets.
    w = WeightSequence.power(4, Fraction(1, 4))
    indices = sorted(
        data.draw(
            st.sets(st.integers(min_value=1, max_value=40), min_size=2, max_size=12)
        )
    )
    cut = data.draw(st.integers(min_value=1, max_value=len(indices) - 1))
    blocks = [block_data(indices[:cut], w), block_data(indices[cut:], w)]
    size = max(indices)
    for k, bk in enumerate(blocks):
        functional = np.zeros(size)
        functional[np.array(bk.indices) - 1] = bk.functional()
        for l, bl in enumerate(blocks):
            pairing = float(np.dot(functional, bl.vector(size).coeffs))
            assert abs(pairing - (1.0 if k == l else 0.0)) <= 1e-12


# ---------------------------------------------------------------- the game


class TestAdversaries:
    def test_fixed_schedule_repeats_last_move(self):
        adv = FixedScheduleAdversary([3, 7])
        assert [adv(k, 0) for k in (1, 2, 3, 4)] == [3, 7, 7, 7]

    def test_fixed_schedule_validation(self):
        with pytest.raises(ValueError):
            FixedScheduleAdversary([])
        with pytest.raises(ValueError):
            FixedScheduleAdversary([2, 0])

    def test_random_adversary_is_seed_reproducible(self):
        a = RandomAdversary(5)
        b = RandomAdversary(5)
        moves_a = [a(k, 10 * k) for k in range(1, 6)]
        moves_b = [b(k, 10 * k) for k in range(1, 6)]
        assert moves_a == moves_b
        assert all(1 <= m <= 10 * k + 16 for k, m in enumerate(moves_a, 1))

    def test_greedy_max_pushes_past_the_frontier(self):
        adv = GreedyMaxAdversary()
        assert adv(1, 0) == 3
        assert adv(4, 10) == 21


class TestPlayGame:
    W = WeightSequence.power(4, Fraction(1, 4))
    EPS = Fraction(1, 10)

    def test_first_round_matches_hand_computation(self):
        # Move 1, target budget 1, cap 121/100: the greedy run picks
        # {2, 3, 4} with budget exactly 13/12.
        t = play_game(FixedScheduleAdversary([1]), 1, self.W, self.EPS)
        assert t.rounds[0].indices == (2, 3, 4)
        assert t.rounds[0].block.budget == Fraction(13, 12)

    def test_eight_rounds_match_the_independent_oracle(self):
        moves = list(range(1, 9))
        t = play_game(FixedScheduleAdversary(moves), 8, self.W, self.EPS)
        oracle = greedy_rounds_oracle(moves, self.EPS, 8)
        assert [r.indices for r in t.rounds] == [o[0] for o in oracle]
        assert [r.block.budget for r in t.rounds] == [o[1] for o in oracle]
        # Consecutive triples, a regularity of this weight family worth
        # pinning: each round needs exactly three fresh indices.
        assert [r.indices for r in t.rounds] == [
            (2, 3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13),
            (14, 15, 16), (17, 18, 19), (20, 21, 22), (23, 24, 25),
        ]
        assert t.ambient_size() == 25

    def test_transcript_verifies_exactly(self):
        t = play_game(FixedScheduleAdversary(list(range(1, 9))), 8, self.W, self.EPS)
        report = t.verify()
        assert report["ok"]
        assert report["ordering"]
        assert report["budget_window"]
        assert report["block_data"]
        assert report["disjoint_supports"]
        assert report["biorthogonal"]
        assert report["rounds"] == 8

    def test_widths_sit_in_the_allowed_window(self):
        t = play_game(FixedScheduleAdversary(list(range(1, 9))), 8, self.W, self.EPS)
        for k, r in enumerate(t.rounds, start=1):
            w_k = self.W.weight(k)
            assert w_k * (1 - 1e-12) <= r.beta <= math.sqrt(1.1) * w_k * (1 + 1e-12)

    def test_random_and_greedy_adversaries_still_lose(self):
        for adv in (RandomAdversary(3), GreedyMaxAdversary()):
            t = play_game(adv, 4, self.W, self.EPS)
            assert t.verify()["ok"]

    def test_huge_move_is_absorbed(self):
        # A demand far past anything touched so far just shifts the block
        # start; the budget window still fills from the tail.
        t = play_game(FixedScheduleAdversary([500]), 1, self.W, self.EPS)
        assert min(t.rounds[0].indices) > 500
        assert t.verify()["ok"]

    def test_index_budget_exhaustion_names_the_round(self):
        with pytest.raises(ResourceLimitError, match="round 1"):
            play_game(
                FixedScheduleAdversary([500]), 1, self.W, self.EPS,
                index_budget=50,
            )

    def test_skip_keeps_oversized_terms_out(self):
        # An explicit family with one huge mid-stream weight: its budget
        # term (16) would blow through the cap, so the greedy run must
        # step over index 3 and finish on the small terms; sixteen terms
        # of 1/16 land the budget exactly on target.
        values = [Fraction(1), Fraction(1, 2), Fraction(2)] + [Fraction(1, 2)] * 17
        w = WeightSequence.explicit(4, values)
        t = play_game(FixedScheduleAdversary([1]), 1, w, self.EPS)
        r = t.rounds[0]
        assert 3 not in r.indices
        assert r.indices == tuple([2] + list(range(4, 19)))
        assert r.block.budget == Fraction(1)
        assert t.verify()["ok"]

    @pytest.mark.parametrize(
        "p", [3, 4, 6, Fraction(5, 2), Fraction(10, 3), 5]
    )
    def test_window_cap_is_the_quotient_inequality(self, p):
        # S <= cap * t, and S^den <= cap * t^den, decide what
        # (S/t)^den <= (1+eps)^num decides, for every target t > 0
        w = WeightSequence.power(p, Fraction(1, 4))
        q = w.p / (w.p - 2)
        for eps in (Fraction(1, 10), Fraction(1, 3), Fraction(2)):
            cap = (1 + eps) ** q.numerator
            for t in (Fraction(1), Fraction(1, 7), Fraction(13, 12), Fraction(5)):
                under_cap = weightedlp._window_cap(w, eps, t)
                edge = t * Fraction(float(1 + eps) ** float(q))  # near the edge
                for S in (t, edge * Fraction(99, 100), edge, edge * Fraction(101, 100),
                          t * cap, t * cap + Fraction(1, 10**9), 3 * t):
                    assert under_cap(S) == ((S / t) ** q.denominator <= cap)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="at least one round"):
            play_game(FixedScheduleAdversary([1]), 0, self.W, self.EPS)
        with pytest.raises(ValueError, match="positive"):
            play_game(FixedScheduleAdversary([1]), 1, self.W, 0)
        with pytest.raises(ValueError, match="round 1"):
            play_game(lambda k, frontier: 0, 1, self.W, self.EPS)

    def test_verify_flags_a_corrupted_transcript(self):
        t = play_game(FixedScheduleAdversary([1]), 1, self.W, self.EPS)
        doubled = GameTranscript(
            weights=self.W, eps=t.eps, rounds=(t.rounds[0], t.rounds[0]),
            index_budget=t.index_budget,
        )
        report = doubled.verify()
        assert not report["ok"]
        assert not report["ordering"]
        assert not report["disjoint_supports"]

    @staticmethod
    def with_first_round_indices(t, indices):
        """``t`` with its first round's block relabelled onto ``indices``."""
        first = dataclasses.replace(
            t.rounds[0], block=dataclasses.replace(t.rounds[0].block, indices=indices)
        )
        return dataclasses.replace(t, rounds=(first, *t.rounds[1:]))

    def test_a_round_that_repeats_an_index_overlaps_itself(self):
        t = play_game(FixedScheduleAdversary([1, 2]), 2, self.W, self.EPS)
        assert t.rounds[0].indices == (2, 3, 4)
        repeated = self.with_first_round_indices(t, (2, 3, 3))
        report = repeated.verify()
        assert not report["disjoint_supports"]
        assert not report["biorthogonal"]
        assert not report["block_data"]
        assert not report["ok"]
        # the same rule as block_span_project, which refuses such a block
        x = XpwVector(np.ones(4), self.W)
        with pytest.raises(ValueError, match="blocks 0 and 0 overlap at index 3"):
            block_span_project(x, repeated.blocks())

    def test_a_round_below_index_one_fails_without_raising(self):
        t = play_game(FixedScheduleAdversary([1, 2]), 2, self.W, self.EPS)
        report = self.with_first_round_indices(t, (0, 3, 4)).verify()
        assert not report["block_data"]
        assert not report["budget_window"]
        assert not report["ok"]
        assert report["disjoint_supports"]

    def test_block_vectors_share_one_ambient(self):
        t = play_game(FixedScheduleAdversary([1, 2]), 2, self.W, self.EPS)
        vs = t.block_vectors()
        assert all(v.coeffs.shape == (t.ambient_size(),) for v in vs)
        assert len(t.blocks()) == 2


class TestGameIsometry:
    def test_block_combinations_live_in_the_width_space(self):
        # The normalized blocks are isometric to the unit basis of the
        # space weighted by the widths: both norm parts agree term by term
        # (disjoint supports for the p-part, exponent cancellation for the
        # weighted part), so the two evaluations match to roundoff.
        w = WeightSequence.power(4, Fraction(1, 4))
        t = play_game(FixedScheduleAdversary(list(range(1, 9))), 8, w, Fraction(1, 10))
        widths = WeightSequence.explicit(4, [Fraction(r.beta) for r in t.rounds])
        vectors = t.block_vectors()
        rng = np.random.default_rng(21)
        for _ in range(100):
            a = rng.standard_normal(8)
            combo = XpwVector(
                np.sum([ak * v.coeffs for ak, v in zip(a, vectors)], axis=0), w
            )
            direct = XpwVector(a, widths)
            assert xpw_norm(combo) == pytest.approx(xpw_norm(direct), rel=1e-12)


# ------------------------------------------------------------- equivalence


class TestImpartialEquivalence:
    W = WeightSequence.power(4, Fraction(1, 4))

    def norm(self, arr):
        return xpw_norm(XpwVector(arr, self.W))

    def norms(self, rows):
        return [self.norm(row) for row in rows]

    def test_identical_families_give_exactly_one(self):
        xs = [np.eye(3)[i] for i in range(3)]
        est = impartial_equivalence(xs, xs, self.norms, self.norms, samples=50)
        assert est.constant == 1.0
        assert est.forward == 1.0
        assert est.backward == 1.0

    def test_doubling_gives_four(self):
        xs = [np.eye(3)[i] for i in range(3)]
        ys = [2.0 * x for x in xs]
        est = impartial_equivalence(xs, ys, self.norms, self.norms, samples=50)
        assert est.constant == pytest.approx(4.0, rel=1e-12)
        assert est.backward == pytest.approx(4.0, rel=1e-12)
        assert est.forward == pytest.approx(0.25, rel=1e-12)

    def test_game_blocks_against_the_unit_basis(self):
        t = play_game(
            FixedScheduleAdversary(list(range(1, 9))), 8, self.W, Fraction(1, 10)
        )
        xs = [v.coeffs for v in t.block_vectors()]
        ys = [np.eye(8)[i] for i in range(8)]
        est = impartial_equivalence(
            xs, ys, self.norms, self.norms, samples=200, seed=4
        )
        assert est.constant <= 1.1 + 1e-9
        assert est.forward <= 1.1 + 1e-9
        assert est.backward <= 1.1 + 1e-9

    def test_sampled_ratios_stay_in_the_eps_band(self):
        t = play_game(
            FixedScheduleAdversary(list(range(1, 9))), 8, self.W, Fraction(1, 10)
        )
        X = np.column_stack([v.coeffs for v in t.block_vectors()])
        rng = np.random.default_rng(9)
        low, high = 1.1**-0.5 - 1e-9, 1.1**0.5 + 1e-9
        for _ in range(200):
            a = rng.standard_normal(8)
            r = self.norm(X @ a) / self.norm(a)
            assert low <= r <= high

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_is_refused(self, samples):
        # an equivalence constant is at least 1; with no sample it read 0.0
        xs = [np.eye(2)[i] for i in range(2)]
        with pytest.raises(ValueError, match="at least one sample, got"):
            impartial_equivalence(xs, xs, self.norms, self.norms, samples=samples)

    def test_validation(self):
        xs = [np.ones(2)]
        with pytest.raises(ValueError, match="equal length"):
            impartial_equivalence(xs, xs * 2, self.norms, self.norms)
        with pytest.raises(ValueError, match="non-empty"):
            impartial_equivalence([], [], self.norms, self.norms)


# ------------------------------------------------------ cached block geometry
# The formulas below are the ones the norm, the projection and the block
# constants used before each block computed its constants once, with each
# block's pairing summed in the projection's documented order; the cached
# versions must give the same bits.


def uncached_xpw_norm(x):
    c = x.coeffs
    if c.size == 0:
        return 0.0
    p = float(x.weights.p)
    lp = float(np.sum(np.abs(c) ** p)) ** (1.0 / p)
    l2w = float(np.sqrt(np.sum((c * x.weights.weights(c.size)) ** 2)))
    return max(lp, l2w)


def uncached_constants(b):
    """``(p_norm, two_norm_sq, functional_scale, normalized)`` of a block."""
    p_norm = float(b.budget) ** (1.0 / float(b.weights.p))
    two_norm_sq = float(np.sum(b.coeffs**2))
    return p_norm, two_norm_sq, p_norm / two_norm_sq, b.coeffs / p_norm


def uncached_project(x, blocks):
    seen = {}
    for j, b in enumerate(blocks):
        for n in b.indices:
            if n in seen:
                raise ValueError(f"blocks {seen[n]} and {j} overlap at index {n}")
            seen[n] = j
    out = np.zeros(len(x.coeffs))
    for b in blocks:
        pos = np.array(b.indices) - 1
        inside = pos[pos < len(x.coeffs)]
        if inside.size == 0:
            continue
        _, _, scale, normalized = uncached_constants(b)
        pad = np.zeros(len(b.indices))
        pad[: inside.size] = x.coeffs[inside]
        # one segment of reduceat on a fresh array: the projection's
        # documented pairing order, not BLAS
        weight = scale * float(np.add.reduceat(b.coeffs * pad, [0])[0])
        out[inside] += weight * normalized[: inside.size]
    return out


def assert_same_constants(b):
    p_norm, two_norm_sq, scale, normalized = uncached_constants(b)
    assert (b.p_norm, b.two_norm_sq, b.functional_scale) == (p_norm, two_norm_sq, scale)
    assert b.normalized().tobytes() == normalized.tobytes()
    assert b.functional().tobytes() == (scale * b.coeffs).tobytes()


ACCEPTANCE_GAMES = {
    "fixed": lambda: FixedScheduleAdversary(list(range(1, 9))),
    "random": lambda: RandomAdversary(5),
    "greedy": lambda: GreedyMaxAdversary(),
}


class TestCachedGeometryIsBitIdentical:
    W = WeightSequence.power(4, Fraction(1, 4))

    @pytest.mark.parametrize("name", sorted(ACCEPTANCE_GAMES))
    def test_acceptance_games(self, name):
        t = play_game(ACCEPTANCE_GAMES[name](), 8, self.W, Fraction(1, 10))
        blocks, size = t.blocks(), t.ambient_size()
        for b in blocks:
            assert_same_constants(b)
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = XpwVector(rng.standard_normal(size), self.W)
            projected = block_span_project(x, blocks)
            assert projected.coeffs.tobytes() == uncached_project(x, blocks).tobytes()
            for v in (x, projected):
                assert xpw_norm(v).hex() == uncached_xpw_norm(v).hex()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_drawn_disjoint_blocks_and_short_vectors(self, data):
        indices = data.draw(
            st.lists(st.integers(1, 60), min_size=1, max_size=20, unique=True)
        )
        cuts = sorted(data.draw(st.sets(st.integers(1, len(indices)), max_size=4)))
        pieces = [indices[a:b] for a, b in zip([0, *cuts], [*cuts, len(indices)])]
        blocks = [block_data(piece, self.W) for piece in pieces if piece]
        # shorter than some block's support, or longer than all of them
        size = data.draw(st.integers(0, max(indices) + 3))
        x = XpwVector(
            np.random.default_rng(data.draw(st.integers(0, 2**16))).standard_normal(size),
            self.W,
        )
        for b in blocks:
            assert_same_constants(b)
        projected = block_span_project(x, blocks)
        assert projected.coeffs.tobytes() == uncached_project(x, blocks).tobytes()
        assert xpw_norm(x).hex() == uncached_xpw_norm(x).hex()
        assert xpw_norm(projected).hex() == uncached_xpw_norm(projected).hex()

    # The ambient estimate's values before the block constants were cached,
    # which the xpw-game report gave until it moved to coefficient space.
    EQUIVALENCE = {
        "fixed": ("0x1.09adc8943d514p+0", "0x1.0000000000004p+0"),
        "random": ("0x1.02b10a0310186p+0", "0x1.0000000000002p+0"),
        "greedy": ("0x1.0b13728f3cf55p+0", "0x1.0000000000002p+0"),
    }
    # The report's coefficient-space values: forward, backward, forward_bound.
    REPORT = {
        "fixed": ("0x1.09adc8943d514p+0", "0x1.0000000000000p+0", "0x1.0a74080e737b2p+0"),
        "random": ("0x1.02b10a0310184p+0", "0x1.0000000000000p+0", "0x1.03c23d07d1c40p+0"),
        "greedy": ("0x1.0b13728f3cf55p+0", "0x1.0000000000000p+0", "0x1.0bf639006c5b4p+0"),
    }

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE))
    def test_xpw_game_report_equivalence(self, name, tmp_path):
        path = tmp_path / "game.json"
        config = ExperimentConfig(
            "xpw-game", p=4.0, eps="1/10", decay="1/4", rounds=8,
            adversary=name, samples=1000, seed=5, out=str(path),
        )
        eq = run(config)["results"]["equivalence"]
        transcript = serialize.load(path)
        w = transcript.weights

        def norms(rows):
            return xpw_norms(rows, w)

        ambient = impartial_equivalence(
            [v.coeffs for v in transcript.block_vectors()], list(np.eye(8)),
            norms, norms, samples=1000, seed=5,
        )
        forward, backward = self.EQUIVALENCE[name]
        assert (ambient.forward.hex(), ambient.backward.hex()) == (forward, backward)
        assert ambient.constant.hex() == max(forward, backward, key=float.fromhex)

        forward, backward, bound = self.REPORT[name]
        assert (eq["forward"].hex(), eq["backward"].hex()) == (forward, backward)
        assert eq["constant"].hex() == max(forward, backward, key=float.fromhex)
        assert eq["forward_bound"].hex() == bound
        for key in ("forward", "backward", "constant"):
            assert abs(eq[key] - getattr(ambient, key)) <= 4 * math.ulp(eq[key]), key
        assert eq["forward"] <= eq["forward_bound"]


def per_sample_equivalence(xs, ys, norm, *, samples, seed):
    """``(constant, forward, backward)`` from one draw, one ``X @ a`` and
    one norm call per sample, as the estimator measured before it batched
    its samples."""
    X = np.column_stack([np.asarray(x, dtype=float) for x in xs])
    Y = np.column_stack([np.asarray(y, dtype=float) for y in ys])
    rng = np.random.default_rng(seed)
    hi = 0.0
    lo = math.inf
    for _ in range(samples):
        a = rng.standard_normal(len(xs))
        r = norm(X @ a) / norm(Y @ a)
        hi = max(hi, r)
        lo = min(lo, r)
    return max(hi, 1.0 / lo) ** 2, hi**2, (1.0 / lo) ** 2


class TestBatchedNormsAreBitIdentical:
    """`xpw_norms` gives each row the bits of the per-vector norm, and the
    batched estimator gives the bits of the per-sample loop."""

    W = WeightSequence.power(4, Fraction(1, 4))

    @staticmethod
    def rows_with_zero_runs(size, seed):
        """Seven rows on both sides of the masked power's gate: dense, a
        quarter zero (on the gate when ``size`` is a multiple of four, just
        under it otherwise), three quarters zero in one run, zero runs of
        several lengths, ``-0.0`` in every third entry, underflowing
        powers, and all zero."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((7, size))
        rows[1, : size // 4] = 0.0
        rows[2, size // 8 : size - size // 8] = 0.0
        for start in range(0, size, 40):
            rows[3, start : start + start % 37] = 0.0
        rows[4, ::3] = -0.0
        rows[5] *= 1e-90
        rows[5, size // 2 :] = 0.0
        rows[6] = 0.0
        return rows

    @pytest.mark.parametrize("p", [3, 4, 6])
    @pytest.mark.parametrize("size", [25, 219, 1024, 7859])
    def test_row_norms_match_the_per_vector_norm(self, size, p):
        w = WeightSequence.power(p, Fraction(1, 4))
        rows = self.rows_with_zero_runs(size, seed=size + p)
        batched = xpw_norms(rows, w)
        assert batched.shape == (len(rows),)
        for i, row in enumerate(rows):
            x = XpwVector(row, w)
            want = uncached_xpw_norm(x).hex()
            assert float(batched[i]).hex() == want
            assert float(xpw_norms(rows[i : i + 1], w)[0]).hex() == want
            assert xpw_norm(x).hex() == want
            power = weightedlp._abs_power(row, w.p_float)
            assert power.tobytes() == (np.abs(row) ** w.p_float).tobytes()

    def test_row_norm_edges(self):
        assert xpw_norms(np.zeros((3, 0)), self.W).tolist() == [0.0, 0.0, 0.0]
        assert xpw_norms(np.zeros((0, 5)), self.W).shape == (0,)
        with pytest.raises(ValueError, match="two-dimensional"):
            xpw_norms(np.ones(4), self.W)

    def assert_matches_the_loop(self, xs, *, samples, seed):
        """The batched estimate of ``xs`` against the unit vectors, with
        `xpw_norms`, has the per-sample loop's bits."""
        ys = list(np.eye(len(xs)))

        def norms(rows):
            return xpw_norms(rows, self.W)

        est = impartial_equivalence(xs, ys, norms, norms, samples=samples, seed=seed)
        want = per_sample_equivalence(
            xs, ys, lambda c: uncached_xpw_norm(XpwVector(c, self.W)),
            samples=samples, seed=seed,
        )
        assert est.samples == samples
        assert [est.constant.hex(), est.forward.hex(), est.backward.hex()] == [
            v.hex() for v in want
        ]

    @pytest.mark.parametrize("samples", [1, 7, 1000])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("name", sorted(ACCEPTANCE_GAMES))
    def test_estimator_matches_the_per_sample_loop(self, name, seed, samples):
        t = play_game(ACCEPTANCE_GAMES[name](), 8, self.W, Fraction(1, 10))
        xs = [v.coeffs for v in t.block_vectors()]
        self.assert_matches_the_loop(xs, samples=samples, seed=seed)

    @pytest.mark.parametrize("family", ["shared row", "dense"])
    def test_rows_with_two_nonzeros_take_one_product_per_sample(self, family):
        t = play_game(ACCEPTANCE_GAMES["fixed"](), 8, self.W, Fraction(1, 10))
        xs = [v.coeffs.copy() for v in t.block_vectors()]
        if family == "shared row":
            # block 1's vector also holds an entry where block 0 lives
            xs[1][t.rounds[0].block.positions[0]] = 0.3
        else:
            xs = list(np.random.default_rng(2).standard_normal((8, 30)))
        assert np.count_nonzero(np.column_stack(xs), axis=1).max() >= 2
        self.assert_matches_the_loop(xs, samples=300, seed=3)


class TestBlockCacheContract:
    W = WeightSequence.power(4, Fraction(1, 4))

    def hand_block(self, indices):
        return Block(
            indices=tuple(indices), coeffs=np.ones(len(indices)), beta=1.0,
            budget=Fraction(len(indices)), weights=self.W,
        )

    @pytest.mark.parametrize(
        "index_sets, message",
        [
            # one block that repeats an index overlaps itself
            ([(3, 4, 3)], "blocks 0 and 0 overlap at index 3"),
            ([(1, 2), (5, 6), (2, 7)], "blocks 0 and 2 overlap at index 2"),
            # the walk's first repeat (9), not the smallest repeated index (1)
            ([(5, 9), (9, 12), (1,), (1,)], "blocks 0 and 1 overlap at index 9"),
        ],
    )
    def test_overlap_message_names_the_first_repeat_met(self, index_sets, message):
        blocks = [self.hand_block(E) for E in index_sets]
        x = XpwVector(np.ones(12), self.W)
        with pytest.raises(ValueError) as old:
            uncached_project(x, blocks)
        with pytest.raises(ValueError) as new:
            block_span_project(x, blocks)
        assert str(new.value) == str(old.value) == message

    def test_coeffs_are_a_read_only_copy(self):
        given_coeffs = np.array([1.0, 0.5, 0.25])
        b = Block((1, 2, 3), given_coeffs, 1.0, Fraction(3), self.W)
        with pytest.raises(ValueError, match="read-only"):
            b.coeffs[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            b.normalized()[0] = 2.0
        given_coeffs[0] = 7.0  # the caller's array stays the caller's
        assert b.coeffs[0] == 1.0
        assert_same_constants(b)

    def test_replace_recomputes_the_constants(self):
        b = block_data([3, 4, 5], self.W)
        assert_same_constants(b)  # fills b's caches
        for changes in (
            {"coeffs": 2.0 * b.coeffs},
            {"budget": 3 * b.budget},
            {"indices": (6, 7, 8)},
        ):
            fresh = dataclasses.replace(b, **changes)
            assert_same_constants(fresh)
            assert fresh.positions.tolist() == [n - 1 for n in fresh.indices]
        assert dataclasses.replace(b, coeffs=2.0 * b.coeffs).two_norm_sq == 4 * b.two_norm_sq


class TestDecidedFamily:
    """A transcript's block family is decided once and projects as the
    per-block formula does, bit for bit, whatever sequence holds the blocks."""

    W = WeightSequence.power(4, Fraction(1, 4))

    @staticmethod
    def loaded(name):
        """An acceptance game's transcript after a round trip through its
        document, as the benchmark's contraction checks read it."""
        t = play_game(ACCEPTANCE_GAMES[name](), 8, TestDecidedFamily.W, Fraction(1, 10))
        return serialize.loads(serialize.dumps(t))

    def samples(self, size, seed):
        """Gaussian vectors of the ambient size with ``-0.0`` entries, and
        some shorter than the support."""
        rng = np.random.default_rng(seed)
        for length in (size, size, size - 1, size // 2, 1, 0):
            c = rng.standard_normal(length)
            c[::3] = -0.0
            yield XpwVector(c, self.W)

    @pytest.mark.parametrize("holder", ["family", "list", "tuple"])
    @pytest.mark.parametrize("name", sorted(ACCEPTANCE_GAMES))
    def test_loaded_transcripts_match_the_oracle(self, name, holder):
        t = self.loaded(name)
        family = t.blocks()
        blocks = {"family": family, "list": list(family), "tuple": tuple(family)}[holder]
        for x in self.samples(t.ambient_size(), seed=len(name)):
            projected = block_span_project(x, blocks)
            want = uncached_project(x, list(family))
            assert projected.coeffs.tobytes() == want.tobytes()
            assert projected.coeffs.shape == x.coeffs.shape

    def test_overlaps_are_decided_once_per_transcript(self, monkeypatch):
        calls = []
        decide = weightedlp._first_overlap

        def counted(family):
            calls.append(len(family))
            return decide(family)

        monkeypatch.setattr(weightedlp, "_first_overlap", counted)
        t = self.loaded("greedy")
        assert t.verify()["ok"]
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = XpwVector(rng.standard_normal(t.ambient_size()), self.W)
            block_span_project(x, t.blocks())
        assert calls == [8]
        # a plain list is decided again on each call
        block_span_project(x, list(t.blocks()))
        assert calls == [8, 8]

    def test_the_family_is_kept_and_read_only(self):
        t = self.loaded("random")
        family = t.blocks()
        assert t.blocks() is family
        assert isinstance(family, tuple)
        assert [b for b in family] == [r.block for r in t.rounds]
        assert family.top == t.ambient_size() == max(max(r.indices) for r in t.rounds)
        layout = (family.positions, family.starts, family.owners, family.coeffs,
                  family.scales, family.normalized)
        for array in layout:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_a_generator_gives_the_lists_bytes(self):
        blocks = [block_data([2, 3, 5], self.W), block_data([7, 8], self.W)]
        x = XpwVector(np.random.default_rng(3).standard_normal(9), self.W)
        want = block_span_project(x, blocks).coeffs
        got = block_span_project(x, (b for b in blocks)).coeffs
        assert got.tobytes() == want.tobytes()
        assert np.any(got != 0.0)

    def test_an_overlapping_generator_raises_the_lists_message(self):
        blocks = [block_data([2, 3, 5], self.W), block_data([5, 8], self.W)]
        x = XpwVector(np.ones(9), self.W)
        with pytest.raises(ValueError) as from_list:
            block_span_project(x, blocks)
        with pytest.raises(ValueError) as from_generator:
            block_span_project(x, (b for b in blocks))
        assert str(from_generator.value) == str(from_list.value)
        assert str(from_list.value) == "blocks 0 and 1 overlap at index 5"

    def test_no_blocks_project_to_zero(self):
        x = XpwVector(np.array([1.0, -2.0]), self.W)
        assert block_span_project(x, []).coeffs.tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_on_a_blocks_support_lands_as_positive_zero(self, zero):
        # a -0.0 pairing gives a -0.0 weight, and the scatter adds it to +0.0
        t = self.loaded("random")
        family = t.blocks()
        c = np.random.default_rng(4).standard_normal(t.ambient_size())
        c[family[1].positions] = zero
        projected = block_span_project(XpwVector(c, self.W), family).coeffs
        support = projected[family[1].positions]
        assert support.tobytes() == np.zeros(support.size).tobytes()
        assert np.any(projected[family[0].positions] != 0.0)


# Every acceptance game's family, projected on 200 seeded vectors, two of
# them zero on the first block's support; leaves the sha256 of the
# projections' bytes in DIGEST.
PROJECTION_SCRIPT = """
import hashlib
from fractions import Fraction
import numpy as np
from haarfactor.weightedlp import (
    FixedScheduleAdversary, GreedyMaxAdversary, RandomAdversary, WeightSequence,
    XpwVector, block_span_project, play_game,
)
W = WeightSequence.power(4, Fraction(1, 4))
digest = hashlib.sha256()
for adversary in (FixedScheduleAdversary(list(range(1, 9))), RandomAdversary(5),
                  GreedyMaxAdversary()):
    t = play_game(adversary, 8, W, Fraction(1, 10))
    family, rng = t.blocks(), np.random.default_rng(23)
    for k in range(200):
        c = rng.standard_normal(t.ambient_size())
        if k < 2:
            c[family[0].positions] = (-0.0, 0.0)[k]
        digest.update(block_span_project(XpwVector(c, W), family).coeffs.tobytes())
DIGEST = digest.hexdigest()
"""


@pytest.mark.skipif(not _dynamic_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS on x86-64")
def test_projections_do_not_depend_on_the_blas_kernels():
    namespace = {}
    exec(PROJECTION_SCRIPT, namespace)
    src = str(Path(weightedlp.__file__).resolve().parents[1])
    for coretype in ("Prescott", "Sandybridge"):
        env = {
            **os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        out = subprocess.run(
            [sys.executable, "-c", PROJECTION_SCRIPT + "print(DIGEST)"],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        assert out.stdout.strip() == namespace["DIGEST"], coretype


# ------------------------------------------------------ exact game arithmetic


def sequential_scan(adversary, rounds, w, eps, *, index_budget=100_000):
    """The block game in `Fraction` arithmetic alone, the oracle of
    `play_game`'s filtered scan: each term added to a `Fraction` one at a
    time, and every comparison, ``S < t_k`` and ``(S + b_n)^den <=
    limit``, made on that sum."""
    eps = Fraction(eps)
    q = w.p / (w.p - 2)
    out = []
    frontier = 0
    for k in range(1, rounds + 1):
        move = int(adversary(k, frontier))
        t_k = w.budget(k)
        limit = (1 + eps) ** q.numerator * t_k**q.denominator
        chosen, S = [], Fraction(0)
        n = max(move, frontier) + 1
        scanned = 0
        while S < t_k:
            if scanned >= index_budget:
                raise ResourceLimitError(
                    f"round {k}: scanned {index_budget} indices past "
                    f"{max(move, frontier)} without filling the budget window"
                )
            candidate = S + w.budget(n)
            if candidate**q.denominator <= limit:
                S = candidate
                chosen.append(n)
            n += 1
            scanned += 1
        block = block_data(chosen, w)
        assert block.budget == S
        out.append(GameRound(move=move, block=block, budget_target=t_k))
        frontier = max(block.indices)
    return GameTranscript(weights=w, eps=eps, rounds=tuple(out), index_budget=index_budget)


def outcome(play, make_adversary, rounds, w, eps, **kwargs):
    """A game's transcript bytes, or its error's type and message."""
    try:
        return serialize.dumps(play(make_adversary(), rounds, w, eps, **kwargs))
    except (ResourceLimitError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


GAME_P = [3, 4, 6, Fraction(10, 3)]


def weight_families(p, *, game=False):
    """Power families whose series exponent ``decay * 2p/(p-2)`` is an
    integer of either sign, and explicit families of small rationals.  For
    a game, the divergent exponent 1 is drawn most often, and explicit
    weights are longer lists that do not increase, so that many games
    finish some rounds."""
    q = 2 * Fraction(p) / (Fraction(p) - 2)
    exponents = [-1, 0, 1, 1, 1, 2] if game else [-2, -1, 0, 1, 2, 3]
    power = st.sampled_from(exponents).map(lambda e: WeightSequence.power(p, Fraction(e) / q))
    if game:
        values = st.lists(
            st.fractions(Fraction(3, 4), 1, max_denominator=16), min_size=1, max_size=300
        ).map(lambda vs: sorted(vs, reverse=True))
    else:
        values = st.lists(
            st.fractions(Fraction(1, 8), 2, max_denominator=9).filter(lambda v: v > 0),
            min_size=1, max_size=40,
        )
    return st.one_of(power, values.map(lambda vs: WeightSequence.explicit(p, vs)))


def adversaries():
    """Factories, so that the scan and its oracle each meet a fresh one."""
    fixed = st.lists(st.integers(1, 30), min_size=1, max_size=4).map(
        lambda moves: lambda: FixedScheduleAdversary(moves)
    )
    rand = st.integers(0, 2**16).map(lambda seed: lambda: RandomAdversary(seed))
    return st.one_of(fixed, rand, st.just(GreedyMaxAdversary))


@pytest.fixture
def fallbacks(monkeypatch):
    """The index lists whose exact budget `play_game` itself asks for:
    one per comparison its float filter left to exact arithmetic."""
    calls = []
    budget_sum = WeightSequence.budget_sum

    def spy(self, indices):
        if sys._getframe(1).f_code.co_name == "play_game":
            calls.append(list(indices))
        return budget_sum(self, indices)

    monkeypatch.setattr(WeightSequence, "budget_sum", spy)
    return calls


def exact_forward_bound(t: GameTranscript) -> tuple[Fraction, int, int]:
    """``(max(1, max_k S_k/t_k), num, den)`` with ``p/(p-2) = num/den``."""
    w = t.weights
    ratio = max(
        [Fraction(1)]
        + [r.block.budget / w.budget(k) for k, r in enumerate(t.rounds, start=1)]
    )
    q = w.p / (w.p - 2)
    return ratio, q.numerator, q.denominator


class TestExactBudgetSum:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_block_budget_is_the_sequential_sum(self, data):
        p = data.draw(st.sampled_from(GAME_P))
        w = data.draw(weight_families(p))
        top = len(w) if w.kind == "explicit" else 400
        indices = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=60, unique=True))
        want = sum((w.budget(n) for n in sorted(indices)), Fraction(0))
        got = block_data(indices, w).budget
        assert got == want and str(got) == str(want)
        assert w.budget_sum(indices) == want

    def test_pairs_are_the_budgets(self):
        for w, n in [
            (WeightSequence.power(4, Fraction(1, 4)), 7),
            (WeightSequence.power(4, Fraction(-1, 2)), 7),
            (WeightSequence.explicit(3, [Fraction(2, 3), Fraction(5, 4)]), 2),
        ]:
            a, b = w.budget_pair(n)
            assert b > 0 and Fraction(a, b) == w.budget(n)
        assert WeightSequence.power(4, Fraction(1, 4)).budget_sum([]) == 0

    def test_pairs_keep_the_budget_errors(self):
        with pytest.raises(ValueError, match="start at 1"):
            WeightSequence.power(4, Fraction(1, 4)).budget_pair(0)
        with pytest.raises(ValueError, match="not an integer"):
            WeightSequence.power(4, Fraction(1, 3)).budget_sum([1, 2])
        with pytest.raises(ValueError, match="beyond the 2 explicit weights"):
            WeightSequence.explicit(4, [1, 2]).budget_sum([1, 3])
        # p = 5 gives 2p/(p-2) = 10/3: no integer power of an explicit weight
        with pytest.raises(ValueError, match="10/3 is not an integer"):
            WeightSequence.explicit(5, [Fraction(1, 2)]).budget_pair(1)


class TestFilteredScan:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_decision_is_the_sequential_scans(self, data):
        p = data.draw(st.sampled_from(GAME_P), label="p")
        w = data.draw(weight_families(p, game=True), label="weights")
        eps = data.draw(st.fractions(Fraction(1, 100), 3, max_denominator=100), label="eps")
        make = data.draw(adversaries(), label="adversary")
        rounds = data.draw(st.integers(1, 8), label="rounds")
        budget = data.draw(st.integers(20, 1500), label="index_budget")
        got = outcome(play_game, make, rounds, w, eps, index_budget=budget)
        assert got == outcome(sequential_scan, make, rounds, w, eps, index_budget=budget)
        if got.startswith("{"):
            self.check_the_bracket(serialize.loads(got))

    @staticmethod
    def check_the_bracket(t):
        """The ambient sampled forward constant is at most the exact bound,
        up to the rounding of the sample itself, and the bound is the least
        float at or above ``max(1, r)^{(p-2)/p}``."""
        eq = t.equivalence(samples=32, seed=1)
        assert eq.within_eps
        ratio, num, den = exact_forward_bound(t)
        bound = eq.forward_bound
        assert Fraction(bound) ** num >= ratio**den
        assert Fraction(math.nextafter(bound, 0.0)) ** num < ratio**den
        w = t.weights

        def norms(rows):
            return xpw_norms(rows, w)

        units = list(np.eye(len(t.rounds)))
        ambient = impartial_equivalence(
            [v.coeffs for v in t.block_vectors()], units, norms, norms, samples=32, seed=1
        )
        assert ambient.forward <= bound + 16 * math.ulp(bound)
        assert ambient.backward <= 1.0 + 16 * math.ulp(1.0)

    # (p, eps, weights, indices): each game's one round lands exactly on an edge
    ON_THE_EDGE = [
        # (3/2)^4 = 81/16 = (1 + 5/4)^2 * 1: the cap itself, p/(p-2) = 2
        (4, Fraction(5, 4), [1, Fraction(3, 2)], (2,)),
        # (11/10)^3 = 1331/1000 and (1331/1000)^2 = (121/100)^3: p/(p-2) = 3/2
        (6, Fraction(21, 100), [1, Fraction(11, 10)], (2,)),
        # a hair past the cap is skipped; sixteen terms 1/16 then land on t = 1
        (4, Fraction(5, 4), [1, Fraction(3, 2) + Fraction(1, 10**30)] + [Fraction(1, 2)] * 16,
         tuple(range(3, 19))),
        # sixteen terms 1/16 land exactly on the target t = 1
        (4, Fraction(1, 10), [1] + [Fraction(1, 2)] * 16, tuple(range(2, 18))),
        # twenty-seven terms 1/27 land on t = 1, but their float sum is
        # 1 - 7e-16: only the error bound keeps the float from deciding
        (6, Fraction(1, 10), [1] + [Fraction(1, 3)] * 28, tuple(range(2, 29))),
    ]

    @pytest.mark.parametrize("p, eps, values, indices", ON_THE_EDGE)
    def test_ties_fall_back_to_exact_arithmetic(self, fallbacks, p, eps, values, indices):
        w = WeightSequence.explicit(p, values)
        t = play_game(FixedScheduleAdversary([1]), 1, w, eps)
        assert fallbacks, "a tie was decided in floats"
        assert t.rounds[0].indices == indices
        assert t.verify()["ok"]
        assert serialize.dumps(t) == serialize.dumps(
            sequential_scan(FixedScheduleAdversary([1]), 1, w, eps)
        )

    def test_a_term_past_the_float_range_falls_back(self, fallbacks):
        # index 2's budget term is 10^400, past the float range: its sum is
        # infinite, so exact arithmetic skips it, with nothing chosen yet;
        # sixteen terms 1/16 follow
        w = WeightSequence.explicit(4, [1, 10**100] + [Fraction(1, 2)] * 16)
        t = play_game(FixedScheduleAdversary([1]), 1, w, Fraction(1, 10))
        assert fallbacks[0] == []
        assert t.rounds[0].indices == tuple(range(3, 19))
        assert serialize.dumps(t) == serialize.dumps(
            sequential_scan(FixedScheduleAdversary([1]), 1, w, Fraction(1, 10))
        )

    def test_clear_decisions_stay_in_floats(self, fallbacks):
        t = play_game(FixedScheduleAdversary([1]), 1, WeightSequence.power(4, Fraction(1, 4)),
                      Fraction(1, 10))
        assert t.rounds[0].indices == (2, 3, 4)
        assert fallbacks == []


class TestRootBracket:
    @settings(max_examples=300, deadline=None)
    @given(
        st.fractions(Fraction(1, 10**6), 10**6, max_denominator=10**12).filter(lambda x: x > 0),
        st.sampled_from([1, 2, 3, 5]),
    )
    def test_the_floats_next_to_the_root(self, x, k):
        lo, hi = weightedlp._root_bracket(x, k)
        assert Fraction(lo) ** k <= x <= Fraction(hi) ** k
        # adjacent, or equal when the root is a float
        assert hi == lo or math.nextafter(lo, math.inf) == hi
        assert (hi == lo) == (Fraction(hi) ** k == x)

    def test_out_of_range_roots_get_the_trivial_bracket(self):
        assert weightedlp._root_bracket(Fraction(10**400), 1) == (0.0, math.inf)
        assert weightedlp._root_bracket(Fraction(2), 1) == (2.0, 2.0)
        lo, hi = weightedlp._root_bracket(Fraction(1, 10**400), 1)
        assert lo == 0.0 and hi == 5e-324


class TestExactEquivalence:
    W = WeightSequence.power(4, Fraction(1, 4))
    EPS = Fraction(1, 10)

    def game(self):
        return play_game(FixedScheduleAdversary(list(range(1, 9))), 8, self.W, self.EPS)

    def test_the_verdict_reads_no_sample(self):
        t = self.game()
        verdicts = {
            (samples, seed): t.equivalence(samples, seed)
            for samples in (1, 7, 1000) for seed in (0, 5)
        }
        assert all(eq.within_eps for eq in verdicts.values())
        assert len({eq.forward_bound for eq in verdicts.values()}) == 1
        for eq in verdicts.values():
            assert eq.sampled.backward <= 1.0
            assert eq.sampled.forward <= eq.forward_bound < 1.1

    def test_the_bound_is_the_least_float_above(self):
        t = self.game()
        ratio, num, den = exact_forward_bound(t)
        bound = t.equivalence(samples=1).forward_bound
        # p = 4: bound^2 >= max S_k/t_k > (bound - ulp)^2
        assert (num, den) == (2, 1)
        assert Fraction(bound) ** 2 >= ratio > Fraction(math.nextafter(bound, 0.0)) ** 2

    def test_a_budget_past_its_window_fails_both_checks(self):
        t = self.game()
        k = 3
        r = t.rounds[k - 1]
        cap = (1 + self.EPS) ** 2 * r.budget_target
        past = dataclasses.replace(
            r, block=dataclasses.replace(r.block, budget=cap + Fraction(1, 10**6))
        )
        tampered = dataclasses.replace(t, rounds=(*t.rounds[: k - 1], past, *t.rounds[k:]))
        report = tampered.verify()
        assert not report["budget_window"] and not report["ok"]
        eq = tampered.equivalence(samples=10)
        assert not eq.within_eps
        assert eq.forward_bound > float(1 + self.EPS)
        assert t.equivalence(samples=10).within_eps

    def test_no_samples_is_refused(self):
        with pytest.raises(ValueError, match="at least one sample"):
            self.game().equivalence(samples=0)

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peftlab.span import (SpanExample, SpanPrediction, check_request,
                          decode_span, generate_dataset, score)

from oracles import count_occurrences_loops, decode_span_enumeration


class TestGenerate:
    def test_answerable_only(self):
        ds = generate_dataset(seed=1, count=40, seq_len=32, vocab_size=64,
                              unanswerable_fraction=0.0)
        assert len(ds) == 40
        assert all(ex.gold_span != (0, 0) for ex in ds)

    def test_unanswerable_only_and_needle_absent(self):
        ds = generate_dataset(seed=2, count=40, seq_len=32, vocab_size=64,
                              unanswerable_fraction=1.0)
        for ex in ds:
            assert ex.gold_span == (0, 0)
            sep = np.where(ex.tokens == 1)[0][0]
            needle = ex.tokens[1:sep]
            context = ex.tokens[sep + 1:]
            assert count_occurrences_loops(context, needle) == 0

    def test_gold_span_inside_context_with_exactly_one_occurrence(self):
        ds = generate_dataset(seed=3, count=60, seq_len=48, vocab_size=64,
                              unanswerable_fraction=0.3)
        for ex in ds:
            sep = np.where(ex.tokens == 1)[0][0]
            needle = ex.tokens[1:sep]
            context = ex.tokens[sep + 1:]
            s, e = ex.gold_span
            if (s, e) == (0, 0):
                continue
            assert sep < s <= e < len(ex.tokens)
            assert np.array_equal(ex.tokens[s:e + 1], needle)
            assert count_occurrences_loops(context, needle) == 1
            assert np.all(ex.segments[:sep + 1] == 0)
            assert np.all(ex.segments[sep + 1:] == 1)

    def test_deterministic_per_seed(self):
        a = generate_dataset(seed=7, count=25, seq_len=32, vocab_size=64,
                             unanswerable_fraction=0.5)
        b = generate_dataset(seed=7, count=25, seq_len=32, vocab_size=64,
                             unanswerable_fraction=0.5)
        for ex_a, ex_b in zip(a, b):
            assert np.array_equal(ex_a.tokens, ex_b.tokens)
            assert np.array_equal(ex_a.segments, ex_b.segments)
            assert ex_a.gold_span == ex_b.gold_span

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(seed=0, count=1, seq_len=32, vocab_size=3)
        with pytest.raises(ValueError):
            generate_dataset(seed=0, count=1, seq_len=4, vocab_size=64)
        with pytest.raises(ValueError):
            generate_dataset(seed=0, count=1, seq_len=32, vocab_size=64,
                             unanswerable_fraction=1.5)

    def test_one_word_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="^vocab_size 1 leaves too few "
                           "word ids$"):
            check_request(32, vocab_size=1, unanswerable_fraction=1 / 3)

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_request_rejected(self, count):
        with pytest.raises(ValueError, match=f"count must be >= 1, got {count}"):
            generate_dataset(seed=0, count=count, seq_len=32, vocab_size=64)

    def test_needle_longer_than_answerable_context_rejected(self):
        with pytest.raises(ValueError, match=r"seq_len 9 .*length 5"):
            generate_dataset(seed=0, count=64, seq_len=9, vocab_size=64,
                             needle_len_range=(1, 5),
                             unanswerable_fraction=1 / 3)

    def test_unanswerable_only_needs_no_room_for_the_needle(self):
        data = generate_dataset(seed=0, count=8, seq_len=9, vocab_size=64,
                                needle_len_range=(1, 5),
                                unanswerable_fraction=1.0)
        assert all(ex.gold_span == (0, 0) for ex in data)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 30522),
           st.integers(1, 4), st.integers(0, 3), st.integers(0, 40),
           st.floats(0.0, 1.0))
    def test_needle_occurs_exactly_at_the_gold_span(
            self, seed, vocab_size, lo, extra, pad, unanswerable_fraction):
        # at pad 0 this is the shortest seq_len check_request accepts for an
        # answer needle of length hi; vocab_size 4 is the smallest it accepts
        hi = lo + extra
        seq_len = max(hi + 4, 2 * hi + 2) + pad
        ds = generate_dataset(seed, 6, seq_len, vocab_size, (lo, hi),
                              unanswerable_fraction)
        for ex in ds:
            assert len(ex.tokens) == seq_len
            sep = np.where(ex.tokens == 1)[0][0]
            needle, context = ex.tokens[1:sep], ex.tokens[sep + 1:]
            assert lo <= len(needle) <= hi
            if ex.gold_span == (0, 0):
                assert count_occurrences_loops(context, needle) == 0
                continue
            s, e = ex.gold_span
            assert sep < s <= e < seq_len
            assert np.array_equal(ex.tokens[s:e + 1], needle)
            assert count_occurrences_loops(context, needle) == 1

    # pinned sha256 of the datasets at the desk (L = 64) and desk-long
    # (L = 256) shapes: a change of draw order or of any drawn value fails here
    @pytest.mark.parametrize("seed, count, seq_len, digest", [
        (0, 2000, 64,
         "a5fd556e38ceae4d9fe229749647b431811e148338c3b87d42e8446e16561281"),
        (7, 200, 256,
         "be87471d51d831efc79865ffd86b927e5b5a2049079de6f797345c12d382dab4"),
    ])
    def test_fingerprint_at_desk_shapes(self, seed, count, seq_len, digest):
        h = hashlib.sha256()
        for ex in generate_dataset(seed, count, seq_len, 64,
                                   unanswerable_fraction=1 / 3):
            for ids in (ex.tokens, ex.segments, ex.gold_span):
                h.update(np.asarray(ids, dtype="<i8").tobytes())
        assert h.hexdigest() == digest


class TestDecode:
    def test_null_dominates(self):
        pred = decode_span([10.0, 0.0, 0.0], [10.0, 0.0, 0.0])
        assert pred.span == (0, 0)

    def test_hand_checked_best_pair(self):
        pred = decode_span([0.0, 5.0, 1.0], [0.0, 1.0, 6.0], max_answer_len=8)
        assert pred.span == (1, 2)
        assert decode_span_enumeration([0.0, 5.0, 1.0], [0.0, 1.0, 6.0],
                                       8) == (1, 2)

    def test_two_token_span_at_reported_indices(self):
        L = 100
        start = np.zeros(L)
        end = np.zeros(L)
        start[84] = 9.0
        end[85] = 9.0
        pred = decode_span(start, end)
        assert pred.span == (84, 85)
        assert pred.span[1] - pred.span[0] + 1 == 2

    def test_matches_enumeration_on_random_logits(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            L = int(rng.integers(1, 13))
            mal = int(rng.integers(1, 8))
            s = rng.standard_normal(L)
            e = rng.standard_normal(L)
            assert decode_span(s, e, mal).span == \
                decode_span_enumeration(s, e, mal)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 320), st.integers(0, 2**32 - 1))
    def test_matches_enumeration_with_ties(self, L, max_answer_len, seed):
        # logits from seven values, so equal scores, also equal to the null
        # score, are common
        rng = np.random.default_rng(seed)
        s, e = (rng.integers(-3, 4, size=L) * 0.5 for _ in range(2))
        assert decode_span(s, e, max_answer_len).span == \
            decode_span_enumeration(s, e, max_answer_len)

    def test_max_answer_len_enforced(self):
        s = np.zeros(10)
        e = np.zeros(10)
        s[1] = 5.0
        e[9] = 5.0
        e[3] = 4.0
        assert decode_span(s, e, max_answer_len=3).span == (1, 3)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        s = rng.standard_normal(9)
        e = rng.standard_normal(9)
        assert decode_span(s, e).span == decode_span(s + 7.5, e - 3.25).span


class TestScore:
    def test_exact_match(self):
        em, f1 = score([SpanPrediction((84, 85))],
                       [SpanExample(None, None, (84, 85))])
        assert (em, f1) == (100.0, 100.0)

    def test_one_token_over_prediction(self):
        em, f1 = score([((84, 86))], [((84, 85))])
        assert em == 0.0
        assert abs(f1 - 80.0) < 1e-12

    def test_no_answer_agreement(self):
        em, f1 = score([(0, 0)], [(0, 0)])
        assert (em, f1) == (100.0, 100.0)

    def test_no_answer_disagreement(self):
        em, f1 = score([(1, 2)], [(0, 0)])
        assert (em, f1) == (0.0, 0.0)
        em, f1 = score([(0, 0)], [(3, 4)])
        assert (em, f1) == (0.0, 0.0)

    def test_disjoint_spans(self):
        em, f1 = score([(1, 2)], [(5, 6)])
        assert (em, f1) == (0.0, 0.0)

    def test_f1_at_least_em_on_random_sets(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            n = int(rng.integers(1, 20))
            preds, golds = [], []
            for _ in range(n):
                if rng.random() < 0.25:
                    golds.append((0, 0))
                else:
                    s = int(rng.integers(1, 10))
                    golds.append((s, s + int(rng.integers(0, 4))))
                if rng.random() < 0.25:
                    preds.append((0, 0))
                else:
                    s = int(rng.integers(1, 10))
                    preds.append((s, s + int(rng.integers(0, 4))))
            em, f1 = score(preds, golds)
            assert f1 >= em

    def test_permutation_invariance(self):
        preds = [(1, 2), (0, 0), (4, 6), (2, 2)]
        golds = [(1, 3), (0, 0), (4, 6), (5, 5)]
        base = score(preds, golds)
        perm = [3, 1, 0, 2]
        assert score([preds[i] for i in perm], [golds[i] for i in perm]) == base

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score([(0, 0)], [])

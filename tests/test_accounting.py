import csv
import io

import pytest

from peftlab import accounting
from peftlab.accounting import AFFINE_SPAN, count, table_report
from peftlab.cacnn import CONTEXT_VECTOR, SIMPLIFIED, CacnnConfig
from peftlab.encoder import (AdapterConfig, FreezePolicy, bert_base_config,
                             desk_config)
from peftlab.trainer import build_model


def policy(k, embeddings=None, adapters=True):
    if embeddings is None:
        embeddings = False
    return FreezePolicy(k, embeddings, adapters)


class TestBertBaseRows:
    """Trainable counts for the layer-freezing sweep at full scale."""

    CASES = [
        (0, 39_938),
        (1, 7_124_738),
        (3, 21_294_338),
        (6, 42_548_738),
    ]

    @pytest.mark.parametrize("k,expected", CASES)
    def test_frozen_embedding_rows(self, k, expected):
        rep = count(bert_base_config(), policy(k))
        assert rep.trainable_under_policy == expected

    def test_full_finetune_closed_form_and_footnote(self):
        rep = count(bert_base_config(), policy(12, embeddings=True))
        assert rep.trainable_under_policy == 108_893_186
        assert rep.trainable_under_policy == rep.total
        assert "108,311,810" in rep.footnote
        assert "23,254,272" in rep.footnote

    def test_published_full_count_implies_smaller_embedding_table(self):
        delta = 108_893_186 - accounting.REPORTED_FULL_FINETUNE
        assert delta == (accounting.STANDARD_EMBEDDING_TOTAL
                         - accounting.IMPLIED_EMBEDDING_TOTAL)

    def test_per_layer_block_size(self):
        cfg = bert_base_config()
        rep = count(cfg, policy(0))
        # 2,362,368 attention and 4,722,432 FFN parameters a layer
        assert rep.attention == 12 * 4 * (768 * 768 + 768)
        assert rep.ffn == 12 * (2 * 768 * 3072 + 3072 + 768)
        per_layer = 2_362_368 + 4_722_432
        # with its two layer-norm pairs a full layer is 7,087,872
        assert per_layer + 4 * cfg.hidden_size == 7_087_872
        # sweep rows differ by attention + FFN only; norms never freeze
        assert 7_124_738 - 39_938 == per_layer
        assert 21_294_338 - 7_124_738 == 2 * per_layer
        assert 42_548_738 - 21_294_338 == 3 * per_layer


class TestAdapters:
    def test_per_adapter_closed_form(self):
        cfg = bert_base_config(adapter=AdapterConfig(64))
        # two adapters a layer, one after each sublayer, 99,136 each
        assert count(cfg, policy(0)).adapters == \
            2 * 12 * (2 * 64 * 768 + 64 + 768)

    def test_adapter_only_row_and_footnote(self):
        cfg = bert_base_config(adapter=AdapterConfig(64))
        rep = count(cfg, policy(0))
        assert rep.trainable_under_policy == 2_419_202
        assert rep.trainable_under_policy - (2 * 768 + 2) == \
            accounting.REPORTED_FROZEN_ADAPTER_64
        assert "2,417,664" in rep.footnote

    def test_adapter_768_row(self):
        cfg = bert_base_config(adapter=AdapterConfig(768))
        rep = count(cfg, policy(0))
        assert rep.trainable_under_policy == 28_388_354
        assert rep.footnote == ""

    def test_adapter_delta_on_full_finetune(self):
        with_a = count(bert_base_config(adapter=AdapterConfig(64)),
                       policy(12, embeddings=True))
        without = count(bert_base_config(), policy(12, embeddings=True))
        assert with_a.trainable_under_policy - without.trainable_under_policy \
            == 2_379_264

    def test_frozen_adapters_drop_out(self):
        cfg = bert_base_config(adapter=AdapterConfig(64))
        rep = count(cfg, policy(0, adapters=False))
        assert rep.trainable_under_policy == 39_938


class TestMonotonicity:
    def test_increasing_in_layers_trained(self):
        cfg = bert_base_config()
        counts = [count(cfg, policy(k)).trainable_under_policy
                  for k in range(13)]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_increasing_in_adapter_size(self):
        counts = [
            count(bert_base_config(adapter=AdapterConfig(a)),
                  policy(0)).trainable_under_policy
            for a in (8, 64, 256, 768)
        ]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_adding_adapters_never_decreases(self):
        base = count(bert_base_config(), policy(3)).trainable_under_policy
        with_a = count(bert_base_config(adapter=AdapterConfig(8)),
                       policy(3)).trainable_under_policy
        assert with_a > base


class TestRegistryEquivalence:
    """The arithmetic must agree with an actually built registry."""

    @pytest.mark.parametrize("adapter", [None, AdapterConfig(4)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("embeddings", [False, True])
    def test_desk_scale_all_policies(self, adapter, k, embeddings):
        cfg = desk_config(adapter=adapter)
        pol = FreezePolicy(k, embeddings)
        reg = build_model(cfg, pol, AFFINE_SPAN, seed=0).registry
        rep = count(cfg, pol)
        assert reg.total_count == rep.total
        assert reg.trainable_count == rep.trainable_under_policy

    def test_cacnn_head_count(self):
        cfg = desk_config()
        head = CacnnConfig(CONTEXT_VECTOR, initial_filters=8, initial_width=3,
                           sample_filters=4, sample_width=3, context_width=3,
                           context_filters=4)
        rep = count(cfg, policy(0), head=head)
        affine = count(cfg, policy(0), head=AFFINE_SPAN)
        expected_head = 8 * (3 * cfg.hidden_size + 1) + 4 * 4 + (2 * 4 + 2)
        assert rep.head == expected_head
        assert rep.trainable_under_policy - affine.trainable_under_policy == \
            expected_head - (2 * cfg.hidden_size + 2)

    def test_simplified_head_has_no_context_term(self):
        cfg = desk_config()
        ctx = CacnnConfig(CONTEXT_VECTOR, 8, 3, 4, 3, context_width=3,
                          context_filters=4)
        simple = CacnnConfig(SIMPLIFIED, 8, 3, 4, 3)
        delta = count(cfg, policy(0), head=ctx).head \
            - count(cfg, policy(0), head=simple).head
        assert delta == 4 * (3 + 1)


class TestTableReport:
    def rows(self):
        return [
            ("L0", bert_base_config(), policy(0), AFFINE_SPAN),
            ("L12", bert_base_config(), policy(12, embeddings=True),
             AFFINE_SPAN),
            ("L0-A64", bert_base_config(adapter=AdapterConfig(64)), policy(0),
             AFFINE_SPAN),
        ]

    def test_text_contains_counts_and_footnote_markers(self):
        text, _, _ = table_report(self.rows())
        assert "39,938" in text
        assert "108,893,186†" in text
        assert "2,419,202††" in text
        assert "108,311,810" in text
        assert "2,417,664" in text

    def test_csv_parses_and_round_trips_counts(self):
        _, csv_text, reports = table_report(self.rows())
        parsed = list(csv.DictReader(io.StringIO(csv_text)))
        assert [r["label"] for r in parsed] == ["L0", "L12", "L0-A64"]
        for row, (_, _, _, rep) in zip(parsed, reports):
            assert int(row["trainable_params"]) == rep.trainable_under_policy
        assert parsed[2]["adapter_size"] == "64"
        assert parsed[0]["adapter_size"] == ""
        assert parsed[0]["em"] == ""

    def test_empty_input(self):
        text, csv_text, reports = table_report([])
        assert reports == []
        assert csv_text.splitlines() == [",".join(accounting.CSV_COLUMNS)]
        assert text.splitlines()[0].startswith("label")


class TestCountReportInvariant:
    def test_total_never_below_trainable(self):
        for cfg, pol in (
            (bert_base_config(), policy(12, embeddings=True)),
            (bert_base_config(adapter=AdapterConfig(64)), policy(6)),
            (desk_config(), policy(2, embeddings=True)),
        ):
            rep = count(cfg, pol)
            assert rep.total >= rep.trainable_under_policy


def test_count_allocates_no_weights_at_bert_base():
    import tracemalloc
    cfg = bert_base_config(adapter=AdapterConfig(64))
    tracemalloc.start()
    try:
        rep = count(cfg, policy(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.trainable_under_policy == 2_419_202
    assert peak < 1_000_000

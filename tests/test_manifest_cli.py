import csv
import glob
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from peftlab import checks, cli
from peftlab.accounting import count
from peftlab.cacnn import CONTEXT_VECTOR, SIMPLIFIED, CacnnConfig
from peftlab.encoder import AFFINE_SPAN, FreezePolicy, desk_config
from peftlab.manifest import (KNOWN_KEYS, ExperimentSpec, ManifestError,
                              parse_manifest)
from peftlab.trainer import TrainConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_manifest(tmp_path, text, name="m.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseManifest:
    def test_defaults(self, tmp_path):
        path = write_manifest(tmp_path, "[base]\n")
        spec, = parse_manifest(path)
        assert spec.label == "base"
        assert spec.encoder_config.hidden_size == 32  # desk preset
        assert spec.policy.top_layers_trainable == 2
        assert spec.policy.embeddings_trainable  # full fine-tune default
        assert spec.head is AFFINE_SPAN
        assert spec.train_config.batch_size == 8
        assert spec.train_config.epochs == 3
        assert spec.dataset_count == 2000
        # absent keys keep the config classes' own defaults
        assert spec.train_config == TrainConfig()
        assert spec == ExperimentSpec("base", desk_config(),
                                      FreezePolicy(2, embeddings_trainable=True),
                                      AFFINE_SPAN, TrainConfig())

    def test_absent_cacnn_keys_keep_the_config_class_defaults(self, tmp_path):
        with pytest.raises(ValueError) as default_error:
            CacnnConfig()  # the default variant needs the two context keys
        path = write_manifest(tmp_path, "[c]\nhead = cacnn\n")
        with pytest.raises(ManifestError) as parse_error:
            parse_manifest(path)
        assert str(parse_error.value) == f"[c] {default_error.value}"

        path = write_manifest(
            tmp_path, "[c]\nhead = cacnn\nw_c = 3\nm = 4\n"
                      "[s]\nhead = cacnn\nvariant = simplified\n")
        c, s = parse_manifest(path)
        assert c.head == CacnnConfig(context_width=3, context_filters=4)
        assert s.head == CacnnConfig(variant=SIMPLIFIED)

    def test_empty_manifest(self, tmp_path):
        path = write_manifest(tmp_path, "# no sections\n")
        with pytest.raises(ManifestError, match=f"{path}: no experiments"):
            parse_manifest(path)

    def test_embeddings_follow_layers_trainable(self, tmp_path):
        path = write_manifest(tmp_path, "[a]\nlayers_trainable = 0\n"
                                        "[b]\nlayers_trainable = 2\n")
        a, b = parse_manifest(path)
        assert not a.policy.embeddings_trainable
        assert b.policy.embeddings_trainable

    def test_bert_base_preset_with_adapter(self, tmp_path):
        path = write_manifest(
            tmp_path,
            "[L0-A64]\npreset = bert-base\nlayers_trainable = 0\n"
            "adapter_size = 64\n")
        spec, = parse_manifest(path)
        cfg = spec.encoder_config
        assert (cfg.vocab_size, cfg.hidden_size, cfg.num_layers) == \
            (30522, 768, 12)
        assert cfg.adapter.adapter_size == 64

    def test_cacnn_head_keys(self, tmp_path):
        path = write_manifest(
            tmp_path,
            "[c]\nhead = cacnn\nn_f = 8\nw1 = 3\nw_c = 3\nm = 4\nK = 4\n"
            "w2 = 3\n")
        spec, = parse_manifest(path)
        assert isinstance(spec.head, CacnnConfig)
        assert spec.head.variant == CONTEXT_VECTOR
        assert spec.head.initial_filters == 8
        assert spec.head.sample_filters == 4
        assert spec.head.context_width == 3

    def test_unknown_key_suggestion(self, tmp_path):
        path = write_manifest(tmp_path, "[a]\nadaptor_size = 64\n")
        with pytest.raises(ManifestError, match='did you mean "adapter_size"'):
            parse_manifest(path)

    def test_bad_label(self, tmp_path):
        path = write_manifest(tmp_path, "[has space]\n")
        with pytest.raises(ManifestError, match="invalid"):
            parse_manifest(path)

    def test_layers_trainable_out_of_range(self, tmp_path):
        path = write_manifest(tmp_path, "[a]\nlayers_trainable = 13\n")
        with pytest.raises(ManifestError, match="out of range"):
            parse_manifest(path)

    def test_bad_preset(self, tmp_path):
        path = write_manifest(tmp_path, "[a]\npreset = bert-huge\n")
        with pytest.raises(ManifestError, match="available"):
            parse_manifest(path)

    def test_non_integer_value(self, tmp_path):
        path = write_manifest(tmp_path, "[a]\nepochs = three\n")
        with pytest.raises(ManifestError, match="expected an integer"):
            parse_manifest(path)

    def test_bad_head(self, tmp_path):
        path = write_manifest(tmp_path, "[a]\nhead = mlp\n")
        with pytest.raises(ManifestError, match="affine_span"):
            parse_manifest(path)

    @pytest.mark.parametrize("head", ["", "head = affine_span\n"])
    def test_cacnn_keys_need_the_cacnn_head(self, tmp_path, head):
        path = write_manifest(
            tmp_path, f"[a]\n{head}n_f = 8\nw_c = 3\nvariant = bogus\n")
        with pytest.raises(ManifestError, match=r"^\[a\] CACNN keys n_f, "
                           r"w_c, variant need head = cacnn$"):
            parse_manifest(path)

    @pytest.mark.parametrize("keys", ["w_c = 3\n", "m = 4\n",
                                      "w_c = 3\nm = 4\n"])
    def test_simplified_head_rejects_the_context_keys(self, tmp_path, keys):
        path = write_manifest(
            tmp_path, f"[s]\nhead = cacnn\nvariant = simplified\n{keys}")
        with pytest.raises(ManifestError, match=r"^\[s\] the simplified variant "
                           r"takes no context_width or context_filters$"):
            parse_manifest(path)

    def test_shipped_manifests_parse(self):
        paths = glob.glob(os.path.join(REPO, "manifests", "*.cfg"))
        assert len(paths) >= 3
        for path in paths:
            assert parse_manifest(path), path

    # each had one value in use, the preset's or the config class's
    @pytest.mark.parametrize("key", [
        "vocab_size", "hidden_size", "num_layers", "num_heads",
        "intermediate_size", "max_answer_len", "unanswerable_fraction",
        "embeddings_trainable"])
    def test_removed_key_is_unknown(self, tmp_path, key):
        path = write_manifest(tmp_path, f"[a]\n{key} = 1\n")
        with pytest.raises(ManifestError,
                           match=f'^\\[a\\] unknown key "{key}"'):
            parse_manifest(path)


class TestCount:
    def test_sweep_table_values(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = cli.main(["count",
                         "--config", os.path.join(REPO, "manifests",
                                                  "table1.cfg"),
                         "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        for expected in ("39,938", "7,124,738", "21,294,338", "42,548,738",
                         "108,893,186", "108,311,810"):
            assert expected in text
        with open(os.path.join(out, "counts.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["trainable_params"]) for r in rows] == \
            [39_938, 7_124_738, 21_294_338, 42_548_738, 108_893_186]

    def test_counts_csv_has_the_model_columns_and_blank_run_columns(
            self, tmp_path):
        manifest = write_manifest(
            tmp_path, "[L0]\npreset = bert-base\nlayers_trainable = 0\n"
            "[L12]\npreset = bert-base\nlayers_trainable = 12\n"
            "[L0-A64]\npreset = bert-base\nlayers_trainable = 0\n"
            "adapter_size = 64\n")
        out = tmp_path / "out"
        assert cli.main(["count", "--config", manifest, "--out", str(out)]) == 0
        with open(out / "counts.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == cli.COUNT_COLUMNS
        assert [r["label"] for r in rows] == ["L0", "L12", "L0-A64"]
        for row, spec in zip(rows, parse_manifest(manifest)):
            assert int(row["trainable_params"]) == count(
                spec.encoder_config, spec.policy,
                spec.head).trainable_under_policy
            for column in ("em", "f1", "train_seconds", "inference_seconds"):
                assert row[column] == ""
        assert [r["layers_trained"] for r in rows] == ["0", "12", "0"]
        assert rows[2]["adapter_size"] == "64"
        assert rows[0]["adapter_size"] == ""

    def test_empty_manifest_exits_1(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, "")
        out = tmp_path / "out"
        assert cli.main(["count", "--config", manifest, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {manifest}: no experiments\n"
        assert not (out / "counts.csv").exists()

    @pytest.mark.parametrize("command, flag", [("count", "--config"),
                                               ("run", "--manifest")])
    def test_simplified_cacnn_with_context_keys_exits_1(
            self, tmp_path, capsys, command, flag):
        manifest = write_manifest(tmp_path, "[s]\nhead = cacnn\n"
                                  "variant = simplified\nw_c = 3\nm = 4\n")
        out = tmp_path / "out"
        assert cli.main([command, flag, manifest, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: [s] the simplified variant takes no context_width")
        assert not out.exists()

    def test_duplicate_section_exits_1(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, "[a]\nepochs = 1\n[a]\n")
        out = tmp_path / "out"
        assert cli.main(["count", "--config", manifest, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "section 'a' already exists" in err
        assert not out.exists()

    def test_missing_manifest(self, tmp_path, capsys):
        code = cli.main(["count", "--config", str(tmp_path / "absent.cfg"),
                         "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


SMALL_RUN = """\
[tiny-full]
dataset_count = 16
dataset_len = 24
epochs = 1

[tiny-frozen]
layers_trainable = 0
dataset_count = 16
dataset_len = 24
epochs = 1
"""


class TestRun:
    def test_run_and_resume(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, SMALL_RUN)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--manifest", manifest, "--out", out]) == 0
        report = os.path.join(out, "report.csv")
        with open(report, "rb") as fh:
            first = fh.read()
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["tiny-full", "tiny-frozen"]
        for row in rows:
            assert int(row["trainable_params"]) > 0
            assert 0.0 <= float(row["f1"]) <= 100.0
            assert float(row["train_seconds"]) >= 0.0
        assert os.path.exists(os.path.join(out, "loss_tiny-full.csv"))

        capsys.readouterr()
        assert cli.main(["run", "--manifest", manifest, "--out", out]) == 0
        assert "already in" in capsys.readouterr().out
        with open(report, "rb") as fh:
            assert fh.read() == first  # untouched on resume

    def test_partial_resume_keeps_old_rows(self, tmp_path):
        manifest = write_manifest(tmp_path, SMALL_RUN)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--manifest", manifest, "--out", out]) == 0
        report = os.path.join(out, "report.csv")
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        kept = rows[0]

        # drop the second row; rerun must restore it and keep the first as-is
        with open(report, "w", newline="") as fh:
            writer = csv.DictWriter(fh, cli.REPORT_COLUMNS,
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerow(kept)
        assert cli.main(["run", "--manifest", manifest, "--out", out]) == 0
        with open(report, newline="") as fh:
            again = list(csv.DictReader(fh))
        assert [r["label"] for r in again] == ["tiny-full", "tiny-frozen"]
        assert again[0] == kept

    def test_rows_of_another_manifest_are_kept(self, tmp_path):
        first = write_manifest(tmp_path, "[a]\ndataset_count = 8\n"
                               "dataset_len = 24\nepochs = 1\n", "a.cfg")
        second = write_manifest(tmp_path, "[b]\nlayers_trainable = 0\n"
                                "dataset_count = 8\ndataset_len = 24\n"
                                "epochs = 1\n", "b.cfg")
        out = str(tmp_path / "out")
        report = os.path.join(out, "report.csv")
        assert cli.main(["run", "--manifest", first, "--out", out]) == 0
        with open(report, newline="") as fh:
            row_a, = csv.DictReader(fh)
        assert cli.main(["run", "--manifest", second, "--out", out]) == 0
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["b", "a"]
        assert rows[1] == row_a

    # each change keeps the label but builds another model; the first
    # column it changes is the one named
    @pytest.mark.parametrize("change, column", [
        ("layers_trainable = 0", "layers_trained"),
        ("adapter_size = 8", "adapter_size"),
        ("head = cacnn\nw_c = 3\nm = 4", "trainable_params"),
    ], ids=["layers", "adapter", "head"])
    def test_row_of_another_model_under_the_label_exits_1(
            self, tmp_path, capsys, monkeypatch, change, column):
        section = "[x]\ndataset_count = 8\ndataset_len = 24\nepochs = 1\n"
        first = write_manifest(tmp_path, section, "a.cfg")
        second = write_manifest(tmp_path, section + change + "\n", "b.cfg")
        out = tmp_path / "out"
        assert cli.main(["run", "--manifest", first, "--out", str(out)]) == 0
        before = (out / "report.csv").read_bytes()
        ran = []
        monkeypatch.setattr(cli, "_run_experiment",
                            lambda spec, out_dir: ran.append(spec.label))
        capsys.readouterr()
        code = cli.main(["run", "--manifest", second, "--out", str(out)])
        assert code == 1 and ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'x'" in err
        assert f" has {column} " in err
        assert (out / "report.csv").read_bytes() == before

    def test_row_that_differs_only_in_training_keys_resumes(self, tmp_path,
                                                           capsys):
        section = "[x]\ndataset_count = 8\ndataset_len = 24\nepochs = 1\n"
        first = write_manifest(tmp_path, section, "a.cfg")
        second = write_manifest(tmp_path, section + "seed = 5\nlearning_rate = 0.01\n",
                                "b.cfg")
        out = str(tmp_path / "out")
        assert cli.main(["run", "--manifest", first, "--out", out]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--manifest", second, "--out", out]) == 0
        assert "already in" in capsys.readouterr().out

    def test_repeated_label_in_the_report_exits_1_and_is_kept(
            self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        report = out / "report.csv"
        with open(report, "w", newline="") as fh:
            writer = csv.DictWriter(fh, cli.REPORT_COLUMNS,
                                    lineterminator="\n")
            writer.writeheader()
            for f1 in ("60.0", "70.0"):
                writer.writerow({"label": "zz", "layers_trained": 2,
                                 "trainable_params": 1000, "f1": f1})
        before = report.read_bytes()
        manifest = write_manifest(tmp_path, "[a]\ndataset_count = 8\n"
                                  "dataset_len = 24\nepochs = 1\n")
        code = cli.main(["run", "--manifest", manifest, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {report}: label 'zz' appears twice\n"
        assert report.read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["report.csv"]

    def test_foreign_report_exits_1_and_is_kept(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.csv").write_text("name,score\nx,1\n")
        code = cli.main(["run", "--manifest", manifest, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'report.csv'}: missing columns [")
        assert "'label'" in err and "'f1'" in err
        assert (out / "report.csv").read_text() == "name,score\nx,1\n"

    def test_failed_write_exits_1_and_keeps_finished_rows(self, tmp_path,
                                                          capsys):
        manifest = write_manifest(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        (out / "loss_tiny-frozen.csv").mkdir(parents=True)
        code = cli.main(["run", "--manifest", manifest, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "loss_tiny-frozen.csv" in err
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["tiny-full"]
        assert sorted(p.name for p in out.iterdir()) == [
            "loss_tiny-frozen.csv", "loss_tiny-full.csv", "report.csv"]

    def test_empty_manifest_exits_1_and_writes_no_report(self, tmp_path,
                                                         capsys):
        manifest = write_manifest(tmp_path, "")
        out = tmp_path / "out"
        code = cli.main(["run", "--manifest", manifest, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {manifest}: no experiments\n"
        assert captured.out == ""
        assert not (out / "report.csv").exists()

    def test_dataset_len_beyond_max_seq_len_exit_code(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, "[long]\ndataset_len = 100\n")
        with pytest.raises(ManifestError, match="exceeds max_seq_len 64"):
            parse_manifest(manifest)
        code = cli.main(["run", "--manifest", manifest,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "[long] dataset_len 100" in capsys.readouterr().err

    def test_infeasible_simplified_cacnn_exit_code(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path, "[simp]\nhead = cacnn\nvariant = simplified\nn_f = 1\n"
                      "dataset_len = 24\n")
        with pytest.raises(ManifestError, match="simplified CACNN needs"):
            parse_manifest(manifest)
        code = cli.main(["run", "--manifest", manifest,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "[simp] simplified CACNN needs" in capsys.readouterr().err

    def test_divergence_keeps_finished_rows_and_rerun_adds_the_rest(
            self, tmp_path, monkeypatch):
        from peftlab.trainer import TrainingDiverged
        manifest = write_manifest(tmp_path, SMALL_RUN)
        out = str(tmp_path / "out")
        report = os.path.join(out, "report.csv")
        real = cli._run_experiment
        ran, diverging = [], {"tiny-frozen"}

        def run_experiment(spec, out_dir):
            ran.append(spec.label)
            if spec.label in diverging:
                raise TrainingDiverged(0, float("nan"))
            return real(spec, out_dir)

        monkeypatch.setattr(cli, "_run_experiment", run_experiment)
        assert cli.main(["run", "--manifest", manifest, "--out", out]) == 2
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["tiny-full"]
        assert not os.path.exists(report + ".tmp")

        ran.clear()
        diverging.clear()
        assert cli.main(["run", "--manifest", manifest, "--out", out]) == 0
        assert ran == ["tiny-frozen"]
        with open(report, newline="") as fh:
            again = list(csv.DictReader(fh))
        assert [r["label"] for r in again] == ["tiny-full", "tiny-frozen"]
        assert again[0] == rows[0]

    def test_allocation_failure_exits_2_and_keeps_finished_rows(
            self, tmp_path, capsys, monkeypatch):
        real = cli.build_model

        def build_model(config, policy, head, seed):
            if policy.top_layers_trainable == 0:  # the second section
                raise MemoryError("Unable to allocate 233. TiB")
            return real(config, policy, head, seed)

        monkeypatch.setattr(cli, "build_model", build_model)
        manifest = write_manifest(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        code = cli.main(["run", "--manifest", manifest, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: [tiny-frozen] Unable to allocate 233. TiB\n"
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["tiny-full"]

    def test_out_dir_key_is_unknown(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, "[a]\nout_dir = somewhere\n")
        code = cli.main(["run", "--manifest", manifest,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert 'unknown key "out_dir"' in err
        assert "Traceback" not in err

    def test_bad_manifest_exit_code(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, "[a]\nbogus_key = 1\n")
        code = cli.main(["run", "--manifest", manifest,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err


INVALID_BODIES = ["batch_size = 0", "epochs = 0", "adapter_size = 0",
                  "dataset_len = 1", "dataset_count = -3", "seed = -1",
                  "learning_rate = nan", "learning_rate = inf",
                  "learning_rate = 0", "learning_rate = -1",
                  "n_f = 8\nw_c = 3\nvariant = bogus"]


@pytest.mark.parametrize("command", ["count", "run"])
@pytest.mark.parametrize("body", INVALID_BODIES)
def test_invalid_manifest_exits_1_with_a_message(tmp_path, capsys, command,
                                                 body):
    manifest = write_manifest(tmp_path, f"[bad]\n{body}\n")
    flag = "--config" if command == "count" else "--manifest"
    code = cli.main([command, flag, manifest, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [bad] ")
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out" / "report.csv")


# a label too long for loss_<label>.csv.tmp, and a [DEFAULT] section, whose
# keys would reach every experiment, fail both commands before any training
@pytest.mark.parametrize("command", ["count", "run"])
@pytest.mark.parametrize("text, message", [
    (f"[{'a' * 243}]\nepochs = 1\n", "1 to 242 of the characters"),
    ("[DEFAULT]\nbogus = 1\n[a]\n", "[DEFAULT] is not an experiment"),
    ("[DEFAULT]\nepochs = 1\n[a]\n", "[DEFAULT] is not an experiment"),
], ids=["long-label", "default-unknown-key", "default-known-key"])
def test_manifest_rejected_before_any_training(tmp_path, capsys, command,
                                               text, message):
    manifest = write_manifest(tmp_path, text)
    flag = "--config" if command == "count" else "--manifest"
    out = tmp_path / "out"
    assert cli.main([command, flag, manifest, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["count", "run"])
def test_longest_label_counts_and_runs(tmp_path, capsys, command):
    label = "a" * 242
    manifest = write_manifest(tmp_path, f"[{label}]\ndataset_count = 8\n"
                              "dataset_len = 24\nepochs = 1\n")
    flag = "--config" if command == "count" else "--manifest"
    out = tmp_path / "out"
    assert cli.main([command, flag, manifest, "--out", str(out)]) == 0
    if command == "run":
        assert (out / f"loss_{label}.csv").exists()
    with open(out / ("counts.csv" if command == "count" else "report.csv"),
              newline="") as fh:
        assert [row["label"] for row in csv.DictReader(fh)] == [label]


# a tensor past numpy's address space fails both commands before any work;
# one that fits it but not memory is a runtime error of run alone
@pytest.mark.parametrize("command", ["count", "run"])
@pytest.mark.parametrize("body, tensor", [
    ("max_seq_len", "embeddings.position"),
    ("adapter_size", "layer0.adapter_attn.down_w"),
    ("head = cacnn\nw_c = 3\nm = 4\nK", "cacnn.head_w"),
], ids=["max_seq_len", "adapter_size", "K"])
def test_unaddressable_parameter_exits_1(tmp_path, capsys, command, body,
                                         tensor):
    manifest = write_manifest(tmp_path, f"[big]\n{body} = {10**18}\n")
    flag = "--config" if command == "count" else "--manifest"
    out = tmp_path / "out"
    assert cli.main([command, flag, manifest, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [big] parameter {tensor} of shape (")
    assert "Traceback" not in err
    assert not out.exists()


def test_unallocatable_parameter_counts_but_fails_the_run_with_exit_2(
        tmp_path, capsys):
    manifest = write_manifest(tmp_path, f"[big]\nmax_seq_len = {10**12}\n"
                              "dataset_count = 8\nepochs = 1\n")
    out = tmp_path / "out"
    assert cli.main(["count", "--config", manifest, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["run", "--manifest", manifest, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: [big] Unable to allocate ")
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("command", ["count", "run", "plotdata"])
def test_unwritable_out_exits_1_with_a_message(tmp_path, capsys, command):
    blocker = tmp_path / "blocker"  # a regular file: blocker/out cannot exist
    blocker.write_text("")
    report = tmp_path / "report.csv"
    report.write_text("label,trainable_params,f1,train_seconds,"
                      "inference_seconds\nx,1000,60,1,0.5\n")
    args = {"count": ["--config", write_manifest(tmp_path, "[a]\n")],
            "run": ["--manifest", write_manifest(tmp_path, SMALL_RUN)],
            "plotdata": [str(report)]}[command]
    code = cli.main([command, *args, "--out", str(blocker / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_generate_data_is_an_unknown_command(tmp_path, capsys):
    out = tmp_path / "d.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate-data", "--count", "4", "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "invalid choice" in err and "generate-data" in err
    assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [], ["run"], ["run", "--manifest", "m.cfg", "--parallel"],
        ["gradcheck", "--seeds", "x"], ["count"], ["frobnicate"],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage: peftlab" in err and "error:" in err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: peftlab" in capsys.readouterr().out

    @pytest.mark.parametrize("command,flag", [("count", "--conf"),
                                              ("run", "--man")])
    def test_abbreviated_flag_exits_1_and_writes_nothing(
            self, tmp_path, capsys, command, flag):
        manifest = write_manifest(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, manifest, "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: peftlab {command}")
        assert f"peftlab {command}: error: " in err
        assert not out.exists()


def run_with_closed_stdout(*argv, unbuffered=False):
    """Run ``python -m peftlab.cli argv`` with its stdout a pipe whose read
    end is closed, as ``peftlab ... | true`` leaves it."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
               PYTHONUNBUFFERED="1" if unbuffered else "")
    try:
        return subprocess.run([sys.executable, "-m", "peftlab.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=300)
    finally:
        os.close(write)


class TestClosedStdout:
    """A reader that closes stdout early makes any command exit 1 with
    nothing on stderr, after it has written every file whole."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_count(self, tmp_path, unbuffered):
        table1 = os.path.join(REPO, "manifests", "table1.cfg")
        assert cli.main(["count", "--config", table1,
                         "--out", str(tmp_path / "plain")]) == 0
        proc = run_with_closed_stdout("count", "--config", table1, "--out",
                                      str(tmp_path / "pipe"),
                                      unbuffered=unbuffered)
        assert (proc.returncode, proc.stderr) == (1, b"")
        assert ((tmp_path / "pipe" / "counts.csv").read_bytes()
                == (tmp_path / "plain" / "counts.csv").read_bytes())

    def test_run_with_new_rows_then_all_reused(self, tmp_path):
        manifest = write_manifest(tmp_path, SMALL_RUN)
        report = tmp_path / "out" / "report.csv"
        proc = run_with_closed_stdout("run", "--manifest", manifest,
                                      "--out", str(tmp_path / "out"))
        assert (proc.returncode, proc.stderr) == (1, b"")
        with open(report, newline="") as fh:
            assert [r["label"] for r in csv.DictReader(fh)] == [
                "tiny-full", "tiny-frozen"]
        first = report.read_bytes()
        proc = run_with_closed_stdout("run", "--manifest", manifest,
                                      "--out", str(tmp_path / "out"))
        assert (proc.returncode, proc.stderr) == (1, b"")
        assert report.read_bytes() == first

    def test_plotdata_unbuffered_writes_all_three_files(self, tmp_path):
        report = tmp_path / "report.csv"
        report.write_text("label,trainable_params,f1,train_seconds,"
                          "inference_seconds\nx,10,60,1,0.5\ny,5,50,2,1\n")
        assert cli.main(["plotdata", str(report),
                         "--out", str(tmp_path / "plain")]) == 0
        proc = run_with_closed_stdout("plotdata", str(report), "--out",
                                      str(tmp_path / "pipe"), unbuffered=True)
        assert (proc.returncode, proc.stderr) == (1, b"")
        names = sorted(os.listdir(tmp_path / "plain"))
        assert len(names) == 3
        assert sorted(os.listdir(tmp_path / "pipe")) == names
        for name in names:
            assert ((tmp_path / "pipe" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())

    def test_gradcheck(self):
        proc = run_with_closed_stdout("gradcheck")
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestPlotdata:
    def write_report(self, tmp_path, name, labels):
        path = tmp_path / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cli.REPORT_COLUMNS)
            for i, label in enumerate(labels):
                writer.writerow([label, 1, "", 1000 * (len(labels) - i), 50.0,
                                 60.0 + i, 1.0, 0.5, 1.0])
        return str(path)

    def test_writes_three_csvs_sorted_by_params(self, tmp_path):
        r1 = self.write_report(tmp_path, "a.csv", ["x", "y"])
        r2 = self.write_report(tmp_path, "b.csv", ["z"])
        out = str(tmp_path / "plots")
        assert cli.main(["plotdata", r1, r2, "--out", out]) == 0
        for name in ("train_time_vs_f1.csv", "inference_time_vs_f1.csv",
                     "params_vs_f1.csv"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "params_vs_f1.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        params = [int(r["trainable_params"]) for r in rows]
        assert params == sorted(params)

    def test_duplicate_labels_rejected(self, tmp_path, capsys):
        r1 = self.write_report(tmp_path, "a.csv", ["x"])
        r2 = self.write_report(tmp_path, "b.csv", ["x"])
        code = cli.main(["plotdata", r1, r2, "--out", str(tmp_path / "p")])
        assert code == 1
        assert "duplicate labels: x" in capsys.readouterr().err

    def test_label_repeated_within_one_report_rejected(self, tmp_path,
                                                       capsys):
        report = self.write_report(tmp_path, "a.csv", ["x", "y", "x"])
        out = tmp_path / "p"
        code = cli.main(["plotdata", report, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {report}: label 'x' appears twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("params", ["12.5", "-5", None])
    def test_non_integer_trainable_params_rejected_before_writing(
            self, tmp_path, capsys, params):
        bad = tmp_path / "bad.csv"
        row = ["y", 1, "", params, 50.0, 61.0, 1.0, 0.5, 1.0]
        if params is None:  # a short row leaves the cell missing
            row = row[:3]
        with open(bad, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cli.REPORT_COLUMNS)
            writer.writerow(["x", 1, "", 1000, 50.0, 60.0, 1.0, 0.5, 1.0])
            writer.writerow(row)
        out = tmp_path / "p"
        code = cli.main(["plotdata", str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "'y'" in err and "trainable_params" in err
        assert not out.exists()

    # counts.csv has every report column but leaves the run's ones blank
    @pytest.mark.parametrize("column, value", [
        ("f1", ""), ("train_seconds", ""), ("inference_seconds", ""),
        ("f1", "sixty"), ("f1", "nan"), ("train_seconds", "inf"),
        ("inference_seconds", "-1"), ("f1", "-inf"),
    ])
    def test_non_numeric_value_rejected_before_writing(
            self, tmp_path, capsys, column, value):
        row = {"label": "x", "trainable_params": "1000", "f1": "60",
               "train_seconds": "1", "inference_seconds": "0.5", column: value}
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            writer = csv.DictWriter(fh, list(row), lineterminator="\n")
            writer.writeheader()
            writer.writerow(row)
        out = tmp_path / "p"
        code = cli.main(["plotdata", str(bad), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: row 'x': {column} {value!r} is not a finite "
            "number >= 0\n")
        assert not out.exists()

    def test_missing_column_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,f1\nx,70\n")
        code = cli.main(["plotdata", str(bad), "--out", str(tmp_path / "p")])
        assert code == 1
        assert "missing columns" in capsys.readouterr().err


class TestWriteCsv:
    def test_loss_format(self, tmp_path):
        path = tmp_path / "loss.csv"
        cli._write_csv(str(path), ["step", "epoch", "loss"],
                       [{"step": 0, "epoch": 0, "loss": 1.5},
                        {"step": 1, "epoch": 0, "loss": 0.75},
                        {"step": 2, "epoch": 1, "loss": 0.1 + 0.2}])
        assert path.read_bytes() == \
            b"step,epoch,loss\n0,0,1.5\n1,0,0.75\n2,1,0.30000000000000004\n"

    def test_missing_cells_are_blank_and_extra_keys_dropped(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), ["a", "b", "c"],
                       [{"c": 3, "a": 1, "z": 9}, {"b": None}])
        assert path.read_bytes() == b"a,b,c\n1,,3\n,,\n"

    def test_rows_that_raise_keep_the_previous_file(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_bytes(b"label\nold\n")

        def rows():
            yield {"label": "new"}
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            cli._write_csv(str(path), ["label"], rows())
        assert path.read_bytes() == b"label\nold\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]

    def test_failed_rename_removes_the_temporary_file(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.mkdir()  # a directory: the rename onto it fails
        with pytest.raises(OSError):
            cli._write_csv(str(path), ["step"], [{"step": 0}])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loss.csv"]


class TestGradcheckCommand:
    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_exits_1(self, capsys, seeds):
        assert cli.main(["gradcheck", "--seeds", seeds]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --seeds must be >= 1, got {seeds}")
        assert "PASS" not in captured.out

    def test_removed_flags_exit_1(self, capsys):
        # the suite has one mode, and its seeds are always 0 ... --seeds - 1
        for flags in (["--ops-only"], ["--seed", "0"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["gradcheck", *flags])
            assert exc.value.code == 1
            captured = capsys.readouterr()
            assert "unrecognized arguments" in captured.err
            assert captured.out == ""

    def test_all_pass_exit_zero(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_detects_injected_wrong_backward(self, capsys, monkeypatch):
        from peftlab import autograd as ag

        real_gelu = ag.gelu

        def broken_gelu(x):
            out = real_gelu(x)
            if out._node is None:  # the finite differences run under no_grad
                return out
            inner = out._node._backward

            def wrong(g):
                inner(g)
                if x.requires_grad and x.grad is not None:
                    x.grad *= 1.01  # corrupt the gradient slightly
            out._node._backward = wrong
            return out

        monkeypatch.setattr(checks.ag, "gelu", broken_gelu)
        assert cli.main(["gradcheck"]) == 2
        out = capsys.readouterr().out
        assert any(line.startswith("FAIL") and "gelu" in line
                   for line in out.splitlines())


_FUZZ_VALUES = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from(["0", "1", "-1", "nan", "inf", "-inf", "1e999", "0.5",
                     "yes", "no", "true", "", "bert-base", "desk", "cacnn",
                     "affine_span", "simplified", "context_vector",
                     "99999999999999999999", "3.0", "1_0", " 7 "]),
    st.text(max_size=8),
)
_FUZZ_LINES = st.one_of(
    st.builds("[{}]".format, st.sampled_from(["a", "b", "bad label", ""])),
    st.builds("{} = {}".format,
              st.sampled_from(sorted(KNOWN_KEYS) + ["bogus"]), _FUZZ_VALUES),
    st.text(max_size=20),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(_FUZZ_LINES, max_size=12).map("\n".join).map("[a]\n".__add__),
    st.text(max_size=60),
))
def test_any_manifest_text_counts_with_exit_0_or_1(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["count", "--config", path,
                             "--out", os.path.join(tmp, "out")])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()


def test_manifest_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "m.cfg"
    path.write_bytes(b"[a]\nepochs = \xff\n")
    code = cli.main(["count", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot parse")

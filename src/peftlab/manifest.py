"""Flat key-value experiment manifests: one [section] per experiment."""

from __future__ import annotations

import configparser
import difflib
import re
from dataclasses import dataclass

from . import cacnn as cacnn_mod
from .encoder import AdapterConfig, EncoderConfig, FreezePolicy, PRESETS
from .trainer import TrainConfig

LABEL_RE = re.compile(r"^[A-Za-z0-9_-]+$")

KNOWN_KEYS = {
    "preset", "vocab_size", "hidden_size", "num_layers", "num_heads",
    "intermediate_size", "max_seq_len",
    "layers_trainable", "embeddings_trainable", "adapter_size",
    "head", "variant", "n_f", "w1", "w_c", "m", "K", "w2",
    "batch_size", "epochs", "learning_rate", "seed",
    "dataset_count", "dataset_len", "unanswerable_fraction",
    "max_answer_len",
}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


class ManifestError(ValueError):
    """Malformed manifest; the message names the offending key or section."""


@dataclass
class ExperimentSpec:
    label: str
    encoder_config: EncoderConfig
    policy: FreezePolicy
    head: object                      # "affine_span" or CacnnConfig
    train_config: TrainConfig
    dataset_count: int = 2000
    dataset_len: int = 64
    unanswerable_fraction: float = 1.0 / 3.0


def _get_bool(raw, key, label):
    v = _BOOL.get(raw.strip().lower())
    if v is None:
        raise ManifestError(f"[{label}] {key}: expected true/false, got {raw!r}")
    return v


def _get_int(raw, key, label):
    try:
        return int(raw)
    except ValueError:
        raise ManifestError(f"[{label}] {key}: expected an integer, got {raw!r}")


def _get_float(raw, key, label):
    try:
        return float(raw)
    except ValueError:
        raise ManifestError(f"[{label}] {key}: expected a number, got {raw!r}")


def parse_manifest(path):
    """Parse a manifest file into a list of ExperimentSpec, validating keys."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ManifestError(f"cannot parse {path}: {exc}") from exc

    specs = []
    for label in parser.sections():
        if not LABEL_RE.match(label):
            raise ManifestError(
                f"label {label!r} invalid; allowed characters are [A-Za-z0-9_-]"
            )
        section = dict(parser.items(label))
        for key in section:
            if key not in KNOWN_KEYS:
                hint = difflib.get_close_matches(key, KNOWN_KEYS, n=1)
                suggestion = f'; did you mean "{hint[0]}"?' if hint else ""
                raise ManifestError(
                    f'[{label}] unknown key "{key}"{suggestion}'
                )
        specs.append(_build_spec(label, section))
    if len({s.label for s in specs}) != len(specs):
        raise ManifestError("duplicate experiment labels in manifest")
    return specs


def _build_spec(label, section):
    adapter = None
    if "adapter_size" in section:
        adapter = AdapterConfig(_get_int(section["adapter_size"], "adapter_size",
                                         label))

    preset = section.get("preset", "desk")
    if preset not in PRESETS:
        raise ManifestError(
            f"[{label}] unknown preset {preset!r}; available: "
            f"{', '.join(sorted(PRESETS))}"
        )
    config = PRESETS[preset](adapter=adapter)
    for key, attr in (("vocab_size", "vocab_size"), ("hidden_size", "hidden_size"),
                      ("num_layers", "num_layers"), ("num_heads", "num_heads"),
                      ("intermediate_size", "intermediate_size"),
                      ("max_seq_len", "max_seq_len")):
        if key in section:
            setattr(config, key, _get_int(section[key], key, label))
    if config.hidden_size % config.num_heads != 0:
        raise ManifestError(
            f"[{label}] hidden_size {config.hidden_size} not divisible by "
            f"num_heads {config.num_heads}"
        )

    k = _get_int(section.get("layers_trainable", str(config.num_layers)),
                 "layers_trainable", label)
    if not 0 <= k <= config.num_layers:
        raise ManifestError(
            f"[{label}] layers_trainable {k} out of range 0..{config.num_layers}"
        )
    # Full fine-tuning is the only published setting with trainable embeddings.
    if "embeddings_trainable" in section:
        emb = _get_bool(section["embeddings_trainable"], "embeddings_trainable",
                        label)
    else:
        emb = k == config.num_layers
    policy = FreezePolicy(top_layers_trainable=k, embeddings_trainable=emb)

    head_kind = section.get("head", "affine_span")
    if head_kind == "affine_span":
        head = "affine_span"
    elif head_kind == "cacnn":
        try:
            head = cacnn_mod.CacnnConfig(
                variant=section.get("variant", cacnn_mod.CONTEXT_VECTOR),
                initial_filters=_get_int(section.get("n_f", "8"), "n_f", label),
                initial_width=_get_int(section.get("w1", "3"), "w1", label),
                context_width=_get_int(section.get("w_c", "0"), "w_c", label),
                context_filters=_get_int(section.get("m", "0"), "m", label),
                sample_filters=_get_int(section.get("K", "4"), "K", label),
                sample_width=_get_int(section.get("w2", "3"), "w2", label),
            )
        except ValueError as exc:
            raise ManifestError(f"[{label}] {exc}") from exc
    else:
        raise ManifestError(
            f'[{label}] head must be "affine_span" or "cacnn", got {head_kind!r}'
        )

    dataset_len = _get_int(section.get("dataset_len", "64"), "dataset_len",
                           label)
    if dataset_len > config.max_seq_len:
        raise ManifestError(
            f"[{label}] dataset_len {dataset_len} exceeds max_seq_len "
            f"{config.max_seq_len}"
        )
    if head != "affine_span":
        try:
            cacnn_mod.validate(head, dataset_len, config.hidden_size)
        except ValueError as exc:
            raise ManifestError(f"[{label}] {exc}") from exc

    train_config = TrainConfig(
        batch_size=_get_int(section.get("batch_size", "8"), "batch_size", label),
        epochs=_get_int(section.get("epochs", "3"), "epochs", label),
        learning_rate=_get_float(section.get("learning_rate", "1e-3"),
                                 "learning_rate", label),
        seed=_get_int(section.get("seed", "0"), "seed", label),
        max_answer_len=_get_int(section.get("max_answer_len", "30"),
                                "max_answer_len", label),
    )

    return ExperimentSpec(
        label=label,
        encoder_config=config,
        policy=policy,
        head=head,
        train_config=train_config,
        dataset_count=_get_int(section.get("dataset_count", "2000"),
                               "dataset_count", label),
        dataset_len=dataset_len,
        unanswerable_fraction=_get_float(
            section.get("unanswerable_fraction", str(1.0 / 3.0)),
            "unanswerable_fraction", label),
    )

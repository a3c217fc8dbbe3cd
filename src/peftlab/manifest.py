"""Flat key-value experiment manifests: one [section] per experiment."""

from __future__ import annotations

import configparser
import difflib
import re
from dataclasses import dataclass, replace

from . import cacnn as cacnn_mod
from .encoder import (AFFINE_SPAN, AdapterConfig, EncoderConfig, FreezePolicy,
                      PRESETS)
from .span import check_request
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
_EXPECTED = {int: "an integer", float: "a number", bool: "true/false"}


class ManifestError(ValueError):
    """Malformed manifest; the message names the offending key or section."""


@dataclass
class ExperimentSpec:
    label: str
    encoder_config: EncoderConfig
    policy: FreezePolicy
    head: object                      # AFFINE_SPAN or CacnnConfig
    train_config: TrainConfig
    dataset_count: int = 2000
    dataset_len: int = 64
    unanswerable_fraction: float = 1.0 / 3.0


def parse_manifest(path):
    """Parse a manifest file into a list of ExperimentSpec, validating keys.

    Every invalid value raises ManifestError naming the section.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
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
        try:
            specs.append(_build_spec(label, section))
        except ValueError as exc:  # bad values and every config's own checks
            raise ManifestError(f"[{label}] {exc}") from exc
    if len({s.label for s in specs}) != len(specs):
        raise ManifestError("duplicate experiment labels in manifest")
    return specs


def _build_spec(label, section):
    def get(key, default=None, kind=int):
        """``section[key]``, or ``default`` when absent, parsed as ``kind``."""
        raw = section.get(key, default)
        try:
            return _BOOL[raw.strip().lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise ValueError(f"{key}: expected {_EXPECTED[kind]}, got "
                             f"{raw!r}") from None

    adapter = (AdapterConfig(get("adapter_size")) if "adapter_size" in section
               else None)
    preset = section.get("preset", "desk")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; available: "
                         f"{', '.join(sorted(PRESETS))}")
    config = replace(PRESETS[preset](adapter=adapter), **{
        key: get(key) for key in ("vocab_size", "hidden_size", "num_layers",
                                  "num_heads", "intermediate_size",
                                  "max_seq_len") if key in section})

    k = get("layers_trainable", str(config.num_layers))
    if not 0 <= k <= config.num_layers:
        raise ValueError(
            f"layers_trainable {k} out of range 0..{config.num_layers}")
    # Full fine-tuning is the only published setting with trainable embeddings.
    if "embeddings_trainable" in section:
        emb = get("embeddings_trainable", kind=bool)
    else:
        emb = k == config.num_layers
    policy = FreezePolicy(top_layers_trainable=k, embeddings_trainable=emb)

    dataset_len = get("dataset_len", "64")
    if dataset_len > config.max_seq_len:
        raise ValueError(f"dataset_len {dataset_len} exceeds max_seq_len "
                         f"{config.max_seq_len}")
    head_kind = section.get("head", AFFINE_SPAN)
    if head_kind == AFFINE_SPAN:
        head = AFFINE_SPAN
    elif head_kind == "cacnn":
        head = cacnn_mod.CacnnConfig(
            variant=section.get("variant", cacnn_mod.CONTEXT_VECTOR),
            initial_filters=get("n_f", "8"),
            initial_width=get("w1", "3"),
            context_width=get("w_c", "0"),
            context_filters=get("m", "0"),
            sample_filters=get("K", "4"),
            sample_width=get("w2", "3"),
        )
        cacnn_mod.validate(head, dataset_len, config.hidden_size)
    else:
        raise ValueError(f'head must be "{AFFINE_SPAN}" or "cacnn", got '
                         f'{head_kind!r}')

    train_config = TrainConfig(
        batch_size=get("batch_size", "8"),
        epochs=get("epochs", "3"),
        learning_rate=get("learning_rate", "1e-3", float),
        seed=get("seed", "0"),
        max_answer_len=get("max_answer_len", "30"),
    )

    dataset_count = get("dataset_count", "2000")
    if dataset_count < 1:
        raise ValueError(f"dataset_count must be >= 1, got {dataset_count}")
    fraction = get("unanswerable_fraction", str(1.0 / 3.0), float)
    check_request(dataset_len, config.vocab_size,
                  unanswerable_fraction=fraction)

    return ExperimentSpec(
        label=label,
        encoder_config=config,
        policy=policy,
        head=head,
        train_config=train_config,
        dataset_count=dataset_count,
        dataset_len=dataset_len,
        unanswerable_fraction=fraction,
    )

"""Flat key-value experiment manifests: one [section] per experiment."""

from __future__ import annotations

import configparser
import difflib
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from . import cacnn as cacnn_mod
from .accounting import model_schema
from .encoder import (AFFINE_SPAN, AdapterConfig, EncoderConfig, FreezePolicy,
                      PRESETS)
from .span import UNANSWERABLE_FRACTION, check_request
from .trainer import TrainConfig

MAX_LABEL = 242  # so loss_<label>.csv.tmp fits a 255-byte file name
LABEL_RE = re.compile(rf"^[A-Za-z0-9_-]{{1,{MAX_LABEL}}}$")

# manifest key -> (field, kind), one table per config class the keys set. A
# key a section leaves out keeps its class's default (for the encoder, the
# preset's), so the defaults live on the classes alone.
ENCODER_KEYS = {"max_seq_len": ("max_seq_len", int)}
CACNN_KEYS = {"variant": ("variant", str), "n_f": ("initial_filters", int),
              "w1": ("initial_width", int), "w_c": ("context_width", int),
              "m": ("context_filters", int), "K": ("sample_filters", int),
              "w2": ("sample_width", int)}
TRAIN_KEYS = {"batch_size": ("batch_size", int), "epochs": ("epochs", int),
              "learning_rate": ("learning_rate", float), "seed": ("seed", int)}
DATASET_KEYS = {"dataset_count": ("dataset_count", int),
                "dataset_len": ("dataset_len", int)}
KNOWN_KEYS = {"preset", "layers_trainable", "adapter_size",
              "head"}.union(ENCODER_KEYS, CACNN_KEYS, TRAIN_KEYS, DATASET_KEYS)

_EXPECTED = {int: "an integer", float: "a number"}


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

    def __post_init__(self):
        if self.dataset_count < 1:
            raise ValueError(
                f"dataset_count must be >= 1, got {self.dataset_count}")
        config = self.encoder_config
        if self.dataset_len > config.max_seq_len:
            raise ValueError(f"dataset_len {self.dataset_len} exceeds "
                             f"max_seq_len {config.max_seq_len}")
        if self.head != AFFINE_SPAN:
            cacnn_mod.validate(self.head, self.dataset_len, config.hidden_size)
        check_request(self.dataset_len, config.vocab_size,
                      unanswerable_fraction=UNANSWERABLE_FRACTION)
        for p in model_schema(config, self.head):
            if math.prod(p.shape) * 8 > np.iinfo(np.intp).max:  # float64
                raise ManifestError(f"parameter {p.name} of shape {p.shape} "
                                    "is too large for numpy to address")


def parse_manifest(path):
    """Parse a manifest file into a list of ExperimentSpec, validating keys.

    Every invalid value raises ManifestError naming the section, and so does
    a manifest without a section.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot parse {path}: {exc}") from exc
    if parser.defaults():  # it would set its keys in every experiment
        raise ManifestError(f"{path}: [{parser.default_section}] is not an "
                            "experiment; set each key in its own section")
    if not parser.sections():
        raise ManifestError(f"{path}: no experiments")

    specs = []
    for label in parser.sections():
        if not LABEL_RE.match(label):
            raise ManifestError(
                f"label {label!r} invalid; a label is 1 to {MAX_LABEL} of "
                "the characters [A-Za-z0-9_-]")
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
    return specs


def _build_spec(label, section):
    def get(key, kind=int, absent=None):
        """``section[key]`` parsed as ``kind``, or ``absent`` without it."""
        if key not in section:
            return absent
        raw = section[key]
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(f"{key}: expected {_EXPECTED[kind]}, got "
                             f"{raw!r}") from None

    def fields(table):
        """The config fields this section sets through ``table``'s keys."""
        return {name: get(key, kind) for key, (name, kind) in table.items()
                if key in section}

    adapter = (AdapterConfig(get("adapter_size")) if "adapter_size" in section
               else None)
    preset = section.get("preset", "desk")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; available: "
                         f"{', '.join(sorted(PRESETS))}")
    config = replace(PRESETS[preset](adapter=adapter), **fields(ENCODER_KEYS))

    k = get("layers_trainable", absent=config.num_layers)
    if not 0 <= k <= config.num_layers:
        raise ValueError(
            f"layers_trainable {k} out of range 0..{config.num_layers}")
    # Full fine-tuning is the only published setting with trainable embeddings.
    policy = FreezePolicy(top_layers_trainable=k,
                          embeddings_trainable=k == config.num_layers)

    head = section.get("head", AFFINE_SPAN)
    if head == "cacnn":
        head = cacnn_mod.CacnnConfig(**fields(CACNN_KEYS))
    elif head != AFFINE_SPAN:
        raise ValueError(f'head must be "{AFFINE_SPAN}" or "cacnn", got '
                         f'{head!r}')
    elif stray := [key for key in section if key in CACNN_KEYS]:
        raise ValueError(f"CACNN keys {', '.join(stray)} need head = cacnn")

    return ExperimentSpec(label, config, policy, head,
                          TrainConfig(**fields(TRAIN_KEYS)),
                          **fields(DATASET_KEYS))

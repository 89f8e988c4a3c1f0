"""Perturbation configuration, feasibility rules, and test-value pools.

Rule tables and value-pool inventories ship as data files so deployments can
extend them without code changes. The packaged files are read once per
process. A config's `feasibility_rules` / `test_value_pools` file is read and
checked once, by `PerturbConfig.from_dict`, and its tables become the
config's `rules` / `pools`, so the config digest covers their contents.
`setting` declares a config-file key on its field, here and in `RunConfig`,
and `check_settings` checks every declared key of a config.
"""

from __future__ import annotations

import functools
import hashlib
import typing
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import yaml

from ..textproc import id_bytes
from ..yamlio import load_yaml, safe_load

CONSTRAINT_KINDS = ("min_present_age", "max_onset_age", "required_sex")
SEXES = ("male", "female")  # the values a required_sex rule may pin


class ConfigError(ValueError):
    """A config value the program cannot use; the CLI exits 2 on it."""


def setting(default, section: str | None = None, bound: str | tuple[str, ...] | None = None):
    """A field a config-file key sets: its default, the file section holding the key (None: the
    top level), and its bound (">= 1", "[0, 2]", "(0, 1]") or its choices."""
    return field(default=default, metadata={"section": section, "bound": bound})


@functools.cache
def settings(cls) -> tuple[tuple[str, str, typing.Any, str | tuple[str, ...] | None], ...]:
    """(field name, config-file key, type, bound) of each setting of cls; the slow type hints resolved once."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, ".".join(filter(None, (f.metadata["section"], f.name))), hints[f.name], f.metadata["bound"])
        for f in fields(cls)
        if "section" in f.metadata
    )


def check_settings(config) -> None:
    """Refuse a setting whose value is not of its field's type or lies outside its bound or choices.

    An int does for a float, a bool is never a number, and None does only where the type takes it.
    """
    for name, key, hint, bound in settings(type(config)):
        value, kinds = getattr(config, name), typing.get_args(hint) or (hint,)
        if value is None and type(None) in kinds:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float) if kinds[0] is float else kinds[0]):
            kind = {int: "an integer", float: "a number", str: "a string"}[kinds[0]]
            raise ConfigError(f"{key} must be {kind}, got {value!r}")
        if isinstance(bound, tuple) and value not in bound:
            raise ConfigError(f"{key} must be {' or '.join(bound)}, got {value!r}")
        if isinstance(bound, str) and bound.startswith(">= ") and not value >= float(bound[3:]):
            raise ConfigError(f"{key} must be {bound}")
        if isinstance(bound, str) and bound[0] in "[(":
            low, high = (float(end) for end in bound[1:-1].split(","))
            above = low < value if bound[0] == "(" else low <= value
            below = value < high if bound[-1] == ")" else value <= high
            if not (above and below):
                raise ConfigError(f"{key} must be in {bound}, got {value}")


@dataclass(frozen=True)
class PerturbConfig:
    age_offset_bound_years: int = setting(3, "perturb", ">= 1")
    sex_flip_probability: float = setting(0.5, "perturb", "[0, 1]")
    steb_window_size: int = setting(3, "perturb", ">= 1")
    similarity_threshold: float = setting(0.85, "perturb", "(0, 1)")
    max_retries: int = setting(3, "perturb", ">= 1")
    seed: int = 0  # set from the run's seed by RunConfig
    rules: tuple[FeasibilityRule, ...] = field(default_factory=lambda: load_feasibility_rules(), repr=False)
    pools: tuple[TestValuePool, ...] = field(default_factory=lambda: load_test_value_pools(), repr=False)

    def __post_init__(self) -> None:
        check_settings(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PerturbConfig":
        """The config's perturb section, its keys checked by load_config; a table file it names is read here."""
        if "seed" in doc:
            raise ValueError("perturb.seed is not a key: the top-level seed drives the perturbation")
        kwargs = {k: v for k, v in doc.items() if k not in TABLE_KEYS}
        for key, (name, parse) in TABLE_KEYS.items():
            if doc.get(key):
                kwargs[name] = _read_table(key, str(doc[key]), parse)
        return cls(**kwargs)


def case_seed(global_seed: int, case_id: str) -> int:
    """Per-case RNG seed derived from the run seed and the case id."""
    digest = hashlib.sha256(id_bytes(f"{global_seed}:{case_id}")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FeasibilityRule:
    """One clinical feasibility constraint keyed on a diagnosis pattern.

    min_present_age: perturbed present age must be >= value.
    max_onset_age: age at the earliest related episode must stay < value.
    required_sex: sex is pinned to value and never flipped.
    """

    diagnosis_pattern: str
    constraint_kind: str
    value: int | str

    def __post_init__(self) -> None:
        if not self.diagnosis_pattern.strip():
            raise ValueError("diagnosis_pattern must be nonempty")
        if self.constraint_kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint_kind {self.constraint_kind!r}")
        if self.constraint_kind in ("min_present_age", "max_onset_age"):
            if not isinstance(self.value, int) or not 0 <= self.value <= 130:
                raise ValueError(f"{self.constraint_kind} value out of clinical range: {self.value!r}")
        elif self.value not in SEXES:
            raise ValueError(f"required_sex value must be male or female, got {self.value!r}")

    def matches(self, diagnosis_label: str) -> bool:
        return self.diagnosis_pattern.lower() in diagnosis_label.lower()


@dataclass(frozen=True)
class TestValuePool:
    """Clinically equivalent value bands for one canonical numeric test."""

    canonical_test: str
    aliases: tuple[str, ...]
    bands: tuple[tuple[int, int, str], ...]  # (low, high, interpretation)

    def __post_init__(self) -> None:
        spans = sorted((low, high) for low, high, _ in self.bands)
        for (low, high) in spans:
            if high - low < 1:
                raise ValueError(f"{self.canonical_test}: band {low}-{high} has fewer than 2 values")
        for (_, high_a), (low_b, _) in zip(spans, spans[1:]):
            if low_b <= high_a:
                raise ValueError(f"{self.canonical_test}: bands overlap at {low_b}")

    def band_for(self, value: int) -> tuple[int, int, str] | None:
        for low, high, label in self.bands:
            if low <= value <= high:
                return (low, high, label)
        return None


def _rules(doc: dict) -> tuple[FeasibilityRule, ...]:
    return tuple(
        FeasibilityRule(
            diagnosis_pattern=entry["diagnosis_pattern"],
            constraint_kind=entry["constraint_kind"],
            value=entry["value"],
        )
        for entry in doc.get("rules", [])
    )


def _pools(doc: dict) -> tuple[TestValuePool, ...]:
    return tuple(
        TestValuePool(
            canonical_test=entry["canonical_test"],
            aliases=tuple(entry["aliases"]),
            bands=tuple((b["low"], b["high"], b["label"]) for b in entry["bands"]),
        )
        for entry in doc.get("pools", [])
    )


# The packaged data files do not change while the program runs, so each is
# read and parsed once per process. The cached values are shared: callers
# only read them.
def _data_text(name: str) -> str:
    return resources.files("anonpsy").joinpath(f"data/{name}").read_text(encoding="utf-8")


@functools.cache
def load_feasibility_rules() -> tuple[FeasibilityRule, ...]:
    return _rules(load_yaml(_data_text("feasibility_rules.yaml")) or {})


@functools.cache
def load_test_value_pools() -> tuple[TestValuePool, ...]:
    return _pools(load_yaml(_data_text("test_value_pools.yaml")) or {})


@functools.cache
def load_minor_occupations() -> frozenset[str]:
    lines = _data_text("minor_occupations.txt").splitlines()
    return frozenset(line.strip().lower() for line in lines if line.strip())


@functools.cache
def load_contradiction_lexicon() -> dict[str, dict[str, list[str]]]:
    return load_yaml(_data_text("contradiction_lexicon.yaml")) or {}


@functools.cache
def load_mse_domains() -> dict[str, list[str]]:
    return load_yaml(_data_text("mse_domains.yaml")) or {}


def _read_table(key: str, path: str, parse):
    """The tables of a user's table file; any fault in it is a ValueError naming the key."""
    try:
        doc = safe_load(Path(path).read_text(encoding="utf-8")) or {}
        if not isinstance(doc, dict):
            raise TypeError("the file's root is not a mapping")
        return parse(doc)
    except KeyError as exc:
        raise ValueError(f"perturb.{key} {path}: an entry lacks {exc}") from exc
    except (OSError, yaml.YAMLError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"perturb.{key} {path}: {exc}") from exc


# YAML keys of the perturb section that name a table file, and the field each fills.
TABLE_KEYS = {"feasibility_rules": ("rules", _rules), "test_value_pools": ("pools", _pools)}

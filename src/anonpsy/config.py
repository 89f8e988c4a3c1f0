"""Run configuration: one YAML file, environment overrides, stable digest.

The resolved configuration is digested into the run manifest so every
artifact can be traced back to the exact settings that produced it. It holds
the perturbation's rule and value-pool tables themselves, so the digest
changes with their contents.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import yaml

from .perturbation.config import TABLE_KEYS, ConfigError, PerturbConfig, check_settings, setting, settings
from .yamlio import safe_load


@dataclass(frozen=True)
class RunConfig:
    seed: int = setting(42)
    jobs: int = setting(1, bound=">= 1")
    backend: str = setting("mock", "gateway", ("mock", "live"))
    endpoint: str = setting("http://localhost:11434", "gateway")
    model: str = setting("gpt-oss:120b", "gateway")
    fixtures_dir: str | None = setting(None, "gateway")
    cache_dir: str | None = setting(None, "gateway")
    retries: int = setting(3, "gateway", ">= 1")
    backoff_seconds: float = setting(0.5, "gateway", ">= 0")
    perturb: PerturbConfig = field(default_factory=PerturbConfig)
    # The range a chat request accepts; see gateway.ChatRequest.
    sdc_temperature: float = setting(0.7, "baselines", "[0, 2]")
    # Not 0: at 0 every predicted label would match a gold one.
    match_threshold: float = setting(0.8, "eval", "(0, 1]")
    embedder: str = setting("fallback", "eval", ("fallback", "http"))
    embedding_model: str = setting("all-mpnet-base-v2", "eval")
    embedding_endpoint: str | None = setting(None, "eval")
    judge_model: str | None = setting(None, "eval")

    def __post_init__(self) -> None:
        # A request's temperature keys the response cache by its repr: 1 and 1.0 are one setting.
        # Stored before the check, so a bound error names the value as stored. An int too large for a
        # float is kept: it lies outside the bound, and the check names it as given.
        if type(self.sdc_temperature) is int and abs(self.sdc_temperature) <= sys.float_info.max:
            object.__setattr__(self, "sdc_temperature", float(self.sdc_temperature))
        check_settings(self)
        if self.backend == "mock" and not self.fixtures_dir:
            raise ConfigError("mock backend requires gateway.fixtures_dir")
        if self.embedder == "http" and not self.embedding_endpoint:
            raise ConfigError("embedder http requires eval.embedding_endpoint")
        if self.perturb.seed != self.seed:
            # One run seed drives everything, including perturbation RNG.
            object.__setattr__(self, "perturb", replace(self.perturb, seed=self.seed))

    def digest(self) -> str:
        return self._digest

    # The config is frozen, so its digest, a JSON pass over every field and
    # table, is computed once per instance.
    @functools.cached_property
    def _digest(self) -> str:
        doc = asdict(self)
        doc.pop("jobs")  # concurrency knob; cannot affect artifact bytes
        # default=str: a YAML date in a user's table or setting digests as its text
        canon = json.dumps(doc, sort_keys=True, ensure_ascii=False, default=str)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# Config-file key -> the class and field it sets. The perturb section's table keys and its seed, which
# PerturbConfig.from_dict refuses, set no field of their own and go to from_dict as they are.
_KEYS = {key: (cls, name) for cls in (RunConfig, PerturbConfig) for name, key, _, _ in settings(cls)}
_KEYS.update({f"perturb.{key}": (PerturbConfig, key) for key in (*TABLE_KEYS, "seed")})
_SECTIONS = {key.partition(".")[0] for key in _KEYS if "." in key}


def load_config(
    path: str | Path | None,
    seed: int | None = None,
    jobs: int | None = None,
    backend: str | None = None,
) -> RunConfig:
    """Load the YAML config, then apply environment and flag overrides.

    ANONPSY_ENDPOINT and ANONPSY_MODEL override the gateway section; explicit
    flags win over both.
    """
    doc: dict = {}
    if path is not None:
        try:
            doc = safe_load(Path(path).read_text(encoding="utf-8")) or {}
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")

    kwargs: dict = {RunConfig: {}, PerturbConfig: {}}
    for name, value in doc.items():
        if name in _SECTIONS and not isinstance(value or {}, dict):
            raise ConfigError(f"config section {name} must be a mapping")
        entries = {f"{name}.{key}": v for key, v in (value or {}).items()} if name in _SECTIONS else {name: value}
        for key, v in entries.items():
            if key not in _KEYS:
                raise ConfigError(f"unknown config key: {key}")
            cls, field_name = _KEYS[key]
            kwargs[cls][field_name] = v
    overrides = {"endpoint": os.environ.get("ANONPSY_ENDPOINT"), "model": os.environ.get("ANONPSY_MODEL")}
    overrides.update(seed=seed, jobs=jobs, backend=backend)  # the flags
    kwargs[RunConfig].update((name, v) for name, v in overrides.items() if v is not None and v != "")
    try:
        return RunConfig(**kwargs[RunConfig], perturb=PerturbConfig.from_dict(kwargs[PerturbConfig]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

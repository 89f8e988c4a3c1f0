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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import yaml

from .perturbation.config import PerturbConfig
from .yamlio import safe_load


class ConfigError(ValueError):
    pass


# The numeric settings: each with its key in the config file and its type (a float setting takes an int too).
_NUMBERS = {
    "seed": ("seed", int),
    "jobs": ("jobs", int),
    "retries": ("gateway.retries", int),
    "backoff_seconds": ("gateway.backoff_seconds", float),
    "sdc_temperature": ("baselines.sdc_temperature", float),
    "match_threshold": ("eval.match_threshold", float),
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    jobs: int = 1
    backend: str = "mock"  # mock | live
    endpoint: str = "http://localhost:11434"
    model: str = "gpt-oss:120b"
    fixtures_dir: str | None = None
    cache_dir: str | None = None
    retries: int = 3
    backoff_seconds: float = 0.5
    perturb: PerturbConfig = field(default_factory=PerturbConfig)
    sdc_temperature: float = 0.7
    match_threshold: float = 0.8
    embedder: str = "fallback"  # fallback | http
    embedding_model: str = "all-mpnet-base-v2"
    embedding_endpoint: str | None = None
    judge_model: str | None = None

    def __post_init__(self) -> None:
        for name, (key, kind) in _NUMBERS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
                raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
        # A request's temperature keys the response cache by its repr: 1 and 1.0 are one setting.
        object.__setattr__(self, "sdc_temperature", float(self.sdc_temperature))
        if self.backend not in ("mock", "live"):
            raise ConfigError(f"backend must be mock or live, got {self.backend!r}")
        if self.embedder not in ("fallback", "http"):
            raise ConfigError(f"embedder must be fallback or http, got {self.embedder!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.retries < 1:
            raise ConfigError("gateway.retries must be >= 1")
        if self.backoff_seconds < 0:
            raise ConfigError("gateway.backoff_seconds must be >= 0")
        if not 0.0 <= self.sdc_temperature <= 2.0:
            # The range a chat request accepts; see gateway.ChatRequest.
            raise ConfigError(f"baselines.sdc_temperature must be in [0, 2], got {self.sdc_temperature}")
        if not 0.0 < self.match_threshold <= 1.0:
            # At 0 every predicted label would match a gold one.
            raise ConfigError(f"eval.match_threshold must be in (0, 1], got {self.match_threshold}")
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


_GATEWAY_KEYS = ("backend", "endpoint", "model", "fixtures_dir", "cache_dir", "retries", "backoff_seconds")
_EVAL_KEYS = ("match_threshold", "embedder", "embedding_model", "embedding_endpoint", "judge_model")


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

    known_sections = {"seed", "jobs", "gateway", "perturb", "baselines", "eval"}
    unknown = set(doc) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    kwargs: dict = {k: doc[k] for k in ("seed", "jobs") if k in doc}

    gateway_doc = doc.get("gateway") or {}
    for key in gateway_doc:
        if key not in _GATEWAY_KEYS:
            raise ConfigError(f"unknown gateway key: {key}")
    kwargs.update({k: gateway_doc[k] for k in _GATEWAY_KEYS if k in gateway_doc})

    baselines_doc = doc.get("baselines") or {}
    if "sdc_temperature" in baselines_doc:
        kwargs["sdc_temperature"] = baselines_doc["sdc_temperature"]

    eval_doc = doc.get("eval") or {}
    for key in eval_doc:
        if key not in _EVAL_KEYS:
            raise ConfigError(f"unknown eval key: {key}")
    kwargs.update({k: eval_doc[k] for k in _EVAL_KEYS if k in eval_doc})

    if os.environ.get("ANONPSY_ENDPOINT"):
        kwargs["endpoint"] = os.environ["ANONPSY_ENDPOINT"]
    if os.environ.get("ANONPSY_MODEL"):
        kwargs["model"] = os.environ["ANONPSY_MODEL"]
    if seed is not None:
        kwargs["seed"] = seed
    if jobs is not None:
        kwargs["jobs"] = jobs
    if backend is not None:
        kwargs["backend"] = backend

    try:
        return RunConfig(**kwargs, perturb=PerturbConfig.from_dict(doc.get("perturb") or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

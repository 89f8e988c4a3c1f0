"""Shared test utilities: independent oracles and random graph generators.

The oracles deliberately re-derive results from first principles (day-set
enumeration, sign-vector enumeration, exact rational arithmetic) so the
implementations they check can never be their own source of truth.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import yaml

import anonpsy
from anonpsy import runner
from anonpsy.model import (
    CaseAttributes,
    Demographics,
    DiagnosisNode,
    DurationInterval,
    FamilyHistoryEntry,
    PastHistoryNode,
    Relation,
    SemanticGraph,
    StebContext,
    SymptomNode,
    TreatmentNode,
    VisitEvent,
)

from .synthesis import synthesize

# --- temporal oracles --------------------------------------------------------


def day_set(intervals: list[tuple[int, int]]) -> set[int]:
    """All integer days covered by half-open (start, end) intervals."""
    days: set[int] = set()
    for start, end in intervals:
        days.update(range(start, end))
    return days


def maximal_runs(days: set[int]) -> list[tuple[int, int]]:
    """Maximal half-open runs of a set of integer days, sorted by start."""
    runs: list[tuple[int, int]] = []
    for day in sorted(days):
        if runs and day == runs[-1][1]:
            runs[-1] = (runs[-1][0], day + 1)
        else:
            runs.append((day, day + 1))
    return runs


# --- statistics oracles --------------------------------------------------------


def wilcoxon_enum_oracle(diffs: list[float], alternative: str) -> tuple[float, float]:
    """Exact signed-rank p by brute enumeration of all 2^n sign vectors."""
    n = len(diffs)
    magnitudes = [abs(d) for d in diffs]
    order = sorted(range(n), key=lambda i: magnitudes[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and magnitudes[order[j + 1]] == magnitudes[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    w_obs = sum(r for d, r in zip(diffs, ranks) if d > 0)
    ge = le = 0
    total = 2**n
    for signs in product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w >= w_obs - 1e-12:
            ge += 1
        if w <= w_obs + 1e-12:
            le += 1
    p_greater = ge / total
    p_less = le / total
    if alternative == "greater":
        return w_obs, p_greater
    if alternative == "less":
        return w_obs, p_less
    return w_obs, min(1.0, 2.0 * min(p_greater, p_less))


def binomial_oracle(k: int, n: int, p0: Fraction, alternative: str = "two_sided") -> Fraction:
    """Exact binomial p-value in rational arithmetic."""
    pmf = [Fraction(math.comb(n, i)) * p0**i * (1 - p0) ** (n - i) for i in range(n + 1)]
    if alternative == "greater":
        return min(Fraction(1), sum(pmf[k:]))
    if alternative == "less":
        return min(Fraction(1), sum(pmf[: k + 1]))
    observed = pmf[k]
    return min(Fraction(1), sum(p for p in pmf if p <= observed))


def mcnemar_enum_oracle(b: int, c: int) -> float:
    """Exact McNemar p by enumerating all 2^n discordant-pair assignments."""
    n = b + c
    if n == 0:
        return 1.0
    m = min(b, c)
    count_le = sum(1 for signs in product((0, 1), repeat=n) if sum(signs) <= m)
    return min(1.0, 2.0 * count_le / 2**n)


def tf_cosine_oracle(a: str, b: str, dimensions: int = 4096) -> float:
    """Independent hashed term-frequency cosine using sparse dictionaries."""

    def buckets(text: str) -> dict[int, int]:
        tokens = re.findall(r"[a-z0-9]+", text.lower())
        terms = tokens + [f"{x} {y}" for x, y in zip(tokens, tokens[1:])]
        out: dict[int, int] = {}
        for term in terms:
            digest = hashlib.sha256(term.encode("utf-8")).digest()
            key = int.from_bytes(digest[:8], "big") % dimensions
            out[key] = out.get(key, 0) + 1
        return out

    da, db = buckets(a), buckets(b)
    dot = sum(v * db.get(k, 0) for k, v in da.items())
    na = math.sqrt(sum(v * v for v in da.values()))
    nb = math.sqrt(sum(v * v for v in db.values()))
    if na == 0 or nb == 0:
        return 0.0
    return dot / (na * nb)


class FakeGateway:
    """Duck-typed gateway for unit tests: scripted responses, recorded calls."""

    def __init__(self, handler):
        self.handler = handler
        self.calls: list[tuple[str, dict[str, str]]] = []

    def call(self, template_id, variables, temperature=None):
        self.calls.append((template_id, dict(variables)))
        out = self.handler(template_id, dict(variables))
        if isinstance(out, Exception):
            raise out
        return out


class SpyBackend:
    """A backend that records each request a real gateway sends it and answers with `reply(request)`."""

    name = "mock"

    def __init__(self, reply):
        self.reply = reply
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        return self.reply(req)


# --- graph generators ----------------------------------------------------------

_WORDS = (
    "mood", "sleep", "appetite", "energy", "worry", "focus", "tension",
    "routine", "memory", "outlook", "appetite loss", "slowed movement",
)


def minimal_graph(**overrides) -> SemanticGraph:
    """A tiny valid graph; keyword overrides replace whole sections."""
    base = SemanticGraph(
        attributes=CaseAttributes(
            demographics=Demographics(age=30, sex="female", ethnicity="", occupation="clerk", family_structure=""),
            family_history=[],
            test_results={"labs": "", "imaging": "", "mental_status": "", "other": ""},
        ),
        diagnoses=[DiagnosisNode(id="dx_001", label="major depressive disorder")],
        symptoms=[
            SymptomNode(
                id="s_001",
                symptom="low mood",
                pattern="episodic",
                current_symptom=True,
                evidence_text="felt low most days",
                contexts=[StebContext(situation="at home", emotion="sad")],
                duration_ids=["d_001"],
            )
        ],
        treatments=[],
        past_history=[],
        visit_event=VisitEvent(
            setting="outpatient clinic",
            arrival_mode="self-referred",
            legal_status="voluntary",
            reason_for_visit="low mood",
            safety_flags=[],
            source_of_information="patient",
            pathway=None,
            visit_episode="Came to clinic describing weeks of low mood.",
        ),
        relations=[Relation("MANIFESTS_AS", "s_001", "dx_001")],
        durations=[DurationInterval("d_001", -14, 15)],
    )
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


def random_timed_graph(rng: random.Random, max_nodes: int = 8, max_episodes: int = 12) -> SemanticGraph:
    """Random graph for the temporal oracle: raw per-node interval multisets."""
    n_nodes = rng.randint(1, max_nodes)
    durations: list[DurationInterval] = []
    symptoms: list[SymptomNode] = []
    treatments: list[TreatmentNode] = []
    past_history: list[PastHistoryNode] = []
    episode_budget = rng.randint(n_nodes, max_episodes)
    counter = 1
    for idx in range(n_nodes):
        remaining_nodes = n_nodes - idx
        max_here = max(1, episode_budget - (remaining_nodes - 1))
        n_eps = rng.randint(1, min(4, max_here))
        episode_budget -= n_eps
        ids = []
        for _ in range(n_eps):
            start = rng.randint(-400, 30)
            span = rng.randint(1, 120)
            dur = DurationInterval(f"d_{counter:03d}", start, span)
            counter += 1
            durations.append(dur)
            ids.append(dur.id)
        kind = rng.choice(("symptom", "treatment", "past"))
        if kind == "symptom":
            symptoms.append(
                SymptomNode(
                    id=f"s_{idx:03d}",
                    symptom=rng.choice(_WORDS),
                    pattern="episodic",
                    current_symptom=False,
                    evidence_text="noted in the record",
                    contexts=[StebContext(emotion="strained")],
                    duration_ids=ids,
                )
            )
        elif kind == "treatment":
            treatments.append(
                TreatmentNode(
                    id=f"t_{idx:03d}", treatment_type="medication", name=rng.choice(_WORDS), duration_ids=ids
                )
            )
        else:
            past_history.append(
                PastHistoryNode(id=f"ph_{idx:03d}", condition=rng.choice(_WORDS), duration_ids=ids)
            )
    return minimal_graph(
        symptoms=symptoms,
        treatments=treatments,
        past_history=past_history,
        relations=[],
        durations=durations,
    )


_SAFE_TEXT = "abcdefghijklmnopqrstuvwxyz '"


def _random_text(rng: random.Random, lo: int = 3, hi: int = 40) -> str:
    length = rng.randint(lo, hi)
    text = "".join(rng.choice(_SAFE_TEXT) for _ in range(length)).strip()
    return text or "note"


def random_valid_graph(rng: random.Random) -> SemanticGraph:
    """Random schema-valid graph for round-trip and determinism tests."""
    durations = []
    for i in range(rng.randint(1, 6)):
        durations.append(
            DurationInterval(
                f"d_{i:03d}",
                rng.randint(-900, 30),
                rng.randint(1, 400),
                virtual=rng.random() < 0.2,
                age_anchored=rng.random() < 0.1,
            )
        )
    dur_ids = [d.id for d in durations]
    diagnoses = [DiagnosisNode(f"dx_{i:03d}", _random_text(rng, 5, 30)) for i in range(rng.randint(1, 3))]
    symptoms = []
    for i in range(rng.randint(0, 4)):
        contexts = []
        for _ in range(rng.randint(0, 2)):
            fields = rng.sample(StebContext.FIELD_ORDER, rng.randint(1, 4))
            contexts.append(StebContext(**{f: _random_text(rng) for f in fields}))
        symptoms.append(
            SymptomNode(
                id=f"s_{i:03d}",
                symptom=_random_text(rng, 4, 20),
                pattern=rng.choice(("episodic", "continuous", "relapsing")),
                current_symptom=rng.random() < 0.5,
                evidence_text=_random_text(rng, 5, 60),
                contexts=contexts,
                duration_ids=rng.sample(dur_ids, rng.randint(0, min(2, len(dur_ids)))),
            )
        )
    treatments = []
    for i in range(rng.randint(0, 3)):
        treatments.append(
            TreatmentNode(
                id=f"t_{i:03d}",
                treatment_type=rng.choice(("medication", "psychotherapy", "procedure")),
                name=_random_text(rng, 4, 16),
                dose=_random_text(rng, 3, 8) if rng.random() < 0.5 else None,
                route=rng.choice(("oral", "intravenous", "topical")) if rng.random() < 0.5 else None,
                frequency=_random_text(rng, 4, 10) if rng.random() < 0.4 else None,
                outcome=_random_text(rng, 4, 20) if rng.random() < 0.4 else None,
                duration_ids=rng.sample(dur_ids, rng.randint(0, 1)),
            )
        )
    past_history = [
        PastHistoryNode(
            id=f"ph_{i:03d}",
            condition=_random_text(rng, 4, 24),
            duration_ids=rng.sample(dur_ids, rng.randint(0, 1)),
        )
        for i in range(rng.randint(0, 2))
    ]
    relations = []
    seen = set()
    for s in symptoms:
        if diagnoses and rng.random() < 0.7:
            rel = Relation("MANIFESTS_AS", s.id, rng.choice(diagnoses).id)
            if rel.triple() not in seen:
                relations.append(rel)
                seen.add(rel.triple())
    for t in treatments:
        targets = [d.id for d in diagnoses] + [p.id for p in past_history] + [s.id for s in symptoms]
        if targets and rng.random() < 0.7:
            rel = Relation("TREATMENT_OF", t.id, rng.choice(targets))
            if rel.triple() not in seen:
                relations.append(rel)
                seen.add(rel.triple())
    return minimal_graph(
        attributes=CaseAttributes(
            demographics=Demographics(
                age=rng.randint(0, 90),
                sex=rng.choice(("male", "female")),
                ethnicity=_random_text(rng, 0, 12),
                occupation=_random_text(rng, 0, 12),
                family_structure=_random_text(rng, 0, 12),
            ),
            family_history=[
                FamilyHistoryEntry(_random_text(rng, 4, 10), _random_text(rng, 4, 20), _random_text(rng, 0, 30))
                for _ in range(rng.randint(0, 2))
            ],
            test_results={
                "labs": _random_text(rng, 0, 30),
                "imaging": _random_text(rng, 0, 30),
                "mental_status": _random_text(rng, 0, 60),
                "other": _random_text(rng, 0, 30),
            },
        ),
        diagnoses=diagnoses,
        symptoms=symptoms,
        treatments=treatments,
        past_history=past_history,
        relations=relations,
        durations=durations,
    )


def random_narration_graph(rng: random.Random) -> SemanticGraph:
    """Random reconciled, split-form graph for narrator coverage checks."""
    durations = []
    for i in range(rng.randint(1, 5)):
        durations.append(DurationInterval(f"d_{i:03d}", rng.randint(-700, 10), rng.randint(1, 200)))
    dur_ids = [d.id for d in durations]
    diagnoses = [DiagnosisNode(f"dx_{i:03d}", _random_text(rng, 6, 24)) for i in range(rng.randint(1, 3))]
    symptoms = []
    for i in range(rng.randint(0, 5)):
        symptoms.append(
            SymptomNode(
                id=f"s_{i:03d}",
                symptom=_random_text(rng, 4, 16),
                pattern="episodic",
                current_symptom=False,
                evidence_text=_random_text(rng, 5, 30),
                contexts=[StebContext(situation=_random_text(rng), emotion=_random_text(rng, 3, 10))]
                if rng.random() < 0.7
                else [],
                duration_ids=[rng.choice(dur_ids)],
            )
        )
    treatments = []
    for i in range(rng.randint(0, 4)):
        treatments.append(
            TreatmentNode(
                id=f"t_{i:03d}",
                treatment_type="medication",
                name=_random_text(rng, 4, 12),
                duration_ids=[rng.choice(dur_ids)] if rng.random() < 0.9 else [],
            )
        )
    past_history = [
        PastHistoryNode(
            id=f"ph_{i:03d}",
            condition=_random_text(rng, 5, 20),
            duration_ids=[rng.choice(dur_ids)] if rng.random() < 0.7 else [],
        )
        for i in range(rng.randint(0, 3))
    ]
    relations = []
    seen = set()

    def add(rel: Relation) -> None:
        if rel.triple() not in seen:
            relations.append(rel)
            seen.add(rel.triple())

    for s in symptoms:
        if rng.random() < 0.75:
            add(Relation("MANIFESTS_AS", s.id, rng.choice(diagnoses).id))
    for t in treatments:
        roll = rng.random()
        if roll < 0.4:
            add(Relation("TREATMENT_OF", t.id, rng.choice(diagnoses).id))
        elif roll < 0.6 and past_history:
            add(Relation("TREATMENT_OF", t.id, rng.choice(past_history).id))
        elif roll < 0.75 and symptoms:
            add(Relation("TREATMENT_OF", t.id, rng.choice(symptoms).id))
    for source_pool in (symptoms, treatments, past_history):
        for node in source_pool:
            if rng.random() < 0.15:
                add(Relation("INDUCES", node.id, rng.choice(diagnoses).id))
    return minimal_graph(
        diagnoses=diagnoses,
        symptoms=symptoms,
        treatments=treatments,
        past_history=past_history,
        relations=relations,
        durations=durations,
    )


def assert_same_typed(a, b, path: str = "graph") -> None:
    """a equals b field by field, in the same order and with identical types.

    `==` alone takes True for 1 and 1 for 1.0; a graph handed from one stage
    to the next in memory must not differ from its parsed YAML even there.
    """
    assert type(a) is type(b), f"{path}: {type(a).__name__} {a!r} vs {type(b).__name__} {b!r}"
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_typed(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_typed(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), f"{path}: keys {list(a)} vs {list(b)}"
        for key in a:
            assert_same_typed(a[key], b[key], f"{path}[{key!r}]")
    else:
        assert a == b, f"{path}: {a!r} vs {b!r}"


def shared_containers(g) -> list[str]:
    """Paths at which a list, dict or dataclass of g is reached a second time.

    A parsed graph shares none, so an in-memory graph that does could diverge
    from it under an in-place edit.
    """
    seen: set[int] = set()
    shared: list[str] = []

    def walk(value, path: str) -> None:
        if isinstance(value, dict):
            children = [(repr(k), v) for k, v in value.items()]
        elif isinstance(value, list):
            children = list(enumerate(value))
        elif dataclasses.is_dataclass(value):
            children = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
        else:
            return
        if id(value) in seen:
            shared.append(path)
            return
        seen.add(id(value))
        for key, child in children:
            walk(child, f"{path}.{key}")

    walk(g, "graph")
    return shared


# --- run directory checks ------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def package_digest() -> str:
    """SHA-256 over every file of the anonpsy package but the CLI, found by listing it.

    The engine names its modules without listing the package (it digests the
    modules it loaded) and lists only `data/`; this full listing is what it
    must agree with.
    """
    package = Path(anonpsy.__file__).parent
    files = sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py") if p.name != "cli.py")
    files += sorted(f"data/{p.name}" for p in (package / "data").iterdir())
    h = hashlib.sha256()
    for file in files:
        data = (package / file).read_bytes()
        h.update(f"{file}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def _trace(*parts: str) -> str:
    return _sha("\0".join(parts).encode("utf-8"))[:32]


def _base(doc: dict) -> str:
    """The base key of the command that wrote the manifest doc."""
    prompts = (f"{name}={h}" for name, h in sorted(doc["prompt_assets"].items()))
    return _trace(doc["config_digest"], *prompts, package_digest())


def _row_trace(base: str, case_dir: Path, name: str, inputs: dict[str, bytes] | None = None) -> str:
    """The trace of row name over its input files (from disk, or these bytes) and its outputs on disk."""
    stage = runner.STAGES[name]
    files = tuple(runner.CASE_INPUTS) if stage.source is None else (stage.source,)
    if inputs is None:
        inputs = {file: (case_dir / file).read_bytes() for file in files if (case_dir / file).is_file()}
    digests = [_sha(inputs[file]) if file in inputs else "-" for file in files]
    digests += [
        _sha((case_dir / file).read_bytes()) if (case_dir / file).is_file() else "-"
        for file in stage.outputs
    ]
    return _trace(name, case_dir.name, base, *digests)


def assert_provenance(run_dir, rows=None, cases=None) -> None:
    """Every provenance entry in run_dir's manifest, or each of the given rows and cases, matches the files on disk.

    Each trace is derived again from the recipe in the README: the first 32
    hex digits of SHA-256 over the row name, the case id, the base key, and
    the SHA-256 of each input and each output file ("-" for a missing one),
    joined by NUL. No entry outlives the outputs of its row.
    """
    run_dir = Path(run_dir)
    doc = yaml.safe_load((run_dir / "run_manifest.yaml").read_text(encoding="utf-8"))
    base = _base(doc)
    for case_id, entries in doc.get("provenance", {}).items():
        if cases is not None and case_id not in cases:
            continue
        assert entries, f"{case_id}: an empty provenance entry"
        case_dir = run_dir / case_id
        for name, recorded in entries.items():
            if rows is not None and name not in rows:
                continue
            stage = runner.STAGES.get(name)
            assert stage and stage.outputs, f"{case_id}: {name} is not a traced row"
            for file in stage.outputs:
                assert (case_dir / file).is_file(), f"{case_id}/{name}: the entry outlived {file}"
            assert recorded == _row_trace(base, case_dir, name), f"{case_id}/{name}: the trace does not match"


def made_from(run_dir, case_id: str, name: str, inputs: dict[str, bytes]) -> bool:
    """Whether the manifest records row name's outputs on disk for case_id as made from these input bytes."""
    manifest = Path(run_dir) / "run_manifest.yaml"
    if not manifest.is_file():  # no command has completed yet
        return False
    doc = yaml.safe_load(manifest.read_text(encoding="utf-8"))
    recorded = doc.get("provenance", {}).get(case_id, {}).get(name)
    return recorded == _row_trace(_base(doc), Path(run_dir) / case_id, name, inputs)


def age_follows_the_text(req) -> str:
    """The synthesized reply, but the extracted age is read from the narrative: an edited text gives a new graph."""
    reply = synthesize(req.template_id, dict(req.variables))
    if req.template_id == "extract_entities":
        doc = yaml.safe_load(reply)
        doc["demographics"]["age"] = int(re.search(r"(\d+)-year-old", dict(req.variables)["narrative"]).group(1))
        reply = yaml.safe_dump(doc, sort_keys=False, allow_unicode=True)
    return reply


# --- process kills --------------------------------------------------------------


def kill_after(monkeypatch, out_dir: Path, k: int) -> list[str]:
    """The process dies right after the k-th file it writes or unlinks under out_dir: that call, and every
    later one, raises KeyboardInterrupt. Returns the paths touched, in order."""
    touched = []
    real_write, real_unlink = runner.write_atomic, os.unlink

    def touch(path, change) -> None:
        if len(touched) >= k:
            raise KeyboardInterrupt  # dead already: no later write or unlink happens
        if change():
            touched.append(os.fspath(path))
            if len(touched) == k:
                raise KeyboardInterrupt

    def unlink(path, *args, **kwargs):
        if not os.fspath(path).startswith(os.fspath(out_dir)):
            return real_unlink(path, *args, **kwargs)
        touch(path, lambda: real_unlink(path, *args, **kwargs) or True)

    monkeypatch.setattr(runner, "write_atomic", lambda path, text: touch(path, lambda: real_write(path, text)))
    monkeypatch.setattr(os, "unlink", unlink)
    return touched

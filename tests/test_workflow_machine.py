"""A state machine over the whole workflow: commands, hand edits, corpus edits and backend faults.

Hypothesis runs random sequences of every command (`run`, the three staged
commands, the three baselines and `eval`), hand edits and deletions of case
files, a corpus text edited and restored, faults switched on and off in a
seeded backend, and a command killed right after its k-th file write or
unlink, or right after it writes a corpus entry that was just edited. After
each command that completes, every trace it wrote verifies and no case keeps
the outputs of a row that failed; after it and after each kill, no case that
holds its current corpus entry keeps another row's outputs made from an older
one; `eval` writes a report of every case it scored. At the end the faults
are cleared, the corpus is restored and the full workflow runs once more: the
run directory, its manifest included, is then byte-identical to a clean run's.

`pytest --hypothesis-profile=fuzz` runs the machine on 2,000 sequences
instead of 40.
"""

from __future__ import annotations

import functools
import os
import random
import re
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

from anonpsy import runner
from anonpsy.config import RunConfig
from anonpsy.gateway import GatewayError, LlmGateway, MockBackend, MockFixtureMissing, TransientBackendError

from .conftest import CORPUS_DIR, FIXTURES_DIR
from .helpers import age_follows_the_text, assert_provenance, kill_after, made_from

CONFIG = RunConfig(seed=42, jobs=1, backend="mock", fixtures_dir=str(FIXTURES_DIR))
CASES = ("case_001", "case_002", "case_003")
CASE_FILES = sorted({*runner.CASE_INPUTS, *(f for s in runner.STAGES.values() for f in s.outputs)})
TEMPLATES = sorted(p.name for p in FIXTURES_DIR.iterdir())
COMMANDS = ("run", *runner.STAGES)  # every row is a command of its own

# The templates whose reply is read as a YAML mapping, and whose unreadable reply ends in a failure the
# engine sees: a retry, which the fixtures do not hold, so the step either fails its case or falls back
# and leaves its row degraded, to run again.
STRUCTURED = (
    "causal_pass",
    "diagnosis_acceptability",
    "extract_entities",
    "extract_episodes",
    "identity_fields",
    "judge_risk",
    "mse_align",
    "predict_diagnoses",
    "steb_rewrite",
    "visit_rewrite",
)
# Replies every check of a STRUCTURED template rejects.
BAD_REPLIES = {"broken_yaml": "entities: [unclosed\n", "invalid_reply": "- a list\n- not a mapping\n"}
FAULTS = ("429", "503", "timeout", "non_json", "empty", *BAD_REPLIES)


class FaultyBackend:
    """The mock backend with faults switched on per template, each call drawn from a seeded RNG.

    A first attempt the fixtures lack, such as one about an edited corpus
    text, gets the synthesized reply whose extracted age follows the text
    (`helpers.age_follows_the_text`), so every row reads and writes new bytes.
    The faults are those a live backend produces: a 429 or 503 status and a
    timeout, which the gateway retries; a body that is not JSON and an empty
    completion, which end the call; and, for the STRUCTURED templates, broken
    YAML and a well-formed reply that fails validation.
    """

    name = "mock"

    def __init__(self, seed: int = 0):
        self.mock = MockBackend(FIXTURES_DIR)
        self.rng = random.Random(seed)
        self.faults: dict[str | None, tuple[str, float]] = {}  # template id (None: every one) -> (fault, rate)

    def complete(self, req) -> str:
        try:
            text = self.mock.complete(req)
        except MockFixtureMissing:
            if "attempt" in dict(req.variables):
                raise  # a retry: the fixtures hold none, so a clean rerun never keeps its reply
            text = age_follows_the_text(req)
        fault, rate = self.faults.get(req.template_id) or self.faults.get(None) or ("", 0.0)
        if not fault or (fault in BAD_REPLIES and req.template_id not in STRUCTURED) or self.rng.random() >= rate:
            return text
        if fault in ("429", "503"):
            raise TransientBackendError(f"backend returned {fault}")
        if fault == "timeout":
            raise TransientBackendError("timed out")
        if fault == "non_json":
            raise GatewayError(req.template_id, "response body is not JSON")
        return "" if fault == "empty" else BAD_REPLIES[fault]


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _workflow(corpus: Path, out_dir: Path) -> None:
    runner.run_pipeline(corpus, out_dir, CONFIG)
    for name in runner.BASELINE_NAMES:
        runner.run_baseline(name, corpus, out_dir, CONFIG)
    runner.run_evaluation(out_dir, CONFIG)


@functools.cache
def _clean_tree() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        _workflow(CORPUS_DIR, Path(tmp) / "run")
        return _tree(Path(tmp) / "run")


class Workflow(RuleBasedStateMachine):
    backend = FaultyBackend()  # the one runner.build_gateway serves, reset by each sequence

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="anonpsy-workflow-"))
        self.corpus, self.out = self.tmp / "corpus", self.tmp / "run"
        shutil.copytree(CORPUS_DIR, self.corpus)
        self.entries: dict[str, list[dict[str, bytes]]] = {}  # case id -> each corpus entry it has had, the last current
        self._new_entries()
        # (case id, corpus row) that a kill may have stopped between its new entry and its own outputs
        self.unfinished: set[tuple[str, str]] = set()

    def _new_entries(self) -> None:
        for narrative in runner.load_corpus(self.corpus):
            entry = {file: render(narrative).encode("utf-8") for file, render in runner.CASE_INPUTS.items()}
            seen = self.entries.setdefault(narrative.case_id, [])
            if entry in seen:
                seen.remove(entry)
            seen.append(entry)

    def _check_entries(self) -> None:
        """Where a case holds its current corpus entry, no other row that reads it keeps outputs made from an older one.

        A corpus row removes the other readers' outputs before it writes a new
        entry; written first, a kill in between would leave them beside the new
        entry. The row's own outputs stay until it writes new ones, so a kill
        in between leaves them (`unfinished`) until the row runs again.
        """
        for case_id, (*older, current) in self.entries.items():
            case_dir = self.out / case_id
            if any(not (case_dir / f).is_file() or (case_dir / f).read_bytes() != b for f, b in current.items()):
                continue
            for name, stage in runner.STAGES.items():
                if (case_id, name) in self.unfinished or stage.source is not None or not stage.outputs:
                    continue
                if all((case_dir / f).is_file() for f in stage.outputs):
                    for entry in older:
                        assert not made_from(self.out, case_id, name, entry), f"{case_id}/{name}: made from an older entry"

    @initialize(seed=st.integers(0, 2**32 - 1))
    def seed_faults(self, seed):
        Workflow.backend.rng.seed(seed)
        Workflow.backend.faults.clear()

    def _command(self, rows: tuple[str, ...]) -> None:
        """Run rows as their command does; check the traces it wrote and what the failed rows left."""
        try:
            result = runner.run_stage(rows, self.out, CONFIG, self.corpus)
        except runner.UsageError:  # refused before any case runs: no input for it yet
            return
        # A hand edit leaves stale the traces of the rows and cases the command did not reach, until it does.
        assert_provenance(self.out, rows, [*result.succeeded, *result.failed])
        self.unfinished -= {(case_id, row) for case_id in result.succeeded for row in rows}
        self._check_entries()
        manifest = yaml.safe_load((self.out / "run_manifest.yaml").read_text(encoding="utf-8"))
        for row, entry in manifest["stages"].items():
            for case_id in entry["failed"]:
                kept = [f for f in runner.STAGES[row].outputs if (self.out / case_id / f).exists()]
                assert not kept, f"{case_id} keeps {kept} of its failed row {row}"

    @rule()
    def run(self):
        self._command(runner.PIPELINE)

    @rule(row=st.sampled_from(("convert", "perturb", "generate")))
    def staged(self, row):
        self._command((row,))

    @rule(name=st.sampled_from(runner.BASELINE_NAMES))
    def baseline(self, name):
        self._command((f"baseline.{name}",))

    def _killed(self, command: str) -> None:
        """Run command until a patched write or unlink kills it; check the corpus entries it left."""
        rows = runner.PIPELINE if command == "run" else () if command == "eval" else (command,)
        self.unfinished |= {(case_id, row) for case_id in CASES for row in rows}
        try:
            if command == "eval":
                runner.run_evaluation(self.out, CONFIG)
            else:
                runner.run_stage(rows, self.out, CONFIG, self.corpus)
        except (KeyboardInterrupt, runner.UsageError):
            pass
        self._check_entries()

    @rule(command=st.sampled_from(COMMANDS), k=st.integers(1, 12))
    def kill(self, command, k):
        """The command dies right after its k-th file write or unlink; the next command finds what it left."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            kill_after(monkeypatch, self.out, k)
            self._killed(command)

    @rule(case_id=st.sampled_from(CASES), command=st.sampled_from(COMMANDS))
    def edit_and_kill_after_the_entry(self, case_id, command):
        """A corpus edit; then the command dies right after it writes a corpus entry file, a corpus row's first write."""
        self.edit_corpus_text(case_id)
        real_write = runner.write_atomic

        def write(path, text):
            written = real_write(path, text)
            if os.path.basename(path) in runner.CASE_INPUTS:
                raise KeyboardInterrupt
            return written

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(runner, "write_atomic", write)
            self._killed(command)

    @rule()
    def eval(self):
        (self.out / "report.yaml").unlink(missing_ok=True)
        try:
            result = runner.run_evaluation(self.out, CONFIG)
        except runner.UsageError:  # a case lacks deid.txt
            return
        if result.succeeded:
            report = yaml.safe_load((self.out / "report.yaml").read_text(encoding="utf-8"))
            assert [case["case_id"] for case in report["cases"]] == result.succeeded

    @rule(
        case_id=st.sampled_from(CASES),
        file=st.sampled_from(CASE_FILES),
        edit=st.sampled_from(("append", "junk", "delete")),
    )
    def hand_edit(self, case_id, file, edit):
        path = self.out / case_id / file
        if not path.is_file():
            return
        if edit == "delete":
            path.unlink()
        else:
            text = path.read_text(encoding="utf-8") + "\n# edited by hand\n" if edit == "append" else "{unclosed: [\n"
            path.write_text(text, encoding="utf-8")

    @rule(case_id=st.sampled_from(CASES))
    def edit_corpus_text(self, case_id):
        """One year older: convert extracts a new age, so every row made from the case writes new bytes."""
        path = self.corpus / f"{case_id}.txt"
        older = re.sub(r"(\d+)-year-old", lambda m: f"{int(m.group(1)) + 1}-year-old", path.read_text(encoding="utf-8"))
        path.write_text(older, encoding="utf-8")
        self._new_entries()

    @rule()
    def restore_corpus(self):
        shutil.rmtree(self.corpus)
        shutil.copytree(CORPUS_DIR, self.corpus)
        self._new_entries()

    @rule(
        fault=st.sampled_from(FAULTS),
        template=st.none() | st.sampled_from(TEMPLATES),  # None: every template
        rate=st.sampled_from((0.5, 1.0)),
    )
    def fault_on(self, fault, template, rate):
        Workflow.backend.faults[template] = (fault, rate)

    @rule()
    def faults_off(self):
        Workflow.backend.faults.clear()

    def teardown(self):
        try:
            self.faults_off()
            self.restore_corpus()
            _workflow(self.corpus, self.out)
            assert _tree(self.out) == _clean_tree()
        finally:
            shutil.rmtree(self.tmp)


def _fault_gateway(config: RunConfig) -> LlmGateway:
    return LlmGateway(
        Workflow.backend,
        model=config.model,
        retries=config.retries,
        backoff_seconds=config.backoff_seconds,
        sleep=lambda _seconds: None,
    )


def test_any_sequence_of_commands_edits_and_faults_ends_as_a_clean_run(monkeypatch):
    monkeypatch.setattr(runner, "build_gateway", _fault_gateway)
    fuzzing = settings.default.max_examples == settings.get_profile("fuzz").max_examples
    run_state_machine_as_test(
        Workflow,
        settings=settings(
            max_examples=2000 if fuzzing else 40,
            stateful_step_count=10,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )

"""A state machine over the whole workflow: commands, hand edits, corpus edits and backend faults.

Hypothesis runs random sequences of every command (`run`, the three staged
commands, the three baselines and `eval`), hand edits and deletions of case
files, a corpus text edited and restored, faults switched on and off in a
seeded backend, and a command killed right after its k-th file write or
unlink. After each command that completes, every trace it wrote verifies and
no case keeps the outputs of a row that failed; `eval` writes a report of
every case it scored. At the end the faults are cleared, the corpus is
restored and the full workflow runs once more: the run directory, its
manifest included, is then byte-identical to a clean run's.

`pytest --hypothesis-profile=fuzz` runs the machine on 2,000 sequences
instead of 40.
"""

from __future__ import annotations

import functools
import random
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
from anonpsy.gateway import GatewayError, LlmGateway, MockBackend, TransientBackendError

from .conftest import CORPUS_DIR, FIXTURES_DIR
from .helpers import assert_provenance, kill_after

CONFIG = RunConfig(seed=42, jobs=1, backend="mock", fixtures_dir=str(FIXTURES_DIR))
CASES = ("case_001", "case_002", "case_003")
CASE_FILES = sorted({*runner.CASE_INPUTS, *(f for s in runner.STAGES.values() for f in s.outputs + s.side_outputs)})
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
        text = self.mock.complete(req)  # a request the fixtures lack fails as it does without faults
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

    @rule(command=st.sampled_from(COMMANDS), k=st.integers(1, 12))
    def kill(self, command, k):
        """The command dies right after its k-th file write or unlink; the next command finds what it left."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            kill_after(monkeypatch, self.out, k)
            try:
                if command == "eval":
                    runner.run_evaluation(self.out, CONFIG)
                else:
                    runner.run_stage(runner.PIPELINE if command == "run" else (command,), self.out, CONFIG, self.corpus)
            except (KeyboardInterrupt, runner.UsageError):
                pass

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
        path = self.corpus / f"{case_id}.txt"
        path.write_text(path.read_text(encoding="utf-8") + "\nShe has since moved abroad.\n", encoding="utf-8")

    @rule()
    def restore_corpus(self):
        shutil.rmtree(self.corpus)
        shutil.copytree(CORPUS_DIR, self.corpus)

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

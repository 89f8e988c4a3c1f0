"""The process under test: runs one workload's workflow and times it.

    python3 perfbench/worker.py spec.json

The spec names the corpus, the run configuration, the run directory and how
long to measure. Each iteration is `anonpsy run`, the three baselines and
`anonpsy eval` over the whole corpus, called through `anonpsy.runner`. The
result (timings, CPU, peak RSS, artifact digests, failures and, for a traced
run, per-layer metrics) is written as JSON to the spec's `result` path.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import yaml

import anonpsy.runner as runner
from anonpsy import prompts
from anonpsy.config import RunConfig
from anonpsy.evaluation import HashedTfEmbedder, doc_similarity, soft_f1
from anonpsy.gateway import HttpBackend, LlmGateway, MockBackend
from anonpsy.model import validate_graph
from anonpsy.narrator import plan_outline
from anonpsy.relations import check_consistency
from anonpsy.temporal import reconcile_node_intervals
from anonpsy.yamlio import parse_yaml, serialize_yaml

import tracing
from run import digest_tree
from stub import fetch_stats

# (case, command) pairs per case: run, the three baselines, eval.
COMMANDS_PER_CASE = 2 + len(runner.BASELINE_NAMES)
MICROBENCH_SECONDS = 0.15
# One calibration sample takes 35 to 65 ms on a shared 2.1 GHz core, as the
# host's load varies. After each pass, samples are taken until they add up
# to this share of the pass.
CALIBRATION_ROUNDS = 40_000
CALIBRATION_SHARE = 0.1


def _eval_failures(out_dir: Path, config: RunConfig, n_cases: int, errors: list[str]) -> int:
    try:
        result = runner.run_evaluation(out_dir, config)
    except Exception:  # one bad eval must still be counted, not abort the bench
        errors.append(traceback.format_exc(limit=3))
        return n_cases
    return n_cases - len(result.succeeded)


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests while this one's CPUs wanted to run."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_once(corpus: Path, out_dir: Path, config: RunConfig, n_cases: int, errors: list[str]) -> dict:
    """One untraced pass of the workflow: wall and CPU time of each command, and steal."""
    s0 = steal_s()
    t0 = time.perf_counter()
    c0 = time.process_time()
    failed = 0
    try:
        result = runner.run_pipeline(corpus, out_dir, config)
        failed += len(result.failed)
        errors.extend(f"run {k}: {v}" for k, v in result.failed.items())
    except runner.UsageError as exc:
        failed += n_cases
        errors.append(f"run: {exc}")
    t1 = time.perf_counter()
    c1 = time.process_time()
    for name in runner.BASELINE_NAMES:
        result = runner.run_baseline(name, corpus, out_dir, config)
        failed += len(result.failed)
        errors.extend(f"baseline.{name} {k}: {v}" for k, v in result.failed.items())
    t2 = time.perf_counter()
    c2 = time.process_time()
    failed += _eval_failures(out_dir, config, n_cases, errors)
    t3 = time.perf_counter()
    c3 = time.process_time()
    s3 = steal_s()
    return {
        "wall_s": t3 - t0,
        "run_s": t1 - t0,
        "baselines_s": t2 - t1,
        "eval_s": t3 - t2,
        "cpu_s": c3 - c0,
        "run_cpu_s": c1 - c0,
        "eval_cpu_s": c3 - c2,
        "steal_s": s3 - s0,
        "failed": failed,
    }


def calibrate() -> float:
    """CPU seconds of a fixed piece of pure-Python work, to gauge the host's current speed.

    The host's speed drifts by up to 1.8x within minutes, and the program's
    CPU time drifts with it. Samples of this loop, taken between passes in
    proportion to their length, see the same drift, so CPU time divided by
    their mean does not.
    The work mixes what the program's own CPU time goes to: string
    splitting and formatting, dict and list updates, and sorting. It holds
    little memory, so it leaves the peak RSS to the workflow.
    """
    c0 = time.process_time()
    counts: dict[str, int] = {}
    for chunk in range(CALIBRATION_ROUNDS // 1000):
        lines = []
        for i in range(chunk * 1000, chunk * 1000 + 1000):
            key, _, value = f"node_{i % 97}: {i * 7919 % 1000}".partition(": ")
            counts[key] = counts.get(key, 0) + int(value)
            lines.append(f"{key}-{value}".upper())
        lines.sort()
        "\n".join(lines).split("\n")
    return time.process_time() - c0


def traced_once(corpus: Path, out_dir: Path, config: RunConfig, n_cases: int, errors: list[str]):
    """One traced pass: the runner stages one at a time, every layer boundary a span.

    The runner builds its gateway through `runner.build_gateway` and calls the
    operators through its own module names; for the length of the pass both
    are replaced with traced stand-ins, the way `tests/gen_fixtures.py`
    injects its recording gateway.
    """
    tracer = tracing.Tracer()
    backend = MockBackend(config.fixtures_dir) if config.backend == "mock" else HttpBackend(config.endpoint)
    gateway = tracing.TracedGateway(
        LlmGateway(
            tracing.TracedBackend(backend, tracer),
            model=config.model,
            cache_dir=config.cache_dir,
            retries=config.retries,
            backoff_seconds=config.backoff_seconds,
        ),
        tracer,
    )
    operators = {
        "convert": ("converter.convert", lambda a, k: a[0].case_id),
        "perturb": ("perturbation.perturb", lambda a, k: k.get("case_id")),
        "plan_outline": ("narrator.plan_outline", None),
        "generate": ("narrator.generate", lambda a, k: k.get("case_id")),
        "phi_mask": ("baselines.phi_mask", None),
        "sdc_rewrite": ("baselines.sdc_rewrite", None),
        "llm_only": ("baselines.llm_only", None),
        "run_eval": ("evaluation.run_eval", None),
    }
    originals = {attr: getattr(runner, attr) for attr in ("build_gateway", *operators)}
    runner.build_gateway = lambda _config: gateway
    for attr, (span_name, case_of) in operators.items():
        setattr(runner, attr, tracing.traced(tracer, span_name, originals[attr], case_of))
    failed = 0
    t0 = time.perf_counter()
    try:
        stages = [
            ("runner.convert", lambda: runner.run_convert(corpus, out_dir, config)),
            ("runner.perturb", lambda: runner.run_perturb(out_dir, config)),
            ("runner.generate", lambda: runner.run_generate(out_dir, config)),
        ] + [
            (f"runner.baseline.{name}", lambda name=name: runner.run_baseline(name, corpus, out_dir, config))
            for name in runner.BASELINE_NAMES
        ]
        for span_name, stage in stages:
            with tracer.stage(span_name):
                result = stage()
            failed += len(result.failed)
            errors.extend(f"{span_name} {k}: {v}" for k, v in result.failed.items())
        with tracer.stage("runner.eval"):
            failed += _eval_failures(out_dir, config, n_cases, errors)
    finally:
        for attr, fn in originals.items():
            setattr(runner, attr, fn)
    return time.perf_counter() - t0, failed, tracer, gateway.rendered


def _per_call_ms(fn, inputs: list) -> float:
    """Median over rounds of the mean time of `fn` on each input."""
    rounds = []
    spent = 0.0
    while len(rounds) < 3 or spent < MICROBENCH_SECONDS:
        t0 = time.perf_counter()
        for item in inputs:
            fn(item)
        elapsed = time.perf_counter() - t0
        spent += elapsed
        rounds.append(elapsed * 1000.0 / len(inputs))
    return statistics.median(rounds)


def microbenchmarks(out_dir: Path, rendered: list[tuple[str, dict]]) -> dict[str, float]:
    """Single-layer timings on this workload's own graphs, texts and prompts."""
    case_dirs = sorted(p for p in out_dir.iterdir() if p.is_dir())
    graph_texts = [(d / "graph.yaml").read_text(encoding="utf-8") for d in case_dirs]
    graphs = [parse_yaml(t) for t in graph_texts]
    perturbed = [parse_yaml((d / "graph.perturbed.yaml").read_text(encoding="utf-8")) for d in case_dirs]
    texts = [
        ((d / "original.txt").read_text(encoding="utf-8"), (d / "deid.txt").read_text(encoding="utf-8"))
        for d in case_dirs
    ]
    report = yaml.safe_load((out_dir / "report.yaml").read_text(encoding="utf-8"))
    labels = [
        (variant["predicted"], case["gold"])
        for case in report["cases"]
        for variant in case["variants"].values()
    ]
    embedder = HashedTfEmbedder()
    return {
        "yamlio.parse_ms": _per_call_ms(parse_yaml, graph_texts),
        "yamlio.serialize_ms": _per_call_ms(serialize_yaml, graphs),
        "model.validate_ms": _per_call_ms(validate_graph, graphs),
        "temporal.reconcile_ms": _per_call_ms(reconcile_node_intervals, graphs),
        "relations.check_consistency_ms": _per_call_ms(lambda gp: check_consistency(*gp), list(zip(graphs, perturbed))),
        "narrator.plan_outline_ms": _per_call_ms(plan_outline, perturbed),
        "prompts.render_ms": _per_call_ms(lambda tv: prompts.render(*tv), rendered),
        "evaluation.doc_similarity_ms": _per_call_ms(lambda ab: doc_similarity(*ab, embedder), texts),
        "evaluation.soft_f1_ms": _per_call_ms(lambda pg: soft_f1(*pg), labels),
    }


def write_spans(path: Path, spans: list[tracing.Span]) -> None:
    """The spans of one traced pass, one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for s in sorted(spans, key=lambda s: s.start):
            out.write(json.dumps(dataclasses.asdict(s)) + "\n")


def pin_to_one_cpu() -> None:
    """Keep the workflow's threads on one CPU.

    The `jobs` threads share one interpreter lock, so they never run Python on
    two CPUs at once. Spread over two virtual CPUs, a hand-over of the lock
    can wait for the host to schedule the other CPU. On one CPU it is a local
    context switch: in three paired `warm-rerun` runs on a 2-vCPU VM, the
    pinned worker used 12 to 29 % less CPU per case. The stub and
    `run.py` stay free to use either CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def stub_stats(spec: dict) -> dict | None:
    return fetch_stats(spec["endpoint"]) if spec.get("endpoint") else None


def main(spec_path: str) -> None:
    pin_to_one_cpu()
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    config = RunConfig(**spec["config"])
    corpus = Path(spec["corpus"])
    n_cases = spec["n_cases"]
    rerun = spec["rerun"]
    errors: list[str] = []
    passes, traced, digests, traced_digests = [], [], [], []
    last_traced = None  # (run directory, tracer, rendered prompts) of the latest traced pass

    def run_dir(i: int) -> Path:
        # A rerun workload writes into the same completed run directory each pass.
        return Path(spec["runs"]) if rerun else Path(spec["runs"]) / f"pass{i}"

    def one_pass(trace: bool) -> None:
        nonlocal last_traced
        out_dir = run_dir(len(passes) + len(traced))
        before = stub_stats(spec)
        if trace:
            wall, failed, tracer, rendered = traced_once(corpus, out_dir, config, n_cases, errors)
            last_traced = (out_dir, tracer, rendered)
            record = {
                "wall_s": wall,
                "failed": failed,
                "layers": tracing.summarize(tracer.spans, n_cases, prompts.list_templates()),
                "backend_s": sum(s.duration for s in tracer.spans if s.name == "backend.complete"),
            }
            traced.append(record)
            traced_digests.append(digest_tree(out_dir))
        else:
            record = run_once(corpus, out_dir, config, n_cases, errors)
            passes.append(record)
            digests.append(digest_tree(out_dir))
        if before is not None:
            after = stub_stats(spec)
            record["stub_requests"] = after["requests"] - before["requests"]
            record["stub_injected_ms"] = after["injected_ms"] - before["injected_ms"]
        if not rerun and not trace:
            shutil.rmtree(out_dir)

    # Traced runs alternate with untraced ones, so the tracing overhead is
    # measured under the same machine load.
    # Calibration samples follow every pass, in proportion to its length, so
    # they span the same time as the passes.
    started = time.perf_counter()
    calibration = []
    while not passes or (spec["trace"] and not traced) or time.perf_counter() - started < spec["seconds"]:
        pass_started = time.perf_counter()
        one_pass(trace=bool(spec["trace"]) and len(traced) < len(passes))
        budget_s = CALIBRATION_SHARE * (time.perf_counter() - pass_started)
        spent_s = 0.0
        while spent_s < budget_s:
            calibration.append(calibrate())
            spent_s += calibration[-1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "n_cases": n_cases,
        "passes": passes,
        "traced": traced,
        "digests": digests + traced_digests,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration,
        "attempted": COMMANDS_PER_CASE * n_cases * (len(passes) + len(traced)),
        "failed": sum(p["failed"] for p in passes + traced),
        "stub": stub_stats(spec),
    }
    if traced:
        layers = [t["layers"] for t in traced]
        result["layers"] = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        out_dir, tracer, rendered = last_traced
        result["layers"].update(microbenchmarks(out_dir, rendered))
        write_spans(Path(spec["spans"]), tracer.spans)
    result["errors"] = errors[:20]
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])

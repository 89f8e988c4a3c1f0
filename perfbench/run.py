"""anonpsy benchmark: one workload, timed, checked for correctness.

    python3 perfbench/run.py --workload live-sim --seed 42 --seconds 45 --trace 0

Run from the repository root. Workloads:

  offline-mock  MockBackend over fixtures recorded at set-up; CPU-bound.
  live-sim      HttpBackend against a stub model endpoint in its own process
                that replays recorded responses after a fixed latency.
  warm-rerun    the live-sim config with the gateway cache filled at set-up,
                rerun into the set-up's completed run directory.

The seed sets the replica corpus (N cases and which canned case each replica
copies) and the run seed. Set-up (recording, stub start, cache fill) runs
several times and its median is `setup_s`. Then a separate worker process,
the process under test, repeats the workflow (`anonpsy run`, the three
baselines, `anonpsy eval`) for --seconds. With --trace 1 traced passes
alternate with untraced ones, single-layer microbenchmarks follow, and the
per-layer metrics are reported instead of the end-to-end ones.

Every metric is printed by name with its unit; the last line is one JSON
object. The exit code is 1 when a correctness gate fails and 2 when the
benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("offline-mock", "live-sim", "warm-rerun")
JOBS = 2
LATENCY_MS = 20.0
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
GOLDEN_SEED = 42
GOLDEN_CASES = ("case_001", "case_002", "case_003")
GOLDEN_ARTIFACTS = ("graph.yaml", "graph.perturbed.yaml", "outline.yaml", "deid.txt", "perturb.audit.yaml")
MANIFEST = "run_manifest.yaml"
# Where a traced run leaves the spans of its last traced pass.
SPANS_DIR = ".perfbench_spans"
# Metrics a workload cannot measure: reported as 0 and listed as n/a.
NOT_APPLICABLE = {
    "offline-mock": {
        "gateway.http_overhead_ms": "no HTTP backend",
        "model_calls_per_case": "no model endpoint",
        "stub.requests": "no stub",
        "stub.max_inflight": "no stub",
    },
    "live-sim": {},
    "warm-rerun": {"gateway.http_overhead_ms": "every call is served from the cache"},
}


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="anonpsy benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_layout(root: Path) -> dict:
    """The metric list, once the program's sources are known to be here."""
    for needed in ("src/anonpsy/runner.py", "tests/synthesis.py", "tests/data/golden", "BENCHMARK.json"):
        if not (root / needed).exists():
            raise BenchError(f"{root / needed} not found: run from the root of an anonpsy checkout")
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def digest_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def without_manifest(digests: dict[str, str]) -> dict[str, str]:
    return {k: v for k, v in digests.items() if k != MANIFEST}


def spans_path(root: Path, args) -> Path:
    return root / SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"


def changed_files(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))[:10]


class Setup:
    """Everything one workload needs before timing starts, under `work`."""

    def __init__(self, workload: str, seed: int, work: Path, stack: ExitStack):
        import corpus
        from anonpsy.config import RunConfig
        from stub import StubProcess

        self.work = work
        self.recorded = corpus.record(work, seed)
        self.n_cases = len(self.recorded["plan"])
        self.endpoint = None
        self.runs = work / "runs"
        config = {"seed": seed, "jobs": JOBS}
        if workload == "offline-mock":
            config.update(backend="mock", fixtures_dir=str(work / "fixtures"))
        else:
            self.endpoint = stack.enter_context(StubProcess(work / "store.json", LATENCY_MS, work)).endpoint
            config.update(backend="live", endpoint=self.endpoint)
        if workload == "warm-rerun":
            corpus.fill_cache(work / "store.json", work / "cache")
            config["cache_dir"] = str(work / "cache")
            self.runs = work / "warm"
            # One job: a cache miss here would write the cache, and the
            # gateway's cache writes are not safe from two threads.
            results = corpus.run_workflow(work / "corpus", self.runs, RunConfig(**dict(config, jobs=1)))
            failed = {r.stage: r.failed for r in results if r.failed}
            if failed:
                raise RuntimeError(f"warm-rerun set-up run failed: {failed}")
        self.config = config


def correctness(args, root: Path, setup: Setup, result: dict, warm_digests: dict | None) -> list[str]:
    """Every gate that failed, as messages; empty when the outputs are correct."""
    problems = []
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} (case, command) pairs failed: {result['errors']}")
    first = warm_digests if warm_digests is not None else result["digests"][0]
    for i, digests in enumerate(result["digests"]):
        if digests != first:
            problems.append(f"pass {i} artifacts differ from the first: {changed_files(digests, first)}")
    reference = without_manifest(digest_tree(setup.work / "reference"))
    if without_manifest(first) != reference:
        problems.append(f"artifacts differ from the recording pass: {changed_files(without_manifest(first), reference)}")
    if args.seed == GOLDEN_SEED:
        golden = root / "tests" / "data" / "golden"
        for case_id in GOLDEN_CASES:
            for artifact in GOLDEN_ARTIFACTS:
                want = hashlib.sha256((golden / f"{case_id}.{artifact}").read_bytes()).hexdigest()
                if first.get(f"{case_id}/{artifact}") != want:
                    problems.append(f"{case_id}/{artifact} differs from tests/data/golden")
    stub = result["stub"]
    if stub is not None:
        if stub["max_inflight"] > JOBS:
            problems.append(f"stub saw {stub['max_inflight']} requests in flight with jobs={JOBS}")
        if stub["unknown"]:
            problems.append(f"stub answered {stub['unknown']} unknown prompts with 404")
    return problems


def end_to_end(result: dict, setup_times: list[float]) -> dict[str, float]:
    """CPU time per case in calibration loops (unit `cal`), peak RSS and set-up time.

    The host's speed drifts by up to 1.8x within minutes, and wall and CPU
    time drift with it. The mean CPU time of a pass is divided by the mean
    calibration sample of the same run (`worker.calibrate`), and the two
    means span the same time, so the drift cancels. Wall times are printed
    and reported by the traced run.
    """
    n = result["n_cases"]
    calibration_s = statistics.fmean(result["calibration_s"])

    def per_case_cal(key: str) -> float:
        return statistics.fmean(p[key] for p in result["passes"]) / calibration_s / n

    return {
        "cpu_cal_per_case": per_case_cal("cpu_s"),
        "run_cpu_cal_per_case": per_case_cal("run_cpu_s"),
        "eval_cpu_cal_per_case": per_case_cal("eval_cpu_s"),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
    }


def wall_times(result: dict) -> dict[str, float]:
    """Medians over the untraced passes, as measured; they drift with the host."""
    n = result["n_cases"]
    passes = result["passes"]

    def per_case_ms(key: str) -> float:
        return statistics.median(p[key] for p in passes) * 1000.0 / n

    return {
        "cases_per_s": statistics.median(n / p["wall_s"] for p in passes),
        "run_ms_per_case": per_case_ms("run_s"),
        "baselines_ms_per_case": per_case_ms("baselines_s"),
        "eval_ms_per_case": per_case_ms("eval_s"),
        "cpu_ms_per_case": per_case_ms("cpu_s"),
        "calibration_ms": statistics.fmean(result["calibration_s"]) * 1000.0,
    }


def stub_metrics(result: dict) -> dict[str, float]:
    """Requests that reached the stub during the untraced passes."""
    if result["stub"] is None:
        return {"stub.requests": 0.0, "stub.max_inflight": 0.0, "model_calls_per_case": 0.0}
    requests = sum(p["stub_requests"] for p in result["passes"])
    return {
        "stub.requests": float(requests),
        "stub.max_inflight": float(result["stub"]["max_inflight"]),
        "model_calls_per_case": requests / (len(result["passes"]) * result["n_cases"]),
    }


def per_layer(result: dict, setup: Setup) -> dict[str, float]:
    n = result["n_cases"]
    traced = result["traced"]
    metrics = dict(result["layers"])
    metrics.update(stub_metrics(result))
    metrics.update(wall_times(result))
    recorded = setup.recorded
    metrics["gateway.shared_prompt_share"] = (recorded["calls"] - recorded["distinct_prompts"]) / recorded["calls"]
    untraced_s = statistics.median(p["wall_s"] for p in result["passes"])
    metrics["trace.overhead_ms_per_case"] = (statistics.median(t["wall_s"] for t in traced) - untraced_s) * 1000.0 / n
    requests = sum(t.get("stub_requests", 0) for t in traced)
    metrics["gateway.http_overhead_ms"] = 0.0
    if requests:
        # Client-observed backend time minus the latency the stub injected.
        injected_s = sum(t["stub_injected_ms"] for t in traced) / 1000.0
        metrics["gateway.http_overhead_ms"] = (sum(t["backend_s"] for t in traced) - injected_s) * 1000.0 / requests
    return metrics


def run_worker(root: Path, spec: dict, work: Path) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root), str(BENCH_DIR)]))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
        cwd=root,
        env=env,
        timeout=WORKER_TIMEOUT_S,
        stdin=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def measure(args, root: Path, work_root: Path) -> tuple[Setup, list[float], dict, list[str]]:
    import corpus  # noqa: F401  (imports the program before set-up is timed)

    with ExitStack() as stack:
        setup_times = []
        for i in range(SETUP_REPEATS):
            with ExitStack() as trial:
                t0 = time.perf_counter()
                setup = Setup(args.workload, args.seed, work_root / f"setup{i}", trial)
                setup_times.append(time.perf_counter() - t0)
                if i == SETUP_REPEATS - 1:
                    stack.enter_context(trial.pop_all())  # the last set-up's stub serves the runs
            if i < SETUP_REPEATS - 1:
                shutil.rmtree(setup.work)
        warm_digests = digest_tree(setup.runs) if args.workload == "warm-rerun" else None
        spec = {
            "config": setup.config,
            "corpus": str(setup.work / "corpus"),
            "runs": str(setup.runs),
            "rerun": args.workload == "warm-rerun",
            "n_cases": setup.n_cases,
            "seconds": args.seconds,
            "trace": args.trace,
            "endpoint": setup.endpoint,
            "result": str(setup.work / "result.json"),
            "spans": str(spans_path(root, args)),
        }
        result = run_worker(root, spec, setup.work)
        problems = correctness(args, root, setup, result, warm_digests)
    return setup, setup_times, result, problems


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        bench = check_layout(root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # A terminated benchmark still stops its stub and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[:0] = [str(root / "src"), str(root), str(BENCH_DIR)]
    work_root = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup, setup_times, result, problems = measure(args, root, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    if args.trace:
        metrics, specs = per_layer(result, setup), bench["per_layer"]
    else:
        metrics, specs = end_to_end(result, setup_times), bench["end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    units = {s["name"]: s["unit"] for s in bench["end_to_end"] + bench["per_layer"]}
    shown = dict(metrics)
    shown["failed_share"] = result["failed"] / result["attempted"]
    # Hypervisor steal during the untraced passes, all CPUs: a high share marks a disturbed run.
    shown["steal_share"] = sum(p["steal_s"] for p in result["passes"]) / sum(p["wall_s"] for p in result["passes"])
    if not args.trace:
        shown.update(stub_metrics(result))
        shown.update(wall_times(result))
    print(f"workload {args.workload}  seed {args.seed}  cases {result['n_cases']}  passes {len(result['passes'])}")
    print(f"artifacts {hashlib.sha256(json.dumps(sorted(without_manifest(result['digests'][0]).items())).encode()).hexdigest()}")
    for name, value in sorted(shown.items()):
        print(f"  {name:<40} {value} {units.get(name, '')}")
    print(f"  setup_s.all {setup_times}")
    for key in ("wall_s", "run_s", "baselines_s", "eval_s", "cpu_s", "steal_s"):
        print(f"  passes.{key} {[p[key] for p in result['passes']]}")
    print(f"  calibration_s {result['calibration_s']}")
    if args.trace:
        print(f"  spans of the last traced pass: {spans_path(root, args).relative_to(root)}")
    for name, why in sorted(NOT_APPLICABLE[args.workload].items()):
        print(f"  n/a on {args.workload}: {name} ({why})")
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs if s["name"] in metrics},
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

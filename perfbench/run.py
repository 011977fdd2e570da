"""cascadet benchmark: one command, two workloads, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload clip640 --seed 0 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` prints the per-layer metrics from a separate traced run. The
package is imported from ``src/`` of the same checkout; nothing is
installed, wrapped or patched.

Each run:

1. writes the fixture weight archives into a scratch directory inside the
   checkout (removed at exit);
2. runs the workload pass in a fresh process (``worker.py``) with one BLAS
   thread, which warms up on one frame, measures for ``--seconds`` and
   checks every output;
3. times cold set-up eleven times, each in a fresh process
   (``setup_probe.py``), half before the workload pass and half after it,
   so that the median does not hang on one moment of a shared host;
4. compares each frame's funnel counts and output digests with those that
   earlier runs in this checkout recorded under ``.perfbench-state/``;
5. writes provenance and every raw value to ``.perfbench-results/``;
6. prints each metric with its unit, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

It exits 1 when any check fails and 2 when the checkout has no package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from inputs import WORKLOADS
from tracing import tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
CHILD_BUDGET_S = 170  # every child ends within this, so a run ends in 180 s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


# One BLAS thread per process: the benchmark gets a couple of cores of a
# shared host, and a matrix product split over two threads waits for the
# slower one whenever a core is busy elsewhere.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], env: dict, deadline: float) -> str:
    """Run a Python child to completion; its stdout, or RuntimeError.
    The child is killed at ``deadline`` (a ``time.monotonic`` value)."""
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{args[0]} did not finish within {timeout:.0f} s")
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def check_store(workload: str, digests: dict) -> dict[str, str]:
    """Compare this run's per-frame digests with earlier runs' and add the
    new ones. A frame seen before must give the same funnel and outputs.
    Returns one problem per failing frame."""
    store_dir = ROOT / ".perfbench-state"
    store_dir.mkdir(exist_ok=True)
    path = store_dir / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    problems = {}
    for frame_seed, entry in digests.items():
        known = store.setdefault(f"{workload}/{frame_seed}", {})
        for field, value in entry.items():
            if field in known and known[field] != value:
                problems.setdefault(
                    f"frame{frame_seed}",
                    f"frame {frame_seed}: {field} differs from an earlier run "
                    f"({known[field]} != {value})")
            known.setdefault(field, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, path)
    return problems


def provenance(args, report: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": report["numpy"],
            "blas_env": report["blas_env"], "commit": commit,
            "unix_time": time.time()}


def end_to_end(report: dict, probes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values, plus latency percentiles as notes.

    Throughput is frames over the summed wall time of the measured calls, a
    mean over the whole run. Call latency percentiles are reported but not
    declared as metrics: on a shared host a run's median call moves about
    1.4 times as much from run to run as its mean does.
    """
    latencies = report["latencies_s"]
    percentile, tail = tail_percentile(latencies)
    values = {
        "frames_per_s": report["frames"] / report["wall_s"],
        "setup_s": statistics.median([p["load_s"] + p["bind_s"] for p in probes]),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }
    notes = {"latency_unit": report["latency_unit"],
             "latency_samples": len(latencies),
             "latency_p50_s": statistics.median(latencies),
             "latency_tail_s": tail,
             "tail_percentile": percentile}
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cascadet" / "__init__.py").is_file():
        print(f"no cascadet package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    from cascadet import fixtures, weights

    env = child_env(src)
    deadline = time.monotonic() + CHILD_BUDGET_S
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-work-",
                                         dir=ROOT) as work:
            work = Path(work)
            cascade, clf = work / "cascade.cwts", work / "classifier.cwts"
            weights.save(fixtures.fixture_cascade_archive(), cascade)
            weights.save(fixtures.fixture_classifier_archive(), clf)

            def probe() -> dict:
                return json.loads(run_child(
                    [str(HERE / "setup_probe.py"), str(cascade), str(clf)],
                    env, deadline))

            probes = [probe() for _ in range(SETUP_PROBES // 2)]
            spec = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "work_dir": str(work), "cascade_weights": str(cascade),
                    "classifier_weights": str(clf)}
            (work / "spec.json").write_text(json.dumps(spec))
            run_child([str(HERE / "worker.py"), str(work / "spec.json"),
                       str(work / "report.json")], env, deadline)
            report = json.loads((work / "report.json").read_text())
            probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    failures = dict(report["failures"])
    for op, problem in check_store(args.workload, report["digests"]).items():
        failures.setdefault(op, problem)
    # Failures are keyed by operation (a frame, a call or a traced pass), so
    # each counts once; the count cannot exceed the operations attempted.
    failed = min(len(failures), report["attempted"])
    if args.trace:
        metrics = dict(report["per_layer"])
        metrics["weights.load_s"] = statistics.median([p["load_s"] for p in probes])
        metrics["weights.bind_s"] = statistics.median([p["bind_s"] for p in probes])
        notes = {"computed_not_measured":
                 "tensor.*.gmac, tensor.*.act_mb (from layer specs and batch "
                 "shapes); tensor.*.gmac_per_s divides them by measured time"}
        declared = bench["per_layer"]
    else:
        metrics, notes = end_to_end(report, probes)
        declared = bench["end_to_end"]
    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        print(f"metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1

    result = {
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    results_dir = ROOT / ".perfbench-results"
    results_dir.mkdir(exist_ok=True)
    notes["failed_share"] = failed / report["attempted"]
    record = {"provenance": provenance(args, report), "result": result,
              "notes": notes, "failures": failures, "setup_probes": probes,
              "raw": {key: report.get(key) for key in (
                  "calls", "latencies_s", "warmup_s", "per_layer_raw",
                  "peak_rss_kb")}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1))

    for m in declared:
        print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for problem in failures.values():
        print(f"# FAILED: {problem}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""clonebench benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload qubit-large-m --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the program is imported from ./src.
A run builds the workload's invocation list from the seed, times set-up in
fresh interpreters, then runs the list in one worker process (a closed loop
with one client, CLONEBENCH_WORKERS unset, so rows are computed serially),
checks every invocation's output against refs.json, and prints a summary line
and, last, the JSON result. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ones. `--self-test` runs every workload once at
minimal length in both modes and fails unless every metric is printed and no
invocation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import Checker  # noqa: E402
from workloads import WORKLOADS, argv, plan  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_COMMAND = ("import sys; from clonebench.cli import main; "
                 "sys.exit(main(['clone-fidelity', '--n', '1', '--m', '3']))")
# A run must end within 180 s; the worker gets what set-up leaves of that.
WORKER_TIMEOUT_S = 150
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
TIME_LAYERS = {
    "optimize.matvec": ("optimize.matvec",),
    "optimize.eig": ("optimize.optimal_prepared_state",),
    "optimize.form": ("optimize.build_quadratic_form",),
    "equatorial.density": ("equatorial.outcome_density_fourier",),
    "equatorial.mp": ("equatorial.mp_fidelity_exact",),
    "equatorial.clone": ("equatorial.clone_fidelity_exact",),
    "entangled.mp": ("entangled.mp_fidelity_exact_ent",),
    "entangled.clone": ("entangled.eco_clone_fidelity_exact",),
    "spin.weights": ("spin.",),
    "quadrature.phase": ("quadrature.phase_quadrature_fidelity",),
    "quadrature.su2": ("quadrature.su2_quadrature_fidelity_ent",),
    "quadrature.char4": ("quadrature.weyl_quadrature_char4",),
    "report.sweep_self": ("report.run_sweep",),
    "report.serialize": ("report.serialize_report", "report.serialize_appendix"),
    "cli.self": ("cli.main",),
}
COUNTED_LAYERS = ("optimize.matvec", "optimize.eig", "equatorial.density", "equatorial.mp",
                  "entangled.mp", "spin.weights", "quadrature.char4")


def env() -> dict:
    """The program's environment: rows computed serially, BLAS on one thread.

    On two shared CPUs the OpenBLAS thread hand-off alone made oracle-check
    take 1.1 s or 1.5 s from one run to the next.
    """
    out = {key: value for key, value in os.environ.items() if key != "CLONEBENCH_WORKERS"}
    out.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return out


def setup_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter running one trivial command."""
    command = [sys.executable, "-c", SETUP_COMMAND]
    subprocess.run(command, cwd=ROOT, env=env(), check=True, stdout=subprocess.DEVNULL)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=env(), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_ms(repeats: int) -> dict[str, float]:
    """Import time of numpy, scipy and clonebench itself, from -X importtime.

    Each module's self time goes to the innermost of the three packages that
    (transitively) imported it, so the stdlib modules numpy pulls in count for
    numpy, and numpy does not count for clonebench.
    """
    runs = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import clonebench.cli"],
                              cwd=ROOT, env=env(), check=True, capture_output=True, text=True)
        lines = [line.split("|") for line in done.stderr.splitlines()
                 if line.startswith("import time:") and "imported package" not in line]
        spent = {"numpy": 0.0, "scipy": 0.0, "clonebench": 0.0}
        owners: list[str | None] = []
        for self_us, _, name in reversed(lines):
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            package = name.strip().split(".")[0]
            del owners[depth:]
            owner = package if package in spent else (owners[-1] if owners else None)
            owners.append(owner)
            if owner:
                spent[owner] += int(self_us.split(":")[1]) / 1000.0
        runs.append(spent)
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def run_worker(argvs: list, seconds: float, trace: int, spans_path: Path) -> dict:
    job = {"argvs": argvs, "seconds": seconds, "trace": trace, "spans_path": str(spans_path)}
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                              cwd=ROOT, env=env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"worker exited with status {done.returncode}")
    result = json.loads(done.stdout)
    if Path(result["clonebench"]).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"clonebench was imported from {result['clonebench']}, not {SRC}")
    return result


def median_calls(passes: list[list[float]]) -> list[float]:
    """Each invocation's median latency over the passes, in ms.

    On a shared machine the CPU switches for seconds at a time between a
    normal and a ~1.6x faster state. A minimum over a few passes lands in
    one state or the other from run to run; a median stays in the usual one.
    """
    return [statistics.median(calls) for calls in zip(*passes)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: int, quick: bool = False) -> dict:
    specs = plan(workload, seed)
    argvs = [argv(spec) for spec in specs]
    checker = Checker(json.loads((HERE / "refs.json").read_text()))
    STATE.mkdir(exist_ok=True)
    spans_path = STATE / f"spans-{workload}.tsv"
    if not trace:
        setup_s = setup_seconds(1 if quick else SETUP_REPEATS)
    else:
        imports = import_ms(1 if quick else IMPORT_REPEATS)
    result = run_worker(argvs, seconds, trace, spans_path)

    failures = []
    eig_errors = []
    for index, code, text in result["outputs"]:
        problem = checker.check(specs[index], code, text)
        if problem:
            failures.append(f"{' '.join(argvs[index])}: {problem}")
        elif trace:
            eig_errors += checker.eig_errors(specs[index], text)
    attempted, failed = len(result["outputs"]), len(failures)
    for line in failures[:5]:
        sys.stderr.write(f"FAILED {line}\n")

    untraced = result["untraced"]
    wall_s = sum(median_calls(untraced)) / 1000.0
    latencies = [ms for latencies_of_pass in untraced for ms in latencies_of_pass]
    percentile, tail_ms = tail(latencies)
    summary = (f"workload={workload} seed={seed} invocations/pass={len(argvs)} "
               f"passes={len(untraced)} failed_ratio={failed}/{attempted}={failed / attempted:.4g}")
    if not trace:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "cmd_ms_p50": metric(statistics.median(latencies), "ms"),
            "cmd_ms_tail": metric(tail_ms, "ms"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
        summary += f" cmd_ms_tail=p{percentile:.2f} of {len(latencies)} samples"
    else:
        traced = result["traced"]
        passes = len(traced)
        totals = result["layers"]
        metrics = {}
        for layer, prefixes in TIME_LAYERS.items():
            chosen = [v for name, v in totals.items() if name.startswith(prefixes)]
            metrics[f"{layer}_ms"] = metric(sum(v[2] for v in chosen) * 1000.0 / passes, "ms")
            if layer in COUNTED_LAYERS:
                metrics[f"{layer}_calls"] = metric(sum(v[0] for v in chosen) / passes, "count")
        kernel = result["kernel"]
        metrics["optimize.kernel_dim"] = metric(kernel["dim"] / passes, "count")
        metrics["optimize.kernel_live_fraction"] = metric(
            kernel["live"] / kernel["dim"] if kernel["dim"] else 0.0, "ratio")
        metrics["optimize.kernel_subnormal"] = metric(kernel["subnormal"] / passes, "count")
        metrics["optimize.eig_rel_err"] = metric(max(eig_errors, default=0.0), "ratio")
        for package, ms in imports.items():
            metrics[f"setup.import_{package}_ms"] = metric(ms, "ms")
        traced_wall = sum(median_calls(traced)) / 1000.0
        metrics["trace.overhead_ratio"] = metric(traced_wall / wall_s, "ratio")
        summary += f" traced_passes={passes} spans={spans_path.relative_to(ROOT)}"
    print(f"perfbench: {summary}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_test() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = run(workload, seed=0, seconds=0, trace=trace, quick=True)
            want = {m["name"] for m in spec[group]}
            missing = want - set(out["metrics"])
            bad = [n for n, m in out["metrics"].items() if not math.isfinite(m["value"])]
            ok = not missing and not bad and out["failed"] == 0
            status |= not ok
            print(f"self-test {workload} trace={trace}: {'ok' if ok else 'FAIL'}"
                  f" failed={out['failed']}/{out['attempted']} missing={sorted(missing)}"
                  f" not-finite={bad}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (SRC / "clonebench" / "cli.py").is_file():
        sys.stderr.write(f"no clonebench sources under {SRC}; run from a source checkout\n")
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end tuning benchmark of the ARTEMIS reproduction.

Run from the root of a checkout::

    python benchmarks/e2e/run.py --workload W [--seed S] [--seconds N]
                                 [--trace [0|1]] [--json OUT]
    python benchmarks/e2e/run.py [--seed S] [--json OUT]   # every workload
    python benchmarks/e2e/run.py --compare A.jsonl B.jsonl [--json OUT]
    python benchmarks/e2e/run.py --write-expected

A run first times set-up (``import repro.cli`` in fresh interpreters),
then starts ``workload.py`` in its own interpreter to measure the
workload.  It prints every metric with its unit and, as its last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics of ``BENCHMARK.json`` (or, with ``--trace 1``,
its per-layer metrics).  The exit status is 1 when a job's outcome
differs from ``expected.json``, 2 when the checkout cannot be run.
``--json OUT`` appends the full run record to OUT, the set format
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import compare  # noqa: E402
from spans import import_times  # noqa: E402
from speed import pin_to_one_cpu, timed  # noqa: E402

#: Fresh-interpreter imports whose median is ``setup_s``.
SETUP_SAMPLES = 5
#: ``-X importtime`` runs whose median gives the ``import.*`` metrics.
IMPORTTIME_SAMPLES = 3
#: A run must end within 180 s; the workload process gets what is left.
RUN_DEADLINE_S = 170.0


class CheckoutError(Exception):
    """The current directory is not a checkout this benchmark can run."""


def load_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise CheckoutError(f"{path} does not exist")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts.

    The hash seed is pinned so winners are bit-identical across
    processes, and bytecode is never written, so each import compiles
    the same sources and the checkout is left as it was found.
    """
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"{src} holds no repro package to benchmark")
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1"
    )
    return env


def setup_samples(env: dict, count: int = SETUP_SAMPLES) -> list:
    """Timed samples (``speed.timed``) of fresh ``import repro.cli`` runs."""

    def importing():
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=env, check=True
        )
        return perf_counter() - start, None

    return [timed(importing, children=True)[1] for _ in range(count)]


def run_child(cmd: list, env: dict, timeout: float) -> None:
    """Run ``cmd`` in its own process group; kill the group on any exit.

    The group holds the workload process and every CLI process it
    starts, so a timeout or a termination of this process leaves none
    of them running.
    """
    child = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        if child.wait(timeout=timeout) != 0:
            raise subprocess.CalledProcessError(child.returncode, cmd)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up samples plus one workload process; the full run record."""
    env = child_env(root)
    started = perf_counter()
    setup = setup_samples(env)
    imports = import_times(env, IMPORTTIME_SAMPLES) if trace else None
    scratch = root / ".e2e_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        out = work / "result.json"
        run_child(
            [
                sys.executable, str(HERE / "workload.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
                "--out", str(out), "--work", str(work),
            ],
            env,
            RUN_DEADLINE_S - (perf_counter() - started),
        )
        record = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's scratch directory is still in use
    return complete(record, trace, setup, imports)


def complete(record: dict, trace: bool, setup: list, imports) -> dict:
    """Add the set-up samples and import breakdown to a workload record."""
    record["trace"] = trace
    record["setup_samples"] = setup
    record["metrics"]["setup_s"] = statistics.median(s["s"] for s in setup)
    if imports is not None:
        imports = dict(imports)
        record["layers"]["import.total_ms"] = imports.pop("total")
        for module, ms in imports.items():
            record["layers"][f"import.{module}_ms"] = ms
    return record


def result_line(spec: dict, record: dict) -> dict:
    """The contract's last output line for one run record."""
    if record["trace"]:
        declared, values = spec["per_layer"], record["layers"]
    else:
        declared, values = spec["end_to_end"], record["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"run emitted no value for {', '.join(missing)}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def report(record: dict, line: dict) -> None:
    print(
        f"== {record['workload']} (seed {record['seed']}): {record['rounds']} "
        f"round(s), {record['jobs']} timed job(s), tail at "
        f"p{record['job_tail_percentile']:.1f}"
    )
    for name, metric in line["metrics"].items():
        print(f"   {name:40s} {metric['value']:14.6f} {metric['unit']}")
    for problem in record["problems"]:
        print(f"   WRONG: {problem}")
    if record.get("trace_file"):
        print(f"   trace: {record['trace_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end tuning benchmark (see README.md)."
    )
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="run length (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="traced run: report the per-layer metrics and write "
             "trace-<workload>.json",
    )
    parser.add_argument(
        "--json", metavar="OUT",
        help="append the run record to OUT (with --compare: write the "
             "comparison summary)",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument(
        "--write-expected", action="store_true",
        help="re-record expected.json from this checkout's winners",
    )
    args = parser.parse_args(argv)
    root = Path.cwd()
    # Termination unwinds through run_child, which kills the workload.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()
    try:
        spec = load_spec(root)
        if args.compare:
            rows, summary, ok = compare(spec, *args.compare)
            print("\n".join(rows))
            if args.json:
                Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
            return 0 if ok else 1
        if args.write_expected:
            env = child_env(root)
            with tempfile.TemporaryDirectory(dir=root) as work:
                subprocess.run(
                    [
                        sys.executable, str(HERE / "workload.py"),
                        "--write-expected", str(HERE / "expected.json"),
                        "--work", work,
                    ],
                    env=env,
                    check=True,
                )
            return 0
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        correct = True
        for name in [args.workload] if args.workload else names:
            record = run_workload(root, name, args.seed, seconds, bool(args.trace))
            line = result_line(spec, record)
            if args.json:
                with open(args.json, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
            report(record, line)
            print(json.dumps(line))
            correct = correct and line["correct"]
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""qfsp benchmark: one workload, one process, seeded inputs.

Run from the repository root:

    python3 perfbench/run.py --workload families --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  The lines before it print the machine and every metric with its
unit.  See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from types import SimpleNamespace

# BLAS runs on one thread.  On a 2-core machine OpenBLAS's default pool of
# two threads made the small dense operations of these workloads slower and
# noisier.  This must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import COMMANDS, WORKLOADS, Ops  # noqa: E402

QFSP_MODULES = ("cli", "serialize", "phase_space", "linalg", "quasifree", "fock",
                "sp_algebra", "implementers", "classifier", "modular")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qfsp.cli; "
                "print(time.perf_counter() - t)")



class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, no qfsp sources)."""


def import_qfsp() -> SimpleNamespace:
    """Import qfsp from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "qfsp", "__init__.py")):
        raise BenchmarkError(f"no qfsp sources under {SRC}")
    sys.path.insert(0, SRC)
    import importlib

    pkg = importlib.import_module("qfsp")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise BenchmarkError(f"qfsp imported from {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"qfsp.{name}") for name in QFSP_MODULES}
    return SimpleNamespace(package=pkg, **mods)


def time_fresh_import(probe: SpeedProbe) -> float:
    """Seconds to import qfsp.cli in a fresh interpreter (what each CLI call pays)."""
    probe.maybe_sample()
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads() -> str:
    """OpenBLAS thread count from the loaded library, else the env setting."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(q, run_pass, inputs, seconds: float, tracer=None, probe=None):
    """Closed loop of full passes; a new pass starts while time is left."""
    walls, per_command, records = [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        ops = Ops(tracer=tracer, between_ops=probe and probe.maybe_sample)
        t0 = perf_counter()
        run_pass(q, inputs, ops)
        walls.append(perf_counter() - t0 - ops.between_ops_s)
        per_command.append({c: sum(r.seconds for r in ops.records if r.command == c)
                            for c in COMMANDS})
        records.extend(ops.records)
    return {"walls": walls, "per_command": per_command, "records": records}


def command_metrics(loop: dict, blocks_per_pass: int) -> dict:
    """Median per-pass wall time of each command, and classifier throughput."""
    out = {f"cmd.{c}_s": statistics.median(p[c] for p in loop["per_command"])
           for c in COMMANDS}
    classify = out["cmd.classify_s"]
    out["cmd.classify_blocks_per_s"] = blocks_per_pass / classify if classify else 0.0
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    setup, run_pass = WORKLOADS[workload]
    q = import_qfsp()
    # set-up is timed only where it is reported: in full-size untraced runs
    timed_setup = not (smoke or trace)
    probe = SpeedProbe()
    if timed_setup:
        import_s = statistics.median(time_fresh_import(probe)
                                     for _ in range(SETUP_REPEATS))
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT)
    try:
        gen = []
        for _ in range(SETUP_REPEATS if timed_setup else 1):
            probe.maybe_sample()
            t0 = perf_counter()
            inputs = setup(q, seed, workdir, smoke=smoke)
            gen.append(perf_counter() - t0)
        machine = machine_info()
        if not trace:
            loop = run_passes(q, run_pass, inputs, seconds, probe=probe)
            raw = {
                "setup_s": (import_s if timed_setup else 0.0) + statistics.median(gen),
                "wall_s": statistics.median(loop["walls"]),
            }
            # seconds at the reference machine speed (see speed.py)
            metrics = {name: value * probe.factor() for name, value in raw.items()}
            extra = {f"raw.{name}": value for name, value in raw.items()}
            extra["speed.kernel_s"] = probe.kernel_s()
            extra.update(command_metrics(loop, inputs.get("blocks_per_pass", 0)))
            extra["peak_rss_mb"] = peak_rss_mb()
            records = loop["records"]
            passes = len(loop["walls"])
        else:
            plain = run_passes(q, run_pass, inputs, seconds / 2)
            plain_rss_mb = peak_rss_mb()
            tracer = Tracer({"qfsp": q.package, **{m: getattr(q, m) for m in QFSP_MODULES}})
            tracer.install()
            try:
                traced = run_passes(q, run_pass, inputs, seconds / 2, tracer=tracer)
            finally:
                tracer.uninstall()
            passes = len(traced["walls"])
            metrics = tracer.layer_metrics(passes)
            untraced_wall = statistics.median(plain["walls"])
            metrics["trace_overhead_frac"] = (
                statistics.median(traced["walls"]) - untraced_wall) / untraced_wall
            metrics.update(command_metrics(plain, inputs.get("blocks_per_pass", 0)))
            metrics["peak_rss_mb"] = plain_rss_mb
            extra = {}
            records = plain["records"] + traced["records"]
            tracer.save_spans(os.path.join(OUT, f"spans-{workload}-seed{seed}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in records if r.problem]
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
        "extra": extra,
        "machine": machine,
        "passes": passes,
        "problems": sorted({f"{r.command}: {r.problem}" for r in failed}),
    }


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    units = declared_units(bool(args.trace))
    if set(units) != set(result["metrics"]):
        sys.stderr.write("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(result['metrics']))}\n")
        return 3
    units.update(declared_units(True))  # the cmd.* lines of an untraced run
    units.update({"raw.setup_s": "s", "raw.wall_s": "s", "speed.kernel_s": "s"})
    attempted, failed = result["attempted"], result["failed"]
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {result['passes']} attempted {attempted} failed {failed} "
          f"failed_frac {failed / attempted:.6g}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    shown = {**result["metrics"], **result["extra"]}
    for name, value in shown.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Layered benchmark for ``leavitt``: end-to-end runs, traced runs, repeats.

Run from the root of a checkout (the program is imported from ``src``):

    python3 benches/run.py --workload families --seed 1 --seconds 20 --trace 0
    python3 benches/run.py --workload census --seed 1 --seconds 20 --trace 1
    python3 benches/run.py --repeat 10 --seconds 20      # medians and quartiles
    python3 benches/run.py --census-totals               # recompute the golden totals

One caller drives the program in a closed loop: each operation starts when
the previous one ends.  The program runs in child processes that load only
``leavitt`` (``worker.py``, or one ``lpa`` process per command for ``cli``),
so their peak memory is the program's; this process loads the oracle
libraries and checks the outputs after the children have ended.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads  # next to this file, so on the path when run as a script

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 7    # fresh processes per run; setup_s is their median
IMPORT_SAMPLES = 9   # pairs of bare and importing interpreters for cli.import_ms
CHILD_TIMEOUT = 150  # seconds; a run must end within 180


class BenchError(Exception):
    pass


def program_env(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "leavitt", "__init__.py")):
        raise BenchError(f"no program source at {src}/leavitt: run from the root of a checkout")
    return dict(os.environ, PYTHONPATH=src)


def worker_cmd(workload, seed, mode, seconds=0.0):
    return [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode]


def setup_seconds(workload, seed, env, root):
    """Median time for a fresh process to import leavitt and build the inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = workloads.reference_seconds()
        t0 = time.perf_counter()
        with subprocess.Popen(worker_cmd(workload, seed, "setup"), stdout=subprocess.PIPE,
                              env=env, cwd=root) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=CHILD_TIMEOUT)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if code != 0 or line.strip() != b"READY":
            raise BenchError(f"set-up of {workload} failed")
        samples.append(workloads.nominal(elapsed, before, workloads.reference_seconds()))
    return statistics.median(samples)


def run_worker(workload, seed, seconds, mode, env, root):
    proc = subprocess.run(worker_cmd(workload, seed, mode, seconds), capture_output=True,
                          env=env, cwd=root, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def lpa_ops(seed, env, root, directory):
    """``lpa`` processes as (call, serialize) pairs for the shared loop."""
    def command(op):
        argv = [sys.executable, "-m", "leavitt.cli", *(a.replace("{dir}", directory) for a in op["argv"])]

        def call():
            proc = subprocess.run(argv, capture_output=True, env=env, cwd=root, timeout=CHILD_TIMEOUT)
            if proc.returncode != 0:
                raise RuntimeError(proc.stderr.decode()[-500:])
            return proc.stdout.decode()
        return call, lambda r: r
    return [command(op) for op in workloads.operations("cli", seed)]


def run_lpa(seed, seconds, env, root):
    directory = workloads.write_cli_files(seed, root)
    try:
        ops = lpa_ops(seed, env, root, directory)
        outputs, failures = workloads.check_round(ops)
        timed = workloads.summary(workloads.timed_rounds(ops, outputs, seconds=seconds, reference_each_op=True))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"outputs": outputs, "check_failures": failures, "timed": timed}


def import_ms(env, root):
    """Median fresh ``import leavitt`` minus median bare interpreter start, in ms."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, samples in (("pass", bare), ("import leavitt", full)):
            before = workloads.reference_seconds()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True, timeout=CHILD_TIMEOUT)
            elapsed = time.perf_counter() - t0
            samples.append(workloads.nominal(elapsed, before, workloads.reference_seconds()))
    return (statistics.median(full) - statistics.median(bare)) * 1e3


# Per-layer metric -> (source in the worker's summary, span or counter name, unit).
LAYER_METRICS = {
    "graphs.self_ms": ("self", "graphs", "ms"),
    "graphs.condition_k.ms": ("total", "graphs.condition_k", "ms"),
    "graphs.classify_vertex.calls": ("calls", "graphs.classify_vertex", "count"),
    "graphs.classify_vertex.ms": ("total", "graphs.classify_vertex", "ms"),
    "graphs.hs_sets.ms": ("total", "graphs.all_hereditary_saturated_sets", "ms"),
    "graphs.hs_sets.found": ("counter", "graphs.hs_sets.found", "count"),
    "graphs.closure.calls": ("calls", "graphs.hereditary_saturated_closure", "count"),
    "graphs.closure.ms": ("total", "graphs.hereditary_saturated_closure", "ms"),
    "graphs.k1_cycles.ms": ("total", "graphs.k1_cycles", "ms"),
    "elements.self_ms": ("self", "elements", "ms"),
    "elements.mul.calls": ("calls", "elements.mul", "count"),
    "elements.mul.ms": ("total", "elements.mul", "ms"),
    "elements.mul.terms_out": ("counter", "elements.mul.terms_out", "count"),
    "elements.parse.ms": ("total", "elements.parse_element", "ms"),
    "elements.normalize.ms": ("total", "elements.normalize", "ms"),
    "elements.format.ms": ("total", "elements.format_element", "ms"),
    "ideals.self_ms": ("self", "ideals", "ms"),
    "ideals.extract.ms": ("total", "ideals.extract_vertex", "ms"),
    "ideals.extract.factors": ("counter", "ideals.extract.factors", "count"),
    "ideals.lambda_reduce.ms": ("total", "ideals.lambda_reduce", "ms"),
    "ideals.contains.ms": ("total", "ideals.contains", "ms"),
    "ideals.graded_lattice.ms": ("total", "ideals.graded_lattice", "ms"),
    "polynomials.self_ms": ("self", "polynomials", "ms"),
    "polynomials.gcd.calls": ("calls", "polynomials.QPoly.gcd", "count"),
    "twovertex.self_ms": ("self", "twovertex", "ms"),
    "twovertex.classify.ms": ("total", "twovertex.classify", "ms"),
    "twovertex.build_skeleton.ms": ("total", "twovertex.build_skeleton", "ms"),
    "twovertex.canonical_key.ms": ("total", "twovertex.LatticeSkeleton.canonical_key", "ms"),
    "twovertex.graphs_classified": ("calls", "twovertex.classify", "count"),
}


def layer_metrics(result):
    """Per-layer figures per round (one pass over the operation list).

    Span times are scaled by the traced rounds' median reference time.
    """
    layers, plain, traced = result["layers"], result["timed"], result["traced"]
    rounds = layers["rounds"]
    scale = workloads.REF_NOMINAL_S / traced["ref_median_s"]
    source = {"self": layers["layer_self_ms"], "total": layers["total_ms"], "calls": layers["calls"],
              "counter": layers["counters"]}
    metrics = {}
    for name, (kind, key, unit) in LAYER_METRICS.items():
        value = source[kind].get(key, 0) / rounds
        metrics[name] = (value * scale if unit == "ms" else value, unit)
    metrics["trace.overhead_s"] = ((traced["busy_s"] - plain["busy_s"]) / rounds, "s")
    return metrics


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The reference loop then runs on the CPU that runs the program; on a
    shared machine the two CPUs of a container can be slowed by different
    neighbours at the same moment.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def bench(workload, seed, seconds, trace, root):
    env = program_env(root)
    pin_to_one_cpu()
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    metrics = {}
    if trace:
        result = run_worker(workload, seed, seconds, "trace", env, root)
        metrics.update(layer_metrics(result))
        metrics["cli.import_ms"] = (import_ms(env, root), "ms")
        metrics["cli.main_ms"] = (0.0, "ms")
        metrics["cli.process_ms"] = (0.0, "ms")
        if workload == "cli":
            metrics["cli.main_ms"] = (result["timed"]["latency_p50_ms"], "ms")
            processes = run_lpa(seed, seconds / 2, env, root)
            metrics["cli.process_ms"] = (processes["timed"]["latency_p50_ms"], "ms")
        print(f"spans written to {result['spans_file']}", file=sys.stderr)
    else:
        setup = setup_seconds(workload, seed, env, root)
        if workload == "cli":
            result = run_lpa(seed, seconds, env, root)
        else:
            result = run_worker(workload, seed, seconds, "run", env, root)
        metrics["setup_s"] = (setup, "s")
        for name, unit in (("throughput_ops_s", "ops/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms")):
            metrics[name] = (result["timed"][name], unit)
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MiB")

    import oracles  # after the children have ended: they never share a process

    ops = workloads.operations(workload, seed)
    errors = oracles.check(workload, ops, result["outputs"])
    timed = result["timed"]
    if timed["mismatched"]:
        errors.append(f"{timed['mismatched']} timed outputs differ from the checked round")
    if timed["failed"] != len(result["check_failures"]) * timed["rounds"]:
        errors.append("operations failed in some rounds and not in others")
    for i, why in result["check_failures"].items():
        print(f"failed: {workload} op {i} ({ops[int(i)]['kind']}): {why}", file=sys.stderr)
    for e in errors[:20]:
        print(f"check: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def repeat(args, root):
    """Run each workload (or only ``--workload``) with consecutive seeds; print medians, quartiles, spreads."""
    summary = {}
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, cwd=root, timeout=600)
            if proc.returncode != 0:
                raise BenchError(f"{workload} seed {seed} failed:\n{proc.stderr.decode()[-2000:]}")
            runs.append(json.loads(proc.stdout.decode().splitlines()[-1]))
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                          "unit": runs[0]["metrics"][name]["unit"], "values": values}
            print(f"{workload:9s} {name:30s} median {med:12.4f} {rows[name]['unit']:6s} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {rows[name]['spread']:.3f}", file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{workload:9s} correct {correct} failed shares {shares}", file=sys.stderr)
        summary[workload] = {"metrics": rows, "correct": correct, "failed_shares": shares}
    path = os.path.join(root, ".bench_out", f"repeat-trace{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({w: {"correct": s["correct"], "failed_shares": s["failed_shares"]} for w, s in summary.items()}))


def census_totals(root):
    """Recompute the per-class census totals for k <= 12 with the program."""
    program_env(root)
    sys.path.insert(0, os.path.join(root, "src"))
    from leavitt import twovertex

    import oracles

    totals = {label: 0 for label in oracles.LABELS}
    for k in range(workloads.CENSUS_MAX_EDGES + 1):
        for shape in twovertex.enumerate_up_to_iso(k):
            totals[twovertex.classify(shape.to_graph()).label] += 1
    print(json.dumps({"totals": totals, "matches_oracles": totals == oracles.CENSUS_TOTALS}))
    return 0 if totals == oracles.CENSUS_TOTALS else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, help="run every workload (or only --workload) this many times")
    p.add_argument("--census-totals", action="store_true", help="recompute the per-class census totals")
    args = p.parse_args(argv)
    root = os.getcwd()
    try:
        if args.census_totals:
            return census_totals(root)
        program_env(root)
        if args.repeat:
            repeat(args, root)
            return 0
        if not args.workload:
            p.error("--workload is required")
        print(json.dumps(bench(args.workload, args.seed, args.seconds, args.trace, root)))
        return 0
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

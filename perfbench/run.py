"""kbcanon benchmark: run_pipeline end to end on one named workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is dense_triples, sparse_vocab, leaderboard, or all (each in turn,
each ending with its own JSON line).

Run from the root of a checkout; the program under test is that
checkout's ``src/kbcanon``. The benchmark writes three input KBs from the
seed under ``.perfbench_work/``, then for S seconds runs ``run_pipeline``
on them in turn, one fresh worker process per run (a closed loop with one
client), and checks every run's outputs. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it also makes one traced run on
the first input and reports the per-layer metrics. Human-readable lines
come first; the last line of standard output is one JSON object. The full
record (machine context, input and output digests, samples, spans) goes
to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS_PER_RUN = 3
WORKER_TIMEOUT_S = 100.0
# Pinned so that BLAS-backed numpy calls run on one thread in every run,
# on the parent commit and on the change alike.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1"}

END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "np_mean_f1": "ratio",
    "rel_mean_f1": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples
    beyond it (nearest rank), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = 100.0 * (n - 10) / n
    return p, sorted(values)[math.ceil(p / 100.0 * n) - 1]


def machine_context(root: Path, seed: int) -> dict:
    import numpy as np

    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8")
        except OSError:
            return ""

    mem = next((line.split()[1] for line in read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal:")), None)
    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_kb": int(mem) if mem else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": BLAS_ENV,
        "git_commit": commit,
        "seed": seed,
    }


class Bench:
    """The inputs of one invocation and the runs made on them."""

    def __init__(self, root: Path, workload, seed: int, trace: bool):
        # workloads and check import kbcanon, which is importable only
        # once main() has put the checkout's src/ on the path
        import workloads

        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench_work" / f"{workload.name}-s{seed}-t{int(trace)}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, **BLAS_ENV)
        self.inputs = []
        for k in range(INPUTS_PER_RUN):
            in_dir = self.work / f"input{k}"
            digests = workloads.write_inputs(workload, INPUTS_PER_RUN * seed + k, in_dir)
            self.inputs.append({"dir": in_dir, "digests": digests,
                                "expected": None, "samples": []})
        self.n_baselines = len(workload.config.get("baselines", ()))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_once(self, k: int, trace: bool = False) -> dict | None:
        """One worker process on input k; returns the checked sample or
        None (counted as failed)."""
        from check import OutputCheckError, check_run

        self.attempted += 1
        inp = self.inputs[k]
        tag = f"run{self.attempted}" + ("-traced" if trace else "")
        out_dir, result = self.work / tag, self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(inp["dir"] / "config.yaml"),
               str(out_dir), str(result)] + (["--trace"] if trace else [])
        started = time.monotonic()
        try:
            with (self.work / f"{tag}.log").open("w", encoding="utf-8") as log:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(f"{tag}: worker exceeded {WORKER_TIMEOUT_S:.0f} s")
        if proc.returncode != 0:
            return self._fail(f"{tag}: worker exited with {proc.returncode}, "
                              f"see {self.work / (tag + '.log')}")
        sample = json.loads(result.read_text(encoding="utf-8"))
        sample["setup_s"] = sample.pop("ready_monotonic") - started
        sample["input"] = k
        try:
            sample.update(check_run(out_dir, inp["dir"] / "triples.jsonl", self.n_baselines))
        except (OutputCheckError, OSError, ValueError, KeyError) as e:
            return self._fail(f"{tag}: output check failed: {e!r}")
        sample["stages"] = json.loads((out_dir / "timings.json").read_text(encoding="utf-8"))
        expected = inp["expected"]
        if expected is None:
            inp["expected"] = {key: sample[key] for key in
                               ("digests", "np_mean_f1", "rel_mean_f1")}
        elif any(sample[key] != expected[key] for key in expected):
            return self._fail(f"{tag}: outputs differ from the first run on input {k}")
        if trace:
            sample["run_dir"] = str(out_dir)
        else:
            inp["samples"].append(sample)
            shutil.rmtree(out_dir)
        return sample

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)
        print(f"FAILED {why}", flush=True)
        return None

    def timed_loop(self, seconds: float, reserve_one: bool) -> list[dict]:
        """Run inputs 0, 1, 2, 0, ... until the next run would end after
        ``seconds``; every input runs at least once. With ``reserve_one``,
        time for one more run is left over."""
        start = time.monotonic()
        durations: list[float] = []
        i = 0
        while True:
            if i >= INPUTS_PER_RUN:
                est = statistics.median(durations) if durations else 0.0
                if time.monotonic() - start + est * (2 if reserve_one else 1) > seconds:
                    break
            t = time.monotonic()
            self.run_once(i % INPUTS_PER_RUN)
            durations.append(time.monotonic() - t)
            i += 1
            if self.failed >= INPUTS_PER_RUN and self.failed == i:
                break  # nothing works; do not spend the whole budget failing
        return [s for inp in self.inputs for s in inp["samples"]]


def end_to_end(bench: Bench, samples: list[dict]) -> dict[str, float]:
    expected = [inp["expected"] for inp in bench.inputs]
    return {
        "pipeline_s": statistics.median(s["pipeline_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        # deterministic per input; the mean over the run's inputs
        "np_mean_f1": statistics.fmean(e["np_mean_f1"] for e in expected),
        "rel_mean_f1": statistics.fmean(e["rel_mean_f1"] for e in expected),
    }


def run_workload(root: Path, w, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload, print its lines and its JSON line, and return
    the exit code (0 when every run passed)."""
    import kbcanon
    import layers
    import spans

    context = machine_context(root, seed)
    setup_t = time.monotonic()
    bench = Bench(root, w, seed, trace)
    generate_s = time.monotonic() - setup_t
    samples = bench.timed_loop(seconds, reserve_one=trace)
    record = {"workload": w.name, "context": context,
              "generate_s": generate_s,
              "inputs": [{"seed": INPUTS_PER_RUN * seed + k, "digests": inp["digests"],
                          "outputs": inp["expected"]} for k, inp in enumerate(bench.inputs)],
              "samples": samples}
    print(f"workload {w.name} seed {seed}")
    print(f"machine: {context['nproc']} cpus, {context['mem_total_kb']} kB, "
          f"{context['cpu_model']}, python {context['python']}, numpy {context['numpy']}, "
          f"commit {context['git_commit']}")

    complete = samples and all(inp["expected"] is not None for inp in bench.inputs)
    metrics: dict[str, dict] = {}
    if complete:
        e2e = end_to_end(bench, samples)
        record["end_to_end"] = e2e
        times = [s["pipeline_s"] for s in samples]
        high = high_percentile(times)
        print(f"runs: {len(samples)} untraced over {INPUTS_PER_RUN} inputs")
        for name, unit in END_TO_END.items():
            print(f"  {name:<14} {e2e[name]:.6f} {unit}")
        print("  pipeline_s     " + (f"p{high[0]:.0f} {high[1]:.6f} s (n={len(times)})" if high
                                     else f"no percentile above the median has 10 samples "
                                          f"beyond it (n={len(times)})"))
        if not trace:
            metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
        for k, inp in enumerate(bench.inputs):
            for name, digest in inp["expected"]["digests"].items():
                print(f"  input{k} sha256 {name} {digest}")

    if trace and complete:
        traced = bench.run_once(0, trace=True)
        if traced is not None:
            kb = kbcanon.load_triples(bench.inputs[0]["dir"] / "triples.jsonl")
            hp = kbcanon.load_config(bench.inputs[0]["dir"] / "config.yaml").hyperparams
            untraced = statistics.median(s["pipeline_s"] for s in bench.inputs[0]["samples"])
            per_layer = layers.layer_metrics(traced["spans"], traced["run_dir"], kb,
                                             hp.negatives_per_positive, untraced)
            record["traced"] = traced
            record["per_layer"] = per_layer
            record["span_summary"] = spans.summarize(traced["spans"])
            print(f"traced run on input0 (pipeline_s {traced['pipeline_s']:.6f} s, "
                  f"untraced median on input0 {untraced:.6f} s)")
            for name, unit in {**layers.DECLARED, **layers.UNDECLARED}.items():
                mark = "" if name in layers.DECLARED else "  (not declared)"
                print(f"  {name:<42} {per_layer[name]:.6f} {unit}{mark}")
            print("  spans by self time (calls, total s, self s):")
            top = sorted(record["span_summary"].items(), key=lambda kv: -kv[1]["self_s"])
            for name, row in top[:12]:
                print(f"    {name:<44} {row['calls']:>6} {row['total_s']:10.6f} "
                      f"{row['self_s']:10.6f}")
            metrics = {n: {"value": per_layer[n], "unit": u}
                       for n, u in layers.DECLARED.items()}
        else:
            complete = False

    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  error_rate     {error_rate:.6f} ({bench.failed} failed of "
          f"{bench.attempted} attempted)")
    record.update(attempted=bench.attempted, failed=bench.failed, error_rate=error_rate,
                  failures=bench.failures)
    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{w.name}-s{seed}-t{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"results: {out.relative_to(root)}")
    if not bench.failures:
        shutil.rmtree(bench.work)

    correct = bool(complete) and bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "kbcanon" / "__init__.py").is_file():
        print(f"error: no src/kbcanon under {root}; run from a kbcanon checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import kbcanon

    if Path(kbcanon.__file__).resolve().parent != (src / "kbcanon").resolve():
        print(f"error: kbcanon resolves to {kbcanon.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        names = workloads.NAMES
    elif args.workload in workloads.WORKLOADS:
        names = (args.workload,)
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)} or all", file=sys.stderr)
        return 2
    codes = [run_workload(root, workloads.WORKLOADS[name], args.seed, args.seconds,
                          bool(args.trace)) for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())

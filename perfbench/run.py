"""vicsekbgk benchmark: three CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload relax|decay|certify --seed N \
        --seconds S --trace 0|1 [--size full|smoke] [--reference PATH]

Run from the root of a source checkout; the package is imported from
``src/``.  Each measured unit is one fresh process (perfbench/child.py) that
imports ``vicsekbgk.cli``, builds the workload's once-per-process state and
runs the workload's experiments through ``vicsekbgk.cli.main``.  Processes
run one at a time with the BLAS thread count pinned to BLAS_THREADS, so at
most that many threads are busy.  A run first starts one warm-up process
that only sets up (it compiles the package's bytecode and loads the imports
into the page cache) and discards it.  Processes are then started until the
next one would end after S seconds, with at least MIN_PROCESSES of them.

With ``--trace 0`` set-up-only processes, run between the full ones, fill
about SETUP_SHARE of the run, and the last stdout line carries the
end-to-end metrics: ``wall_s`` (experiments only) and ``peak_rss_mb`` as
medians over the full processes, ``setup_s`` as the median over all
processes, set-up-only ones included.  With ``--trace 1`` processes alternate between untraced and traced; traced
ones wrap the package's functions from outside (perfbench/tracing.py) and the
line carries the per-layer metrics.
Every process's outputs are checked (perfbench/workloads.py); ``attempted``
and ``failed`` count experiment runs, so failed/attempted is the error rate.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

BLAS_THREADS = 1
MIN_PROCESSES = {"full": 2, "smoke": 1}
MIN_TRACED = 2          # counters must repeat across at least two processes
# share of an untraced run spent in set-up-only processes; they give setup_s
# many samples on workloads whose full processes are long
SETUP_SHARE = 0.25
CHILD_TIMEOUT_S = 170
WORK = ".perfbench_work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metric -> unit; "*_p50" / "*_p99" are per-call percentiles pooled
# over the traced processes, the rest are medians of per-process values.
PER_LAYER = {
    "solver.step_ms_p50": "ms",
    "solver.step_ms_p99": "ms",
    "solver.steps_per_s": "1/s",
    "solver.fft_calls_per_step": "count",
    "solver.fft_mb_per_step": "MB-computed",
    "solver.fft_share_of_step": "fraction",
    "solver.diagnostics_ms_p50": "ms",
    "solver.diagnostics_calls": "count",
    "solver.io_ms": "ms",
    "solver.run_self_ms": "ms",
    "solver.init_field_ms": "ms",
    "sphere.ms": "ms",
    "sphere.calls": "count",
    "linstab.spectral_abscissa_ms": "ms",
    "linstab.abscissa_fft_calls": "count",
    "linstab.c2_bound_ms_p50": "ms",
    "linstab.c2_bound_ms_p99": "ms",
    "linstab.c2_bound_calls": "count",
    "linstab.axis_coefficients_us_p50": "us",
    "linstab.leggauss_calls": "count",
    "linstab.leggauss_share_of_bounds": "fraction",
    "linstab.bound_budget_ms": "ms",
    "linstab.dispersion_sweep_ms": "ms",
    "linstab.sweep_points": "count",
    "linstab.sweep_points_per_s": "1/s",
    "equilibria.equilibrium_branch_ms": "ms",
    "equilibria.homogeneous_flow_ms": "ms",
    "equilibria.solve_L_misses": "count",
    "cli.self_ms": "ms",
    "cli.self_share_of_dispersion": "fraction",
    "cli.out_mb": "MB",
    "trace.overhead_frac": "fraction",
}
# exact counts: each must read the same in every traced process
COUNTERS = ("solver.steps", "solver.fft_calls_per_step",
            "solver.diagnostics_calls", "sphere.calls",
            "linstab.abscissa_fft_calls", "linstab.c2_bound_calls",
            "linstab.leggauss_calls", "linstab.sweep_points",
            "equilibria.solve_L_misses", "fft.calls")


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _percentile(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(p / 100.0 * len(s)))]


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        if level in ("2", "3"):
            out[f"L{level}"] = _read(os.path.join(base, index, "size"))
    return out


def _git_commit(root: str) -> str:
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(root, ".git", ref))
    if loose:
        return loose
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def host_stamp(root: str) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), **_caches(),
            "git_commit": _git_commit(root), "blas_threads_pinned": BLAS_THREADS}


# ---------------------------------------------------------------------------
# one process
# ---------------------------------------------------------------------------

def run_process(root: str, workload: str, size: str, seed: int, trace: bool,
                ordinal: int, setup_only: bool = False) -> dict:
    """Start one child process, wait for it, and return its result."""
    work = os.path.join(root, WORK, f"{workload}-{ordinal}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    exps = []
    for i, (experiment, config) in enumerate(
            workloads.experiments(workload, size, seed)):
        cfg_path = os.path.join(work, f"{i}-{experiment}.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        outdir = os.path.join(work, f"{i}-{experiment}")
        os.makedirs(outdir)
        exps.append({"experiment": experiment, "config": cfg_path,
                     "outdir": outdir, "values": config})
    spec = {"src": os.path.join(root, "src"), "trace": trace,
            "setup": workloads.SETUP[workload], "setup_only": setup_only,
            "experiments": exps, "result": os.path.join(work, "result.json")}
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONHASHSEED="0")  # same dict layouts each run
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                           spec_path], env=env, cwd=root, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        raise RuntimeError(f"benchmark process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["experiments"] = exps
    if setup_only:
        shutil.rmtree(work, ignore_errors=True)
    return result


def check_process(result: dict, workload: str, size: str, seed: int,
                  reference: dict | None) -> list[tuple[str, list[str], dict]]:
    """(experiment, failure messages, summary) for each experiment run of a
    process."""
    out = []
    builds = result.get("workspace_builds", 1)
    for exp, run in zip(result["experiments"], result["runs"]):
        name = exp["experiment"]
        if run["code"] != 0:
            out.append((name, [f"exit code {run['code']}"], {}))
            continue
        with open(os.path.join(exp["outdir"], "manifest.json")) as fh:
            summary = json.load(fh)["summary"]
        bad = workloads.check_experiment(name, exp["values"], exp["outdir"],
                                         summary)
        if builds != 1:
            bad.append(f"solver workspace built {builds} times, not once: the "
                       f"set-up's SolverConfig differs from the CLI's, so the "
                       f"workspace build is timed in wall_s, not setup_s")
        ref = reference.get(workload, {}).get(size, {}).get(name)
        bad += workloads.check_reference(name, exp["outdir"], summary, ref,
                                         seed == workloads.DEFAULT_SEED)
        out.append((name, bad, summary))
    return out


# ---------------------------------------------------------------------------
# a benchmark run
# ---------------------------------------------------------------------------

def measure(root: str, workload: str, size: str, seed: int, seconds: float,
            trace: bool, reference: dict) -> dict:
    """Run processes for about `seconds`; check each; collect results."""
    untraced, traced, setups, checks = [], [], [], []
    start = time.perf_counter()
    run_process(root, workload, size, seed, False, 0, setup_only=True)
    ordinal = 1
    last = setup_only_s = 0.0
    while True:
        enough = len(untraced) >= (1 if trace else MIN_PROCESSES[size]) \
            and (not trace or len(traced) >= MIN_TRACED)
        if enough and time.perf_counter() - start + last > seconds:
            break
        t = time.perf_counter()
        while not trace and setup_only_s <= SETUP_SHARE * (t - start):
            t_setup = time.perf_counter()
            setups.append(run_process(root, workload, size, seed, False,
                                      ordinal, setup_only=True)["setup_s"])
            setup_only_s += time.perf_counter() - t_setup
            ordinal += 1
        as_traced = trace and len(traced) < 2 * len(untraced)
        result = run_process(root, workload, size, seed, as_traced, ordinal)
        ordinal += 1
        last = time.perf_counter() - t
        checks += check_process(result, workload, size, seed, reference)
        (traced if as_traced else untraced).append(result)
        shutil.rmtree(os.path.dirname(result["experiments"][0]["outdir"]),
                      ignore_errors=True)
    setups += [r["setup_s"] for r in untraced]
    return {"untraced": untraced, "traced": traced, "setups": setups,
            "checks": checks}


def end_to_end(got: dict) -> dict:
    """name -> (median, lower quartile, upper quartile, values): setup_s over
    every measured process, the others over the full untraced processes."""
    out = {}
    for name in END_TO_END:
        vals = got["setups"] if name == "setup_s" else \
            [r[name] for r in got["untraced"]]
        out[name] = (statistics.median(vals), *_quartiles(vals), vals)
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics and the list of counters that did not repeat."""
    out = {}
    layers = [r["layers"] for r in traced]
    for name in PER_LAYER:
        for suffix, p in (("_p50", 50.0), ("_p99", 99.0)):
            if name.endswith(suffix):
                pooled = [x for r in traced for x in r["samples"][name[:-4]]]
                out[name] = _percentile(pooled, p)
                break
        else:
            if name != "trace.overhead_frac":
                out[name] = statistics.median(v[name] for v in layers)
    wall_t = statistics.median(r["wall_s"] for r in traced)
    wall_u = statistics.median(r["wall_s"] for r in untraced)
    out["trace.overhead_frac"] = (wall_t - wall_u) / wall_u
    unsteady = [c for c in COUNTERS if len({v[c] for v in layers}) != 1]
    return out, unsteady


def profile_statements(workload: str, layers: dict) -> list[str]:
    """Compare the traced split with the profile ROADMAP.md states."""
    lines = []

    def verdict(ok: bool) -> str:
        return "matches" if ok else "DOES NOT MATCH"

    if workload == "relax":
        share = layers["solver.fft_share_of_step"]
        lines.append(f"FFT work is {share:.1%} of a nonlinear step; ROADMAP says "
                     f"about 3/4 (read as 65-85%): "
                     f"{verdict(0.65 <= share <= 0.85)}")
    elif workload == "decay":
        lines.append(f"FFT work is {layers['solver.fft_share_of_step']:.1%} of a "
                     f"linearized step; ROADMAP states no share for it")
    elif workload == "certify":
        share = layers["linstab.leggauss_share_of_bounds"]
        lines.append(f"leggauss (rebuilt by c2_bound via alpha2) is {share:.1%} of "
                     f"bounds; ROADMAP says it dominates (read as > 50%): "
                     f"{verdict(share > 0.5)}")
        share = layers["cli.self_share_of_dispersion"]
        lines.append(f"cli.main's own time (CSV formatting and writing, config, "
                     f"manifest) is {share:.1%} of dispersion; ROADMAP says CSV "
                     f"formatting dominates (read as > 50%): "
                     f"{verdict(share > 0.5)}")
    return lines


def benchmark(args, root: str) -> int:
    with open(args.reference) as fh:
        reference = json.load(fh)
    got = measure(root, args.workload, args.size, args.seed, args.seconds,
                  bool(args.trace), reference)
    attempted = len(got["checks"])
    failed = sum(1 for _, bad, _ in got["checks"] if bad)
    for name, bad, _ in got["checks"]:
        for msg in bad:
            print(f"FAILED {args.workload}/{name}: {msg}")
    env = {**host_stamp(root), **got["untraced"][0]["env"]}
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} ({workloads.WHY[args.workload]}), "
          f"size {args.size}, seed {args.seed}, "
          f"{len(got['untraced'])} untraced + {len(got['traced'])} traced "
          f"processes, run_seconds {args.seconds}")
    e2e = end_to_end(got)
    for name, (med, q1, q3, vals) in e2e.items():
        print(f"{name}: {med:.6g} {END_TO_END[name]} "
              f"(quartiles {q1:.6g} .. {q3:.6g}, n={len(vals)}; per process "
              f"{' '.join(f'{v:.4g}' for v in vals)})")
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} "
          f"experiment runs)")
    correct = failed == 0
    if args.trace:
        layers, unsteady = per_layer(got["traced"], got["untraced"])
        for name, unit in PER_LAYER.items():
            print(f"{name}: {layers[name]:.6g} {unit}")
        print(f"counters repeat exactly across {len(got['traced'])} traced "
              f"processes: {'yes' if not unsteady else 'NO: ' + ', '.join(unsteady)}")
        correct = correct and not unsteady
        for line in profile_statements(args.workload, layers):
            print(f"profile: {line}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e[n][0], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(MIN_PROCESSES), default="full")
    p.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = p.parse_args(argv)
    # inherited by every benchmark process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vicsekbgk", "cli.py")):
        return _fail(f"no src/vicsekbgk/cli.py under {root}; run from the root "
                     f"of a vicsekbgk source checkout")
    if args.workload is None:
        return _fail("--workload is required")
    try:
        return benchmark(args, root)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(os.path.join(root, WORK), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

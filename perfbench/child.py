"""One benchmark process: set up, run a workload's CLI experiments, report.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds the source directory, the set-up to build, the experiments (name,
config path, output directory), whether to trace, whether to stop after the
set-up, and where to write the result.  Only the standard library is imported
before the set-up clock starts, so ``setup_s`` is the cost of importing
``vicsekbgk.cli`` plus the state the experiments build once per process.
"""
import json
import os
import resource
import sys
import time


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _blas_stamp() -> dict:
    """BLAS name, version and thread count as the loaded library reports."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    stamp = {"python": sys.version.split()[0], "numpy": np.__version__,
             "scipy": scipy.__version__, "blas_name": blas.get("name"),
             "blas_version": blas.get("version"), "blas_threads": None,
             "blas_config": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                stamp["blas_threads"] = get_threads()
                stamp["blas_config"] = get_config().decode()
    return stamp


def _solver_config(cli, experiment: dict):
    """The SolverConfig the CLI builds for this experiment's config file,
    made with the CLI's own ``_solver_config``."""
    c = cli.resolve_config(experiment["experiment"], experiment["config"], [])
    if experiment["experiment"] == "simulate":
        i = c["init"]
        init = cli.InitSpec(recipe=i["recipe"], amplitude=i["amplitude"],
                            mode_k=tuple(i["mode_k"]), width=i["width"])
        return cli._solver_config(c, c["mode"], init)
    # linear-decay
    init = cli.InitSpec(recipe="random-smooth", amplitude=c["amplitude"])
    return cli._solver_config(c, "linearized", init)


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    import vicsekbgk.cli as cli
    tracer = None
    if spec["trace"]:
        from tracing import Tracer  # beside this file
        tracer = Tracer()
        tracer.install()
    if spec["setup"] == "solver":
        from vicsekbgk import solver
        solver.init_field(_solver_config(cli, spec["experiments"][0]))
    else:
        from vicsekbgk import linstab
        linstab.default_eps(2)
    setup_s = time.perf_counter() - t0
    if spec["setup_only"]:
        with open(spec["result"], "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"vicsekbgk imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    runs = []
    out_bytes = 0
    for exp in spec["experiments"]:
        argv = [exp["experiment"], "--config", exp["config"],
                "--output-dir", exp["outdir"], "--quiet"]
        rec = tracer.open(f"cli.main:{exp['experiment']}") if tracer else None
        t = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed experiment
            print(f"{exp['experiment']}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            code = -1
        seconds = time.perf_counter() - t
        if rec is not None:
            tracer.close(rec)
        out_bytes += _dir_bytes(exp["outdir"])
        runs.append({"experiment": exp["experiment"], "code": code,
                     "seconds": seconds})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": sum(r["seconds"] for r in runs),
              "runs": runs, "peak_rss_mb": peak_rss_mb}
    if spec["setup"] == "solver":
        # 1 when the experiments reused the workspace the set-up built
        result["workspace_builds"] = solver._workspace.cache_info().misses
    if tracer is not None:
        tracer.restore()
        from tracing import layer_metrics
        values, samples = layer_metrics(tracer.spans)
        from vicsekbgk import equilibria
        values["equilibria.solve_L_misses"] = equilibria.solve_L.cache_info().misses
        values["cli.out_mb"] = out_bytes / 1e6
        result["layers"] = values
        result["samples"] = samples
    result["env"] = _blas_stamp()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

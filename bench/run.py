"""flowbox benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload smooth-ladder --seed 0 --seconds 30 --trace 0

Run it from the repository root (any directory works; paths are taken from
this file's location).  flowbox is imported from ``src/`` of this checkout,
never from an installed copy.

With ``--trace 0`` the workload runs in a fresh process for ``--seconds``
seconds and the end-to-end metrics are printed: ``run_ref`` and ``cpu_ref``
(median wall and CPU time of one pass over the workload's items, in units
of a fixed reference loop timed around each item; see ``bench/worker.py``),
``setup_s`` (median, over ``SETUP_SAMPLES`` fresh processes, of the time
from process launch to the first timed item) and ``peak_rss_mb``.  The
summary lines also give the pass's median wall and CPU seconds as measured
(``run_s``, ``cpu_s``).

With ``--trace 1`` the same passes run twice, in two fresh processes: once
untraced and once under the outside-in tracer (``bench/tracer.py``).  The
per-layer metrics come from the traced process; ``trace.overhead_s`` is the
traced median pass time minus the untraced one.  The number of passes is
fixed by ``--seconds`` alone, so counts repeat exactly at a given seed.

Every item's output is checked against the paper's pinned tolerances; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give a readable
summary and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
from tracer import layer_metric_specs  # noqa: E402

# nominal seconds of one untraced pass on a 2-core x86 box; only used to fix
# the number of passes of a traced run, which must not depend on timing
NOMINAL_PASS_S = {"smooth-ladder": 4.0, "family-sweep": 2.0,
                  "cli-scenarios": 3.0}
SETUP_SAMPLES = 5          # set-up probes, counting the measuring process
RUN_DEADLINE_S = 170.0     # the whole run, all processes included
# one thread per process: the workloads are single-caller closed loops, and
# a BLAS pool competing for two cores only adds noise
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = (("run_ref", "ref"), ("cpu_ref", "ref"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _git_sha():
    # the ceiling keeps git from reporting an enclosing repository's commit
    # when this checkout is not a repository itself
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_sha": _git_sha(),
        "thread_env": THREAD_ENV,
    }


class Launcher:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                     else []))

    def worker(self, tag: str, *extra) -> tuple:
        """Run one worker; returns (its result dict, launch time)."""
        cwd = self.workdir / tag
        cwd.mkdir()
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed), *extra]
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {tag} ran past the run deadline")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {tag} exited {proc.returncode}:\n"
                             f"{err.strip()}")
        return json.loads(lines[-1]), launched

    def setup_sample(self, index: int) -> float:
        result, launched = self.worker(f"setup-{index}", "--setup-only")
        return result["ready"] - launched


def untraced(launcher: Launcher, seconds: float):
    setups = [launcher.setup_sample(i) for i in range(SETUP_SAMPLES - 1)]
    result, launched = launcher.worker("run", "--seconds", str(seconds))
    setups.append(result["ready"] - launched)
    passes = result["passes"]
    values = {
        "run_ref": statistics.median(p["wall_ref"] for p in passes),
        "cpu_ref": statistics.median(p["cpu_ref"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    extra = {"passes": len(passes),
             "run_s": statistics.median(p["wall_s"] for p in passes),
             "cpu_s": statistics.median(p["cpu_s"] for p in passes),
             "pass_wall_s": [p["wall_s"] for p in passes],
             "pass_wall_ref": [p["wall_ref"] for p in passes],
             "setup_samples_s": setups}
    return result, metrics, [], extra


def trace_passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // (2.0 * NOMINAL_PASS_S[workload])))


def traced(launcher: Launcher, seconds: float):
    count = trace_passes(launcher.args.workload, seconds)
    plain, _ = launcher.worker("plain", "--passes", str(count))
    result, _ = launcher.worker("traced", "--passes", str(count), "--trace")
    problems = []
    if result["fingerprint"] != plain["fingerprint"]:
        problems.append("traced and untraced outputs differ")
    layers = result["layers"]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit, _better in layer_metric_specs()}
    metrics["trace.overhead_s"] = {"unit": "s", "value": (
        statistics.median(p["wall_s"] for p in result["passes"])
        - statistics.median(p["wall_s"] for p in plain["passes"]))}
    result = dict(result,
                  attempted=result["attempted"] + plain["attempted"],
                  failed=result["failed"] + plain["failed"],
                  misses=plain["misses"] + result["misses"])
    return result, metrics, problems, {"passes": count}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("seed must be >= 0 and seconds > 0")
    if not (ROOT / "src" / "flowbox" / "__init__.py").is_file():
        print(f"bench: no flowbox sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    info = provenance(args)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK_ROOT))
    try:
        launcher = Launcher(args, workdir)
        measure = traced if args.trace else untraced
        result, metrics, problems, extra = measure(launcher, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted, failed = result["attempted"], result["failed"]
    info.update(extra, fingerprint=result["fingerprint"])
    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{extra['passes']} passes, {attempted} items, {failed} failed")
    for name, row in metrics.items():
        print(f"  {name:<48} {row['value']:.6g} {row['unit']}")
    for name in ("run_s", "cpu_s"):
        if name in extra:
            print(f"  {name + ' (as measured)':<48} {extra[name]:.6g} s")
    print(f"  {'failed_ratio':<48} {failed / attempted:.6g} ratio")
    print(f"  fingerprint sha256:{result['fingerprint']}")
    for miss in result["misses"] + problems:
        print(f"  MISS {miss}")
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

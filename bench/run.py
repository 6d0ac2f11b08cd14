"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload plateau|flat|slice --seed N --seconds S --trace 0|1

Run it from the repository root; it imports pplateau from `src/` beside this
directory. Set-up builds every input, then whole passes over the workload's
operations repeat until the operations have used S seconds. Each operation is
timed on the process CPU clock, which counts every thread of the process and
any child it has waited for; checks run outside the timer.

With --trace 0 the last line holds the end-to-end metrics. With --trace 1,
untraced and traced passes alternate, and the last line holds the per-layer
metrics from the traced passes plus the tracing overhead per pass; the spans
go to bench/out/trace-<workload>-<seed>.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-ups measured per run: this process and four probes
MIN_PASSES = 3

# One BLAS thread, set before numpy loads; the documented command sets them too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def cpu() -> float:
    """CPU seconds of this process (all threads) and of its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def own_cpu() -> float:
    """CPU seconds of this process since it started, interpreter start-up included."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    return me.ru_utime + me.ru_stime


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("plateau", "flat", "slice"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the inputs, print this process's set-up CPU seconds, exit")
    return ap.parse_args(argv)


def load_library():
    """Import pplateau from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "pplateau" / "__init__.py").is_file():
        sys.exit(f"error: no pplateau sources under {src}")
    sys.path.insert(0, str(src))
    import pplateau
    if Path(pplateau.__file__).resolve().parent != (src / "pplateau").resolve():
        sys.exit(f"error: imported pplateau from {pplateau.__file__}, not {src}")


def setup_probes(args) -> list[float]:
    """Set-up CPU seconds of fresh processes that build the same inputs."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]  # CPU seconds per pass
        self.attempted = 0
        self.failed = 0

    def run_pass(self) -> tuple[float, float]:
        """One pass over every operation; returns the operations' CPU and wall seconds."""
        gc.collect()
        total = 0.0
        wall = 0.0
        for i, op in enumerate(self.ops):
            w0 = time.perf_counter()
            t0 = cpu()
            try:
                out = op.call()
                err = None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            t1 = cpu()
            wall += time.perf_counter() - w0
            self.times[i].append(t1 - t0)
            total += t1 - t0
            self.attempted += 1
            if err is None:
                try:
                    err = op.check(out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                self.failed += 1
                print(f"FAILED {op.name}: {err}", file=sys.stderr)
        return total, wall


def keep_going(pass_walls: list[float], seconds: float) -> bool:
    """Start another pass while it is expected to end within the run length.

    Only the wall time inside operations counts, so that the references the
    first pass computes for its checks do not shorten the run.
    """
    if len(pass_walls) < MIN_PASSES:
        return True
    return sum(pass_walls) + statistics.median(pass_walls) <= seconds


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    per_op = [statistics.median(t) for t in runner.times]
    ops_cpu = sum(sum(t) for t in runner.times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worst = max(range(len(per_op)), key=per_op.__getitem__)
    print(f"passes {len(runner.times[0])}, setup samples {[round(s, 4) for s in setup]}, "
          f"largest {runner.ops[worst].name}", file=sys.stderr)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": runner.attempted / ops_cpu, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
        "largest_ms": {"value": per_op[worst] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    import reference
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.phase = "setup"
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        problems = reference.self_check()
        ops = workloads.WORKLOADS[args.workload](args.seed, tmp)
        setup = [own_cpu()]
        if args.setup_probe:
            print(repr(setup[0]))
            return 0
        if tracer:
            tracer.phase = None
        else:
            setup += setup_probes(args)
        for p in problems:
            print(f"FAILED reference self-check: {p}", file=sys.stderr)

        runner = Runner(ops)
        pass_walls: list[float] = []
        traced_cpu: list[float] = []
        plain_cpu: list[float] = []
        while keep_going(pass_walls, args.seconds):
            # In a traced run every second pass is traced; the others give the
            # untraced CPU time that the overhead is measured against.
            traced = bool(tracer) and len(pass_walls) % 2 == 1
            if traced:
                tracer.phase = len(pass_walls)
            spent, wall = runner.run_pass()
            if tracer:
                tracer.phase = None
            (traced_cpu if traced else plain_cpu).append(spent)
            pass_walls.append(wall)

        if tracer:
            tracer.uninstall()
            layers = tracing.layer_metrics(tracer.spans, len(traced_cpu))
            metrics = {name: {"value": value, "unit": tracing.unit(name)}
                       for name, value in layers.items()}
            overhead = statistics.median(traced_cpu) - statistics.median(plain_cpu)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            calls, raised, drawn = tracing.slice_chain_accounting(tracer.spans)
            lp_share = tracing.share_under(tracer.spans, "lp.solve_lp", "flatnorm.real")
            print(f"traced passes {len(traced_cpu)}, untraced {len(plain_cpu)}; "
                  f"2-chain slice_chain calls {calls} ({raised} degenerate) "
                  f"for {drawn} samples; lp.solve_lp holds {lp_share:.1%} of "
                  f"flatnorm.real", file=sys.stderr)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        else:
            metrics = end_to_end(runner, setup)
        result = {"correct": runner.failed == 0 and not problems,
                  "attempted": runner.attempted, "failed": runner.failed,
                  "metrics": metrics}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py --workloads all-nodes-1000,csv-pid-2000 --seeds 1-10 [--trace 0] [--out FILE]

Runs `bench/run.py` once per (workload, seed), one process at a time, with
BENCHMARK.json's run_seconds unless --seconds is given. For each metric it
prints the median and the interquartile distance as a share of the median
(`statistics.quantiles(values, n=4)`), which is the spread each end-to-end
metric's bound is checked against. --out writes the figures, each seed's
artifact digest and the host environment to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def _one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    run_digest = next((line.rsplit(" ", 1)[-1] for line in lines if " digest = " in line), "")
    return json.loads(lines[-1]), run_digest


def _spread(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def environment() -> dict[str, object]:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    results: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        digests: dict[int, str] = {}
        failed = 0
        for seed in _seeds(args.seeds):
            result, digests[seed] = _one_run(workload, seed, args.seconds, args.trace)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        figures = {name: {**_spread(v), "values": v} for name, v in values.items()}
        results[workload] = {"failed": failed, "metrics": figures, "digests": digests}
        for name, fig in figures.items():
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None else f"  bound {bound}, {'ok' if fig['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {workload:16s} {name:32s} median {fig['median']:.6g}  spread {fig['spread']:.2%}{flag}")

    if args.out:
        doc = {"seconds": args.seconds, "trace": args.trace, "environment": environment(), "workloads": results}
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

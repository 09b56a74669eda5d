"""Self-test of the benchmark.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

- A one-round run of each workload, untraced and traced, prints every
  end-to-end or per-layer metric with its unit, and nothing fails.
- One deliberately wrong expected answer per workload is counted as a
  failure.
- Without `src/oscigeo` next to it, the benchmark exits non-zero and
  prints no result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def tiny_runs() -> None:
    for name in ("classify-mix", "certify", "trace", "verify"):
        for trace, units in ((0, run.END_TO_END_UNITS), (1, dict(tracing.PER_LAYER))):
            proc = bench(name, trace)
            lines = proc.stdout.strip().splitlines()
            label = f"{name} --trace {trace}"
            if proc.returncode != 0 or not lines:
                expect(False, f"{label} exits 0 (got {proc.returncode}: {proc.stderr[-300:]})")
                continue
            result = json.loads(lines[-1])
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(got == units, f"{label} reports every metric with its unit")
            expect(result["failed"] == 0 and result["correct"] and result["attempted"] >= 1,
                   f"{label}: failed_frac == 0 over {result['attempted']} requests")
            printed = "\n".join(lines[:-1])
            expect(all(f"\n{m} " in "\n" + printed for m in units),
                   f"{label} prints every metric by name")
            if trace == 0:
                expect("failed_frac 0 " in printed, f"{label} prints failed_frac 0")


def wrong_answers() -> None:
    """Corrupt one reference answer per workload; exactly that request must fail."""
    scratch = Path(tempfile.mkdtemp(prefix=".run-selftest-", dir=HERE))
    try:
        wls = workloads.make_workloads(scratch)

        def corrupt_classify(reqs):
            reqs[0].expect["kind"] = "non-closed"  # a null direction, which always closes
            return reqs

        def corrupt_certify(reqs):
            full = next(r for r in reqs if r.tag == "full")
            full.expect["T"] *= (full.expect["m"] + 1) / full.expect["m"]  # witness m + 1
            return [reqs[0], full]

        def corrupt_trace(reqs):
            reqs[0].expect["base"][3] += 0.1  # z off the coset: 0.1 is no multiple of 1/2k
            return reqs[:1]

        def corrupt_verify(reqs):
            reqs[0].tag = "curvature"  # the report must name the suite that ran
            return reqs[:1]

        for name, corrupt in (
            ("classify-mix", corrupt_classify),
            ("certify", corrupt_certify),
            ("trace", corrupt_trace),
            ("verify", corrupt_verify),
        ):
            wl = wls[name]
            reqs = corrupt(wl.make_round(workloads.round_rng(name, 7, 0)))
            checked = run.Run(wl)
            for req in reqs:
                checked.one(req)
            expect(len(checked.failures) == 1,
                   f"{name}: one wrong expected answer gives one failure of {len(reqs)} "
                   f"(got {len(checked.failures)})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def without_sources() -> None:
    """Only BENCHMARK.json and perfbench/: no result, non-zero exit."""
    bare = Path(tempfile.mkdtemp(prefix=".run-selftest-", dir=HERE))
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".run-*", "__pycache__"))
        if (ROOT / "BENCHMARK.json").is_file():
            shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("classify-mix", 0, cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"without src/ the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    wrong_answers()
    without_sources()
    tiny_runs()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)

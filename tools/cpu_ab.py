"""Compare the CPU time per request of two checkouts on one perfbench workload.

Wall-clock runs of perfbench on a shared host spread by about a tenth
between runs of the same code, which hides a change of a few percent.
This script times the same in-process request loop in both checkouts
with ``time.thread_time``, which counts only the CPU time of the timing
thread, and keeps the minimum over many loops, so that time spent by
other processes on the host drops out.

Each measurement runs in a child process that imports ``oscigeo`` from
the checkout's ``src/`` and the workloads from the ``perfbench/`` next
to this script, so both sides run the same requests.  The children of
the two checkouts alternate, and the order flips every pair.  A child
builds ``--rounds`` rounds of the workload for ``--seed``, runs and
checks each request once, counts the ``Scalar``s one more untimed pass
builds, then times ``--loops`` passes over all of them: per pass the
CPU time divided by the number of requests, and per request its own CPU
time.  The count wraps ``oscigeo.scalar._alloc``, through which every
``Scalar`` is allocated, for that pass only, so the timed passes run
the checkout's own code.  The script prints, per side, the ``Scalar``s
built per request, the minimum CPU time over all passes of all its
children and the ratio of the two.  Per
request tag and per request slot (``Request.slot``, the request's place
in the round mix) it prints the median over the requests of each one's
least time in one child, the least such median over the side's children.
Last comes each side's slowest slot, the slot whose median perfbench
reports as ``latency_tail_ms``; on classify-mix a tag merges the nine
lattice families of a direction class, and only the slot tells them apart.

Usage, from any directory:

    python tools/cpu_ab.py BASE HEAD [--workload classify-mix] [--seed 0]
                           [--rounds 10] [--loops 25] [--pairs 8]

It changes nothing in either checkout or in perfbench, and it is not
part of the test suite.  The exit code is 1 when a request fails its
check on either side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import thread_time

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def child(checkout: Path, workload_name: str, seed: int, rounds: int, loops: int) -> dict:
    """Run in the child process: the timings of one checkout as a JSON-ready dict."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in either checkout
    sys.path[:0] = [str(checkout / "src"), str(PERFBENCH)]
    import workloads as wl

    with tempfile.TemporaryDirectory(prefix="cpu-ab-") as scratch:
        workload = wl.make_workloads(Path(scratch))[workload_name]
        requests = [
            req for index in range(rounds) for req in workload.make_round(wl.round_rng(workload.name, seed, index))
        ]
        failures = []
        for req in requests:
            error = workload.check(req, workload.run(req))
            if error is not None:
                failures.append(f"{req.tag}: {error}")
        scalars = count_scalars(workload.run, requests)
        per_pass = []
        per_request = [float("inf")] * len(requests)
        run = workload.run
        for _ in range(loops):
            start = thread_time()
            for i, req in enumerate(requests):
                t0 = thread_time()
                run(req)
                dt = thread_time() - t0
                if dt < per_request[i]:
                    per_request[i] = dt
            per_pass.append((thread_time() - start) / len(requests))
    by_tag, by_slot = defaultdict(list), defaultdict(list)
    for req, dt in zip(requests, per_request):
        by_tag[req.tag].append(dt)
        by_slot[req.slot].append(dt)
    return {
        "scalars_per_request": scalars,
        "min_us": min(per_pass) * 1e6,
        "tags_us": {tag: statistics.median(v) * 1e6 for tag, v in sorted(by_tag.items())},
        "slots_us": {slot: statistics.median(v) * 1e6 for slot, v in sorted(by_slot.items())},
        "failures": failures,
    }


def count_scalars(run, requests) -> float | None:
    """Scalars built per request over one pass, or None for a checkout without ``scalar._alloc``."""
    from oscigeo import scalar

    alloc = getattr(scalar, "_alloc", None)
    if alloc is None:
        return None
    built = 0

    def counted(cls):
        nonlocal built
        built += 1
        return alloc(cls)

    scalar._alloc = counted
    try:
        for req in requests:
            run(req)
    finally:
        scalar._alloc = alloc
    return built / len(requests)


def measure(checkout: Path, args) -> dict:
    argv = [
        sys.executable, __file__, "--child", str(checkout), "--workload", args.workload,
        "--seed", str(args.seed), "--rounds", str(args.rounds), "--loops", str(args.loops),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", type=Path, help="the checkout to compare against")
    parser.add_argument("head", nargs="?", type=Path, help="the checkout under test")
    parser.add_argument("--workload", default="classify-mix")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--loops", type=int, default=25)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--child", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(child(args.child.resolve(), args.workload, args.seed, args.rounds, args.loops)))
        return 0
    if args.base is None or args.head is None:
        parser.error("give the two checkouts BASE and HEAD")
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    results = {"base": [], "head": []}
    for pair in range(args.pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            results[side].append(measure(sides[side], args))
        print(f"pair {pair + 1}: " + ", ".join(f"{s} {results[s][-1]['min_us']:.2f} us" for s in order))

    best = {side: min(r["min_us"] for r in runs) for side, runs in results.items()}
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds, {args.loops} loops x {args.pairs} pairs")
    counts = {side: runs[0]["scalars_per_request"] for side, runs in results.items()}
    print("Scalars built per request: " + ", ".join(
        f"{side} {'n/a' if n is None else format(n, '.2f')}" for side, n in counts.items()))
    print(f"CPU time per request, minimum: base {best['base']:.2f} us, head {best['head']:.2f} us, "
          f"head/base {best['head'] / best['base']:.3f}")
    def least(side: str, key: str) -> dict:
        runs = results[side]
        return {name: min(r[key][name] for r in runs) for name in runs[0][key]}

    for key, width in (("tags_us", 12), ("slots_us", 24)):
        heads = least("head", key)
        for name, base in least("base", key).items():
            head = heads[name]
            print(f"  {name:>{width}}: base {base:8.2f} us, head {head:8.2f} us, head/base {head / base:.3f}")
    for side in ("base", "head"):
        slots = least(side, "slots_us")
        slot = max(slots, key=slots.get)
        print(f"slowest slot, {side}: {slot!r} {slots[slot]:.2f} us")
    failed = False
    for side, runs in results.items():
        for failure in {f for r in runs for f in r["failures"]}:
            print(f"{side} failed: {failure}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

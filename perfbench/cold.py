"""One request in a fresh interpreter: the probe behind setup_s.

Usage: python3 perfbench/cold.py <workload> <request args as JSON> <scratch dir>

It imports what the workload calls and finishes one request of it, the
cost a user pays on every command-line start.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, args, scratch = sys.argv[1], json.loads(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.make_workloads(scratch)[name]
    workload.run(workloads.Request(name, args))

"""Write the reference reports of every benchmark job at the reference seed.

Run from the root of the repository, only when a change to the program is
meant to change its reports:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import datacomplexity.cli as cli

    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    seed = str(WORKLOADS["reference_seed"])
    for workload in WORKLOADS["workloads"].values():
        for job, argv in workload["jobs"].items():
            rc = cli.main([*argv, "--seed", seed, "--output", str(out_dir / f"{job}.json")])
            if rc != 0:
                print(f"{job} exited {rc}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Profile the built-in synthetic generators and rank them by complexity.

Runs `datacomplexity profile synth:<generator> --seed S` on each generator,
then benchmark-normalizes the composite scores across the collection (the
most complex dataset maps to exactly 1). A compact ranking table goes to
stdout; --out-dir keeps the verb's reports as <generator>.json. A partial
report (exit 1) is kept; any other failure of the verb stops the run with
the verb's exit code.
"""

import json
import os
import tempfile

from datacomplexity import cli
from datacomplexity.scoring import normalize_complexity
from datacomplexity.synthetic import GENERATORS


def main(argv=None) -> int:
    parser = cli.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)

    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = args.out_dir or tmp
        os.makedirs(out_dir, exist_ok=True)
        for name in GENERATORS:
            path = os.path.join(out_dir, f"{name}.json")
            code = cli.main(["profile", f"synth:{name}", "--seed", str(args.seed), "--output", path])
            if code not in (cli.EXIT_OK, cli.EXIT_PARTIAL):
                return code
            with open(path, encoding="utf-8") as fh:
                reports[name] = json.load(fh)
    raw_scores = {name: r["composites"][0]["value"] for name, r in reports.items() if r["composites"]}

    names = sorted(raw_scores)
    normalized = dict(zip(names, normalize_complexity([raw_scores[n] for n in names])))

    print(f"{'generator':<16}{'C_data':>10}{'C_norm':>10}{'entropy':>10}{'order':>7}{'K':>8}{'C_top':>10}")
    print("-" * 71)
    for name in sorted(names, key=lambda n: -normalized[n]):
        m = reports[name]["metrics"]
        print(
            f"{name:<16}"
            f"{raw_scores[name]:>10.4f}"
            f"{normalized[name]:>10.4f}"
            f"{m['distributional_entropy']['raw']:>10.3f}"
            f"{int(m['interaction_order']['raw']):>7d}"
            f"{m['compression_ratio']['raw']:>8.3f}"
            f"{m['topological_complexity']['raw']:>10.3f}"
        )

    if args.out_dir:
        print(f"\nwrote {len(reports)} reports to {args.out_dir}/")
    return cli.EXIT_OK


if __name__ == "__main__":
    raise SystemExit(cli.run(main))

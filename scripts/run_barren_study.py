#!/usr/bin/env python3
"""Gradient-variance scaling experiment.

Samples the variance of the first parameter's gradient for the layered
ansatz across qubit counts, fits the log-linear decay, and backs out the
alpha of the variance model Var = exp(-alpha n d C). With the global cost
the slope should sit near -ln 2. Qubit counts may range over 1..14 (the
simulator's MAX_QUBITS); every sample of a qubit count runs in one batch.

Example:
    python scripts/run_barren_study.py --n-min 2 --n-max 8 --depth 4 \
        --samples 500 --seed 42 --out results/barren
"""

import argparse
import json
import math
import os

from datacomplexity.config import SeededRng
from datacomplexity.qmetrics import gradient_variance_study
from datacomplexity.scoring import fit_alpha, trainability_condition, trainability_prediction


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--cost", choices=("global", "local"), default="global")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--c-norm", type=float, default=1.0,
                        help="normalized data complexity used when fitting alpha")
    parser.add_argument("--epsilon-grad", type=float, default=1e-4)
    parser.add_argument("--out", default=None, help="basename for CSV/JSON outputs")
    args = parser.parse_args()

    study = gradient_variance_study(
        range(args.n_min, args.n_max + 1),
        depth=args.depth,
        n_samples=args.samples,
        cost_kind=args.cost,
        rng=SeededRng(args.seed),
    )

    print(f"cost={args.cost} depth={args.depth} samples={args.samples} seed={args.seed}")
    print("n,variance")
    for n, v in zip(study.n_range, study.variances):
        print(f"{n},{v:.6e}")
    print(f"fitted slope of ln Var vs n: {study.fitted_slope:.4f} (theory -ln2 = {-math.log(2):.4f})")

    alpha = fit_alpha(study, args.depth, args.c_norm)
    print(f"alpha from fit (c_norm={args.c_norm}): {alpha:.4f}")
    for n in study.n_range:
        predicted = trainability_prediction(n, args.depth, args.c_norm, alpha)
        ok = trainability_condition(predicted, args.epsilon_grad)
        print(f"  n={n}: predicted var {predicted:.3e} -> {'trainable' if ok else 'barren'}")

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out + ".csv", "w") as fh:
            fh.write(study.to_csv())
        with open(args.out + ".json", "w") as fh:
            json.dump(study.to_json_obj(), fh, sort_keys=True, indent=2)
        print(f"wrote {args.out}.csv and {args.out}.json")


if __name__ == "__main__":
    main()

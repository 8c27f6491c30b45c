#!/usr/bin/env python3
"""Gradient-variance scaling experiment.

Runs the `datacomplexity barren` verb, which samples the variance of the
first parameter's gradient for the layered ansatz across qubit counts, then
fits the log-linear decay and backs out the alpha of the variance model
Var = exp(-alpha n d C). With the global cost the slope should sit near
-ln 2. Every option but --seed, --c-norm, --epsilon-grad and --out goes to
the verb (--n-min, --n-max, --depth, --samples, --cost, --config), which
validates it and sets the exit code of a failed run. --epsilon-grad keeps
the rule of the epsilon_grad config field (> 0), checked before the verb
runs. --out X keeps the verb's schema-v1 report as X.json and its CSV as
X.csv.

Example:
    python scripts/run_barren_study.py --n-min 2 --n-max 8 --depth 4 \
        --samples 500 --seed 42 --out results/barren
"""

import json
import math
import os
import tempfile

from datacomplexity import cli
from datacomplexity.config import require
from datacomplexity.errors import FitError
from datacomplexity.qmetrics import GradientStudy
from datacomplexity.scoring import fit_alpha, trainability_condition, trainability_prediction


def main(argv=None) -> int:
    parser = cli.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--c-norm", type=float, default=1.0,
                        help="normalized data complexity used when fitting alpha")
    parser.add_argument("--epsilon-grad", type=float, default=1e-4)
    parser.add_argument("--out", default=None, help="basename for CSV/JSON outputs")
    args, verb_args = parser.parse_known_args(argv)
    require("epsilon_grad", args.epsilon_grad)

    with tempfile.TemporaryDirectory() as tmp:
        base = args.out or os.path.join(tmp, "barren")
        os.makedirs(os.path.dirname(base) or ".", exist_ok=True)
        # The verb strips one ".csv" from --output to name X.json and X.csv.
        code = cli.main(["barren", *verb_args, "--seed", str(args.seed), "--output", base + ".csv"])
        if code:
            return code
        with open(base + ".json", encoding="utf-8") as fh:
            study = GradientStudy(**json.load(fh)["gradient_study"])

    print(f"cost={study.cost_kind} depth={study.depth} samples={study.n_samples} seed={study.seed}")
    print("n,variance")
    for n, v in zip(study.n_range, study.variances):
        print(f"{n},{v:.6e}")
    print(f"fitted slope of ln Var vs n: {study.fitted_slope:.4f} (theory -ln2 = {-math.log(2):.4f})")

    alpha = fit_alpha(study, study.depth, args.c_norm)
    print(f"alpha from fit (c_norm={args.c_norm}): {alpha:.4f}")
    if alpha < 0:  # the variance grows with n; the prediction takes alpha >= 0 only
        raise FitError(f"fitted alpha {alpha:.4f} < 0: the variance does not decay with n")
    for n in study.n_range:
        predicted = trainability_prediction(n, study.depth, args.c_norm, alpha)
        ok = trainability_condition(predicted, args.epsilon_grad)
        print(f"  n={n}: predicted var {predicted:.3e} -> {'trainable' if ok else 'barren'}")

    if args.out:
        print(f"wrote {args.out}.csv and {args.out}.json")
    return cli.EXIT_OK


if __name__ == "__main__":
    raise SystemExit(cli.run(main))

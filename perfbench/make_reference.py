#!/usr/bin/env python3
"""Write the committed Monte-Carlo reference that ``run.py`` checks.

    python3 perfbench/make_reference.py

Regenerate it only in a change that is meant to alter the Monte-Carlo
output, and say so in that change.
"""

import json

import run

SEED = 600
TRIALS = 10  # per distance
# Replacing the Cholesky log-det in ``verifier.rates`` by singular values
# moves rates by about 1e-9 bits at this power (P = 1e6); a real defect
# moves them by far more than this.
TOLERANCE_BITS = 1e-6


def main() -> None:
    from sdofkit import chansim

    records = chansim.monte_carlo(run.mc_scenario(SEED, TRIALS), run.MC_TARGET)
    doc = {
        "seed": SEED,
        "trials": TRIALS,
        "target": list(run.MC_TARGET),
        "tolerance_bits": TOLERANCE_BITS,
        "points": [
            {
                "x": rec.x,
                "mean_rs1": rec.stats.mean_rs1,
                "se_rs1": rec.stats.se_rs1,
                "mean_rs2": rec.stats.mean_rs2,
                "se_rs2": rec.stats.se_rs2,
                "failures": rec.stats.failures,
                "trials": rec.stats.trials,
            }
            for rec in records
        ],
    }
    run.MC_REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()

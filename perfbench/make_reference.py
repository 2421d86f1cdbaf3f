"""Regenerate the benchmark's stored reference data under perfbench/data.

    python3 perfbench/make_reference.py

Writes, from the config copies in perfbench/configs:

* data/invert_truth.json: noise-free 35-point curves (50..900 MHz) of
  stacks 1A and 2, the truth the ``invert`` workload adds noise to;
* data/reference/<config>.dispersion.csv: the exact output of
  ``sawkit dispersion --config <config>``;
* data/reference/<config>.model.csv: a dense model curve (20..950 MHz,
  5 MHz steps) that extracted velocities are checked against.

The stored files were generated before any optimisation of the solver, so
they check later versions against the original code's answers.  Rerun this
script only when a change of the results is intended, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sawkit as sk  # noqa: E402
from sawkit import cli  # noqa: E402

from workloads import CONFIG_DIR, CONFIGS, CURVE_FREQS, DATA_DIR, Invert, load_case  # noqa: E402

MODEL_FREQS = np.arange(20e6, 950e6 + 1.0, 5e6)


def main() -> int:
    truth = {}
    for name, _ in Invert.CASES:
        stack, _ = load_case(name)
        curve = sk.dispersion_curve(stack, CURVE_FREQS)
        truth[name] = {"frequencies": curve.frequencies, "velocities": curve.velocities}
    (DATA_DIR / "invert_truth.json").write_text(json.dumps(truth, indent=1) + "\n")

    ref = DATA_DIR / "reference"
    ref.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            out = Path(tmp) / f"{name}.csv"
            code = cli.main(["dispersion", "--config", str(CONFIG_DIR / f"{name}.cfg"),
                             "--out", str(out)])
            if code != 0:
                raise SystemExit(f"sawkit dispersion failed on {name} with exit code {code}")
            (ref / f"{name}.dispersion.csv").write_bytes(out.read_bytes())
            stack, _ = load_case(name)
            model = sk.dispersion_curve(stack, MODEL_FREQS)
            sk.write_dispersion_csv(model, ref / f"{name}.model.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the sha256 of every file a fixed set of CLI runs writes.

Usage: ``python3 tools/cli_digest.py`` (no options).  Each invocation runs
in-process against the ``src/`` tree next to this script and writes into its
own directory under a temporary root, which is removed afterwards.  The
runs start in that root, where the script first writes ``config.json`` for
the one invocation that reads its options from ``--config``.  One line per
file, ``<sha256>  <path>``, sorted by path.  Running the script on two
checkouts and diffing the outputs checks that a change keeps the CLI output
bytes identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sodelab.cli import main  # noqa: E402

INVOCATIONS = (
    ["verify", "--scenario", "flat-2"],
    ["verify", "--scenario", "flat-4", "--samples", "200"],
    ["verify", "--scenario", "oscillator-2"],
    ["verify", "--scenario", "kepler-chart", "--samples", "200"],
    ["build", "--scenario", "oscillator-1"],
    ["build", "--scenario", "free-particle-bent", "--seed", "3"],
    ["build", "--scenario", "conformal-am"],
    ["build", "--scenario", "kepler-chart"],
    ["build", "--scenario", "rotation-2d"],  # rejected: exit 1, error.json
    ["integrate", "--scenario", "oscillator-1", "--state", "1,0", "--t-end", "10"],
    ["integrate", "--scenario", "uniform-speedup", "--rescaled", "--t-end", "5",
     "--csv-samples", "300"],
    ["integrate", "--scenario", "kepler-clock", "--t-end", "10", "--csv-samples", "4096"],
    ["integrate", "--scenario", "blowup-damping", "--t-end", "5"],  # blow-up
    ["integrate", "--scenario", "blowup-damping", "--rescaled", "--t-end", "5",
     "--csv-samples", "4096"],
    ["period", "--scenario", "oscillator-1", "--state", "1,0"],
    ["period", "--scenario", "kepler-chart", "--state", "1,0,0,0,0,0.5,0,0"],
    ["period", "--scenario", "state-speedup", "--rescaled"],
    ["period", "--scenario", "am-clock", "--rescaled"],
    ["period", "--scenario", "fosc-power-2", "--state", "0.5,0,0,0.5"],
    ["period", "--scenario", "free-particle", "--state", "0,1", "--t-max", "50"],
    ["kepler-demo"],
    ["kepler-demo", "--energy", "-1.3", "--csv-samples", "4096"],
    ["fosc-demo", "--profile", "linear", "--param", "2"],
    ["fosc-demo", "--profile", "power", "--param", "2", "--level", "0.8"],
    ["fosc-demo"],
    ["match"],
    ["match", "--energies=-0.3,-1.7", "--radius-scale=1.1"],
    ["match", "--energies=-0.5,-2", "--csv-samples", "300"],
    ["match", "--energies=-0.5,-2", "--mode", "energy"],  # mismatch: exit 1
    ["integrate", "--config", "config.json"],  # options from CONFIG
    ["integrate", "--scenario", "oscillator-1", "--state", "1,0", "--t-end=0"],  # exit 2
    ["verify", "--scenario", "fosc-kepler-match-g1"],  # a Newton chart
    ["verify", "--scenario", "conformal-am"],
    ["integrate", "--scenario", "double-rotation-13", "--state", "1,0,0.5,0",
     "--t-end", "3"],  # node CSV of a construction scenario
    ["match", "--energies=-0.8"],
    # a start the integrator refuses: exit 2 with a manifest
    ["integrate", "--scenario", "kepler-clock", "--state", "0,0,0,0,0,0,0,0",
     "--t-end", "1"],
    ["period", "--scenario", "oscillator-1", "--state", "1e9,0"],
    # a dense 8-column CSV with exact zeros and tiny exponents
    ["integrate", "--scenario", "kepler-chart", "--state=0.73,0,0,0,0,0.93,0,0",
     "--t-end", "20", "--csv-samples", "4096"],
)

CONFIG = {"scenario": "uniform-speedup", "rescaled": True, "t_end": 5, "csv-samples": 64}


def main_digest() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "config.json").write_text(json.dumps(CONFIG))
        os.chdir(root)  # manifests echo the relative --config path
        try:
            for k, argv in enumerate(INVOCATIONS):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    main(argv + ["--out", str(Path(root) / f"{k:02d}-{argv[0]}")])
        finally:
            os.chdir(home)
        for path in sorted(Path(root).rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())

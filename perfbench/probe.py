"""One fresh start for the `setup_s` metric.

Run as `python3 perfbench/probe.py <root> <calibration>`: imports fishrope
from `<root>/src`, then makes the cheapest CLI call that builds the parser
and loads the calibration (`project`), and prints `ready`.  The parent
times from process start to that line.
"""

import contextlib
import io
import sys
from pathlib import Path


def main() -> int:
    root, calib = Path(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(root / "src"))
    from fishrope import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["project", "--calib", calib, "--theta", "0.5", "--phi", "0.25"])
    if rc != 0:
        return rc
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

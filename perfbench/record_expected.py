"""Record the expected outputs the benchmark checks ops against.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json: sha256 digests of the `bench` and scaled
`lift` reports (YAML and CSV) for every seed and checker origin the
workloads draw from, the selfcheck check names and tolerances, and the
digest of the LUT CSV artifact.  Entries already present are never
overwritten: if the current code produces different bytes for one, the
script reports the mismatch and exits 1, because an expected output is
not re-recorded to fit a change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy is imported
import workloads as w


def main() -> int:
    import yaml

    w.load_package(run.ROOT)
    calib = str(run.ROOT / w.CALIBRATION)
    fresh: dict = {"retrieval": {}, "lift_scaled": {}, "selfcheck": {}, "artifacts": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        tmpdir = Path(tmp)
        out = tmpdir / "report.yaml"
        csv = Path(str(out) + ".csv")
        for seed in w.BENCH_SEEDS:
            argv = ["bench", "--calib", calib, "--seed", str(seed), "--out", str(out)]
            if w.run_cli(argv) != 0:
                raise SystemExit(f"bench --seed {seed} failed")
            doc = yaml.safe_load(out.read_text(encoding="utf-8"))
            work = 2 * doc["config"]["n_queries"] * len(doc["config"]["encodings"])
            fresh["retrieval"][str(seed)] = _entry(out, csv, work)
        for origin in w.CHECKER_ORIGINS:
            argv = ["lift", "--calib", calib, "--patch-size", "8", "--resolution", "0.25",
                    "--checker-origin", repr(origin[0]), repr(origin[1]), "--out", str(out)]
            if w.run_cli(argv) != 0:
                raise SystemExit(f"lift --checker-origin {origin} failed")
            doc = yaml.safe_load(out.read_text(encoding="utf-8"))
            work = doc["n_visible"] * len(doc["config"]["encodings"])
            fresh["lift_scaled"][w.origin_key(origin)] = _entry(out, csv, work)
        if w.run_cli(["selfcheck", "--seed", "0", "--out", str(out)]) != 0:
            raise SystemExit("selfcheck failed")
        doc = yaml.safe_load(out.read_text(encoding="utf-8"))
        fresh["selfcheck"]["checks"] = [[c["name"], c["tolerance"]] for c in doc["checks"]]
        lut_csv = tmpdir / "lut.csv"
        argv = ["lut", "--calib", calib, "--resolution", str(w.ARTIFACT_LUT_RESOLUTION),
                "--out", str(lut_csv)]
        if w.run_cli(argv) != 0:
            raise SystemExit("lut failed")
        fresh["artifacts"]["lut_csv_sha256"] = w.sha256(lut_csv)

    recorded = w.load_expected() if w.EXPECTED_PATH.is_file() else {}
    mismatches = []
    for section, entries in fresh.items():
        have = recorded.setdefault(section, {})
        for key, value in entries.items():
            if key in have and have[key] != value:
                mismatches.append(f"{section}/{key}")
            have.setdefault(key, value)
    if mismatches:
        print("outputs differ from the recorded ones: " + ", ".join(mismatches), file=sys.stderr)
        return 1
    w.EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"expected outputs -> {w.EXPECTED_PATH}")
    return 0


def _entry(yaml_path: Path, csv_path: Path, work: int) -> dict:
    return {"yaml_sha256": w.sha256(yaml_path), "csv_sha256": w.sha256(csv_path), "work": work}


if __name__ == "__main__":
    sys.exit(main())

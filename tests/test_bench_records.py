"""Committed benchmark records (BENCH_*.json at the repository root).

A record is {"runs": [{seed, side, workload, metrics}, ...],
"quickstart_digests": {file: sha256}}: parent and change runs of
perfbench/run.py on the same seeds, with only the end-to-end metrics that
BENCHMARK.json declares, plus the seed-0 quickstart output digests.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {w["name"] for w in spec["workloads"]}, {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_pairs_sides_on_declared_metrics(path):
    workloads, metric_names = _benchmark()
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == {"runs", "quickstart_digests"}
    sides: dict = {}
    for run in record["runs"]:
        assert set(run) == {"seed", "side", "workload", "metrics"}
        assert isinstance(run["seed"], int) and run["workload"] in workloads
        assert run["side"] in ("parent", "change")
        assert run["metrics"] and set(run["metrics"]) <= metric_names
        assert all(isinstance(v, (int, float)) for v in run["metrics"].values())
        sides.setdefault((run["seed"], run["workload"]), set()).add(run["side"])
    assert sides and all(found == {"parent", "change"} for found in sides.values())
    digests = record["quickstart_digests"]
    assert digests and all(re.fullmatch(r"[0-9a-f]{64}", v) for v in digests.values())

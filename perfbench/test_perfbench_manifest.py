"""BENCHMARK.json names exactly the workloads and metrics the benchmark prints."""

from __future__ import annotations

import json
from pathlib import Path

from layers import PER_LAYER
from run import END_TO_END
from workloads import WORKLOADS

MANIFEST = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (name, spec["why"]) for name, spec in WORKLOADS.items()
    ]


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == END_TO_END
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == PER_LAYER

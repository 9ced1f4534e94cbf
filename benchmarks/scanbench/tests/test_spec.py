import json
import re
import unittest
from pathlib import Path

from .. import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK_JSON = Path(__file__).resolve().parents[3] / "BENCHMARK.json"


class DeclaredNames(unittest.TestCase):
    def test_benchmark_json_is_exactly_what_the_harness_emits(self):
        declared = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual(declared, spec.benchmark_json())

    def test_names_units_and_limits(self):
        document = spec.benchmark_json()
        self.assertEqual(
            sorted(document), ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        )
        names = (
            [w["name"] for w in document["workloads"]]
            + [m["name"] for m in document["end_to_end"]]
            + [m["name"] for m in document["per_layer"]]
        )
        self.assertEqual(len(names), len(set(names)), "a name is used once")
        for name in names:
            self.assertRegex(name, NAME)
        for metric in document["end_to_end"] + document["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for metric in document["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        for workload in document["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        self.assertTrue(2 <= len(document["workloads"]) <= 8)
        self.assertTrue(1 <= len(document["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(document["per_layer"]) <= 128)
        self.assertTrue(1 <= document["run_seconds"] <= 60)
        setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(
            setup, [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(spec.BOUNDS.values())}]
        )
        self.assertLess(len(json.dumps(document)), 64 * 1024)

    def test_every_workload_has_a_plan_and_a_unit(self):
        from ..cli import ROUNDS

        self.assertEqual(set(ROUNDS), set(spec.WORKLOADS))
        self.assertEqual(set(spec.UNITS), set(spec.WORKLOADS))

    def test_every_layer_has_its_ledger_metrics(self):
        for layer in spec.LAYERS:
            self.assertIn(f"{layer}.self_s", spec.PER_LAYER_NAMES)
            self.assertIn(f"{layer}.calls", spec.PER_LAYER_NAMES)

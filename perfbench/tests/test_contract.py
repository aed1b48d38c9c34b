"""BENCHMARK.json is well formed and matches what the benchmark reports.

Run through `python3 perfbench/run.py --test` (which builds the binary
first), or directly with `python3 -m unittest discover -s perfbench/tests`
from the repository root after a build.
"""
import json
import os
import re
import subprocess
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def binary():
    build = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(build), "perfbench")


class ContractTest(unittest.TestCase):
    def test_shape(self):
        doc = load()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(doc["command"]) <= 32)
        for arg in doc["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(doc["paths"]) <= 16)
        for path in doc["paths"]:
            self.assertRegex(path, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        self.assertIsInstance(doc["run_seconds"], int)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(doc["end_to_end"]) <= 16)
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertTrue(1 <= len(doc["per_layer"]) <= 128)
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertIn(m["better"], ("lower", "higher"))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in doc[key]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")),
                             64 * 1024)

    def test_setup_metric_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in load()["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_matches_the_binary(self):
        if not os.path.exists(binary()):
            self.skipTest("perfbench is not built")
        listed = subprocess.run([binary(), "--list-metrics"], capture_output=True,
                                text=True, check=True).stdout.split("\n")
        rows = [line.split() for line in listed if line]
        doc = load()
        self.assertEqual([r[1:] for r in rows if r[0] == "end_to_end"],
                         [[m["name"], m["unit"]] for m in doc["end_to_end"]])
        self.assertEqual([r[1:] for r in rows if r[0] == "per_layer"],
                         [[m["name"], m["unit"]] for m in doc["per_layer"]])
        self.assertEqual([r[1] for r in rows if r[0] == "workload"],
                         [w["name"] for w in doc["workloads"]])


if __name__ == "__main__":
    unittest.main()

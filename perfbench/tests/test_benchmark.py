"""Tests of the benchmark's definition and plumbing.

    python3 -m unittest discover -s perfbench/tests

Checks BENCHMARK.json against its schema and run.py's result line against
BENCHMARK.json, builds the benchmark (as perfbench/run.py does), runs the
C++ tests (self-time arithmetic, span store, result line, proxy transparency
on small sizes of each workload), and makes one short run of each kind.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
WORKLOADS = ["ctl_scale", "data_plane", "recovery"]


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_benchmark_json()

    def test_keys_and_command(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        for p in self.spec["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertIn(self.spec["run_seconds"], range(1, 61))

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, WORKLOADS)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_names_units_and_bounds(self):
        seen = set()
        for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                           ("per_layer", {"name", "unit", "better"})):
            for m in self.spec[kind]:
                self.assertEqual(set(m), keys, m)
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])
                if kind == "end_to_end":
                    self.assertGreater(m["bound"], 0)
                    self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


class ResultLine(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_benchmark_json()
        self.names = [m["name"] for m in self.spec["end_to_end"]]

    def binary_line(self, values, attempted=2):
        return json.dumps({"correct": True, "attempted": attempted,
                           "failed": 0, "values": values})

    def test_attaches_units_from_benchmark_json(self):
        values = {n: 0.125 + i for i, n in enumerate(self.names)}
        result, problems = run.result_line(self.binary_line(values), 0,
                                           self.spec)
        self.assertEqual(problems, [])
        assert_contract_line(self, json.dumps(result), 0, self.spec)
        self.assertEqual(result["metrics"]["setup_s"],
                         {"value": values["setup_s"], "unit": "s"})

    def test_rejects_missing_extra_or_unattempted(self):
        values = {n: 1.0 for n in self.names}
        for bad in ({k: v for k, v in values.items() if k != "setup_s"},
                    dict(values, not_a_metric=1.0)):
            result, problems = run.result_line(self.binary_line(bad), 0,
                                               self.spec)
            self.assertIsNone(result)
            self.assertNotEqual(problems, [])
        _, problems = run.result_line(self.binary_line(values, 0), 0,
                                      self.spec)
        self.assertNotEqual(problems, [])
        _, problems = run.result_line("spans: 3 written", 0, self.spec)
        self.assertNotEqual(problems, [])


def assert_contract_line(test, line, trace, spec):
    """`line` is a result line with every metric of the run's kind."""
    result = json.loads(line)
    test.assertEqual(set(result), {"correct", "attempted", "failed",
                                   "metrics"})
    test.assertIsInstance(result["attempted"], int)
    test.assertIsInstance(result["failed"], int)
    test.assertGreaterEqual(result["attempted"], 1)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    test.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                     wanted)
    for m in result["metrics"].values():
        test.assertEqual(set(m), {"value", "unit"})
        test.assertIsInstance(m["value"], (int, float))


class BuiltBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_benchmark_json()

    def test_cpp_tests_pass(self):
        if not os.path.exists(run.TEST_BINARY):
            self.skipTest("GoogleTest not installed: perfbench_tests not built")
        proc = subprocess.run([run.TEST_BINARY], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])

    def test_refuses_parallel_engine_settings(self):
        env = dict(os.environ, ACR_ENGINE_LANES="4")
        proc = subprocess.run([run.BINARY, "--workload", "data_plane",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              env=env, capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_short_run_prints_every_metric_with_its_unit(self):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", "data_plane", "--seed", "3", "--seconds",
                 "0.01", "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT)
            self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            assert_contract_line(self, last, trace, self.spec)
            result = json.loads(last)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()

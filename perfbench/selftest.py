"""Self-tests of the benchmark harness, using cheap requests.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import Request, json_count, passed_checks  # noqa: E402

BAROPS_ARGV = ("verify", "barops", "--format", "json")
SUBALGEBRAS_ARGV = ("render", "subalgebras")


def _request(name, argv, count_of, sha256=None):
    """A request pinned to what the program prints now, unless sha256 is given."""
    proc = run.spawn(list(argv), run.now() + 60)
    real = hashlib.sha256(proc.out).hexdigest()
    return Request(name, argv, sha256 or real, count_of(proc.out), count_of)


def _lines(name, seed, requests, trace=False):
    lines: list[str] = []
    result = run.run_workload(name, seed, 0, trace, requests=requests, say=lines.append)
    return result, [ln for ln in lines if ln.startswith("round ")]


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_child_intervals(self):
        tree = [
            ["a", 0.0, 10.0, -1],
            ["b", 1.0, 4.0, 0],
            ["c", 3.0, 6.0, 0],  # overlaps b: together they cover [1, 6]
            ["d", 2.0, 3.0, 1],
            ["a", 11.0, 12.0, -1],
        ]
        self.assertEqual(spans.self_times(tree), [5.0, 2.0, 3.0, 1.0, 1.0])
        own, inclusive = spans.totals_by_name(tree)
        self.assertEqual(own["a"], 6.0)
        self.assertEqual(inclusive["a"], 11.0)

    def test_ratios_come_from_summed_counts(self):
        dump = {
            "spans": [["homsets.search", 0.0, 2.0, -1]],
            "counts": {
                "homsets.search.maps": 10.0,
                "homsets.filter.calls": 4.0,
                "homsets.filter.passed": 1.0,
            },
        }
        m = spans.finish_ratios(spans.layer_metrics(dump))
        self.assertEqual(m["homsets.search.maps_per_s"], 5.0)
        self.assertEqual(m["homsets.filter.pass_ratio"], 0.25)
        self.assertEqual(set(m), {name for name, _, _ in spans.LAYER_METRICS})


class Gate(unittest.TestCase):
    def test_corrupted_digest_fails_every_request(self):
        good = _request("barops", BAROPS_ARGV, passed_checks)
        bad = Request(good.name, good.argv, "0" * 64, good.count, good.count_of)
        result, _ = _lines("selftest", 0, (good,))
        self.assertEqual(result["failed"], 0)
        result, lines = _lines("selftest", 0, (bad,))
        self.assertEqual(result["failed"] / result["attempted"], 1.0)
        self.assertFalse(result["correct"])
        self.assertIn("FAILED", lines[0])

    def test_seeds_change_the_order_but_not_the_outputs(self):
        requests = (
            _request("barops", BAROPS_ARGV, passed_checks),
            _request("subalgebras", SUBALGEBRAS_ARGV, json_count),
        )
        orders, digests = [], []
        for seed in (1, 2):
            result, lines = _lines("selftest", seed, requests)
            self.assertTrue(result["correct"])
            orders.append([ln.split()[2] for ln in lines])
            digests.append(sorted((ln.split()[2], ln.split("sha256 ")[1]) for ln in lines))
        self.assertNotEqual(orders[0], orders[1])
        self.assertEqual(digests[0], digests[1])


class HostSpeed(unittest.TestCase):
    def test_timed_requests_are_scaled_by_the_reference_kernel(self):
        self.assertGreater(run.reference(run.now() + 60), 0.0)
        req = _request("barops", BAROPS_ARGV, passed_checks)
        result, lines = _lines("selftest", 0, (req,))
        slowdown = float(lines[0].split("host slowdown ")[1].split(",")[0])
        wall = float(lines[0].split("wall ")[1].split()[0])
        self.assertAlmostEqual(
            result["metrics"]["scaled_wall_s"]["value"], wall / slowdown, delta=0.002
        )


class Tracing(unittest.TestCase):
    def test_wrappers_reach_imported_copies_and_registries(self):
        for argv, count_of, wanted in (
            (BAROPS_ARGV, passed_checks, "verify.barops"),  # via verify.SUITES
            (SUBALGEBRAS_ARGV, json_count, "render.payload"),  # via RENDERABLES
        ):
            req = _request("r", argv, count_of)
            outcome = run.run_request(req, run.now() + 60, trace=True)
            self.assertTrue(outcome.ok, outcome.problems)
            names = {s[0] for s in outcome.dump["spans"]}
            self.assertIn(wanted, names)
            self.assertIn("cli.main", names)
            roots = [s for s in outcome.dump["spans"] if s[3] < 0]
            self.assertEqual([s[0] for s in roots], ["cli.main"])
            self.assertEqual(outcome.dump["missing"], [])

    def test_a_target_the_library_lacks_is_reported(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        targets = spans.SPAN_TARGETS
        spans.SPAN_TARGETS = targets + (
            ("hairycube.homsets", "no_such_search", "homsets.search", None, None),
        )
        try:
            missing = spans.install(spans.Recorder())
        finally:
            spans.SPAN_TARGETS = targets
        self.assertEqual(missing, ["hairycube.homsets.no_such_search"])

    def test_table_ops_count_the_clone_closure(self):
        req = _request("r", ("verify", "birkhoff", "--n", "2", "--format", "json"),
                       passed_checks)
        outcome = run.run_request(req, run.now() + 60, trace=True)
        self.assertTrue(outcome.ok, outcome.problems)
        self.assertGreater(outcome.layers["homsets.clone_closure.self_s"], 0)
        self.assertGreater(outcome.layers["core.table_ops.calls"], 0)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_the_harness_reports(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        listed = [w["name"] for w in bench["workloads"]]
        self.assertEqual(listed, list(run.WORKLOADS)[: len(listed)])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [tuple(m) for m in spans.LAYER_METRICS],
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            {"scaled_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"},
        )


if __name__ == "__main__":
    unittest.main()

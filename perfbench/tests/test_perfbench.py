"""Self-tests of the benchmark: metric listing, the simulated-outcome gate,
thread-count independence of the fingerprint, and the sampler.

    python3 -m unittest discover -s perfbench/tests -v
"""
import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
TMP = os.path.join(ROOT, ".bench_build", "tests")

sys.dont_write_bytecode = True
sys.path.insert(0, BENCH)
import run  # noqa: E402


def bench(*args):
    """Run run.py; returns its result object."""
    out = subprocess.run([sys.executable, RUN] + list(args), check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


_traced = {}


def traced_pair_home():
    if not _traced:
        _traced.update(bench("--workload", "pair_home", "--seed", "0",
                             "--seconds", "2", "--trace", "1"))
    return _traced


class MetricListTest(unittest.TestCase):
    def test_list_prints_every_benchmark_metric_with_unit(self):
        out = subprocess.run([sys.executable, RUN, "--list"], check=True,
                             capture_output=True, text=True).stdout
        listed = {(line.split()[0], line.split()[1], line.split()[2])
                  for line in out.splitlines()}
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        expected = {("end_to_end", m["name"], m["unit"])
                    for m in spec["end_to_end"]}
        expected |= {("per_layer", m["name"], m["unit"])
                     for m in spec["per_layer"]}
        self.assertEqual(listed, expected)

    def test_trace_run_reports_every_per_layer_metric(self):
        result = traced_pair_home()
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        names = set(result["metrics"])
        self.assertEqual(names, {n for n, _, _ in run.PER_LAYER})


class GateTest(unittest.TestCase):
    """The gate in-process, on one fingerprint-only pair_home run."""

    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(TMP, exist_ok=True)
        cls.seed = run.cluster_seed(0)
        cls.refs = run.load_refs()
        cls.result = run.harness("pair_home", cls.seed, 0,
                                 os.path.join(TMP, "gate.json"),
                                 fingerprint_only=True)

    def gate(self, result, refs=None):
        return run.check(result, refs or self.refs, self.seed)

    def assert_fails_every_request(self, attempted, failed, problems):
        self.assertTrue(problems)
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, attempted)

    def test_reference_run_passes(self):
        attempted, failed, problems = self.gate(self.result)
        self.assertGreater(attempted, 0)
        self.assertEqual((failed, problems), (0, []))

    def test_perturbed_reference_fails_every_request(self):
        refs = copy.deepcopy(self.refs)
        refs["pair_home"][str(self.seed)]["p99_ns"] += 1
        self.assert_fails_every_request(*self.gate(self.result, refs))

    def test_simulator_mechanics_do_not_enter_the_gate(self):
        # A faster simulator of the same cluster: fewer epochs, mailbox
        # messages and events, identical simulated counters.
        faster = copy.deepcopy(self.result)
        snap = faster["snap_ref"]
        for key in snap:
            if key.startswith(run.SIM_MECHANICS):
                snap[key] //= 2
        self.assertIn("pdes.epochs", snap)
        self.assertIn("sim.events", snap)
        self.assertEqual(self.gate(faster)[1:], (0, []))

    def test_changed_simulated_counter_fails_every_request(self):
        changed = copy.deepcopy(self.result)
        changed["snap_ref"]["fabric.frames"] += 1
        self.assert_fails_every_request(*self.gate(changed))


class ThreadCountTest(unittest.TestCase):
    def test_leafspine_fingerprint_same_at_1_and_4_threads(self):
        run.build()
        os.makedirs(TMP, exist_ok=True)
        seed = run.cluster_seed(0)
        prints = []
        for threads in (1, 4):
            out = os.path.join(TMP, "leafspine_t%d.json" % threads)
            prints.append(run.fingerprint(run.harness(
                "leafspine_scale", seed, 0, out, threads=threads,
                fingerprint_only=True)))
        self.assertEqual(prints[0], prints[1])
        self.assertEqual(prints[0],
                         run.load_refs()["leafspine_scale"][str(seed)])


class TracedRunTest(unittest.TestCase):
    def test_sampler_attributes_most_samples_to_pd_modules(self):
        m = traced_pair_home()["metrics"]
        pd_share = sum(m[mod + ".host_share"]["value"] for mod in run.MODULES)
        self.assertGreater(pd_share, 0.5)

    def test_barrier_wait_share_is_zero_at_one_thread(self):
        m = traced_pair_home()["metrics"]
        self.assertEqual(m["sim.pdes_barrier_wait_share"]["value"], 0)


if __name__ == "__main__":
    unittest.main()

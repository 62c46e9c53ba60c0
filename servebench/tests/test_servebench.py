"""Self-tests of the serving benchmark harness.

    python3 -m unittest discover -s servebench/tests -v

Run from the repository root; the first test builds the benchmark's
binaries (servebench/CMakeLists.txt) the way run.py does. The inputs are
tiny networks, so the whole suite takes well under a minute once built.
"""

import json
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def tiny_spec(start=None, **overrides):
    spec = dict(run.WORKLOADS["cold_mix" if start is None else "live_ingest"])
    spec.update(start=start, replays=1, sample_every=7, conns=1, ladder=False)
    spec.pop("warm_up_s", None)
    spec.update(overrides)
    return spec


class Tiny:
    """A 2000-node network and a workload, written into a temporary directory."""

    def __init__(self, tools, work, genload):
        self.tools, self.work = tools, work
        self.net = work / "net.san"
        self.workload = work / "workload.txt"
        run.run_checked([tools["san_tool"], "generate", "--kind", "gplus",
                         "--nodes", "2000", "--seed", "5", "-o", self.net])
        run.run_checked([tools["san_tool"], "genload", "--nodes", "2000",
                         "--seed", "5", *genload, "-o", self.workload])
        self.steps = run.workload_steps(self.workload)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tools = run.build()
        cls.e2e, cls.layer = run.declared_metrics()

    def setUp(self):
        self.work = Path(tempfile.mkdtemp(dir=run.build_dir()))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_metric_names_are_valid_and_unique(self):
        spec = json.loads(run.BENCHMARK_JSON.read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        self.assertIn("setup_s", self.e2e)

    def emitted(self, spec, genload):
        """Both metric sets a run of `spec` emits, from real phases."""
        tiny = Tiny(self.tools, self.work, genload)
        spec = dict(spec, ingests=sum(s.startswith("ingest ") for s in tiny.steps))
        queries = len(tiny.steps) - spec["ingests"]
        _, sample = run.reference(self.tools, tiny.net, tiny.workload, spec)
        lines, figures, _ = run.replay(self.tools, tiny.net, tiny.workload, spec,
                                       self.work)
        self.assertEqual(run.replay_failures(lines, queries, sample), 0)
        socket = run.Socket(self.tools, tiny.steps, lines, spec, self.work)
        stats = self.work / "stats.json"
        server = run.Server(self.tools, tiny.net, spec, stats_json=stats)
        try:
            client = socket.send(server, range(len(tiny.steps)), 2000.0)
        finally:
            server.stop()
        self.assertEqual(socket.failed, 0)
        e2e = run.e2e_metrics([server.setup_s], [figures])
        cmd = [self.tools["servebench_trace"], "trace", tiny.net, tiny.workload,
               "--sample", "3"]
        if spec["start"] is not None:
            cmd += ["--start", repr(spec["start"])]
        traced = json.loads(run.run_checked(cmd).stdout.strip().splitlines()[-1])
        self.assertEqual(traced["check.mismatches"], 0)
        layer = run.layer_metrics(traced, json.loads(stats.read_text()), client,
                                  0.0)
        return e2e, layer

    def test_static_workload_emits_exactly_the_declared_metrics(self):
        e2e, layer = self.emitted(tiny_spec(), ["--queries", "300"])
        self.assertEqual(set(e2e), set(self.e2e))
        self.assertEqual(set(layer), set(self.layer))
        self.assertTrue(run.result(e2e, self.e2e, 1, 0)["correct"])
        self.assertTrue(run.result(layer, self.layer, 1, 0)["correct"])

    def test_live_workload_emits_exactly_the_declared_metrics(self):
        e2e, layer = self.emitted(
            tiny_spec(start=0.0),
            ["--queries", "400", "--ingest", "0.05", "--now", "0.5", "--mix",
             run.POINT_MIX])
        self.assertEqual(set(e2e), set(self.e2e))
        self.assertEqual(set(layer), set(self.layer))
        self.assertGreater(layer["live_timeline.events"], 0)

    def test_result_refuses_a_metric_set_that_differs(self):
        e2e = dict.fromkeys(self.e2e, 1.0)
        del e2e["setup_s"]
        with self.assertRaises(run.BenchError):
            run.result(e2e, self.e2e, 1, 0)

    def test_failures_count_malformed_lines_and_refused_ingests(self):
        spec = tiny_spec(start=0.0)
        tiny = Tiny(self.tools, self.work, ["--queries", "1", "--mix", "ego:1"])
        # User 1999 joins late in the 2000-node network: at day 0 the
        # answer is `ok=false` (rendered `ERR unknown-node` inside the
        # line), a valid answer and no failure.
        clean = ["ego 0 1999", "ingest 2", "ego now 3", "ingest 4",
                 "linkrec now 3 2"]
        tiny.workload.write_text("\n".join(clean) + "\n")
        spec["ingests"] = 2
        answers, _, _ = run.replay(self.tools, tiny.net, tiny.workload, spec,
                                   self.work)
        self.assertEqual(run.replay_failures(answers, 3, {}), 0)
        self.assertIn("ERR unknown-node", answers[0])
        self.assertFalse(answers[0].startswith("ERR "))

        # The same stream with a malformed query and a refused ingest (its
        # tip does not advance) injected; neither has a valid answer.
        dirty = clean[:2] + ["linkrec zz 3 2", "ingest 1"] + clean[2:]
        replayed = answers[:1] + ["<no valid answer>"] + answers[1:]
        socket = run.Socket(self.tools, dirty, replayed, spec, self.work)
        server = run.Server(self.tools, tiny.net, spec)
        try:
            r = socket.send(server, range(len(dirty)), 200.0)
        finally:
            server.stop()
        self.assertEqual(r["errors"], 2)
        self.assertEqual(r["failed"], 2)
        self.assertEqual(socket.attempted, len(dirty))

    def test_count_failures_counts_missing_and_extra_answers(self):
        self.assertEqual(run.count_failures(["a", "b"], ["a", "b"]), 0)
        self.assertEqual(run.count_failures(["a", "b"], ["a", ""]), 1)
        self.assertEqual(run.count_failures(["a", "b"], ["a"]), 1)
        self.assertEqual(run.count_failures(["a"], ["a", "x"]), 1)

    def test_same_seed_writes_identical_inputs(self):
        nodes = run.WORKLOADS["cold_mix"]["nodes"]
        nets = [self.work / "a.san", self.work / "b.san"]
        for net in nets:
            run.generate_network(self.tools, nodes, net)
        self.assertTrue(nets[0].read_bytes() == nets[1].read_bytes())
        loads = [run.make_inputs(self.tools, "cold_mix", seed, self.work / str(i))[1]
                 for i, seed in enumerate((7, 7, 8))]
        self.assertTrue(loads[0].read_bytes() == loads[1].read_bytes())
        self.assertFalse(loads[0].read_bytes() == loads[2].read_bytes())

    def test_hot_point_days_move_to_the_last_week(self):
        text = "# header\nego 0 5\nlinkrec 6 7 3\nego now 2\ningest 3.5\n"
        self.assertEqual(run.shift_days(text, 92),
                         "# header\nego 92 5\nlinkrec 98 7 3\nego now 2\n"
                         "ingest 3.5\n")


if __name__ == "__main__":
    unittest.main()

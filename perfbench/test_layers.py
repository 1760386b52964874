"""Self-test of the benchmark's own logic (no build needed):

    python3 perfbench/test_layers.py
"""

import unittest

import layers


def span(sid, parent, t0, t1, layer="x", label="", tid=0, instr=0,
         cycles=0):
    return {"id": sid, "parent": parent, "tid": tid, "layer": layer,
            "label": label, "t0": t0, "t1": t1, "instr": instr,
            "cycles": cycles}


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        st = layers.self_times_ns([span(1, 0, 10, 30)])
        self.assertEqual(st, {1: 20})

    def test_overlapping_children_count_once(self):
        # Children [1,4] and [3,6] overlap: together they cover [1,6].
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 4), span(3, 1, 3, 6)]
        self.assertEqual(layers.self_times_ns(spans)[1], 10 - 5)

    def test_child_past_parent_is_clipped(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 8, 12)]
        self.assertEqual(layers.self_times_ns(spans)[1], 8)

    def test_nested_child_inside_child(self):
        # A grandchild is covered by its parent, never subtracted twice.
        spans = [span(1, 0, 0, 10), span(2, 1, 2, 8), span(3, 2, 3, 5),
                 span(4, 1, 7, 9)]
        st = layers.self_times_ns(spans)
        self.assertEqual(st[1], 10 - 7)  # children cover [2,9]
        self.assertEqual(st[2], 6 - 2)
        self.assertEqual(st[3], 2)

    def test_main_thread_self_times_tile_the_root(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 50),
                 span(3, 2, 20, 30), span(4, 1, 50, 70),
                 span(5, 0, 0, 100, tid=1)]  # other thread: not a child
        st = layers.self_times_ns(spans)
        self.assertEqual(sum(st[i] for i in (1, 2, 3, 4)), 100)
        self.assertEqual(st[5], 100)

    def test_covered_ns_unsorted_and_contained(self):
        self.assertEqual(
            layers.covered_ns(0, 100, [(50, 60), (0, 10), (52, 55),
                                       (5, 20)]), 30)


class Classification(unittest.TestCase):
    CASES = {
        "REF": "ref",
        "IDEAL": "core.ideal",
        "OOOVA-16/16r/early": "core.ooo",
        "OOOVA-16/9r/late": "core.ooo",
        "OOOVA-16/16r/early/x2": "core.ooo",
        "OOOVA-16/32r/late/sle": "core.sle",
        "OOOVA-16/32r/late/sle+vle": "core.sle",
        "OOOVA-16/16r/early/mb8p1x2s": "mem",
        "OOOVA-16/16r/early/c32k4w8m/t64e4k": "mem",
        "OOOVA-16/16r/late/t8e4ks": "mem",
        "REF/mb8p1/t16e4k": "mem",
        "REF/c32k4w8m/t64e4k": "mem",
    }

    def test_each_label_has_one_class(self):
        for label, cls in self.CASES.items():
            self.assertEqual(layers.class_matches(label), [cls], label)

    def test_unknown_or_ambiguous_labels_are_unclassified(self):
        for label in ("", "VLIW-8", "OOOVA-16/32r/late/sle/mb8p1"):
            self.assertIsNone(layers.classify(label), label)

    def test_unclassified_metric_counts_results(self):
        summary = {"threads": 1, "figures": 1, "results": 3,
                   "pass_s": 1.0, "to_json_s": 0.0, "from_json_s": 0.0,
                   "labels": {"REF": 2, "VLIW-8": 1},
                   "store": {"hits": 0, "misses": 0, "stores": 0,
                             "bytes_read": 0, "bytes_written": 0,
                             "quarantined": 0}}
        m = layers.layer_metrics([], summary, 1.0)
        self.assertEqual(m["unclassified.jobs"], 1)


class LayerMetrics(unittest.TestCase):
    def test_pass_breakdown(self):
        # One figure whose batch runs a REF job and a prefetch on a
        # worker thread; the job's trace is generated inside it.
        spans = [
            span(1, 0, 0, 100, "figure", "fig3"),
            span(2, 1, 10, 90, "sweep"),
            span(3, 0, 20, 60, "job", "REF", tid=1, instr=4000,
                 cycles=9000),
            span(4, 0, 12, 20, "tgen", "swm256", tid=1, instr=1000),
            span(5, 0, 60, 62, "job", "", tid=1),
            span(6, 0, 100, 110, "render", "fig3"),
        ]
        summary = {"threads": 2, "figures": 1, "results": 1,
                   "pass_s": 110e-9, "to_json_s": 1e-6,
                   "from_json_s": 2e-6, "labels": {"REF": 1},
                   "store": {"hits": 0, "misses": 0, "stores": 0,
                             "bytes_read": 0, "bytes_written": 0,
                             "quarantined": 0}}
        m = layers.layer_metrics(spans, summary, 100e-9)
        self.assertEqual(m["ref.jobs"], 1)
        self.assertAlmostEqual(m["ref.time_s"], 40e-9)
        self.assertAlmostEqual(m["ref.minstr_per_s"], 4000 / 40e-9 / 1e6)
        self.assertEqual(m["core.ooo.jobs"], 0)
        self.assertAlmostEqual(m["sweep.busy_s"], (40 + 2 + 8) * 1e-9)
        self.assertAlmostEqual(m["sweep.parallel_eff"], 50 / (2 * 80))
        self.assertAlmostEqual(m["figure.self_s"], 20e-9)
        self.assertAlmostEqual(m["traced.coverage"], 1.0)
        self.assertAlmostEqual(m["traced.overhead_s"], 10e-9)
        self.assertAlmostEqual(m["simresult.from_json_us"], 2.0)
        counts = layers.exact_counts(spans, summary)
        self.assertEqual(counts["ref"],
                         {"jobs": 1, "instr": 4000, "cycles": 9000})
        self.assertEqual(counts["tgen"], {"traces": 1, "instr": 1000})


if __name__ == "__main__":
    unittest.main()

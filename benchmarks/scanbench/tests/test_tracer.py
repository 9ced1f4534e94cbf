import sys
import unittest

from .. import tracer


class SelfTimeArithmetic(unittest.TestCase):
    def test_nested_and_sibling_spans(self):
        recorder = tracer.SpanRecorder()
        root = recorder.record("iteration", tracer.HARNESS, 0.0, 10.0)
        scan = recorder.record("QScanner.scan", "scanners", 1.0, 7.0, parent=root)
        connect = recorder.record("connect", "quic", 2.0, 6.0, parent=scan)
        recorder.record("seal", "crypto", 2.5, 3.5, parent=connect)
        recorder.record("open", "crypto", 4.0, 5.5, parent=connect)  # sibling
        recorder.record("load_campaign", "warehouse", 8.0, 9.5, parent=root)  # sibling of scan
        self_times = recorder.self_times()
        self.assertAlmostEqual(self_times[root], 10.0 - 6.0 - 1.5)
        self.assertAlmostEqual(self_times[scan], 6.0 - 4.0)
        self.assertAlmostEqual(self_times[connect], 4.0 - 1.0 - 1.5)
        ledger = recorder.layer_ledger()
        self.assertAlmostEqual(ledger["crypto"]["self_s"], 2.5)
        self.assertEqual(ledger["crypto"]["calls"], 2)
        # the ledger accounts for every second of the root span, once
        self.assertAlmostEqual(sum(entry["self_s"] for entry in ledger.values()), 10.0)

    def test_overlapping_children_are_not_subtracted_twice(self):
        recorder = tracer.SpanRecorder()
        root = recorder.record("root", tracer.HARNESS, 0.0, 10.0)
        recorder.record("a", "netsim", 1.0, 6.0, parent=root)
        recorder.record("b", "netsim", 4.0, 8.0, parent=root)
        self.assertAlmostEqual(recorder.self_times()[root], 10.0 - 7.0)

    def test_wrapped_calls_nest_by_call_stack(self):
        recorder = tracer.SpanRecorder()
        inner = recorder.wrap(lambda: 1, "inner", "crypto")
        outer = recorder.wrap(lambda: inner() + inner(), "outer", "quic")
        self.assertEqual(tracer.traced_call(recorder, outer), 2)
        names = [recorder.labels[label][0] for label in recorder.label_of]
        self.assertEqual(names, ["iteration", "outer", "inner", "inner"])
        self.assertEqual(list(recorder.parent_of), [-1, 0, 1, 1])

    def test_exception_closes_the_span(self):
        recorder = tracer.SpanRecorder()

        def boom():
            raise ValueError("boom")

        with self.assertRaises(ValueError):
            recorder.wrap(boom, "boom", "tls")()
        self.assertGreater(recorder.ends[0], 0.0)
        self.assertEqual(recorder.wrap(lambda: 7, "after", "tls")(), 7)
        self.assertEqual(recorder.parent_of[1], -1)

    def test_chrome_trace_export(self):
        recorder = tracer.SpanRecorder(trace_id="t1")
        recorder.record("seal", "crypto", 1.0, 1.5)
        event = recorder.chrome_trace()["traceEvents"][0]
        self.assertEqual((event["name"], event["cat"], event["ph"]), ("seal", "crypto", "X"))
        self.assertAlmostEqual(event["dur"], 0.5e6)


class InstallRestore(unittest.TestCase):
    def test_every_patched_attribute_is_put_back_identically(self):
        import importlib

        before = {}
        for _layer, module_name, class_name, attributes in tracer.BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attribute in attributes:
                before[(module_name, class_name, attribute)] = vars(owner)[attribute]
        namespaces_before = {
            (name, key): value
            for name, module in sys.modules.items()
            if module is not None and (name == "repro" or name.startswith("repro."))
            for key, value in vars(module).items()
            if callable(value)
        }

        recorder = tracer.SpanRecorder()
        patches = tracer.install(recorder)
        self.assertGreater(len(patches), len(before) - 1)
        from repro.crypto.aead import AeadSim
        from repro.quic import connection

        self.assertIsNot(vars(AeadSim)["seal"], before[("repro.crypto.aead", "AeadSim", "seal")])
        # `from x import y` namespaces see the wrapper too
        self.assertTrue(hasattr(connection.protect_long, "__wrapped__"))
        AeadSim(b"k" * 16).seal(b"n" * 12, b"payload", b"aad")
        self.assertEqual(len(recorder), 1)
        patches.restore()

        for (module_name, class_name, attribute), original in before.items():
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self.assertIs(vars(owner)[attribute], original, (module_name, class_name, attribute))
        for (name, key), value in namespaces_before.items():
            self.assertIs(vars(sys.modules[name])[key], value, (name, key))
        AeadSim(b"k" * 16).seal(b"n" * 12, b"payload", b"aad")
        self.assertEqual(len(recorder), 1)  # no longer recording

    def test_static_and_class_methods_keep_their_binding(self):
        class Sample:
            @staticmethod
            def static(x):
                return x + 1

            @classmethod
            def make(cls, x):
                return cls, x

        recorder = tracer.SpanRecorder()
        for name in ("static", "make"):
            wrapped = tracer._wrap_descriptor(vars(Sample)[name], recorder, name, "quic")
            setattr(Sample, name, wrapped)
        self.assertEqual(Sample.static(1), 2)
        self.assertEqual(Sample().make(3), (Sample, 3))
        self.assertEqual(len(recorder), 2)

"""Exported traces are byte-stable across runs: key order and span
attribute order are normalised by the exporters, so goldens and diffs
of emitted data never churn on dict ordering."""

import json


class TestExportDeterminism:
    def _trace_bytes(self, tmp_path, name):
        from repro.obs import Tracer
        from repro.obs.export import write_chrome_trace, write_json_lines

        tracer = Tracer()
        # Attributes inserted in different orders across spans: the
        # exporter must normalize them.
        with tracer.span("run", zulu=1, alpha=2):
            tracer.counters.add("marshal.crossings", 2)
        with tracer.span("run.offload", beta=1, aleph=2):
            tracer.counters.add("cache.hit", 1)
        chrome = tmp_path / f"{name}.json"
        jsonl = tmp_path / f"{name}.jsonl"
        write_chrome_trace(tracer, str(chrome))
        write_json_lines(tracer, str(jsonl))
        return chrome.read_bytes(), jsonl.read_bytes()

    def test_chrome_and_jsonl_stable(self, tmp_path):
        a_chrome, a_jsonl = self._trace_bytes(tmp_path, "a")
        b_chrome, b_jsonl = self._trace_bytes(tmp_path, "b")

        # Timestamps/durations differ run to run; key order and
        # attribute order must not.
        assert json.dumps(
            sorted(json.loads(a_chrome)["traceEvents"][0]["args"])
        ) == json.dumps(
            sorted(json.loads(b_chrome)["traceEvents"][0]["args"])
        )
        for line_a, line_b in zip(
            a_jsonl.decode().splitlines(), b_jsonl.decode().splitlines()
        ):
            obj_a, obj_b = json.loads(line_a), json.loads(line_b)
            assert list(obj_a) == list(obj_b)
            if obj_a.get("type") == "span":
                assert list(obj_a["attributes"]) == \
                    list(obj_b["attributes"])
                assert list(obj_a["attributes"]) == \
                    sorted(obj_a["attributes"])

    def test_span_args_sorted_in_chrome_trace(self, tmp_path):
        chrome, _ = self._trace_bytes(tmp_path, "c")
        payload = json.loads(chrome)
        for event in payload["traceEvents"]:
            if event.get("ph") == "X":
                keys = list(event["args"])
                assert keys == sorted(keys)

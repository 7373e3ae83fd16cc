"""Tests for the command-line interface and the IDE-style views."""

import os
import shutil

import pytest

from tests.lime_sources import FIGURE1
from repro import schema
from repro.cli import _parse_value, main
from repro.compiler import compile_program
from repro.ide import annotate_source, exclusion_notes
from repro.values import KIND_INT, ValueArray


@pytest.fixture()
def bitflip_file(tmp_path):
    path = tmp_path / "bitflip.lime"
    path.write_text(FIGURE1)
    return str(path)


class TestParseValue:
    def test_scalars(self):
        assert _parse_value("42") == 42
        assert _parse_value("2.5") == 2.5
        assert _parse_value("true") is True
        assert _parse_value("false") is False

    def test_bit_literal(self):
        value = _parse_value("101b")
        assert repr(value) == "101b"

    def test_arrays(self):
        assert _parse_value("ints:1,2,3") == ValueArray(KIND_INT, [1, 2, 3])
        floats = _parse_value("floats:0.5,1.5")
        assert list(floats) == [0.5, 1.5]
        bits = _parse_value("bits:1,0")
        assert repr(bits) == "01b"

    def test_garbage_rejected(self):
        with pytest.raises(SystemExit):
            _parse_value("wat?")


class TestCommands:
    def test_compile(self, bitflip_file, capsys):
        assert main(["compile", bitflip_file]) == 0
        out = capsys.readouterr().out
        assert "task graphs:" in out
        assert "source(1) => [flip] => sink" in out

    def test_run(self, bitflip_file, capsys):
        code = main(
            ["run", bitflip_file, "Bitflip.taskFlip", "110010111b"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "001101000b" in out

    def test_run_with_time(self, bitflip_file, capsys):
        main(
            [
                "run",
                bitflip_file,
                "Bitflip.taskFlip",
                "101b",
                "--time",
            ]
        )
        out = capsys.readouterr().out
        assert "simulated time:" in out

    def test_run_cpu_only(self, bitflip_file, capsys):
        assert (
            main(
                [
                    "run",
                    bitflip_file,
                    "Bitflip.taskFlip",
                    "101b",
                    "--cpu-only",
                ]
            )
            == 0
        )
        assert "010b" in capsys.readouterr().out

    def test_markers(self, bitflip_file, capsys):
        assert main(["markers", bitflip_file]) == 0
        out = capsys.readouterr().out
        assert "●" in out
        assert "legend" in out

    def test_graphs(self, bitflip_file, capsys):
        assert main(["graphs", bitflip_file]) == 0
        out = capsys.readouterr().out
        assert "Bitflip.taskFlip#g0" in out
        assert "gpu" in out and "fpga" in out

    def test_disas(self, bitflip_file, capsys):
        assert main(["disas", bitflip_file]) == 0
        out = capsys.readouterr().out
        assert ".method Bitflip.flip" in out
        assert "MKTASK" in out

    def test_emit_opencl(self, bitflip_file, capsys):
        assert main(["emit-opencl", bitflip_file]) == 0
        assert "__kernel" in capsys.readouterr().out

    def test_emit_verilog(self, bitflip_file, capsys):
        assert main(["emit-verilog", bitflip_file]) == 0
        assert "module mod_Bitflip_flip" in capsys.readouterr().out

    def test_emit_verilog_none(self, tmp_path, capsys):
        path = tmp_path / "nofpga.lime"
        path.write_text(
            "class T { local static float f(float x) { return x; } "
            "static float[[]] m(float[[]] xs) { return T @ f(xs); } }"
        )
        assert main(["emit-verilog", str(path)]) == 1

    def test_no_gpu_flag(self, bitflip_file, capsys):
        assert main(["compile", bitflip_file, "--no-gpu"]) == 0
        out = capsys.readouterr().out
        assert "gpu:" not in out

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.lime"
        path.write_text("class T { static int f() { return true; } }")
        assert main(["compile", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent.lime"]) == 1

    def test_build_repository(self, bitflip_file, tmp_path, capsys):
        out_dir = str(tmp_path / "repo")
        assert main(["build", bitflip_file, "-o", out_dir]) == 0
        assert "artifact cache" in capsys.readouterr().out
        # The cache layout (docs/CACHING.md): verified entries under
        # objects/ and one program index entry; a second build is warm.
        assert sorted(os.listdir(out_dir)) == ["objects", "programs"]
        assert len(os.listdir(os.path.join(out_dir, "objects"))) == 3
        assert len(os.listdir(os.path.join(out_dir, "programs"))) == 1
        assert main(["build", bitflip_file, "-o", out_dir]) == 0
        assert "(warm)" in capsys.readouterr().out

    def test_emit_testbench(self, bitflip_file, capsys):
        assert (
            main(
                ["emit-testbench", bitflip_file, "--inputs", "bits:1,0"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "module tb_mod_Bitflip_flip" in out


class TestIDEViews:
    def test_marker_on_relocation_line(self):
        compiled = compile_program(FIGURE1)
        body_lines = annotate_source(compiled).splitlines()[:-1]  # drop legend
        marked = [line for line in body_lines if "●" in line]
        assert len(marked) == 1
        assert "task flip" in marked[0]
        assert "FG" in marked[0]  # both device artifacts exist

    def test_no_markers_without_artifacts(self):
        source = (
            "class T { local static float f(float x) { return x; } }"
        )
        compiled = compile_program(source)
        body_lines = annotate_source(compiled).splitlines()[:-1]
        assert not any("●" in line for line in body_lines)

    def test_exclusion_notes(self):
        source = """
        class T {
            local static float f(float x) { return x + 1.0f; }
            static void m(float[[]] xs, float[] out) {
                var t = xs.source(1) => ([ task f ]) => out.sink();
                t.finish();
            }
        }
        """
        compiled = compile_program(source)
        notes = exclusion_notes(compiled)
        assert "[fpga]" in notes
        assert "synthesizable" in notes

    def test_exclusion_notes_empty(self):
        compiled = compile_program("class T { }")
        assert exclusion_notes(compiled) == "(no exclusions)"


class TestProfileAndFormat:
    def test_run_profile_flag(self, bitflip_file, capsys):
        assert (
            main(
                [
                    "run",
                    bitflip_file,
                    "Bitflip.taskFlip",
                    "101b",
                    "--cpu-only",
                    "--profile",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "method profile" in out
        assert "Bitflip.flip" in out  # ran on the CPU, so it appears

    def test_format_normalizes(self, tmp_path, capsys):
        messy = tmp_path / "messy.lime"
        messy.write_text(
            "class   T{static int m(int x){return x   + 1 ;}}"
        )
        assert main(["format", str(messy)]) == 0
        out = capsys.readouterr().out
        assert "class T {" in out
        assert "return x + 1;" in out

    def test_runtime_profile_api(self):
        from repro.apps import SUITE, compile_app
        from repro.runtime import (
            Runtime,
            RuntimeConfig,
            SubstitutionPolicy,
        )

        runtime = Runtime(
            compile_app("crc8"),
            RuntimeConfig(policy=SubstitutionPolicy(use_accelerators=False)),
        )
        entry, args = SUITE["crc8"].default_args()
        runtime.run(entry, args)
        profile = runtime.profile(top=5)
        names = [name for name, _, _ in profile]
        assert "Crc8.step" in names
        step = dict(
            (name, (calls, cycles)) for name, calls, cycles in profile
        )["Crc8.step"]
        assert step[0] == 256  # one call per stream item
        # Sorted by inclusive cycles descending.
        cycle_counts = [cycles for _, _, cycles in profile]
        assert cycle_counts == sorted(cycle_counts, reverse=True)


class TestBatchSizeFlag:
    def test_run_accepts_batch_size(self, bitflip_file, capsys):
        # Same program, true per-element crossings: identical output.
        code = main(
            [
                "run",
                bitflip_file,
                "Bitflip.taskFlip",
                "110010111b",
                "--batch-size",
                "1",
            ]
        )
        assert code == 0
        assert "001101000b" in capsys.readouterr().out

    def test_batch_size_must_be_positive(self, bitflip_file, capsys):
        code = main(
            [
                "run",
                bitflip_file,
                "Bitflip.taskFlip",
                "101b",
                "--batch-size",
                "0",
            ]
        )
        assert code != 0
        assert "batch_size must be positive" in capsys.readouterr().err


#: A map whose broadcast operand (``taps``) is the same on every one of
#: the entry's three dispatches: the guard stays stable, so
#: specialization compiles a variant after the configured streak.
STABLE_TAPS = """
public class Taps {
    local static float scale(int i, float[[]] taps) {
        return taps[i % taps.length] * 2.0f;
    }
    static float thrice(int[[]] indices, float[[]] taps) {
        float[[]] a = Taps @ scale(indices, taps);
        float[[]] b = Taps @ scale(indices, taps);
        float[[]] c = Taps @ scale(indices, taps);
        return a[1] + b[2] + c[3];
    }
}
"""


def _counters(out: str) -> dict:
    """The ``counters:`` block a ``trace``/``faults`` run prints."""
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and line.startswith("  "):
            try:
                rows[parts[1]] = float(parts[0])
            except ValueError:
                continue
    return rows


class TestRuntimeSettingFlags:
    """The CLI flags that set the runtime's retry budget and kernel
    specialization streak, end to end."""

    def test_specialize_after_compiles_a_variant(self, tmp_path, capsys):
        path = tmp_path / "taps.lime"
        path.write_text(STABLE_TAPS)
        argv = [
            "trace", str(path),
            "ints:" + ",".join(str(i) for i in range(64)),
            "floats:1.5,2.5,3.5",
            "--entry", "Taps.thrice",
            "-o", str(tmp_path / "trace.json"),
        ]
        assert main(argv) == 0
        plain = _counters(capsys.readouterr().out)
        assert not any(name.startswith("specialize.") for name in plain)

        assert main(argv + ["--specialize-after", "2"]) == 0
        counters = _counters(capsys.readouterr().out)
        assert counters["specialize.observe"] == 2
        assert counters["specialize.compile"] == 1
        assert counters["specialize.hit"] == 1

    def test_max_attempts_one_demotes_without_retrying(self, capsys):
        assert main(["faults", "mandelbrot", "--max-attempts", "1"]) == 0
        out = capsys.readouterr().out
        assert "retries: 0;" in out
        counters = _counters(out)
        assert "retry.attempt" not in counters
        assert counters["demotion.taken"] >= 1
        assert "output matches the cpu-only reference" in out

    def test_transient_window_recovers_with_a_valid_health_report(
        self, capsys
    ):
        """The `make health-smoke` run: the first device call fails,
        the span is demoted, probed and re-promoted in one run."""
        import json

        from repro.runtime import HEALTH_SPEC

        code = main([
            "faults", "gray_pipeline",
            "--plan", "examples/fault_plans/transient_gpu_window.json",
            "--cooldown-us", "1", "--max-attempts", "1",
            "--scheduler", "sequential", "--batch-size", "16",
            "--require-repromotions", "1", "--json",
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        report = json.loads(captured.out)
        assert schema.problems(report, HEALTH_SPEC) == []
        assert report["totals"]["repromotions"] == 1
        assert "output matches the cpu-only reference" in captured.err


class TestProfileCommand:
    def test_text_report(self, capsys):
        assert main(["profile", "mandelbrot"]) == 0
        out = capsys.readouterr().out
        assert "profile: mandelbrot" in out
        assert "critical path" in out
        assert "bottleneck:" in out

    def test_json_report(self, capsys):
        import json

        assert main(["profile", "bitflip", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.profile/1"
        assert payload["stages"]
        assert payload["queues"]  # threaded graph app has FIFO edges
        assert payload["critical_path"]["segments"]

    def test_out_writes_valid_file(self, tmp_path, capsys):
        from repro.obs.profile import PROFILE_SPEC

        out = tmp_path / "profile.json"
        assert main(["profile", "mandelbrot", "--json", "-o", str(out)]) == 0
        capsys.readouterr()
        payload = schema.load(str(out), PROFILE_SPEC, "profile")
        assert payload["app"] == "mandelbrot"

    def test_lime_file_target(self, bitflip_file, capsys):
        code = main(
            [
                "profile",
                bitflip_file,
                "110010111b",
                "--entry",
                "Bitflip.taskFlip",
                "--scheduler",
                "sequential",
            ]
        )
        assert code == 0
        assert "profile: bitflip" in capsys.readouterr().out

    def test_unknown_target_rejected(self, capsys):
        assert main(["profile", "nope-not-an-app"]) == 2
        assert "neither a file nor a suite app" in capsys.readouterr().err

    def test_baseline_clean_pass(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(["profile", "mandelbrot", "--json", "-o", str(base)]) == 0
        capsys.readouterr()
        code = main(["profile", "mandelbrot", "--baseline", str(base)])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_baseline_flags_injected_slowdown(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(["profile", "mandelbrot", "--json", "-o", str(base)]) == 0
        capsys.readouterr()
        # Forcing the GPU map back onto the CPU inflates the simulated
        # time by orders of magnitude: the gate must trip.
        code = main(
            ["profile", "mandelbrot", "--cpu-only", "--baseline", str(base)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "REGRESSIONS" in err
        assert "simulated.total_s" in err

    def test_baseline_missing_file(self, capsys):
        code = main(
            ["profile", "mandelbrot", "--baseline", "/nonexistent.json"]
        )
        assert code == 2
        assert "cannot load baseline" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_writes_valid_report(self, tmp_path, capsys):
        from repro.service import SERVICE_SPEC

        out = tmp_path / "serve.json"
        code = main([
            "serve", "--tenants", "2", "--jobs-per-tenant", "2",
            "--scheduler", "sequential", "--verify", "-o", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "co-execution service" in text
        assert "bit-identical" in text
        report = schema.load(str(out), SERVICE_SPEC, "service report")
        assert report["totals"]["completed"] == 4

    def test_serve_json_output_is_parseable(self, capsys):
        import json

        code = main([
            "serve", "--tenants", "1", "--jobs-per-tenant", "1",
            "--scheduler", "sequential", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.service/1"

    def test_serve_under_fault_plan(self, capsys):
        code = main([
            "serve", "--tenants", "2", "--jobs-per-tenant", "2",
            "--scheduler", "sequential", "--verify",
            "--plan", "examples/fault_plans/transient_gpu_window.json",
        ])
        assert code == 0
        assert "timing exempt" in capsys.readouterr().out


class TestCacheCommands:
    def test_index_through_the_cli(self, bitflip_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        flags = ["--cache-dir", cache_dir]
        assert main(["compile", bitflip_file, *flags]) == 0
        assert "artifact source: cold" in capsys.readouterr().out
        # The second compile is answered from the program index; the
        # report still lists the task graphs (built on first read).
        assert main(["compile", bitflip_file, *flags]) == 0
        out = capsys.readouterr().out
        assert "artifact source: warm" in out
        assert "source(1) => [flip] => sink" in out

        assert main(["cache", "stats", *flags]) == 0
        assert "programs: 1" in capsys.readouterr().out

        objects = os.path.join(cache_dir, "objects")
        shutil.rmtree(os.path.join(objects, sorted(os.listdir(objects))[0]))
        assert main(["cache", "verify", *flags]) == 1
        assert "corrupt programs/" in capsys.readouterr().err
        assert main(["cache", "verify", *flags, "--delete-corrupt"]) == 1
        capsys.readouterr()
        assert main(["cache", "verify", *flags]) == 0
        assert os.listdir(os.path.join(cache_dir, "programs")) == []

        assert main(["compile", bitflip_file, *flags]) == 0
        assert main(["cache", "purge", *flags]) == 0
        assert not os.path.exists(os.path.join(cache_dir, "programs"))


class TestMalformedInputFiles:
    """A document read from outside the program fails with a typed
    error naming the file and the JSON path of the bad node — never a
    traceback."""

    @pytest.fixture(scope="class")
    def profile(self, tmp_path_factory):
        import json

        path = tmp_path_factory.mktemp("profile") / "profile.json"
        argv = ["profile", "photo_pipeline", "--json", "-o", str(path)]
        assert main(argv) == 0
        return json.loads(path.read_text())

    @staticmethod
    def _refused(tmp_path, capsys, document, argv, where):
        import json

        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main([arg.format(path=path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(path) in err
        assert where in err

    @pytest.mark.parametrize("document, where", [
        ({"faults": ["x"]}, "faults[0]: expected object"),
        ({"faults": 3}, "faults: expected list"),
        ({"faults": [{"site": "device", "sit": "device"}]},
         "faults[0]: unknown key 'sit'"),
    ])
    def test_fault_plan(self, tmp_path, capsys, document, where):
        self._refused(
            tmp_path, capsys, document,
            ["faults", "bitflip", "--plan", "{path}"], where,
        )

    @pytest.mark.parametrize("document, where", [
        ({"schema": "repro.fusion/1", "groups": [], "rejected": 3},
         "rejected: expected list"),
        ({"schema": "repro.fusion/1", "groups": ["x"]},
         "groups[0]: expected object"),
        # A plan groups map chains only: span size is the runtime's.
        ({"schema": "repro.fusion/1",
          "groups": [{"kind": "graph", "task_ids": ["a", "b"]}]},
         "groups[0].kind: unknown kind 'graph'"),
    ])
    def test_fusion_plan(self, tmp_path, capsys, document, where):
        self._refused(
            tmp_path, capsys, document,
            ["trace", "photo_pipeline", "--fusion", "plan={path}",
             "-o", str(tmp_path / "trace.json")],
            where,
        )

    @pytest.mark.parametrize("argv", [
        ["profile", "photo_pipeline", "--baseline", "{path}"],
        ["fuse", "photo_pipeline", "--profile", "{path}"],
    ])
    def test_profile_with_a_stages_row_that_is_not_an_object(
        self, tmp_path, capsys, profile, argv
    ):
        document = dict(profile, stages=[3] + profile["stages"][1:])
        self._refused(
            tmp_path, capsys, document, argv, "stages[0]: expected object"
        )

"""Tests for the GPU backend: eligibility, OpenCL codegen, artifacts."""

import pytest

from tests.lime_sources import FIGURE1, SAXPY
from repro.backends.opencl import compile_gpu, exclusion_reasons
from repro.ir.builder import build_ir
from repro.lime.typecheck import analyze


def module_for(source):
    return build_ir(analyze(source))


class TestEligibility:
    def test_pure_method_eligible(self):
        module = module_for(SAXPY)
        assert exclusion_reasons(module, "Saxpy.axpy") == []

    def test_global_method_ineligible(self):
        source = "class T { static int f(int x) { return x; } }"
        module = module_for(source)
        reasons = exclusion_reasons(module, "T.f")
        assert any("pure" in r for r in reasons)

    def test_recursion_ineligible(self):
        source = (
            "class T { local static int f(int n) "
            "{ return n < 2 ? n : f(n - 1) + f(n - 2); } }"
        )
        module = module_for(source)
        reasons = exclusion_reasons(module, "T.f")
        assert any("recursion" in r.lower() for r in reasons)

    def test_allocation_ineligible(self):
        source = (
            "class T { local static int f(int n) "
            "{ int[] a = new int[n]; return a[0]; } }"
        )
        module = module_for(source)
        # allocation also breaks purity? No: local arrays are fine for
        # purity but not for the GPU backend.
        reasons = exclusion_reasons(module, "T.f")
        assert any("allocation" in r for r in reasons)

    def test_object_types_ineligible(self):
        source = """
        value class V { int x; V(int x0) { this.x = x0; } }
        class T {
            local static int f(int n) { return new V(n).x; }
        }
        """
        module = module_for(source)
        reasons = exclusion_reasons(module, "T.f")
        assert any("object" in r for r in reasons)

    def test_transitive_callee_checked(self):
        source = """
        class T {
            local static int helper(int n) {
                int[] a = new int[n];
                return a[0];
            }
            local static int f(int n) { return helper(n); }
        }
        """
        module = module_for(source)
        reasons = exclusion_reasons(module, "T.f")
        assert any("helper" in r for r in reasons)


class TestCodegen:
    def test_saxpy_map_kernel_source(self):
        module = module_for(SAXPY)
        backend = compile_gpu(module)
        kernels = {a.manifest.artifact_id: a for a in backend.artifacts}
        art = kernels["gpu:map:Saxpy.axpy"]
        assert "__kernel void map_Saxpy_axpy" in art.text
        assert "__global const float* in0" in art.text
        assert "__global const float* in1" in art.text
        assert "get_global_id(0)" in art.text
        assert "2.5f" in art.text

    def test_reduce_kernel_source(self):
        module = module_for(SAXPY)
        backend = compile_gpu(module)
        kernels = {a.manifest.artifact_id: a for a in backend.artifacts}
        art = kernels["gpu:reduce:Saxpy.add"]
        assert "__kernel void reduce_Saxpy_add" in art.text
        assert "barrier(CLK_LOCAL_MEM_FENCE)" in art.text
        assert "__local float* scratch" in art.text

    def test_filter_kernel_for_figure1(self):
        module = module_for(FIGURE1)
        backend = compile_gpu(module)
        filters = [
            a
            for a in backend.artifacts
            if a.payload.kind == "filter"
        ]
        assert len(filters) == 1
        art = filters[0]
        assert "uchar" in art.text  # bit maps to uchar
        assert "Bitflip_flip" in art.text
        # The artifact is labeled with the stage's unique task id.
        assert art.manifest.task_ids[0].endswith("Bitflip.flip")

    def test_double_kernel_enables_fp64(self):
        source = (
            "class T { local static double f(double x) "
            "{ return Math.sqrt(x); } "
            "static double[[]] m(double[[]] xs) { return T @ f(xs); } }"
        )
        backend = compile_gpu(module_for(source))
        art = backend.artifacts[0]
        assert "cl_khr_fp64" in art.text
        assert "sqrt(" in art.text

    def test_float_kernel_no_fp64_pragma(self):
        backend = compile_gpu(module_for(SAXPY))
        art = [
            a
            for a in backend.artifacts
            if a.manifest.artifact_id == "gpu:map:Saxpy.axpy"
        ][0]
        assert "cl_khr_fp64" not in art.text

    def test_device_function_emitted_before_kernel(self):
        source = """
        class T {
            local static float sq(float x) { return x * x; }
            local static float f(float x) { return sq(x) + 1.0f; }
            static float[[]] m(float[[]] xs) { return T @ f(xs); }
        }
        """
        backend = compile_gpu(module_for(source))
        text = backend.artifacts[0].text
        assert text.index("static float T_sq") < text.index(
            "static float T_f"
        )
        assert text.index("static float T_f") < text.index("__kernel")


class TestFusion:
    SOURCE = """
    class P {
        local static int inc(int x) { return x + 1; }
        local static int dbl(int x) { return x * 2; }
        static void m(int[[]] xs, int[] out) {
            var t = xs.source(1) => ([ task inc => task dbl ]) => out.sink();
            t.finish();
        }
    }
    """

    def test_fused_artifact_produced(self):
        backend = compile_gpu(module_for(self.SOURCE))
        sizes = sorted(
            len(a.manifest.task_ids)
            for a in backend.artifacts
            if a.payload.kind == "filter"
        )
        # Two per-stage artifacts plus one fused two-stage artifact.
        assert sizes == [1, 1, 2]

    def test_fused_kernel_chains_methods(self):
        backend = compile_gpu(module_for(self.SOURCE))
        fused = [
            a
            for a in backend.artifacts
            if len(a.manifest.task_ids) == 2
        ][0]
        assert "P_dbl(P_inc(in[gid]))" in fused.text


class TestExclusionRecords:
    def test_ineligible_relocatable_stage_recorded(self):
        source = """
        class T {
            local static int f(int n) {
                int[] a = new int[4];
                a[0] = n;
                return a[0];
            }
            static void m(int[[]] xs, int[] out) {
                var t = xs.source(1) => ([ task f ]) => out.sink();
                t.finish();
            }
        }
        """
        backend = compile_gpu(module_for(source))
        assert backend.artifacts == []
        assert len(backend.exclusions) == 1
        assert "allocation" in backend.exclusions[0].reason

    def test_non_relocatable_stage_not_compiled(self):
        source = """
        class T {
            local static int f(int x) { return x + 1; }
            static void m(int[[]] xs, int[] out) {
                var t = xs.source(1) => task f => out.sink();
                t.finish();
            }
        }
        """
        backend = compile_gpu(module_for(source))
        filters = [a for a in backend.artifacts if a.payload.kind == "filter"]
        assert filters == []

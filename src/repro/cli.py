"""Command-line interface: the design flow of Section 5 without the
IDE.

Subcommands::

    python -m repro compile  prog.lime            # toolchain report
    python -m repro run      prog.lime C.m 1 2.5  # execute an entry point
    python -m repro trace    mandelbrot           # traced run -> Chrome JSON
    python -m repro profile  mandelbrot           # utilization + critical path
    python -m repro harvest  --cache-dir d/       # AOT-populate the cache
    python -m repro cache    stats --cache-dir d/ # cache maintenance
    python -m repro fuse     gray_pipeline        # plan task fusion
    python -m repro markers  prog.lime            # IDE-style marker view
    python -m repro graphs   prog.lime            # discovered task graphs
    python -m repro disas    prog.lime            # bytecode disassembly
    python -m repro emit-opencl  prog.lime        # generated OpenCL C
    python -m repro emit-verilog prog.lime        # generated Verilog
    python -m repro emit-testbench prog.lime      # self-checking Verilog TB
    python -m repro format   prog.lime            # pretty-print/normalize
    python -m repro build    prog.lime -o out/    # on-disk artifact cache

Every compiling command accepts the artifact-cache flags uniformly
(docs/CACHING.md): ``--cache-dir DIR`` warm-starts backend compilation
from the content-addressed cache (``readwrite`` by default;
``--cache-mode read`` consumes without writing back), ``--no-cache``
disables cache I/O even when a directory is given, and
``--cache-max-bytes`` bounds the on-disk size (LRU eviction).
``build FILE -o DIR`` is ``compile FILE --cache-dir DIR``.
``harvest`` pre-populates a cache for the whole app suite; ``cache
{stats,purge,verify}`` inspect and maintain one.

``run``, ``trace``, and ``profile`` accept ``--fusion
{off,auto,plan=FILE}`` (docs/FUSION.md), which sets compile-time map
fusion only: ``off`` (the default) leaves map chains alone, ``auto``
fuses every legal chain, and ``plan=FILE`` replays a saved
``repro.fusion/1`` plan deterministically. How large a task-graph span
the runtime substitutes is the substitution policy's prefer-larger
rule, not a fusion setting. ``fuse`` plans fusion
for an app (optionally gated by a ``profile`` report) and saves the
plan. ``--specialize-after N`` opts into runtime kernel
specialization after N stable batches.

``trace`` accepts either a suite app name (see ``repro.apps.SUITE``)
or a Lime file plus ``--entry``; it compiles and runs under a live
tracer, then exports a Chrome ``trace_event`` JSON loadable in
``chrome://tracing`` or https://ui.perfetto.dev.

Argument literals accepted by ``run``: ints (``42``), floats (``2.5``),
booleans (``true``/``false``), bit literals (``110010111b``), and
comma-joined arrays (``ints:1,2,3`` / ``floats:0.5,1.5`` /
``bits:1,0,1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.backends.artifacts import CacheOptions
from repro.compiler import (
    CompileOptions,
    CompilerSession,
    compile_program,
    compile_report,
)
from repro import schema
from repro.errors import LiquidMetalError
from repro.ir.fusion import FusionOptions


def _parse_value(text: str):
    from repro.values import (
        KIND_FLOAT,
        KIND_INT,
        Bit,
        ValueArray,
        parse_bit_literal,
    )
    from repro.values.base import KIND_BIT

    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("ints:"):
        return ValueArray(
            KIND_INT, [int(x) for x in text[5:].split(",") if x]
        )
    if text.startswith("floats:"):
        return ValueArray(
            KIND_FLOAT, [float(x) for x in text[7:].split(",") if x]
        )
    if text.startswith("bits:"):
        return ValueArray(
            KIND_BIT, [Bit(int(x)) for x in text[5:].split(",") if x]
        )
    if text.endswith("b") and all(c in "01" for c in text[:-1]) and text[:-1]:
        return ValueArray(KIND_BIT, parse_bit_literal(text[:-1]))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    raise SystemExit(f"cannot parse argument {text!r}")


def _cache_options(args) -> "CacheOptions | None":
    """The cache sub-options a command's flags describe, or None when
    caching stays off. Uses getattr defaults so commands that predate
    the flags keep working unchanged."""
    cache_dir = getattr(args, "cache_dir", None)
    if getattr(args, "no_cache", False) or not cache_dir:
        return None
    return CacheOptions(
        cache_dir=cache_dir,
        mode=getattr(args, "cache_mode", None) or "readwrite",
        max_bytes=getattr(args, "cache_max_bytes", None),
    )


def _options(args, tracer=None) -> CompileOptions:
    options = CompileOptions(
        enable_gpu=not args.no_gpu,
        enable_fpga=not args.no_fpga,
        fpga_pipelined=args.fpga_pipelined,
    )
    cache = _cache_options(args)
    if cache is not None:
        options = options.replace(cache=cache)
    if tracer is not None:
        options = options.replace(tracer=tracer)
    flag = getattr(args, "fusion", None)
    if flag is not None:
        options = options.replace(fusion=FusionOptions.from_flag(flag))
    return options


def _session(args, tracer=None) -> CompilerSession:
    return CompilerSession(_options(args, tracer=tracer))


def _compiled(args):
    with open(args.file) as f:
        source = f.read()
    return _session(args).compile(source, filename=args.file)


def _cmd_compile(args) -> int:
    print(compile_report(_compiled(args)))
    return 0


def _cmd_run(args) -> int:
    from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy

    compiled = _compiled(args)
    policy = SubstitutionPolicy(use_accelerators=not args.cpu_only)
    runtime = Runtime(
        compiled,
        RuntimeConfig(
            policy=policy,
            batch_size=args.batch_size,
            specialize_after=args.specialize_after,
        ),
    )
    values = [_parse_value(a) for a in args.args]
    outcome = runtime.run(args.entry, values)
    if outcome.output:
        sys.stdout.write(outcome.output)
    if outcome.value is not None:
        print(f"result: {outcome.value!r}")
    if args.profile:
        print("method profile (inclusive cycles):")
        for name, calls, cycles in runtime.profile():
            print(f"  {cycles:>12d}  {calls:>8d} calls  {name}")
    if args.time:
        summary = outcome.ledger.summary()
        print(
            f"simulated time: {summary['total_s'] * 1e6:.2f} us "
            f"(host {summary['host_s'] * 1e6:.2f} us, "
            f"offloads {summary['offload_s'] * 1e6:.2f} us, "
            f"graphs {summary['graph_s'] * 1e6:.2f} us)"
        )
    return 0


def _is_file_target(target: str) -> bool:
    return os.path.exists(target) or target.endswith(".lime")


def _resolve_source(target: str):
    """Resolve a CLI target (suite app name or ``.lime`` file) into
    ``(source, filename, spec)`` — ``spec`` is the suite entry, None
    for a file; ``None`` after printing an error."""
    if _is_file_target(target):
        with open(target) as f:
            return f.read(), target, None
    from repro.apps import SUITE

    if target not in SUITE:
        known = ", ".join(sorted(SUITE))
        print(
            f"error: {target!r} is neither a file nor a suite "
            f"app (known apps: {known})",
            file=sys.stderr,
        )
        return None
    spec = SUITE[target]
    return spec.source, f"<{spec.name}.lime>", spec


def _resolve_target(args):
    """Resolve a runnable CLI target into ``(source, filename, name,
    entry, values)``; ``None`` after printing an error. A suite app
    brings its default workload, a file needs ``--entry``."""
    if _is_file_target(args.target) and not args.entry:
        print(
            "error: a .lime file target requires --entry",
            file=sys.stderr,
        )
        return None
    resolved = _resolve_source(args.target)
    if resolved is None:
        return None
    source, filename, spec = resolved
    if spec is None:
        name = os.path.splitext(os.path.basename(args.target))[0]
    else:
        name = spec.name
        entry, values = spec.default_args()
    if args.entry:
        entry = args.entry
        values = [_parse_value(a) for a in args.args]
    return source, filename, name, entry, values


def _report_problems(label: str, payload, spec) -> bool:
    """Print how a report departs from ``spec``; True when it does."""
    problems = schema.problems(payload, spec)
    if problems:
        print(f"error: {label} failed validation:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
    return bool(problems)


def _dump_report(args, dumped: str) -> bool:
    """``-o`` and ``--json``: save the JSON text and/or print it. True
    when ``--json`` took standard output."""
    if args.out:
        with open(args.out, "w") as f:
            f.write(dumped)
            f.write("\n")
    if args.json:
        print(dumped)
    return args.json


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit_report(args, label: str, payload, spec, dumped: str, render) -> bool:
    """The tail of every report command: refuse a report that fails
    its ``spec``, honour ``-o``, print the JSON text or the
    ``render()``-ed one, say where the file went. False when
    validation failed."""
    if _report_problems(label, payload, spec):
        return False
    if not _dump_report(args, dumped):
        print(render())
        if args.out:
            print(f"\nwrote {args.out}")
    return True


def _cpu_reference(compiled, args, entry, values):
    """The pure-bytecode answer a degraded run must reproduce exactly:
    the same entry point with accelerators disabled."""
    from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy

    return Runtime(
        compiled,
        RuntimeConfig(
            policy=SubstitutionPolicy(use_accelerators=False),
            scheduler=args.scheduler,
        ),
    ).run(entry, values)


def _values_equal(left, right) -> bool:
    if left is None and right is None:
        return True
    try:
        return bool(left == right)
    except Exception:
        return repr(left) == repr(right)


def _same_answer(outcome, reference) -> bool:
    return outcome.output == reference.output and _values_equal(
        outcome.value, reference.value
    )


def _traced_run(args):
    """Compile and run the target under a live tracer (shared by
    ``trace`` and ``profile``): ``(tracer, name, entry, outcome)``, or
    ``None`` after printing why the target does not resolve."""
    from repro.obs import Tracer
    from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy

    tracer = Tracer()
    resolved = _resolve_target(args)
    if resolved is None:
        return None
    source, filename, name, entry, values = resolved
    compiled = _session(args, tracer=tracer).compile(source, filename=filename)
    config = RuntimeConfig(
        policy=SubstitutionPolicy(use_accelerators=not args.cpu_only),
        scheduler=args.scheduler,
        tracer=tracer,
        batch_size=args.batch_size,
        specialize_after=args.specialize_after,
    )
    return tracer, name, entry, Runtime(compiled, config).run(entry, values)


def _cmd_trace(args) -> int:
    """Compile and run one app under tracing; export Chrome trace JSON."""
    from repro.obs.export import (
        TRACE_SPEC,
        render_span_tree,
        write_chrome_trace,
        write_json_lines,
    )

    traced = _traced_run(args)
    if traced is None:
        return 2
    tracer, name, entry, outcome = traced
    out_path = args.out or f"{name}.trace.json"
    payload = write_chrome_trace(tracer, out_path, process_name=name)
    if _report_problems("exported trace", payload, TRACE_SPEC):
        return 1
    if args.jsonl:
        write_json_lines(tracer, args.jsonl)
    if outcome.output:
        sys.stdout.write(outcome.output)
    print(f"entry: {entry}")
    print(
        f"simulated time: {outcome.seconds * 1e6:.2f} us; "
        f"{len(tracer.spans)} spans, "
        f"{len(tracer.counters)} counters"
    )
    if args.tree:
        print()
        print(render_span_tree(tracer))
    counters = tracer.counters.snapshot()
    if counters:
        print()
        print("counters:")
        for cname, value in counters.items():
            print(f"  {value:>12g}  {cname}")
    print(
        f"\nwrote {out_path} "
        f"({len(payload['traceEvents'])} events; load it in "
        "chrome://tracing or https://ui.perfetto.dev)"
    )
    if args.jsonl:
        print(f"wrote {args.jsonl}")
    return 0


def _cmd_profile(args) -> int:
    """Compile and run one app under tracing, then build and print the
    structured profile report (docs/PROFILING.md)."""
    from repro.obs.profile import (
        PROFILE_SPEC,
        build_profile,
        compare_profiles,
    )

    traced = _traced_run(args)
    if traced is None:
        return 2
    tracer, name, entry, outcome = traced
    report = build_profile(
        tracer,
        ledger=outcome.ledger,
        app=name,
        entry=entry,
        scheduler=args.scheduler,
    )
    if not _emit_report(
        args, "profile", report.to_json(), PROFILE_SPEC,
        report.dumps(), report.render,
    ):
        return 1

    if args.baseline:
        try:
            baseline = schema.load(args.baseline, PROFILE_SPEC, "baseline")
        except LiquidMetalError as exc:
            print(f"error: {exc}", file=sys.stderr)
            # Unreadable or not JSON is a usage error, as for a target.
            return 2 if exc.__cause__ is not None else 1
        regressions = compare_profiles(
            report.to_json(), baseline, threshold=args.threshold
        )
        if regressions:
            print(
                f"\nREGRESSIONS vs {args.baseline} "
                f"(threshold {args.threshold:.0%}):",
                file=sys.stderr,
            )
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            f"\nno regressions vs {args.baseline} "
            f"(threshold {args.threshold:.0%})"
        )
    return 0


def _fault_plan_dirs():
    """Candidate directories holding the bundled example fault plans:
    the working tree first, then relative to the installed package."""
    here = os.path.dirname(os.path.abspath(__file__))
    return [
        os.path.join("examples", "fault_plans"),
        os.path.normpath(
            os.path.join(here, "..", "..", "examples", "fault_plans")
        ),
    ]


def _list_fault_plans() -> int:
    """Print every bundled example fault plan with its seed, spec
    summary, and comment, so ``faults --plan`` / ``recover`` users can
    discover them without grepping the tree."""
    from repro.runtime import FAULT_PLAN_SPEC, FaultPlan

    for directory in _fault_plan_dirs():
        if not os.path.isdir(directory):
            continue
        names = sorted(
            n for n in os.listdir(directory) if n.endswith(".json")
        )
        if not names:
            continue
        print(f"bundled fault plans ({directory}):")
        for fname in names:
            path = os.path.join(directory, fname)
            try:
                raw = schema.load(path, FAULT_PLAN_SPEC, "fault plan")
                plan = FaultPlan.from_dict(raw)
            except LiquidMetalError as exc:
                print(f"  {fname}: INVALID ({exc})")
                continue
            kinds = ",".join(
                sorted({spec.error for spec in plan.specs})
            )
            print(
                f"  {fname}: seed={plan.seed}, {len(plan)} spec(s), "
                f"kind(s): {kinds}"
            )
            for spec in raw.get("faults", []):
                comment = spec.get("comment")
                if comment:
                    print(f"      {comment}")
        return 0
    print("error: no examples/fault_plans directory found", file=sys.stderr)
    return 2


def _cmd_faults(args) -> int:
    """Run an app under a fault plan and verify graceful degradation:
    the faulted run must produce output identical to a cpu-only run,
    with the recovery visible in the counters and in the device-health
    report (``repro.health/1``): per-span breaker states, every
    transition stamped with simulated time, probe/re-promotion
    tallies. Without ``--cooldown-us`` a demotion is permanent; with
    it a demoted span is shadow-probed once its breaker cools down
    (bytecode stays authoritative) and re-promoted after clean
    probes."""
    from repro.errors import ProcessCrash
    from repro.obs import Tracer
    from repro.runtime import (
        HEALTH_SPEC,
        FaultPlan,
        Runtime,
        RuntimeConfig,
        kill_all_devices_plan,
        load_fault_plan,
        render_health_report,
    )

    if args.list_plans:
        return _list_fault_plans()
    if args.target is None:
        print(
            "error: a target app is required (or use --list-plans)",
            file=sys.stderr,
        )
        return 2
    resolved = _resolve_target(args)
    if resolved is None:
        return 2
    source, filename, name, entry, values = resolved
    if args.plan:
        plan = load_fault_plan(args.plan)
    else:
        plan = kill_all_devices_plan()
    if args.seed is not None:
        plan = FaultPlan(plan.specs, seed=args.seed)

    compiled = _session(args).compile(source, filename=filename)

    reference = _cpu_reference(compiled, args, entry, values)

    tracer = Tracer()
    runtime = Runtime(
        compiled,
        RuntimeConfig(
            scheduler=args.scheduler,
            tracer=tracer,
            fault_plan=plan,
            max_attempts=args.max_attempts,
            cooldown_s=(
                None if args.cooldown_us is None
                else args.cooldown_us * 1e-6
            ),
            batch_size=args.batch_size,
        ),
    )
    try:
        outcome = runtime.run(entry, values)
    except ProcessCrash as crash:
        print(
            f"process crash (simulated) at device consult "
            f"#{crash.call_index}: {crash}",
            file=sys.stderr,
        )
        print(
            "a bare runtime has no journal to recover from — run the "
            "same schedule under `python -m repro recover` to see "
            "crash-consistent restart (docs/RECOVERY.md)",
            file=sys.stderr,
        )
        return 1

    # --json consumers pipe stdout straight into a JSON parser; keep
    # the summary off it.
    status = sys.stderr if args.json else sys.stdout
    injected = runtime.faults.fired()
    demotions = len(runtime.demotion_log)
    counters = tracer.counters.snapshot()
    print(f"app: {name}  entry: {entry}", file=status)
    print(
        f"plan: {args.plan or '<kill-all-devices>'} "
        f"(seed={plan.seed}, {len(plan)} spec(s))",
        file=status,
    )
    print(
        f"faults injected: {injected}; "
        f"retries: {counters.get('retry.attempt', 0):g}; "
        f"demotions to bytecode: {demotions}",
        file=status,
    )
    resilience = {
        k: v
        for k, v in counters.items()
        if k.startswith(("fault.", "retry.", "demotion."))
    }
    if resilience:
        print("counters:", file=status)
        for cname, value in resilience.items():
            print(f"  {value:>12g}  {cname}", file=status)
    for record in runtime.demotion_log:
        print(
            f"  demoted {record.task_id} ({record.device}) after "
            f"{record.attempts} attempt(s): {record.error}",
            file=status,
        )

    report = runtime.health.to_report(
        app=name, entry=entry, scheduler=args.scheduler
    )
    if not _emit_report(
        args, "health report", report, HEALTH_SPEC, _json_text(report),
        lambda: render_health_report(report),
    ):
        return 1

    ok = _same_answer(outcome, reference)
    if ok:
        print("output matches the cpu-only reference", file=status)
    else:
        print(
            "FAIL: degraded output differs from the cpu-only reference",
            file=sys.stderr,
        )
    if demotions < args.require_demotions:
        print(
            f"FAIL: expected >= {args.require_demotions} demotion(s), "
            f"saw {demotions}",
            file=sys.stderr,
        )
        ok = False
    repromotions = report["totals"]["repromotions"]
    if repromotions < args.require_repromotions:
        print(
            f"FAIL: expected >= {args.require_repromotions} "
            f"re-promotion(s), saw {repromotions}",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    """Run the deterministic multi-tenant service driver: N tenants
    (weights cycling 1,2,3) submit jobs concurrently through the
    long-lived co-execution service — admission control, device-pool
    leasing, shared breakers — then the service drains and prints the
    ``repro.service/1`` report. With ``--verify`` every job is
    compared bit-identically against a standalone fault-free run."""
    from repro.runtime import load_fault_plan
    from repro.service import (
        SERVICE_SPEC,
        render_service_report,
        run_service_driver,
    )

    plan = load_fault_plan(args.plan) if args.plan else None
    report = run_service_driver(
        tenants=args.tenants,
        jobs_per_tenant=args.jobs_per_tenant,
        gpu_slots=args.gpu_slots,
        fpga_slots=args.fpga_slots,
        max_running=args.max_running,
        max_queue_depth=args.max_queue_depth,
        scheduler=args.scheduler,
        fault_plan=plan,
        verify=args.verify,
    )
    def render():
        text = render_service_report(report)
        if args.verify:
            driver = report.get("driver", {})
            text += (
                "\nverify: {n} job(s) bit-identical to standalone runs "
                "({t})".format(
                    n=driver.get("verified_jobs", 0),
                    t=(
                        "output, value, simulated seconds"
                        if driver.get("timing_checked")
                        else "output and value; timing exempt under "
                        "fault plan"
                    ),
                )
            )
        return text

    if not _emit_report(
        args, "service report", report, SERVICE_SPEC, _json_text(report),
        render,
    ):
        return 1
    totals = report.get("totals", {})
    if totals.get("failed", 0):
        print(
            f"FAIL: {totals['failed']} job(s) failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_recover(args) -> int:
    """Run the crash/restart recovery driver: submit jobs against a
    journaled service under a seeded crash schedule, crash-and-restart
    in a loop until a pass converges, then verify every job's result
    digest is bit-identical to an uninterrupted baseline and print the
    ``repro.recover/1`` report (docs/RECOVERY.md)."""
    import tempfile

    from repro.service import (
        RECOVER_SPEC,
        render_recover_report,
        run_recovery_driver,
    )

    def drive(journal_dir):
        return run_recovery_driver(
            journal_dir,
            jobs=args.jobs,
            scheduler=args.scheduler,
            seed=args.seed,
            crash_call=args.crash_call,
            checkpoint_interval=args.checkpoint_interval,
            use_checkpoints=not args.no_checkpoints,
            max_restarts=args.max_restarts,
        )

    if args.journal_dir:
        report = drive(args.journal_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-recover-") as tmp:
            report = drive(os.path.join(tmp, "journal"))
    if not _emit_report(
        args, "recovery report", report, RECOVER_SPEC, _json_text(report),
        lambda: render_recover_report(report),
    ):
        return 1
    driver = report.get("driver", {})
    if driver.get("verified_jobs", 0) != args.jobs:
        print(
            f"FAIL: {driver.get('verified_jobs', 0)}/{args.jobs} "
            "job(s) verified bit-identical",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fuse(args) -> int:
    """Plan (and apply) task fusion for one app and print or save the
    ``repro.fusion/1`` plan (docs/FUSION.md). With ``--profile`` the
    pass only fuses groups the profile report shows actually offload;
    the rejects are recorded in the plan with their reasons."""
    from repro.ir.fusion import render_fused_ir

    resolved = _resolve_source(args.target)
    if resolved is None:
        return 2
    source, filename, _ = resolved

    options = _options(args).replace(
        fusion=FusionOptions(
            mode="auto", profile_path=args.profile or ""
        )
    )
    compiled = CompilerSession(options).compile(source, filename=filename)
    plan = compiled.fusion_plan
    if args.out:
        plan.save(args.out)
    if args.json:
        sys.stdout.write(plan.dumps())
    else:
        print(plan.describe())
        if args.ir:
            print()
            print(render_fused_ir(compiled.module, plan))
        if args.out:
            print(f"\nwrote {args.out}")
    return 0


def _cmd_format(args) -> int:
    from repro.lime.parser import parse
    from repro.lime.printer import pretty

    with open(args.file) as f:
        source = f.read()
    sys.stdout.write(pretty(parse(source, args.file)))
    return 0


def _cmd_markers(args) -> int:
    from repro.ide import annotate_source, exclusion_notes

    compiled = _compiled(args)
    print(annotate_source(compiled))
    print("\nexclusions:")
    print(exclusion_notes(compiled))
    return 0


def _cmd_graphs(args) -> int:
    compiled = _compiled(args)
    if not compiled.task_graphs:
        print("(no task graphs discovered statically)")
        return 0
    for graph in compiled.task_graphs:
        print(f"{graph.graph_id}: {graph.describe()}")
        for stage in graph.stages:
            artifacts = [
                a.device
                for a in compiled.store.for_task(stage.task_id)
            ]
            print(
                f"    {stage.task_id}  "
                f"[{', '.join(artifacts) or 'bytecode'}]"
            )
    return 0


def _cmd_testbench(args) -> int:
    from repro.backends.verilog import generate_testbench

    compiled = _compiled(args)
    artifacts = compiled.store.for_device("fpga")
    if not artifacts:
        print("(no fpga artifacts)", file=sys.stderr)
        return 1
    stimulus = _parse_value(args.inputs)
    for artifact in artifacts:
        bundle = artifact.payload
        encode, _ = bundle.converters()
        raw = list(map(encode, stimulus))
        print(f"// ===== testbench for {artifact.artifact_id} =====")
        print(generate_testbench(bundle, raw))
    return 0


def _cmd_build(args) -> int:
    """``compile --cache-dir DIR`` under another name: the artifacts
    land in a readwrite artifact cache at ``-o DIR`` (verified blobs
    plus the program index, docs/CACHING.md), where a later compile of
    the same source with ``--cache-dir DIR`` loads them warm."""
    compiled = _compiled(args)
    source = "warm" if compiled.warm else "cold"
    print(
        f"wrote {len(compiled.store)} artifacts to the artifact cache "
        f"at {args.cache_dir} ({source})"
    )
    return 0


def _cmd_disas(args) -> int:
    compiled = _compiled(args)
    print(compiled.bytecode_program.disassemble())
    return 0


def _emit(args, device: str) -> int:
    compiled = _compiled(args)
    texts = compiled.artifact_texts(device)
    if not texts:
        print(f"(no {device} artifacts)", file=sys.stderr)
        return 1
    for artifact_id, text in texts.items():
        print(f"// ===== {artifact_id} =====")
        print(text)
        print()
    return 0


def _cmd_harvest(args) -> int:
    """AOT-populate an artifact cache for the app suite (docs/CACHING.md)."""
    if _cache_options(args) is None:
        print("error: harvest requires --cache-dir", file=sys.stderr)
        return 2
    session = _session(args)
    report = session.harvest(
        apps=args.apps or None,
        verify=not args.no_verify,
        pin=args.pin,
    )
    if not _dump_report(args, _json_text(report)):
        print(f"harvested {len(report['apps'])} apps into {report['cache_dir']}")
        header = f"{'app':<22} {'states':<22} {'bytes':>10}"
        if not args.no_verify:
            header += f" {'warm':>5}"
        print(header)
        for name, record in sorted(report["apps"].items()):
            states = ",".join(
                f"{backend}:{info['state']}"
                for backend, info in sorted(record["backends"].items())
            )
            line = f"{name:<22} {states:<22} {record['payload_bytes']:>10}"
            if not args.no_verify:
                line += f" {'yes' if record.get('warm') else 'NO':>5}"
            print(line)
        totals = report["totals"]
        print(
            f"totals: {totals['payload_bytes']} payload bytes, modeled "
            f"cold {totals['modeled_cold_s'] * 1e3:.2f} ms"
            + (
                f", warm {totals['modeled_warm_s'] * 1e3:.2f} ms "
                f"({totals.get('modeled_speedup', 0.0):.0f}x)"
                if not args.no_verify
                else ""
            )
        )
    if not args.no_verify and not report["totals"]["all_warm"]:
        print("error: harvest verify found non-warm apps", file=sys.stderr)
        return 1
    return 0


def _maintenance_cache(args, mode: str):
    from repro.backends.artifacts import ArtifactCache

    return ArtifactCache(CacheOptions(cache_dir=args.cache_dir, mode=mode))


def _cmd_cache_stats(args) -> int:
    import json

    stats = _maintenance_cache(args, "read").stats()
    if args.json:
        print(_json_text(stats))
        return 0
    print(f"cache: {stats['cache_dir']} ({stats['schema']})")
    print(
        f"  entries: {stats['entry_count']}  total bytes: "
        f"{stats['total_bytes']}  pinned: {len(stats['pinned'])}"
        + (
            f"  max bytes: {stats['max_bytes']}"
            if stats["max_bytes"] is not None
            else ""
        )
    )
    print(f"  programs: {stats['programs']}")
    for backend, row in sorted(stats["backends"].items()):
        print(
            f"  {backend:<10} {row['entries']:>4} entries  "
            f"{row['artifacts']:>4} artifacts  {row['bytes']:>10} bytes"
        )
    return 0


def _cmd_cache_purge(args) -> int:
    count = _maintenance_cache(args, "readwrite").purge()
    print(f"purged {count} entries from {args.cache_dir}")
    return 0


def _cmd_cache_verify(args) -> int:
    problems = _maintenance_cache(args, "readwrite").verify(
        delete_corrupt=args.delete_corrupt
    )
    if not problems:
        print("cache verify: all entries intact")
        return 0
    for key, problem in problems:
        print(f"corrupt {key}: {problem}", file=sys.stderr)
    if args.delete_corrupt:
        print(
            f"deleted {len(problems)} corrupt entries "
            "(next compile repopulates them)",
            file=sys.stderr,
        )
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Liquid Metal compiler and runtime (DAC 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One function per flag family; a command's --help lists options in
    # the order they are added, so call order below is part of the UI.

    def cache_flags(p):
        p.add_argument(
            "--cache-dir",
            help="content-addressed artifact cache directory; warm-starts "
            "backend compilation (docs/CACHING.md)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="ignore --cache-dir and compile cold",
        )
        p.add_argument(
            "--cache-mode",
            choices=("read", "readwrite"),
            default=None,
            help="read = consume hits without writing misses back "
            "(default: readwrite)",
        )
        p.add_argument(
            "--cache-max-bytes",
            type=int,
            default=None,
            help="LRU-evict unpinned entries beyond this payload size",
        )

    def backend_flags(p):
        p.add_argument("--no-gpu", action="store_true")
        p.add_argument("--no-fpga", action="store_true")
        p.add_argument("--fpga-pipelined", action="store_true")

    def file_command(name, fn, help):
        """A command over one Lime source file."""
        p = sub.add_parser(name, help=help)
        p.add_argument("file", help="Lime source file")
        backend_flags(p)
        cache_flags(p)
        p.set_defaults(fn=fn)
        return p

    def target_arg(p, example, **kwargs):
        p.add_argument(
            "target",
            help=f"suite app name (e.g. {example}) or a Lime source file",
            **kwargs,
        )

    def entry_args(p):
        p.add_argument(
            "--entry",
            help="qualified entry point (required for .lime files; "
            "overrides the suite default workload)",
        )
        p.add_argument("args", nargs="*", help="argument literals for --entry")

    def scheduler_option(p, default="threaded"):
        p.add_argument(
            "--scheduler",
            choices=("threaded", "sequential"),
            default=default,
        )

    def fault_plan_flags(p, plan_help):
        p.add_argument("--plan", help=plan_help)
        p.add_argument(
            "--seed", type=int, default=None, help="override the plan's RNG seed"
        )
        scheduler_option(p)

    def report_flags(
        p,
        json_help="print the machine-readable JSON report instead of text",
        out_help="also write the JSON report to this path",
    ):
        p.add_argument("--json", action="store_true", help=json_help)
        p.add_argument("-o", "--out", help=out_help)

    def batch_size_option(p):
        p.add_argument(
            "--batch-size",
            type=int,
            default=4096,
            help="FIFO elements marshaled per host/device crossing "
            "(1 = per-element slow path; see docs/PERFORMANCE.md)",
        )

    def fusion_flags(p):
        p.add_argument(
            "--fusion",
            default=None,
            metavar="{off,auto,plan=FILE}",
            help="compile-time map fusion: off = leave map chains "
            "alone (default), auto = fuse every legal g(f(x)) chain, "
            "plan=FILE = replay a saved repro.fusion/1 plan "
            "(docs/FUSION.md); graph-span size is the runtime's "
            "prefer-larger rule",
        )
        p.add_argument(
            "--specialize-after",
            type=int,
            default=None,
            metavar="N",
            help="recompile a shape/constant-specialized kernel "
            "variant after N consecutive stable batches "
            "(docs/FUSION.md); off by default",
        )

    def traced_run_flags(p):
        """What ``trace`` and ``profile`` run: a target, where, how."""
        target_arg(p, "mandelbrot")
        entry_args(p)
        backend_flags(p)
        p.add_argument("--cpu-only", action="store_true")
        scheduler_option(p)

    def run_knobs(p):
        cache_flags(p)
        batch_size_option(p)
        fusion_flags(p)

    file_command("compile", _cmd_compile, "compile and print the report")

    p = file_command("run", _cmd_run, "compile and run an entry point")
    p.add_argument("entry", help="qualified entry, e.g. Bitflip.taskFlip")
    p.add_argument("args", nargs="*", help="argument literals")
    p.add_argument("--cpu-only", action="store_true")
    p.add_argument("--time", action="store_true", help="print simulated time")
    p.add_argument(
        "--profile",
        action="store_true",
        help="print the per-method cycle profile",
    )
    batch_size_option(p)
    fusion_flags(p)

    p = sub.add_parser(
        "trace",
        help="run one app under tracing and export Chrome trace JSON",
    )
    traced_run_flags(p)
    p.add_argument(
        "-o",
        "--out",
        help="Chrome trace output path (default: <app>.trace.json)",
    )
    p.add_argument("--jsonl", help="also write a JSON-lines trace here")
    p.add_argument(
        "--tree",
        action="store_true",
        help="print the span tree to stdout as well",
    )
    run_knobs(p)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run one app under tracing and print a structured "
        "profile report (utilization, queues, critical path)",
    )
    traced_run_flags(p)
    report_flags(p)
    p.add_argument(
        "--baseline",
        help="baseline profile JSON to compare against; exits non-zero "
        "when a deterministic metric regresses beyond --threshold",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="regression threshold for --baseline (default 0.10 = 10%%)",
    )
    run_knobs(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "faults",
        help="run an app under a fault plan, verify graceful "
        "degradation to bytecode and print the device-health report "
        "(breaker transitions, shadow probes, re-promotions)",
    )
    target_arg(p, "mandelbrot", nargs="?")
    p.add_argument(
        "--list-plans",
        action="store_true",
        help="list the bundled example fault plans "
        "(examples/fault_plans/*.json) and exit",
    )
    entry_args(p)
    backend_flags(p)
    fault_plan_flags(
        p, "fault plan JSON file (default: kill every device call)"
    )
    p.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        help="retry attempts per device call before demotion",
    )
    p.add_argument(
        "--require-demotions",
        type=int,
        default=0,
        help="fail unless at least this many demotions were recorded",
    )
    p.add_argument(
        "--cooldown-us",
        type=float,
        default=None,
        help="simulated microseconds a demoted span's breaker stays "
        "OPEN before HALF_OPEN shadow probing (default: the demotion "
        "is permanent)",
    )
    p.add_argument(
        "--require-repromotions",
        type=int,
        default=0,
        help="fail unless at least this many re-promotions happened",
    )
    report_flags(
        p,
        json_help="print the repro.health/1 device-health report as "
        "JSON (the summary goes to stderr)",
        out_help="also write the health report to this path",
    )
    cache_flags(p)
    batch_size_option(p)
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "serve",
        help="drive the long-lived co-execution service: multi-tenant "
        "admission control, device-pool leasing, graceful "
        "cancellation; prints the repro.service/1 report",
    )
    p.add_argument(
        "--tenants",
        type=int,
        default=3,
        help="simulated tenants (weights cycle 1,2,3)",
    )
    p.add_argument(
        "--jobs-per-tenant",
        type=int,
        default=8,
        help="jobs each tenant submits",
    )
    p.add_argument(
        "--gpu-slots",
        type=int,
        default=2,
        help="simulated GPU slots in the shared device pool",
    )
    p.add_argument(
        "--fpga-slots",
        type=int,
        default=1,
        help="simulated FPGA slots in the shared device pool",
    )
    p.add_argument(
        "--max-running",
        type=int,
        default=4,
        help="jobs executing concurrently (beyond this they queue)",
    )
    p.add_argument(
        "--max-queue-depth",
        type=int,
        default=8,
        help="per-tenant queued-job bound; over it submissions are "
        "rejected with a retry-after hint",
    )
    scheduler_option(p, default="sequential")
    p.add_argument(
        "--plan",
        help="fault plan JSON file applied to every job's runtime",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="compare every job against a standalone fault-free run "
        "(bit-identical output/value; simulated seconds too when no "
        "fault plan)",
    )
    report_flags(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "recover",
        help="crash/restart the journaled co-execution service under "
        "a seeded crash schedule until recovery converges; prints the "
        "repro.recover/1 report",
    )
    p.add_argument(
        "--journal-dir",
        help="journal directory (persists across the simulated "
        "crashes; default: a fresh temporary directory)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=6,
        help="jobs submitted before the first crash",
    )
    scheduler_option(p, default="sequential")
    p.add_argument(
        "--seed",
        type=int,
        default=1,
        help="crash-schedule RNG seed",
    )
    p.add_argument(
        "--crash-call",
        type=int,
        default=3,
        help="device consult index at which each job's crash fires",
    )
    p.add_argument(
        "--checkpoint-interval",
        type=int,
        default=2,
        help="decision points between checkpoint frames",
    )
    p.add_argument(
        "--no-checkpoints",
        action="store_true",
        help="recover from the journal only (every resume from "
        "scratch)",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=32,
        help="give up if recovery has not converged after this many "
        "restarts",
    )
    report_flags(p)
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser(
        "harvest",
        help="AOT-compile the app suite into an artifact cache and "
        "verify warm starts (docs/CACHING.md)",
    )
    p.add_argument(
        "apps",
        nargs="*",
        help="suite app names (default: every app in repro.apps.SUITE)",
    )
    backend_flags(p)
    cache_flags(p)
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the second compile pass that proves warm starts",
    )
    p.add_argument(
        "--pin",
        action="store_true",
        help="pin every harvested entry against LRU eviction",
    )
    report_flags(
        p,
        "print the machine-readable repro.harvest/1 report",
        "also write the JSON report here",
    )
    p.set_defaults(fn=_cmd_harvest)

    p = sub.add_parser(
        "cache",
        help="inspect and maintain an artifact cache "
        "(stats / purge / verify)",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    def cache_command(name, fn, help):
        cp = cache_sub.add_parser(name, help=help)
        cp.add_argument("--cache-dir", required=True)
        cp.set_defaults(fn=fn)
        return cp

    cp = cache_command("stats", _cmd_cache_stats, "summarize cache contents")
    cp.add_argument("--json", action="store_true")
    cache_command("purge", _cmd_cache_purge, "drop every entry")
    cp = cache_command(
        "verify", _cmd_cache_verify, "integrity-check every entry's hashes"
    )
    cp.add_argument(
        "--delete-corrupt",
        action="store_true",
        help="drop failing entries so the next compile repopulates them",
    )

    p = sub.add_parser(
        "fuse",
        help="plan task fusion for an app and print/save the "
        "repro.fusion/1 plan (docs/FUSION.md)",
    )
    target_arg(p, "gray_pipeline")
    backend_flags(p)
    p.add_argument(
        "--profile",
        help="profile report JSON (python -m repro profile -o ...); "
        "only groups the report shows offloading are fused, the rest "
        "are recorded as rejected with reasons",
    )
    p.add_argument(
        "--ir",
        action="store_true",
        help="also print the canonical fused-IR rendering",
    )
    report_flags(
        p,
        "print the machine-readable plan instead of text",
        "save the plan JSON here",
    )
    cache_flags(p)
    p.set_defaults(fn=_cmd_fuse)

    file_command(
        "format", _cmd_format, "pretty-print (normalize) a source file"
    )
    file_command(
        "markers", _cmd_markers, "IDE-style per-line artifact markers"
    )
    file_command("graphs", _cmd_graphs, "list discovered task graphs")
    file_command("disas", _cmd_disas, "disassemble the bytecode artifact")
    file_command(
        "emit-opencl", lambda a: _emit(a, "gpu"), "print generated OpenCL C"
    )
    file_command(
        "emit-verilog", lambda a: _emit(a, "fpga"), "print generated Verilog"
    )

    p = sub.add_parser(
        "build", help="compile into an on-disk artifact cache directory"
    )
    p.add_argument("file", help="Lime source file")
    backend_flags(p)
    p.add_argument(
        "-o", "--output", dest="cache_dir", required=True,
        help="artifact cache directory (what compile --cache-dir reads)",
    )
    p.set_defaults(fn=_cmd_build)

    p = file_command(
        "emit-testbench",
        _cmd_testbench,
        "print a self-checking Verilog testbench for each FPGA module",
    )
    p.add_argument(
        "--inputs",
        default="ints:1,2,3",
        help="stimulus literal, e.g. ints:1,2,3 or bits:1,0,1",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LiquidMetalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

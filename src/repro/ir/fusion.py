"""Profile-guided map fusion (docs/FUSION.md).

Adjacent data-parallel operators pay the marshaling boundary once per
stage: a ``g(f(x))`` map chain serializes the intermediate array out of
the device and straight back in. The fusion pass removes that interior
crossing: an :class:`~repro.ir.nodes.EMap` whose mapped argument is
another EMap (directly, or through a single-use local) is rewritten to
one EMap over a synthesized composite function whose body is
``return g(f(x))``. One kernel, one launch, one crossing per direction;
the intermediate array is never serialized. The pass never fuses
across impure or instance functions or through a reduce barrier.

Task-graph spans are not planned here. The backends emit multi-stage
artifacts for every contiguous stateless relocatable run, and how large
a span the runtime substitutes is the substitution policy's
prefer-larger rule (:mod:`repro.runtime.substitution`).

Plans are first-class ``repro.fusion/1`` artifacts: saved to JSON,
inspected with ``python -m repro fuse``, and replayed deterministically
(``--fusion plan=FILE``). A plan records the pre-fusion IR fingerprint
so replay against a different program fails loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro import schema
from repro.errors import ConfigurationError, LoweringError
from repro.ir import nodes as ir
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.verifier import verify_module

#: Schema tag stamped on every serialized plan.
FUSION_SCHEMA = "repro.fusion/1"

#: Accepted compile-time fusion modes (``FusionOptions.mode``).
FUSION_MODES = ("off", "auto", "plan")


@dataclass(frozen=True)
class FusionOptions:
    """Compile-time fusion knobs (a :class:`CompileOptions` block).

    ``mode='off'`` (the default) leaves the IR untouched. ``'auto'``
    plans and applies every legal group — optionally gated by the
    profile report at ``profile_path``. ``'plan'`` replays the saved
    ``repro.fusion/1`` plan at ``plan_path`` deterministically.
    """

    mode: str = "off"
    plan_path: str = ""
    profile_path: str = ""

    def __post_init__(self):
        self.validate()

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def validate(self) -> "FusionOptions":
        if self.mode not in FUSION_MODES:
            raise ConfigurationError(
                f"unknown fusion mode {self.mode!r}; expected one of "
                + ", ".join(FUSION_MODES)
            )
        if self.mode == "plan" and not self.plan_path:
            raise ConfigurationError(
                "fusion mode 'plan' requires plan_path "
                "(--fusion plan=FILE)"
            )
        return self

    @classmethod
    def from_flag(cls, flag: "str | None",
                  profile_path: str = "") -> "FusionOptions":
        """Parse the CLI ``--fusion {off,auto,plan=FILE}`` value."""
        if flag is None:
            return cls()
        if flag.startswith("plan="):
            return cls(
                mode="plan",
                plan_path=flag[len("plan="):],
                profile_path=profile_path,
            )
        return cls(mode=flag, profile_path=profile_path)


# ---------------------------------------------------------------------------
# Plan artifact
# ---------------------------------------------------------------------------


@dataclass
class FusionGroup:
    """One fusable map chain."""

    kind: str                 # always 'map'
    task_ids: list            # [inner, outer] task ids
    fused: str = ""           # synthesized function name
    site: str = ""            # host function holding the chain
    reason: str = "static"    # why the planner kept (or dropped) it

    def key(self) -> tuple:
        return (self.kind, tuple(self.task_ids), self.site)

    def to_dict(self) -> dict:
        data = {"kind": self.kind, "task_ids": list(self.task_ids)}
        if self.fused:
            data["fused"] = self.fused
        if self.site:
            data["site"] = self.site
        data["reason"] = self.reason
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FusionGroup":
        return cls(
            kind=data["kind"],
            task_ids=list(data["task_ids"]),
            fused=data.get("fused", ""),
            site=data.get("site", ""),
            reason=data.get("reason", "static"),
        )


_GROUP_SPEC = schema.obj(
    {
        "kind": schema.one_of("map", noun="kind"),
        "task_ids": schema.array(schema.STRING, min=2),
    },
)

#: The ``repro.fusion/1`` document (:mod:`repro.schema`).
FUSION_PLAN_SPEC = schema.obj(
    {
        "schema": schema.one_of(FUSION_SCHEMA),
        "groups": schema.array(_GROUP_SPEC),
    },
    {"rejected": schema.array(_GROUP_SPEC)},
)


@dataclass
class FusionPlan:
    """A saved, inspectable, replayable fusion decision set."""

    program: str = ""              # pre-fusion ir_fingerprint
    groups: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    profile: str = ""              # where the evidence came from

    def to_dict(self) -> dict:
        return {
            "schema": FUSION_SCHEMA,
            "program": self.program,
            "profile": self.profile,
            "groups": [g.to_dict() for g in self.groups],
            "rejected": [g.to_dict() for g in self.rejected],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def from_dict(cls, data: dict) -> "FusionPlan":
        schema.require(data, FUSION_PLAN_SPEC, "fusion plan")
        return cls(
            program=data.get("program", ""),
            profile=data.get("profile", ""),
            groups=[FusionGroup.from_dict(g) for g in data["groups"]],
            rejected=[
                FusionGroup.from_dict(g) for g in data.get("rejected", [])
            ],
        )

    @classmethod
    def loads(cls, text: str) -> "FusionPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FusionPlan":
        return cls.from_dict(
            schema.load(path, FUSION_PLAN_SPEC, "fusion plan")
        )

    def describe(self) -> str:
        """Human-readable plan rendering (`python -m repro fuse`)."""
        lines = [f"fusion plan ({FUSION_SCHEMA})"]
        if self.program:
            lines.append(f"program: {self.program[:16]}…")
        if self.profile:
            lines.append(f"profile: {self.profile}")
        lines.append(f"groups: {len(self.groups)}")
        for group in self.groups:
            arrow = " -> ".join(group.task_ids)
            lines.append(f"  [{group.kind:5s}] {arrow}")
            lines.append(f"          at {group.site}: {group.reason}")
        if self.rejected:
            lines.append(f"rejected: {len(self.rejected)}")
            for group in self.rejected:
                arrow = " -> ".join(group.task_ids)
                lines.append(f"  [{group.kind:5s}] {arrow}: {group.reason}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Map-chain discovery
# ---------------------------------------------------------------------------


@dataclass
class _MapSite:
    """One fusable map pair found in a function body."""

    function: ir.IRFunction
    outer: ir.EMap
    arg_pos: int
    inner: ir.EMap
    let_stmt: "ir.SLet | None" = None   # chained through a local
    block: "list | None" = None         # statement list holding the let

    @property
    def inner_method(self) -> str:
        return self.inner.method

    @property
    def outer_method(self) -> str:
        return self.outer.method

    def task_ids(self) -> list:
        return [f"map:{self.inner.method}", f"map:{self.outer.method}"]


def _broadcast_of(emap: ir.EMap) -> list:
    """The EMap's broadcast flags, normalized to full arg length (an
    empty list means every argument is mapped)."""
    flags = list(emap.broadcast)
    if not flags:
        flags = [False] * len(emap.args)
    return flags


def _function_blocks(function: ir.IRFunction):
    """Yield every statement list of a function body, outermost first."""
    pending = [function.body]
    while pending:
        block = pending.pop(0)
        yield block
        for stmt in block:
            if isinstance(stmt, ir.SIf):
                pending.append(stmt.then)
                pending.append(stmt.other)
            elif isinstance(stmt, (ir.SWhile, ir.SFor)):
                pending.append(stmt.body)


def _local_uses(function: ir.IRFunction, name: str) -> int:
    uses = 0
    for stmt in ir.walk_stmts(function.body):
        if isinstance(stmt, ir.SAssignLocal) and stmt.name == name:
            return -1  # reassigned: never forwardable
        for expr in ir.stmt_exprs(stmt):
            for node in ir.walk_expr(expr):
                if isinstance(node, ir.ELocal) and node.name == name:
                    uses += 1
    return uses


def _fusable_target(module: ir.IRModule, method: str) -> bool:
    """Map targets must be known, pure, static functions — the function
    IR analog of 'never fuse across stateful tasks'."""
    function = module.functions.get(method)
    return (
        function is not None
        and function.is_pure
        and function.is_static
        and not function.is_constructor
    )


def _direct_sites(module: ir.IRModule, function: ir.IRFunction):
    """Fusable ``g(f(x))`` pairs where the inner EMap is nested
    directly in the outer's argument list. EReduce arguments are never
    considered — a reduce is a barrier, not a map link."""
    sites = []
    for stmt in ir.walk_stmts(function.body):
        for expr in ir.stmt_exprs(stmt):
            for node in ir.walk_expr(expr):
                if not isinstance(node, ir.EMap):
                    continue
                flags = _broadcast_of(node)
                for pos, (arg, is_broadcast) in enumerate(
                    zip(node.args, flags)
                ):
                    if is_broadcast or not isinstance(arg, ir.EMap):
                        continue
                    if not (
                        _fusable_target(module, node.method)
                        and _fusable_target(module, arg.method)
                    ):
                        continue
                    sites.append(
                        _MapSite(
                            function=function,
                            outer=node,
                            arg_pos=pos,
                            inner=arg,
                        )
                    )
    return sites


def _let_sites(module: ir.IRModule, function: ir.IRFunction):
    """Fusable pairs chained through a single-use local::

        var t = C @ f(xs);
        return C @ g(t);

    Conservative forwarding: the local must be initialized from an
    EMap, never reassigned, used exactly once, and that use must be a
    mapped (non-broadcast) argument of an EMap in a *later statement of
    the same block* — so the forwarded computation cannot move into a
    loop or change how often it runs."""
    sites = []
    for block in _function_blocks(function):
        for index, stmt in enumerate(block):
            if not (
                isinstance(stmt, ir.SLet)
                and isinstance(stmt.init, ir.EMap)
            ):
                continue
            if _local_uses(function, stmt.name) != 1:
                continue
            inner = stmt.init
            found = None
            for later in block[index + 1:]:
                for expr in ir.stmt_exprs(later):
                    for node in ir.walk_expr(expr):
                        if not isinstance(node, ir.EMap):
                            continue
                        flags = _broadcast_of(node)
                        for pos, (arg, is_broadcast) in enumerate(
                            zip(node.args, flags)
                        ):
                            if (
                                not is_broadcast
                                and isinstance(arg, ir.ELocal)
                                and arg.name == stmt.name
                            ):
                                found = (node, pos)
                                break
                        if found:
                            break
                    if found:
                        break
                if found:
                    break
            if found is None:
                continue
            outer, pos = found
            if not (
                _fusable_target(module, outer.method)
                and _fusable_target(module, inner.method)
            ):
                continue
            sites.append(
                _MapSite(
                    function=function,
                    outer=outer,
                    arg_pos=pos,
                    inner=inner,
                    let_stmt=stmt,
                    block=block,
                )
            )
    return sites


def find_map_sites(module: ir.IRModule) -> list:
    """All currently fusable map pairs, in deterministic order."""
    sites: list = []
    for name in sorted(module.functions):
        function = module.functions[name]
        sites.extend(_direct_sites(module, function))
        sites.extend(_let_sites(module, function))
    return sites


# ---------------------------------------------------------------------------
# Profile-guided gating
# ---------------------------------------------------------------------------


def _profile_payload(profile) -> dict:
    if profile is None:
        return {}
    data = getattr(profile, "data", profile)
    if not isinstance(data, dict):
        raise ConfigurationError(
            "profile must be a repro.profile/1 dict or ProfileReport"
        )
    return data


def _offload_rows(payload: dict) -> dict:
    return {
        row.get("name"): row
        for row in payload.get("stages", [])
        if row.get("kind") == "offload"
    }


def _gate_map_group(group: FusionGroup, payload: dict) -> "str | None":
    """Profile evidence that a map chain is worth fusing: one of its
    kernels was actually offloaded (`offload.kernel_us` exists for it),
    so each call paid `marshal.crossing_us` both ways. Returns the
    evidence string, or None to reject."""
    offloads = _offload_rows(payload)
    for task_id in group.task_ids:
        row = offloads.get(f"gpu:{task_id}")
        if row is not None and row.get("calls", 0) > 0:
            return (
                f"profile: gpu:{task_id} offloaded {row['calls']}x "
                f"({row.get('span_us', 0.0):.0f}us on critical path)"
            )
    return None


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def plan_fusion(module: ir.IRModule, profile=None) -> FusionPlan:
    """Discover and apply every legal fusion group (mutating the
    module), recording each step in plan order. Multi-link chains fuse
    iteratively: ``h(g(f(x)))`` records ``f->g`` first, then
    ``fused(f,g)->h`` against the rewritten IR, so replaying the plan
    group-by-group reproduces the exact same module. With a profile
    report, only groups the evidence says are worth it are applied
    (critical-path offloads and marshaling crossings); the rest are
    recorded as rejected so the plan stays inspectable."""
    payload = _profile_payload(profile)
    plan = FusionPlan(
        program=ir_fingerprint(module),
        profile=payload.get("app", "") if payload else "",
    )
    decided: set = set()
    while True:
        progressed = False
        for site in find_map_sites(module):
            group = FusionGroup(
                kind="map",
                task_ids=site.task_ids(),
                fused=_fused_name(module, site),
                site=site.function.qualified_name,
                reason=(
                    "static: map chain"
                    + (" (via single-use local)" if site.let_stmt else "")
                ),
            )
            if group.key() in decided:
                continue
            decided.add(group.key())
            if payload:
                evidence = _gate_map_group(group, payload)
                if evidence is None:
                    group.reason = "profile: no offload evidence for chain"
                    plan.rejected.append(group)
                    continue
                group.reason = evidence
            _apply_site(module, site)
            plan.groups.append(group)
            progressed = True
            break  # re-discover against the rewritten IR
        if not progressed:
            break
    if plan.groups:
        verify_module(module)
    return plan


# ---------------------------------------------------------------------------
# Application (the IR rewrite)
# ---------------------------------------------------------------------------


def _fused_name(module: ir.IRModule, site: _MapSite) -> str:
    """Deterministic name for the synthesized composite function. The
    argument position is encoded when nonzero so ``g(f(x), y)`` and
    ``g(y, f(x))`` synthesize distinct composites."""
    outer_fn = module.functions[site.outer_method]
    owner = outer_fn.class_name or site.outer_method.split(".")[0]
    inner = site.inner_method.replace(".", "_")
    outer = site.outer_method.replace(".", "_")
    name = f"{owner}.fused_{inner}__{outer}"
    if site.arg_pos:
        name += f"_at{site.arg_pos}"
    return name


def _synthesize(module: ir.IRModule, site: _MapSite, name: str):
    """Build the composite ``return g(..., f(y...), ...)`` function and
    the argument/broadcast splice for the rewritten EMap."""
    inner_fn = module.functions[site.inner_method]
    outer_fn = module.functions[site.outer_method]
    params: list = []
    call_args: list = []
    fused_args: list = []
    fused_broadcast: list = []
    outer_flags = _broadcast_of(site.outer)
    inner_flags = _broadcast_of(site.inner)
    for pos, param in enumerate(outer_fn.params):
        if pos == site.arg_pos:
            inner_call_args = []
            for q, inner_param in enumerate(inner_fn.params):
                fresh = ir.IRParam(f"i{q}", inner_param.type)
                params.append(fresh)
                inner_call_args.append(
                    ir.ELocal(inner_param.type, fresh.name)
                )
                fused_args.append(site.inner.args[q])
                fused_broadcast.append(inner_flags[q])
            call_args.append(
                ir.ECall(
                    inner_fn.return_type,
                    site.inner_method,
                    inner_call_args,
                )
            )
        else:
            fresh = ir.IRParam(f"o{pos}", param.type)
            params.append(fresh)
            call_args.append(ir.ELocal(param.type, fresh.name))
            fused_args.append(site.outer.args[pos])
            fused_broadcast.append(outer_flags[pos])
    body = [
        ir.SReturn(
            ir.ECall(outer_fn.return_type, site.outer_method, call_args)
        )
    ]
    function = ir.IRFunction(
        qualified_name=name,
        params=params,
        return_type=outer_fn.return_type,
        body=body,
        is_static=True,
        is_local=True,
        is_pure=inner_fn.is_pure and outer_fn.is_pure,
        is_constructor=False,
        class_name=outer_fn.class_name,
    )
    return function, fused_args, fused_broadcast


def _apply_site(module: ir.IRModule, site: _MapSite) -> None:
    """Fuse one map pair in place."""
    name = _fused_name(module, site)
    function, fused_args, fused_broadcast = _synthesize(module, site, name)
    existing = module.functions.get(name)
    if existing is None:
        module.functions[name] = function
    # Rewrite the outer EMap node in place: same node object, so any
    # enclosing expression keeps pointing at the fused map.
    site.outer.method = name
    site.outer.args = fused_args
    site.outer.broadcast = fused_broadcast
    if site.let_stmt is not None and site.block is not None:
        site.block.remove(site.let_stmt)


def apply_fusion(module: ir.IRModule, plan: FusionPlan) -> None:
    """Apply a plan's map groups to the module (in place). Deterministic
    replay: the same plan against the same program always produces the
    same rewritten IR; a plan recorded against a *different* program is
    rejected up front."""
    if plan.program:
        actual = ir_fingerprint(module)
        if actual != plan.program:
            raise ConfigurationError(
                "fusion plan was recorded against a different program "
                f"(plan {plan.program[:12]}…, module {actual[:12]}…); "
                "regenerate it with `python -m repro fuse`"
            )
    for group in plan.groups:
        site = _match_site(module, group)
        if site is None:
            raise LoweringError(
                "fusion plan does not match the program: no fusable "
                f"chain {' -> '.join(group.task_ids)} in "
                f"{group.site or '<any function>'}"
            )
        _apply_site(module, site)
    if plan.groups:
        verify_module(module)


def _match_site(module: ir.IRModule, group: FusionGroup):
    want_inner = group.task_ids[0].split("map:", 1)[-1]
    want_outer = group.task_ids[-1].split("map:", 1)[-1]
    for site in find_map_sites(module):
        if group.site and site.function.qualified_name != group.site:
            continue
        if (
            site.inner_method == want_inner
            and site.outer_method == want_outer
        ):
            return site
    return None


def fuse_module(module: ir.IRModule,
                options: FusionOptions) -> "FusionPlan | None":
    """The compile-driver entry: plan (or load) and apply fusion as the
    (validated) ``options`` ask; the applied plan, or None for 'off'."""
    if options.mode == "off":
        return None
    if options.mode == "plan":
        plan = FusionPlan.load(options.plan_path)
        apply_fusion(module, plan)
        return plan
    from repro.obs.profile import PROFILE_SPEC

    profile = (
        schema.load(options.profile_path, PROFILE_SPEC, "profile report")
        if options.profile_path
        else None
    )
    # 'auto': planning applies as it goes (iterative chain rewriting).
    return plan_fusion(module, profile=profile)


# ---------------------------------------------------------------------------
# Canonical fused-IR rendering (golden tests)
# ---------------------------------------------------------------------------


def _render_expr(expr) -> str:
    if isinstance(expr, ir.EConst):
        return repr(expr.value)
    if isinstance(expr, ir.ELocal):
        return expr.name
    if isinstance(expr, ir.ECall):
        args = ", ".join(_render_expr(a) for a in expr.args)
        return f"{expr.callee}({args})"
    if isinstance(expr, ir.EMap):
        args = ", ".join(_render_expr(a) for a in expr.args)
        return f"map[{expr.method}]({args})"
    if isinstance(expr, ir.EReduce):
        args = ", ".join(_render_expr(a) for a in expr.args)
        return f"reduce[{expr.method}]({args})"
    if isinstance(expr, ir.EBinary):
        return (
            f"({_render_expr(expr.left)} {expr.op} "
            f"{_render_expr(expr.right)})"
        )
    if isinstance(expr, ir.EUnary):
        return f"({expr.op}{_render_expr(expr.operand)})"
    if isinstance(expr, ir.ECast):
        return f"cast({_render_expr(expr.operand)})"
    if isinstance(expr, ir.EIndex):
        return f"{_render_expr(expr.array)}[{_render_expr(expr.index)}]"
    return f"<{type(expr).__name__}>"


def render_fused_ir(module: ir.IRModule, plan: FusionPlan) -> str:
    """Canonical printer output for the plan's fusion groups: the
    synthesized composite functions. Locked by tests/golden/fusion/ so
    any fusion-pass drift shows up as an explicit golden diff."""
    lines = [f"fused-ir {FUSION_SCHEMA}"]
    for group in plan.groups:
        lines.append("")
        lines.append(f"map-chain {' -> '.join(group.task_ids)}")
        lines.append(f"  site {group.site}")
        function = module.functions.get(group.fused)
        if function is None:
            lines.append(f"  fused {group.fused} (not applied)")
            continue
        params = ", ".join(
            f"{p.type} {p.name}" for p in function.params
        )
        lines.append(
            f"  fused {function.return_type} "
            f"{function.qualified_name}({params})"
        )
        for stmt in function.body:
            if isinstance(stmt, ir.SReturn) and stmt.value is not None:
                lines.append(f"    return {_render_expr(stmt.value)}")
            else:
                lines.append(f"    <{type(stmt).__name__}>")
    return "\n".join(lines) + "\n"

"""Task-graph IR: the computational nodes the backends compile.

A :class:`TaskGraphIR` is the statically discovered shape of one task
graph built by a global method — a linear pipeline of stages
(source, filters, sink), which matches the Lime connect operator's
single-input/single-output port discipline. Each stage carries a unique
*task identifier*; backends label the artifacts they generate with these
identifiers and the runtime matches artifacts to runtime tasks through
them (Section 3: "the frontend and backend compilers cooperate to
produce a manifest describing each generated artifact and labeling it
with a unique task identifier").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.lime import types as ty

@dataclass
class StageIR:
    """One computational node in a task graph."""

    index: int
    kind: str  # 'source' | 'filter' | 'sink'
    task_id: str
    method: Optional[str] = None  # the filter's method (qualified)
    rate: int = 1                 # items per firing (sources)
    arity: int = 1                # inputs consumed per firing (filters)
    relocatable: bool = False
    stateful: bool = False  # instance task carrying pipeline state
    input_type: Optional[ty.Type] = None
    output_type: Optional[ty.Type] = None
    position: object = None  # SourcePosition of the task expression

    def __repr__(self) -> str:
        extra = f":{self.method}" if self.method else ""
        marker = "[R]" if self.relocatable else ""
        return f"<{self.kind}{extra}{marker} #{self.index}>"


@dataclass
class TaskGraphIR:
    """A statically discovered linear pipeline."""

    graph_id: str
    owner_function: str
    stages: list = field(default_factory=list)

    @property
    def filters(self) -> list:
        return [s for s in self.stages if s.kind == "filter"]

    @property
    def is_closed(self) -> bool:
        return (
            bool(self.stages)
            and self.stages[0].kind == "source"
            and self.stages[-1].kind == "sink"
        )

    def relocation_regions(self) -> "list[tuple[int, int]]":
        """Maximal runs ``[start, end]`` (stage indices, inclusive) of
        contiguous relocatable filters. These are the units the device
        backends may compile, and the substitution algorithm prefers
        the largest (Section 4.2)."""
        regions: list[tuple[int, int]] = []
        run_start: Optional[int] = None
        for i, stage in enumerate(self.stages):
            if stage.kind == "filter" and stage.relocatable:
                if run_start is None:
                    run_start = i
            else:
                if run_start is not None:
                    regions.append((run_start, i - 1))
                    run_start = None
        if run_start is not None:
            regions.append((run_start, len(self.stages) - 1))
        return regions

    def describe(self) -> str:
        """One-line arrow rendering, e.g. ``source => [flip] => sink``."""
        parts = []
        for stage in self.stages:
            if stage.kind == "source":
                parts.append(f"source({stage.rate})")
            elif stage.kind == "sink":
                parts.append("sink")
            else:
                name = stage.method.split(".")[-1] if stage.method else "?"
                parts.append(f"[{name}]" if stage.relocatable else name)
        return " => ".join(parts)

    def __repr__(self) -> str:
        return f"TaskGraphIR({self.graph_id}: {self.describe()})"

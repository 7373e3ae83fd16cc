"""Structured Python from a block graph: loops become ``while``, branches
``if``/``else``.

The stager (:mod:`repro.backends.bytecode.staging`) translates a
function's blocks into :class:`Node` s — straight-line runs of text
ending in a jump, a two-way branch or a return — and this module orders
them as nested Python statements, the problem the Relooper (Zakai,
*Emscripten*, SPLASH 2011) solves for JavaScript and Ramsey's *Beyond
Relooper* solves over the dominator tree, which is the way taken here:

* :class:`Graph` threads the bare ``break``/``continue`` jumps, orders
  the reachable nodes, finds the natural loops and refuses an
  irreducible graph with a :class:`~repro.errors.DeviceError` (Lime has
  no ``goto``, so its compiler never makes one).
* :func:`structured` writes each natural loop as a ``while True:``
  whose body holds the loop's own nodes, its inner loops standing as
  one node each. A back edge is ``continue`` (nothing when it comes
  last), an edge out of the loop is ``break``, and a loop left for more
  than one place (a ``return`` inside it, say) first sets its exit
  variable ``x<header>``, on which an ``if`` after the loop branches.
  Inside one loop the graph is acyclic: a node is followed by the merge
  nodes it immediately dominates, in reverse postorder, and an edge to
  the next of them falls through; an edge to a node with no other way
  in puts that node right there. An edge to any other merge node would
  be a forward jump, which Python has not; that node is written out
  again at the edge (Lime's structured statements never need it). An
  ``else:`` holding only an ``if`` becomes an ``elif``, so a long
  ``else if`` chain does not nest.

Text is ``[(indent, item)]``: an item is a line of source or a marker
tuple the renderer expands (see ``staging._Render``).
"""

from __future__ import annotations

from repro.errors import DeviceError

#: The node a ``return`` leaves for in a body inlined into a launch.
END = -1
#: Where control goes past the end of a loop body: back to its header.
_AGAIN = "again"


class Node:
    """A straight-line run: ``lines`` then ``term``, which is
    ``("goto", edge)``, ``("if", cond, edge_if_true, edge_if_false)`` or
    ``("return", value)``. An edge is ``(lines, target pc)``; its lines
    move the operand stack into ``s*`` and add the run's cycles to
    ``c``. ``leader``: the node starts a block (it prints ``# pc N``)."""

    __slots__ = ("lines", "term", "leader")

    def __init__(self, lines, term, leader):
        self.lines = lines
        self.term = term
        self.leader = leader

    def edges(self):
        term = self.term
        if term[0] == "goto":
            return [term[1]]
        if term[0] == "if":
            return [term[2], term[3]]
        return []


class Graph:
    """The reachable nodes of one function (entry: pc 0) and its loops:
    ``loops`` (header -> its nodes), ``loop_of`` (node -> innermost
    header), ``parent`` (header -> enclosing header) and ``exits``
    (header -> where its edges leave it, in reverse postorder)."""

    def __init__(self, nodes: dict, name: str):
        _thread(nodes)
        order = _postorder(0, lambda pc: [t for _, t in nodes[pc].edges()])
        order.reverse()
        self.nodes = nodes = {pc: nodes[pc] for pc in order}
        rpo = {pc: i for i, pc in enumerate(order)}
        preds = {pc: [] for pc in order}
        for pc in order:
            for _, target in nodes[pc].edges():
                preds[target].append(pc)
        idom = dominators(order, preds)
        headers: dict = {}
        for pc in order:
            for _, target in nodes[pc].edges():
                if rpo[target] > rpo[pc]:
                    continue
                if not _dominates(idom, target, pc):
                    raise DeviceError(
                        f"{name}: irreducible control flow: pc {target} "
                        f"is entered from pc {pc} without passing through "
                        f"its loop header"
                    )
                headers.setdefault(target, []).append(pc)
        self.loops: dict = {}
        for header, latches in headers.items():
            body, work = {header}, list(latches)
            while work:
                pc = work.pop()
                if pc not in body:
                    body.add(pc)
                    work.extend(preds[pc])
            self.loops[header] = body
        self.loop_of: dict = {}
        for header in sorted(self.loops, key=lambda h: -len(self.loops[h])):
            for pc in self.loops[header]:
                self.loop_of[pc] = header
        self.parent = {
            header: min(
                (h for h, body in self.loops.items()
                 if h != header and header in body),
                key=lambda h: len(self.loops[h]), default=None,
            )
            for header in self.loops
        }
        self.exits = {
            header: sorted(
                {
                    target
                    for pc in body for _, target in nodes[pc].edges()
                    if target not in body
                },
                key=rpo.get,
            )
            for header, body in self.loops.items()
        }


def _thread(nodes: dict):
    """Send every edge into a node that only jumps on (a ``break`` or
    ``continue``) straight to where that node goes, its lines added to
    the edge's."""

    def final(edge):
        lines, target = edge
        seen = set()
        while True:
            node = nodes.get(target)
            if node is None or node.lines or node.term[0] != "goto":
                return lines, target
            more, onward = node.term[1]
            if onward == target or onward in seen:
                return lines, target    # a loop of bare jumps
            seen.add(target)
            lines, target = lines + more, onward

    for node in nodes.values():
        term = node.term
        if term[0] == "goto":
            node.term = ("goto", final(term[1]))
        elif term[0] == "if":
            node.term = ("if", term[1], final(term[2]), final(term[3]))


def _postorder(entry, successors) -> list:
    order, seen, work = [], {entry}, [(entry, iter(successors(entry)))]
    while work:
        node, targets = work[-1]
        for target in targets:
            if target not in seen:
                seen.add(target)
                work.append((target, iter(successors(target))))
                break
        else:
            work.pop()
            order.append(node)
    return order


def dominators(order: list, preds: dict) -> dict:
    """Immediate dominators over ``order`` (reverse postorder from its
    first node): Cooper, Harvey and Kennedy's iteration."""
    index = {node: i for i, node in enumerate(order)}
    idom = {order[0]: order[0]}
    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            new = None
            for pred in preds[node]:
                if pred not in idom:
                    continue
                if new is None:
                    new = pred
                    continue
                a, b = pred, new
                while a != b:
                    while index[a] > index[b]:
                        a = idom[a]
                    while index[b] > index[a]:
                        b = idom[b]
                new = a
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    return idom


def _dominates(idom: dict, a, b) -> bool:
    while b != a:
        parent = idom[b]
        if parent == b:
            return False
        b = parent
    return True


def indented(code):
    return [(indent + 1, item) for indent, item in code]


def _is_code(code) -> bool:
    return any(
        not (isinstance(item, str) and item.startswith("#"))
        for _, item in code
    )


def _if_else(cond, yes, yes_ends, no, no_ends):
    """``if cond: yes else: no`` as ``(code, ends)``, flattened when an
    arm ends in a jump; ``ends``: control cannot fall off the end."""
    if not _is_code(yes) and not _is_code(no):
        return [], False
    if not _is_code(no):
        return [(0, f"if {cond}:"), *indented(yes)], False
    if not _is_code(yes):
        return [(0, f"if not {cond}:"), *indented(no)], False
    if yes_ends:
        return [(0, f"if {cond}:"), *indented(yes), *no], no_ends
    if no_ends:
        return [(0, f"if not {cond}:"), *indented(no), *yes], False
    chain = _as_elif(no)
    if chain is not None:
        return [(0, f"if {cond}:"), *indented(yes), *chain], False
    code = [(0, f"if {cond}:"), *indented(yes), (0, "else:"), *indented(no)]
    return code, False


def _as_elif(code):
    """``code`` as the ``elif`` that continues an ``if``, when it is one
    ``if`` statement after nothing but comments and constant charges to
    ``c``, else None: an ``else: if`` chain stays at one indentation
    however long it is (Python allows 100). The charges move into every
    arm of that statement, ahead of anything in it; ``c`` is read only
    at a flush and dropped by a raise, so no count can tell."""
    heads = [
        i for i, (indent, item) in enumerate(code)
        if indent == 0 and not (isinstance(item, str) and item.startswith("#"))
    ]
    charge = 0
    while heads and _charge(code[heads[0]][1]) is not None:
        charge += _charge(code[heads.pop(0)][1])
    if not heads:
        return None
    first = code[heads[0]][1]
    if not (isinstance(first, str) and first.startswith("if ")):
        return None
    for i in heads[1:]:
        item = code[i][1]
        if not (isinstance(item, str)
                and (item == "else:" or item.startswith("elif "))):
            return None
    lead = [line for line in code[:heads[0]] if _charge(line[1]) is None]
    chain = [(0, "el" + first), *code[heads[0] + 1:]]
    if not charge:
        return lead + chain
    if code[heads[-1]][1] != "else:":
        chain.append((0, "else:"))
    charged = []
    for indent, item in chain:
        charged.append((indent, item))
        if indent == 0 and not item.startswith("#"):
            charged.append((1, f"\0c += {charge}"))
    return lead + _merged(charged)


def _charge(item):
    """N if ``item`` is the line ``c += N``, else None."""
    if isinstance(item, str) and item.startswith("\0c += "):
        amount = item[len("\0c += "):]
        if amount.isdigit():
            return int(amount)
    return None


class Quiet(str):
    """A line of generated text that cannot raise, reads no cycle count
    and hands control to no other code: a charge may move past it."""

    __slots__ = ()


def _merged(code):
    """Each constant charge moved forward, past the quiet lines and
    comments after it at its indentation, into the next charge there:
    ``c`` is read only at a flush and dropped by a raise, and a quiet
    line does neither."""
    out = []
    held = None         # the index in ``out`` of such a charge
    for indent, item in code:
        charge = _charge(item)
        if charge is not None:
            if held is not None and out[held][0] == indent:
                charge += _charge(out.pop(held)[1])
            out.append((indent, f"\0c += {charge}"))
            held = len(out) - 1
            continue
        out.append((indent, item))
        if held is not None and not (
            indent == out[held][0]
            and isinstance(item, str)
            and (isinstance(item, Quiet) or item.startswith("#"))
        ):
            held = None
    return out


class _NeedsExit(Exception):
    """A ``return`` inlined into a launch is not last in its body."""


def structured(graph: Graph, inline: bool) -> list:
    """The function as ``[(indent, item)]``. A return is ``return X``
    or, ``inline``, the marker ``("result", X)`` and then the end of the
    body: falling off it, or, if some return is not last, a ``break``
    out of a one-pass ``while True:`` around the body."""
    try:
        return _merged(_Structure(graph, inline, False).region(None)[0])
    except _NeedsExit:
        body, _ = _Structure(graph, inline, True).region(None)
        return _merged([(0, "while True:"), *indented(body)])


class _Structure:
    def __init__(self, graph: Graph, inline: bool, exit: bool):
        self.g = graph
        self.inline = inline
        self.exit = exit        # returns ``break`` out of a one-pass loop

    # A region: the nodes of one loop (``header``), or of none (None).

    def rep(self, pc, header):
        """What ``pc`` is inside ``header``'s region: itself, or the
        outermost inner loop holding it (``("loop", h)``)."""
        g = self.g
        loop = g.loop_of.get(pc)
        if loop == header:
            return pc
        while g.parent[loop] != header:
            loop = g.parent[loop]
        return ("loop", loop)

    def successors(self, node, header) -> list:
        """``[(lines, kind, target)]`` of a region node, ``kind`` one of
        ``node``, ``again`` (back to ``header``), ``exit`` (out of it)
        and ``end`` (an inlined return's)."""
        g = self.g
        if isinstance(node, tuple):
            edges = [([], target) for target in g.exits[node[1]]]
        else:
            term = g.nodes[node].term
            edges = g.nodes[node].edges()
            if term[0] == "return" and self.inline:
                edges = [([(0, ("result", term[1]))], END)]
        out = []
        for lines, target in edges:
            if target == END:
                out.append((lines, "end", END))
            elif target == header:
                out.append((lines, "again", header))
            elif header is not None and target not in g.loops[header]:
                out.append((lines, "exit", target))
            else:
                out.append((lines, "node", self.rep(target, header)))
        return out

    def region(self, header):
        entry = self.rep(0 if header is None else header, header)
        succ = {}

        def targets(node):
            succ[node] = [
                target for _, kind, target in self.successors(node, header)
                if kind == "node"
            ]
            return succ[node]

        order = _postorder(entry, targets)
        order.reverse()
        preds = {node: [] for node in order}
        for node in order:
            for target in succ[node]:
                preds[target].append(node)
        idom = dominators(order, preds)
        rpo = {node: i for i, node in enumerate(order)}
        merges: dict = {}
        for node in order:
            if len(preds[node]) > 1:
                merges.setdefault(idom[node], []).append(node)
        for children in merges.values():
            children.sort(key=rpo.get)
        follow = _AGAIN if header is not None else (
            END if self.inline and not self.exit else None
        )
        return _Level(self, header, merges).tree(entry, follow)


class _Level:
    """The emission of one region."""

    def __init__(self, structure, header, merges):
        self.s = structure
        self.g = structure.g
        self.header = header
        self.merges = merges

    def tree(self, node, follow):
        """``node`` and every node it dominates here, falling off the
        end into ``follow``: ``(code, ends)``."""
        merges = self.merges.get(node, [])
        code, ends = self.node(node, merges[0] if merges else follow)
        for i, merge in enumerate(merges):
            after = merges[i + 1] if i + 1 < len(merges) else follow
            more, ends = self.tree(merge, after)
            code += more
        return code, ends

    def node(self, node, follow):
        if isinstance(node, tuple):
            return self.loop(node[1], follow)
        n = self.g.nodes[node]
        code = [(0, f"# pc {node}")] if n.leader else []
        code += n.lines
        term = n.term
        if term[0] == "return" and not self.s.inline:
            return code + [(0, f"return {term[1]}")], True
        edges = self.s.successors(node, self.header)
        if term[0] == "if":
            yes, yes_ends = self.edge(edges[0], follow)
            no, no_ends = self.edge(edges[1], follow)
            more, ends = _if_else(term[1], yes, yes_ends, no, no_ends)
            return code + more, ends
        more, ends = self.edge(edges[0], follow)
        return code + more, ends

    def edge(self, edge, follow):
        lines, kind, target = edge
        code = list(lines)
        if kind == "again":
            if follow == _AGAIN:
                return code, False
            return code + [(0, "continue")], True
        if kind == "exit":
            index = self.g.exits[self.header].index(target)
            if index:
                code.append((0, f"\0x{self.header} = {index}"))
            return code + [(0, "break")], True
        if kind == "end":
            if follow == END:
                return code, False
            if not self.s.exit:
                raise _NeedsExit
            return code + [(0, "break")], True
        if target == follow:
            return code, False
        more, ends = self.tree(target, follow)
        return code + more, ends

    def loop(self, header, follow):
        exits = self.g.exits[header]
        code = [(0, f"\0x{header} = 0")] if len(exits) > 1 else []
        body, _ = self.s.region(header)
        code += [(0, "while True:"), *indented(body)]
        edges = self.s.successors(("loop", header), self.header)
        if not edges:
            return code, True       # a loop nothing leaves
        arms = [self.edge(edge, follow) for edge in edges]
        more, ends = arms[0]
        for index in range(1, len(arms)):
            test = f"\0x{header}" if len(arms) == 2 else (
                f"(\0x{header} == {index})"
            )
            arm, arm_ends = arms[index]
            more, ends = _if_else(test, arm, arm_ends, more, ends)
        return code + more, ends

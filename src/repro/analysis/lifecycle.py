"""Resource-lifecycle rules (family ``lifecycle``).

The supervised worker pool and the serve layer juggle OS resources with
process-wide consequences: pipe ends that keep a dead worker's file
descriptors alive, subprocesses that outlive their owner, temp files and
sockets that accumulate across respawns.  PR 8's drain test proves the
*happy* paths leak nothing — this family proves the unhappy ones, by
running a forward may-analysis over each function's CFG
(:mod:`repro.analysis.cfg`) and checking that every acquired resource is
released, transferred, or stored on every path out, **including the
paths where a statement in between raises**.

Rules:

* ``VIA501`` (error) — a resource may still be open when the function
  returns normally;
* ``VIA502`` (error) — a resource may still be open when an exception
  escapes the function (the classic ``Pipe(); start()``-raises leak),
  or a resource is acquired inside a comprehension, where a failure
  mid-comprehension strands every element already built;
* ``VIA503`` (warning) — a name is rebound while the resource it holds
  may still be open (the old value becomes unreachable un-closed);
* ``VIA504`` (error) — a resource is used after every path has closed
  it (repeated ``close()`` is fine; ``send()`` on a closed pipe is not).

Ownership model (the false-positive policy, see DESIGN.md §13):

* passing a resource to *any* call — constructor, ``list.append``,
  helper — transfers ownership, even on the exception edge.  Whoever
  received it is responsible; flagging the caller too would make every
  hand-off pattern (``_Worker(conn=parent_conn)``) a false positive;
* returning, yielding, or storing into ``self.x``/a container transfers
  ownership to the caller/object;
* ``with ... as f`` acquires and releases on both the normal and the
  exceptional exit, mirroring ``__exit__`` semantics;
* only calls *not* on the safe-leaf allowlist can raise.  Release
  methods, collection mutators, and telemetry reads are modelled as
  non-raising so that ``conn.close(); bookkeeping()`` sequences do not
  manufacture phantom exception paths;
* a local class whose ``__init__`` acquires and which defines a
  release-style method is an *owner class*: constructing one is itself
  an acquisition (``_WorkerHandle(ctx)``), released by its own methods.

The analysis is intraprocedural: resources that cross function
boundaries are handled by the transfer rules above, not by inlining.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.core import (
    CFG,
    Block,
    Finding,
    Project,
    SourceFile,
    family_checker,
    function_cfgs,
    import_aliases,
    make_finding,
    rule,
    solve_forward,
)

VIA501 = rule(
    "VIA501",
    "lifecycle",
    "resource may remain open at normal function exit",
)
VIA502 = rule(
    "VIA502",
    "lifecycle",
    "resource may leak when an exception escapes the function",
)
VIA503 = rule(
    "VIA503",
    "lifecycle",
    "name rebound while its resource may still be open",
    severity="warning",
)
VIA504 = rule(
    "VIA504",
    "lifecycle",
    "resource used after it was closed on every path",
)

#: path fragments this family scans — the resource-juggling subsystems
#: plus the entry scripts, which open files and spawn servers directly
LIFECYCLE_PREFIXES: Tuple[str, ...] = (
    "repro/serve/",
    "repro/pool.py",
    "benchmarks/",
    "examples/",
)

#: method names that release *some* resource; used both to recognise
#: release calls and to detect owner classes
_RELEASE_METHODS = frozenset(
    {
        "close",
        "join",
        "kill",
        "terminate",
        "cleanup",
        "shutdown",
        "stop",
        "stop_gently",
        "release",
        "detach",
        "wait",
        "communicate",
        "unlink",
    }
)

#: call leaves modelled as unable to raise (exception-path FP policy)
_SAFE_LEAVES = frozenset(
    {
        # releases (also: failing to close is not a new leak)
        *_RELEASE_METHODS,
        # collection / dict mutators and reads
        "append", "add", "extend", "insert", "remove", "discard", "clear",
        "update", "get", "setdefault", "pop", "popleft", "keys", "values",
        "items", "copy",
        # builtins and introspection
        "len", "isinstance", "issubclass", "hasattr", "getattr", "setattr",
        "repr", "str", "int", "float", "bool", "list", "dict", "tuple",
        "frozenset", "sorted", "reversed", "enumerate", "zip", "range",
        "min", "max", "sum", "abs", "id", "format", "print", "callable",
        # clocks and telemetry (sanctioned by the determinism family)
        "monotonic", "perf_counter", "process_time", "time", "sleep",
        "inc", "observe", "is_alive", "poll", "fileno", "is_set", "locked",
        # logging
        "debug", "info", "warning", "error", "exception", "log",
    }
)

#: constructors whose *instance* is armed by ``.start()`` — building one
#: is inert, starting it acquires a join/terminate obligation
_PROCESS_CTORS = frozenset({"Process", "Thread"})


@dataclass(frozen=True)
class Acquirer:
    """How a call leaf acquires, and what releases what it acquired."""

    kind: str
    releases: FrozenSet[str]
    pair: bool = False      # tuple target acquires two resources (Pipe)
    fd_first: bool = False  # tuple target acquires only element 0 (mkstemp)


#: call leaf -> acquisition spec (leaf-matched so ``ctx.Pipe``,
#: ``mp.Pipe`` and ``multiprocessing.Pipe`` all resolve)
_ACQUIRERS: Dict[str, Acquirer] = {
    "Pipe": Acquirer("pipe end", frozenset({"close"}), pair=True),
    "socketpair": Acquirer(
        "socket", frozenset({"close", "detach", "shutdown"}), pair=True
    ),
    "socket": Acquirer("socket", frozenset({"close", "detach", "shutdown"})),
    "create_connection": Acquirer(
        "socket", frozenset({"close", "detach", "shutdown"})
    ),
    "open": Acquirer("file", frozenset({"close"})),
    "NamedTemporaryFile": Acquirer("temp file", frozenset({"close"})),
    "TemporaryFile": Acquirer("temp file", frozenset({"close"})),
    "SpooledTemporaryFile": Acquirer("temp file", frozenset({"close"})),
    "TemporaryDirectory": Acquirer("temp dir", frozenset({"cleanup"})),
    "mkstemp": Acquirer("fd", frozenset(), fd_first=True),
    "mkdtemp": Acquirer("temp dir path", frozenset()),
    "Popen": Acquirer(
        "subprocess", frozenset({"wait", "kill", "terminate", "communicate"})
    ),
}

#: resolved-name suffixes releasing their first argument
_ARG_RELEASERS = ("os.close", "shutil.rmtree", "rmtree")

#: one tracked resource: (var, acquisition line, kind, status)
_Item = Tuple[str, int, str, str]
_State = Optional[FrozenSet[_Item]]

_OPEN = "open"
_CLOSED = "closed"
_TRANSFERRED = "transferred"


def _call_leaf(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _resolved_name(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    parts: List[str] = []
    node: ast.expr = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _walk_no_defs(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested def/class/lambda."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)


def _names_in(node: ast.AST) -> Set[str]:
    return {
        n.id
        for n in _walk_no_defs(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _with_bound_names(stmt: ast.AST) -> Set[str]:
    """Names a ``with`` statement's ``__exit__`` is responsible for."""
    names: Set[str] = set()
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if isinstance(item.optional_vars, ast.Name):
                names.add(item.optional_vars.id)
            if isinstance(item.context_expr, ast.Name):
                names.add(item.context_expr.id)
    return names


def _owner_classes(
    tree: ast.Module, aliases: Dict[str, str]
) -> Dict[str, FrozenSet[str]]:
    """Local classes whose constructor is itself an acquisition.

    A class counts when its ``__init__`` performs a known acquisition and
    the class offers a release-style method — then ``Cls(...)`` hands the
    caller a close/kill/join obligation, exactly like ``Pipe()`` does.
    """
    owners: Dict[str, FrozenSet[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            n.name
            for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        releases = frozenset(methods & _RELEASE_METHODS)
        if not releases:
            continue
        init = next(
            (
                n
                for n in node.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__"
            ),
            None,
        )
        if init is None:
            continue
        acquires = any(
            isinstance(sub, ast.Call)
            and (
                (_call_leaf(sub) or "") in _ACQUIRERS
                or (_call_leaf(sub) or "") in _PROCESS_CTORS
            )
            for sub in _walk_no_defs(init)
        )
        if acquires:
            owners[node.name] = releases
    return owners


class _FunctionAnalysis:
    """Lifecycle dataflow over one function's CFG."""

    def __init__(
        self,
        src: SourceFile,
        qualname: str,
        cfg: CFG,
        aliases: Dict[str, str],
        owners: Dict[str, FrozenSet[str]],
    ):
        self.src = src
        self.qualname = qualname
        self.cfg = cfg
        self.aliases = aliases
        self.owners = owners
        #: kind label -> release-method names for items of that kind
        self.releases_by_kind: Dict[str, FrozenSet[str]] = {
            spec.kind: spec.releases for spec in _ACQUIRERS.values()
        }
        self.releases_by_kind["process"] = frozenset(
            {"join", "kill", "terminate", "close"}
        )
        for cls, releases in owners.items():
            self.releases_by_kind[f"instance of {cls}"] = releases
        #: names assigned a Process/Thread constructor anywhere here
        self.proc_vars: Set[str] = set()
        for node in _walk_no_defs(cfg.func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and (_call_leaf(node.value) or "") in _PROCESS_CTORS
            ):
                self.proc_vars.add(node.targets[0].id)
        #: (rule, line, message) accumulated during the reporting pass
        self.found: Set[Tuple[str, int, str]] = set()

    # -- acquisition lookup --------------------------------------------
    def _acquirer_of(self, expr: ast.expr) -> Optional[Acquirer]:
        if not isinstance(expr, ast.Call):
            return None
        leaf = _call_leaf(expr)
        if leaf is None:
            return None
        if leaf in self.owners:
            return Acquirer(f"instance of {leaf}", self.owners[leaf])
        return _ACQUIRERS.get(leaf)

    def _is_release_attr(self, items: FrozenSet[_Item], var: str, attr: str) -> bool:
        for name, _line, kind, _status in items:
            if name == var:
                releases = self.releases_by_kind.get(kind, frozenset())
                if attr in releases or attr in _RELEASE_METHODS:
                    return True
        return False

    # -- state helpers -------------------------------------------------
    @staticmethod
    def _tracked(items: FrozenSet[_Item], var: str) -> bool:
        return any(it[0] == var for it in items)

    @staticmethod
    def _must_closed(items: FrozenSet[_Item], var: str) -> bool:
        statuses = [it[3] for it in items if it[0] == var]
        return bool(statuses) and all(s == _CLOSED for s in statuses)

    @staticmethod
    def _set_status(
        items: FrozenSet[_Item], var: str, status: str, only_open: bool = False
    ) -> FrozenSet[_Item]:
        out = set()
        for it in items:
            if it[0] == var and (not only_open or it[3] == _OPEN):
                out.add((it[0], it[1], it[2], status))
            else:
                out.add(it)
        return frozenset(out)

    def _rebind(
        self,
        items: FrozenSet[_Item],
        var: str,
        line: int,
        sink: Optional[List[Tuple[str, int, str]]],
    ) -> FrozenSet[_Item]:
        open_items = [it for it in items if it[0] == var and it[3] == _OPEN]
        if open_items and sink is not None:
            site = open_items[0]
            sink.append(
                (
                    VIA503,
                    line,
                    f"{var!r} is rebound in {self.qualname}() while the "
                    f"{site[2]} it acquired on line {site[1]} may still be "
                    "open; the old value becomes unreachable un-released",
                )
            )
        return frozenset(it for it in items if it[0] != var)

    # -- expression evaluation -----------------------------------------
    def _eval(
        self,
        exprs: Sequence[ast.expr],
        items: FrozenSet[_Item],
        sink: Optional[List[Tuple[str, int, str]]],
    ) -> Tuple[FrozenSet[_Item], bool]:
        """Apply uses, releases, and argument-transfers; report misuse.

        Returns the updated state and whether anything here may raise.
        """
        may_raise = False
        for expr in exprs:
            for node in _walk_no_defs(expr):
                if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
                    may_raise = True
                if not isinstance(node, ast.Call):
                    continue
                leaf = _call_leaf(node)
                resolved = _resolved_name(node, self.aliases) or (leaf or "")
                if leaf is not None and leaf not in _SAFE_LEAVES:
                    may_raise = True
                elif leaf is None:
                    may_raise = True  # dynamic callee: assume it can raise

                # arg-style release: os.close(fd), shutil.rmtree(path)
                if resolved.endswith(_ARG_RELEASERS) and node.args:
                    arg = node.args[0]
                    if isinstance(arg, ast.Name) and self._tracked(items, arg.id):
                        items = self._set_status(items, arg.id, _CLOSED)
                        continue

                # method release: conn.close(), proc.join(), tmp.cleanup()
                if isinstance(node.func, ast.Attribute) and isinstance(
                    node.func.value, ast.Name
                ):
                    var = node.func.value.id
                    if self._tracked(items, var):
                        if self._is_release_attr(items, var, node.func.attr):
                            items = self._set_status(items, var, _CLOSED)
                        elif self._must_closed(items, var) and sink is not None:
                            sink.append(
                                (
                                    VIA504,
                                    node.lineno,
                                    f"{var}.{node.func.attr}() in "
                                    f"{self.qualname}() but every path has "
                                    f"already closed {var!r}",
                                )
                            )

                # ownership transfer: the resource is someone else's now
                for arg_node in [*node.args, *[kw.value for kw in node.keywords]]:
                    for name in _names_in(arg_node) | (
                        {arg_node.id} if isinstance(arg_node, ast.Name) else set()
                    ):
                        if self._tracked(items, name):
                            if self._must_closed(items, name) and sink is not None:
                                sink.append(
                                    (
                                        VIA504,
                                        node.lineno,
                                        f"{name!r} passed to a call in "
                                        f"{self.qualname}() but every path "
                                        "has already closed it",
                                    )
                                )
                            items = self._set_status(
                                items, name, _TRANSFERRED, only_open=True
                            )
        return items, may_raise

    def _acquire(
        self,
        items: FrozenSet[_Item],
        target: ast.expr,
        value: ast.Call,
        spec: Acquirer,
        line: int,
        sink: Optional[List[Tuple[str, int, str]]],
    ) -> FrozenSet[_Item]:
        if isinstance(target, ast.Name):
            items = self._rebind(items, target.id, line, sink)
            return items | {(target.id, line, spec.kind, _OPEN)}
        if isinstance(target, ast.Tuple) and (spec.pair or spec.fd_first):
            names = [e.id for e in target.elts if isinstance(e, ast.Name)]
            take = names[:1] if spec.fd_first else names[:2]
            for name in take:
                items = self._rebind(items, name, line, sink)
                items |= {(name, line, spec.kind, _OPEN)}
        return items

    # -- per-block transfer --------------------------------------------
    def apply(
        self,
        block: Block,
        state: FrozenSet[_Item],
        sink: Optional[List[Tuple[str, int, str]]],
    ) -> Tuple[_State, _State]:
        items = state
        kind = block.kind
        if kind in ("entry", "exit", "raise", "join", "handler"):
            # pass-through blocks forward whichever state reaches them,
            # on both edge kinds (dispatch blocks fan exceptions out)
            return items, items
        stmt = block.stmt
        assert stmt is not None
        line = block.line

        if kind == "with-exit":
            for var in _with_bound_names(stmt):
                if self._tracked(items, var):
                    items = self._set_status(items, var, _CLOSED, only_open=True)
            return items, items

        if kind == "with-enter":
            assert isinstance(stmt, (ast.With, ast.AsyncWith))
            exprs = [item.context_expr for item in stmt.items]
            items, may_raise = self._eval(exprs, items, sink)
            pre_acquire = items
            for item in stmt.items:
                spec = self._acquirer_of(item.context_expr)
                if spec is not None and isinstance(item.optional_vars, ast.Name):
                    items = self._acquire(
                        items, item.optional_vars, item.context_expr, spec,
                        line, sink,
                    )
            return items, (pre_acquire if may_raise else None)

        if kind == "branch":
            if isinstance(stmt, (ast.If, ast.While)):
                test: Optional[ast.expr] = stmt.test
            else:  # ast.Match subject (3.10+)
                test = getattr(stmt, "subject", None)
            if test is None:
                return items, None
            items, may_raise = self._eval([test], items, sink)
            return items, (items if may_raise else None)

        if kind == "loop":
            assert isinstance(stmt, (ast.For, ast.AsyncFor))
            items, may_raise = self._eval([stmt.iter], items, sink)
            exc_state = items if may_raise else None
            for name in [
                n.id
                for n in ast.walk(stmt.target)
                if isinstance(n, ast.Name)
            ]:
                items = self._rebind(items, name, line, sink)
            return items, exc_state

        # plain payload statements
        return self._apply_stmt(stmt, items, line, sink)

    def _apply_stmt(
        self,
        stmt: ast.AST,
        items: FrozenSet[_Item],
        line: int,
        sink: Optional[List[Tuple[str, int, str]]],
    ) -> Tuple[_State, _State]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return items, None
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    items = frozenset(it for it in items if it[0] != target.id)
            return items, None
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return items, None
            items, may_raise = self._eval([stmt.value], items, sink)
            for name in _names_in(stmt.value):
                if self._tracked(items, name):
                    items = self._set_status(
                        items, name, _TRANSFERRED, only_open=True
                    )
            return items, (items if may_raise else None)
        if isinstance(stmt, ast.Raise):
            exprs = [e for e in (stmt.exc, stmt.cause) if e is not None]
            items, _ = self._eval(exprs, items, sink)
            return items, items
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._apply_assign(stmt, items, line, sink)
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "start"
            and isinstance(stmt.value.func.value, ast.Name)
            and stmt.value.func.value.id in self.proc_vars
        ):
            # p = Process(...) is inert; p.start() arms the join/terminate
            # obligation.  A start() that raises armed nothing, so the
            # exception edge carries the pre-start state.
            call = stmt.value
            var = stmt.value.func.value.id
            items, _ = self._eval(
                [*call.args, *[kw.value for kw in call.keywords]], items, sink
            )
            pre = items
            items = self._rebind(items, var, line, sink)
            items |= {(var, line, "process", _OPEN)}
            return items, pre

        # everything else: evaluate all contained expressions
        exprs = [n for n in ast.iter_child_nodes(stmt) if isinstance(n, ast.expr)]
        items, may_raise = self._eval(exprs, items, sink)
        if isinstance(stmt, (ast.Assert, ast.Await)):
            may_raise = True
        return items, (items if may_raise else None)

    def _apply_assign(
        self,
        stmt: ast.AST,
        items: FrozenSet[_Item],
        line: int,
        sink: Optional[List[Tuple[str, int, str]]],
    ) -> Tuple[_State, _State]:
        if isinstance(stmt, ast.Assign):
            targets: List[ast.expr] = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
            value = stmt.value if stmt.value is not None else None
        else:
            assert isinstance(stmt, ast.AugAssign)
            targets = []
            value = stmt.value
        if value is None:
            return items, None

        spec = self._acquirer_of(value) if isinstance(value, ast.Call) else None

        if spec is not None and isinstance(value, ast.Call):
            # the acquiring call itself: evaluate its *arguments* (they
            # may transfer other resources), then bind the new resource
            items, _ = self._eval(
                [*value.args, *[kw.value for kw in value.keywords]],
                items, sink,
            )
            # an acquirer that raises acquired nothing — the exception
            # edge carries the pre-acquisition state
            pre = items
            for target in targets:
                items = self._acquire(items, target, value, spec, line, sink)
            return items, pre

        items, may_raise = self._eval([value], items, sink)
        exc_after_eval: _State = items if may_raise else None

        if isinstance(value, ast.Name) and self._tracked(items, value.id):
            # aliasing / store: the receiving binding owns it now
            items = self._set_status(items, value.id, _TRANSFERRED, only_open=True)
        else:
            for target in targets:
                if not isinstance(target, ast.Name):
                    # self.x = conn / d[k] = conn: stored, owner changes
                    for name in _names_in(value):
                        if self._tracked(items, name):
                            items = self._set_status(
                                items, name, _TRANSFERRED, only_open=True
                            )
        for target in targets:
            if isinstance(target, ast.Name):
                items = self._rebind(items, target.id, line, sink)
        return items, exc_after_eval

    # -- driving -------------------------------------------------------
    def run(self) -> List[Finding]:
        init: FrozenSet[_Item] = frozenset()

        def transfer(
            block: Block, state: FrozenSet[_Item]
        ) -> Tuple[_State, _State]:
            return self.apply(block, state, None)

        solution = solve_forward(
            self.cfg,
            init=init,
            bottom=None,
            join=lambda a, b: a | b,
            transfer=transfer,
        )

        sink: List[Tuple[str, int, str]] = []
        for bid in self.cfg.reachable():
            in_state = solution.in_states[bid]
            if in_state is None:
                continue
            self.apply(self.cfg.blocks[bid], in_state, sink)

        findings: Set[Tuple[str, int, str]] = set(sink)
        reported_501: Set[Tuple[str, int]] = set()
        exit_state = solution.in_states[self.cfg.exit]
        if exit_state is not None:
            for var, site, kind, status in exit_state:
                if status == _OPEN:
                    reported_501.add((var, site))
                    findings.add(
                        (
                            VIA501,
                            site,
                            f"{kind} {var!r} acquired here may still be open "
                            f"when {self.qualname}() returns; close it on "
                            "every path or transfer ownership",
                        )
                    )
        raise_state = solution.in_states[self.cfg.raise_exit]
        if raise_state is not None:
            for var, site, kind, status in raise_state:
                if status == _OPEN and (var, site) not in reported_501:
                    findings.add(
                        (
                            VIA502,
                            site,
                            f"{kind} {var!r} acquired here leaks when an "
                            f"exception escapes {self.qualname}(); release "
                            "it in an except/finally before re-raising",
                        )
                    )
        return [
            make_finding(rule_id, self.src.rel, line, message)
            for rule_id, line, message in sorted(findings)
        ]


def _comprehension_findings(
    src: SourceFile,
    tree: ast.Module,
    owners: Dict[str, FrozenSet[str]],
) -> List[Finding]:
    """Acquisitions inside comprehensions: VIA502 by construction.

    ``[Acquire() for _ in range(n)]`` leaks every earlier element when a
    later one raises — the partial list is unnamed, so no cleanup code
    can reach it.  Build incrementally into a named container instead.
    """
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            continue
        elements: List[ast.expr] = (
            [node.key, node.value]
            if isinstance(node, ast.DictComp)
            else [node.elt]
        )
        for element in elements:
            for sub in ast.walk(element):
                if not isinstance(sub, ast.Call):
                    continue
                leaf = _call_leaf(sub) or ""
                if leaf in _ACQUIRERS or leaf in owners:
                    findings.append(
                        make_finding(
                            VIA502, src.rel, sub.lineno,
                            f"{leaf}(...) acquired inside a comprehension: "
                            "if a later element raises, the elements already "
                            "built leak with no name to clean them up — "
                            "build the container incrementally so partial "
                            "progress stays reachable",
                        )
                    )
    return findings


def _scan_file(src: SourceFile) -> List[Finding]:
    tree = src.tree
    if tree is None:
        return []
    aliases = import_aliases(tree)
    owners = _owner_classes(tree, aliases)
    findings = _comprehension_findings(src, tree, owners)
    for qualname, cfg in function_cfgs(tree):
        analysis = _FunctionAnalysis(src, qualname, cfg, aliases, owners)
        findings.extend(analysis.run())
    return findings


@family_checker("lifecycle")
def check_lifecycle(
    project: Project,
    prefixes: Sequence[str] = LIFECYCLE_PREFIXES,
) -> List[Finding]:
    findings: List[Finding] = []
    for src in project.iter_files(list(prefixes)):
        findings.extend(_scan_file(src))
    return findings

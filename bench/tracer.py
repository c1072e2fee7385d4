"""Outside-in span tracer for the hilbench benchmark.

The tracer wraps public functions of the ``hilbench`` modules from outside
the program: nothing under ``src/hilbench`` knows it exists.  Each call to a
wrapped function records one span (target, start, end, parent) in memory;
the spans are written out only when a traced pass ends.

A name imported by value (``from .spatial import project``) is a second
binding of the same function object, and rebinding only the defining module
would silently miss every call made through it.  ``install`` therefore scans
every loaded ``hilbench`` module and rebinds each name bound to the original
object.  Methods, static methods and class constructors are wrapped on the
class, which every caller reaches through attribute lookup.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (module, qualified name) of every traced layer boundary.  A class name
#: traces its constructor.
TARGETS = (
    ("cli", "main"),
    ("config", "resolve_run_config"),
    ("config", "resolve_sweep_config"),
    ("orchestrator", "Runner.run"),
    ("orchestrator", "build_report"),
    ("orchestrator", "Npc.state_at"),
    ("core", "AuditLog.append"),
    ("core", "AuditLog.write_ndjson"),
    ("core", "AuditLog.read_ndjson"),
    ("plant", "Plant.advance_to"),
    ("plant", "Plant.apply_command"),
    ("plant", "run_step_experiment"),
    ("plant", "fit_fopdt"),
    ("links", "R2VLink.transmit"),
    ("links", "V2RLink.transmit"),
    ("sut", "PurePursuitSut.step"),
    ("spatial", "project"),
    ("spatial", "write_trajectory_csv"),
    ("temporal", "assemble_all"),
    ("safety", "d_min_trace"),
    ("safety", "extract_events"),
    ("safety", "AgentState"),
    ("registration", "synth_dataset"),
    ("registration", "fit_residual_mlp"),
    ("registration", "ResidualMlp.gradients"),
)

PACKAGE = "hilbench"


def target_names(targets=TARGETS) -> list[str]:
    return [f"{module}.{qualname}" for module, qualname in targets]


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of it that its
    child spans cover.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent`` the
    index of the enclosing span or -1.  Overlapping children are counted
    once, and a child reaching outside its parent counts only inside it.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _parent) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


class Tracer:
    """Records one span per call to each target while installed.

    Use as a context manager around one pass; ``summary`` and ``write`` read
    the spans afterwards.  Each ``install`` starts a fresh set of spans.
    """

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.names = target_names(self.targets)
        self._undo: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._stack = [-1]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, idx: int):
        names, parents, starts, ends, stack = (self._name, self._parent, self._start,
                                               self._end, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._reset()
        target_modules = [importlib.import_module(f"{PACKAGE}.{module}")
                          for module, _ in self.targets]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        try:
            for idx, ((_, qualname), mod) in enumerate(zip(self.targets, target_modules)):
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    self._wrap_member(getattr(mod, owner_name), attr, idx)
                    continue
                obj = getattr(mod, attr)
                if isinstance(obj, type):
                    self._wrap_member(obj, "__init__", idx)
                    continue
                wrapped = self._wrap(obj, idx)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is obj:
                            self._rebind(m, key, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _wrap_member(self, cls, attr: str, idx: int) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._rebind(cls, attr, staticmethod(self._wrap(raw.__func__, idx)))
        else:
            self._rebind(cls, attr, self._wrap(raw, idx))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def spans(self) -> list[tuple[str, int, int, int]]:
        """All spans as (name, start_ns, end_ns, parent index)."""
        return [(self.names[n], s, e, p)
                for n, s, e, p in zip(self._name, self._start, self._end, self._parent)]

    def summary(self) -> dict[str, dict]:
        """Per target: total self time in seconds and number of calls."""
        selfs = self_times(list(zip(self._start, self._end, self._parent)))
        out = {name: {"self_s": 0.0, "calls": 0} for name in self.names}
        for n, self_ns in zip(self._name, selfs):
            entry = out[self.names[n]]
            entry["self_s"] += self_ns / 1e9
            entry["calls"] += 1
        return out

    def write(self, path) -> None:
        """Write the spans as CSV (name, start_ns, end_ns, parent)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            fh.writelines(f"{n},{s},{e},{p}\n" for n, s, e, p in self.spans())

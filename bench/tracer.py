"""In-memory call tracer for the elrbounds layers, installed from outside the package.

`Tracer.install(package)` replaces every public function of every elrbounds
module (the names in its `__all__`) and every public method of its public
classes, plus their constructors, with timing wrappers.  Every module that
imported a wrapped function under some name gets the wrapper under that name
too, so calls between modules are seen.  `uninstall` puts the originals back.
Nothing under `src/` is modified.

Each wrapped call either records a span (name, start, end, parent span, op
id) or, for the hottest leaves (`FunctionModel.__call__`/`.deriv` and
`NodeMultiset` construction), only bumps a count.  Aggregates (calls,
inclusive time, self time, exceptions by type) are exact for every call; the
span list kept in memory is capped, and the number of spans past the cap is
reported.  `NESTED` pairs record how much of one name's work ran inside
another, which is how remainder time inside a decomposition is split out.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

# Leaves called for every node of every divided difference: counted, never
# timed, so that tracing them does not swamp the spans around them.
COUNT_ONLY_PREFIXES = (
    "divided_diff.FunctionModel.__call__",
    "divided_diff.FunctionModel.deriv",
    "divided_diff.NodeMultiset.",
)

REMAINDERS = ("divided_diff.remainder_R", "divided_diff.remainder_Rstar")
DECOMPOSITIONS = ("bounds.decompose_lemma21", "bounds.decompose_lemma22")

# (name, enclosing name): calls and inclusive time of `name` while `enclosing`
# is active on the stack.
NESTED = tuple(
    [(r, d) for r in REMAINDERS for d in DECOMPOSITIONS]
    + [(r, "oracle.audit_identities") for r in REMAINDERS]
    + [("divided_diff.divided_difference", r) for r in REMAINDERS]
)

SPAN_CAP = 200_000


class Tracer:
    """Wraps the package's public callables and aggregates what they do."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.raises: Counter = Counter()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.next_span = 0
        self.op_id = -1
        # Audit cases that did work (identities not skipped, brackets
        # collected) and cases each audit attempted.
        self.audit_useful = 0
        self.audit_attempted = 0
        self._stack: list[list] = []
        self._active: list[int] = []
        self._nested = {pair: [0, 0.0] for pair in NESTED}
        self._patches: list[tuple] = []

    # -- bookkeeping --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_time.append(0.0)
            self._active.append(0)
        return self._ids[name]

    def _counted(self, name: str, fn):
        idx = self._id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, fn):
        idx = self._id(name)
        tracer = self
        stack = self._stack
        active = self._active
        nested_as_child = [pair for pair in NESTED if pair[0] == name]
        ids = self._ids
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            span_id = tracer.next_span
            tracer.next_span += 1
            frame = [0.0, span_id]  # time spent in child spans, own span id
            stack.append(frame)
            active[idx] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raises[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf()
                active[idx] -= 1
                stack.pop()
                dur = end - start
                tracer.calls[idx] += 1
                tracer.incl[idx] += dur
                tracer.self_time[idx] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                for pair in nested_as_child:
                    enclosing = ids.get(pair[1])
                    if enclosing is not None and active[enclosing] > 0:
                        acc = tracer._nested[pair]
                        acc[0] += 1
                        acc[1] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((span_id, idx, start, end, parent, tracer.op_id))
                else:
                    tracer.spans_dropped += 1
            if name == "oracle.audit_identities":
                # `cases` counts every draw, skipped ones included.
                tracer.audit_useful += result.cases - result.skipped
                tracer.audit_attempted += result.cases
            elif name == "oracle.audit_brackets":
                # `cases` counts collected draws only; skipped ones come on top.
                tracer.audit_useful += result.cases
                tracer.audit_attempted += result.cases + result.skipped
            return result

        return wrapper

    def _wrap(self, name: str, fn):
        return self._counted(name, fn) if name.startswith(COUNT_ONLY_PREFIXES) else self._spanned(name, fn)

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public callables of every module of `package`."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key.startswith(package.__name__ + ".") and hasattr(mod, "__all__")
        ]
        replaced: dict[int, tuple] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for public in mod.__all__:
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{public}", obj)
                elif inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{public}", obj))
        # Rebind each wrapped function under every name any module holds it by.
        for mod in [package] + modules:
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, qual: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{qual}.{attr}"
            if isinstance(value, property) and value.fget is not None:
                new = property(self._wrap(name, value.fget), value.fset, value.fdel, value.__doc__)
            elif isinstance(value, classmethod):
                new = classmethod(self._wrap(name, value.__func__))
            elif inspect.isfunction(value):
                new = self._wrap(name, value)
            else:
                continue
            self._patches.append((cls, attr, value))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def count(self, *names: str) -> int:
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def inclusive(self, *names: str) -> float:
        return sum(self.incl[self._ids[n]] for n in names if n in self._ids)

    def self_seconds(self, *names: str) -> float:
        return sum(self.self_time[self._ids[n]] for n in names if n in self._ids)

    def nested(self, names, enclosing) -> tuple[int, float]:
        calls, secs = 0, 0.0
        for pair, (c, s) in self._nested.items():
            if pair[0] in names and pair[1] in enclosing:
                calls += c
                secs += s
        return calls, secs

    def raised(self, name: str, exc_type: str) -> int:
        return self.raises[(name, exc_type)]

    def table(self) -> list[dict]:
        """Every traced name with calls, inclusive and self seconds, largest self time first."""
        rows = [
            {
                "name": name,
                "calls": self.calls[i],
                "incl_s": self.incl[i],
                "self_s": self.self_time[i],
            }
            for i, name in enumerate(self.names)
            if self.calls[i]
        ]
        return sorted(rows, key=lambda r: -r["self_s"])

    def write_spans(self, path) -> None:
        """Spans as JSON lines: id, name, start, end (perf_counter seconds), parent id, op id."""
        with open(path, "w") as fh:
            for span_id, idx, start, end, parent, op in self.spans:
                row = {"id": span_id, "name": self.names[idx], "start": start, "end": end}
                row.update(parent=parent, op=op)
                fh.write(json.dumps(row) + "\n")

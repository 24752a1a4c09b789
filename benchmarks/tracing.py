"""Traced run: spans around every public library function, and a size sweep.

The tracer wraps each public function of the layers ``pairing``,
``truthtab``, ``bdd``, ``ranking``, ``oracle`` and ``cli`` at every module
attribute that binds it (``natbdd.bdd.bitmerge_unpair``,
``natbdd.ranking.plain_bdd``, ``natbdd.plain_bdd``, ...) and inside the
pairing scheme table, so a call from one layer into another becomes a child
span.  ``natbits`` is left unwrapped: it is reached only through the pepis
pairing, whose self time therefore includes it.

A span is (function, start, end, parent).  Spans stay in memory in flat
arrays and are written out when the run ends.  A function's self time is
the sum over its spans of the duration minus the time its child spans
cover.  Every wrapped function keeps a row, so a function a later change
stops calling shows zero calls instead of disappearing.
"""

from __future__ import annotations

import gzip
import inspect
import math
import random
import statistics
import time
import types
from array import array
from pathlib import Path
from typing import Any, Callable

import workloads

LAYERS = ("pairing", "truthtab", "bdd", "ranking", "oracle", "cli")
PACKAGE = "natbdd"


def count_nodes(b: Any) -> int:
    count, stack = 0, [b.root]
    while stack:
        node = stack.pop()
        count += 1
        if not hasattr(node, "bit"):
            stack.append(node.high)
            stack.append(node.low)
    return count


def _widest(args: tuple, result: Any) -> int:
    return max(a.bit_length() for a in args)


# function name -> (counter name, value from (args, result)) recorded per call
# after the function's span closes.  Counters that walk a tree run inside a
# span of their own, so the walk is not charged to the caller's self time.
WALKING = {"bdd.reduce", "bdd.reduced_bdd"}
COUNTERS: dict[str, tuple[tuple[str, Callable[[tuple, Any], int]], ...]] = {
    "pairing.bitmerge_pair": (("bits", lambda a, r: r.bit_length()),),
    "pairing.bitmerge_unpair": (("bits", lambda a, r: a[0].bit_length()),),
    "bdd.plain_bdd": (("nodes", lambda a, r: (2 << r.nv) - 1),),
    "bdd.reduce": (("nodes_in", lambda a, r: count_nodes(a[0])), ("nodes_out", lambda a, r: count_nodes(r))),
    "bdd.reduced_bdd": (("nodes", lambda a, r: count_nodes(r)),),
    "truthtab.ite_tt": (("bits", _widest),),
    "cli.parse_bdd": (("bytes", lambda a, r: len(a[0])),),
    "cli.render_bdd": (("bytes", lambda a, r: len(r)),),
    "oracle.truth_table_of": (("rows", lambda a, r: 1 << a[0].nv),),
}


class Tracer:
    """Spans and counters for the wrapped functions of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._wrapped: dict[int, Callable] = {}
        self._restore: list[tuple[Any, Any, Any]] = []

    # ------------------------------------------------------------ spans

    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn: Callable) -> Callable:
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        fid = self._name_id(name)
        counters = COUNTERS.get(name, ())
        for counter, _ in counters:
            self.counts[f"{name}.{counter}"] = 0
        walking = name in WALKING
        count_fid = self._name_id("trace.count_nodes") if walking else -1
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per item produced, so the work behind each next() is
            # attributed to the generator and its callees
            def traced(*args: Any, **kwargs: Any) -> Any:
                items = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(fid)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                idx = tracer._open(fid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if counters:
                    idx = tracer._open(count_fid) if walking else -1
                    for counter, value in counters:
                        tracer.counts[f"{name}.{counter}"] += value(args, result)
                    if walking:
                        tracer._close(idx)
                return result

        traced.__wrapped__ = fn
        self._wrapped[id(fn)] = traced
        return traced

    def _traceable(self, value: Any) -> bool:
        return (
            isinstance(value, types.FunctionType)
            and not value.__name__.startswith("_")
            and value.__module__.rsplit(".", 1)[-1] in LAYERS
            and value.__module__.startswith(PACKAGE + ".")
        )

    def install(self, modules: list[types.ModuleType]) -> None:
        """Wrap every traceable function bound in ``modules``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if self._traceable(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, self._wrap(value))
                elif isinstance(value, dict):
                    # scheme tables map a tag to a tuple of functions
                    for key, entry in list(value.items()):
                        if isinstance(entry, tuple) and entry and all(map(self._traceable, entry)):
                            self._restore.append((value, key, entry))
                            value[key] = tuple(self._wrap(f) for f in entry)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # --------------------------------------------------------- results

    def per_function(self) -> dict[str, dict[str, float]]:
        """calls and self_ms for every wrapped function, zero rows included."""
        n = len(self.fid)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        rows = {name: {"calls": 0, "self_ms": 0.0} for name in self.names}
        for i in range(n):
            row = rows[self.names[self.fid[i]]]
            row["calls"] += 1
            row["self_ms"] += (self.end[i] - self.start[i] - covered[i]) / 1e6
        return rows

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i in range(len(self.fid)):
                out.write(f"{i}\t{names[self.fid[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n")


# per-layer metric -> (fields, entry points, helpers).  calls counts the
# entry points; self_ms sums entry points and the layer's public helpers
# (parse_sexpr under parse_bdd, ...), so the metric keeps its meaning if a
# helper is inlined or split.
CALLS_AND_TIME = ("calls", "self_ms")
GROUPS: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    "pairing.bitmerge_pair": (CALLS_AND_TIME, ("pairing.bitmerge_pair",), ()),
    "pairing.bitmerge_unpair": (CALLS_AND_TIME, ("pairing.bitmerge_unpair",), ()),
    "pairing.cantor": (CALLS_AND_TIME, ("pairing.cantor_pair", "pairing.cantor_unpair"), ()),
    "pairing.pepis": (CALLS_AND_TIME, ("pairing.pepis_pair", "pairing.pepis_unpair"), ()),
    "bdd.plain_bdd": (CALLS_AND_TIME, ("bdd.plain_bdd",), ()),
    "bdd.reduce": (CALLS_AND_TIME, ("bdd.reduce",), ()),
    "bdd.plain_inverse_bdd": (CALLS_AND_TIME, ("bdd.plain_inverse_bdd",), ()),
    "bdd.reduced_bdd": (CALLS_AND_TIME, ("bdd.reduced_bdd",), ()),
    "bdd.ev": (CALLS_AND_TIME, ("bdd.ev",), ()),
    "truthtab.ite_tt": (CALLS_AND_TIME, ("truthtab.ite_tt",), ()),
    "truthtab.var_tt": (CALLS_AND_TIME, ("truthtab.var_tt",), ()),
    "truthtab.shannon": (CALLS_AND_TIME, ("truthtab.shannon_split", "truthtab.shannon_fuse"), ()),
    **{
        f"ranking.{fn}": (CALLS_AND_TIME, (f"ranking.{fn}",), ())
        for fn in ("nat2bdd", "bdd2nat", "nat2plain_bdd", "plain_bdd2nat", "enumerate_bdds", "to_bsum")
    },
    "cli.parse_bdd": (("self_ms",), ("cli.parse_bdd",), ("cli.parse_sexpr", "cli.parse_json")),
    "cli.render_bdd": (("self_ms",), ("cli.render_bdd",), ("cli.render_sexpr", "cli.render_json")),
    "cli.parse_nat": (("self_ms",), ("cli.parse_nat",), ()),
    "cli.format_nat": (("self_ms",), ("cli.format_nat",), ()),
    "cli.build_parser": (("self_ms",), ("cli.build_parser",), ()),
    "oracle.truth_table_of": (CALLS_AND_TIME, ("oracle.truth_table_of",),
                              ("oracle.semantic_eval", "oracle.row_assignment")),
}


def layer_metrics(rows: dict[str, dict[str, float]], counts: dict[str, int]) -> dict[str, float]:
    out: dict[str, float] = {}
    for group, (fields, entries, helpers) in GROUPS.items():
        if "calls" in fields:
            out[f"{group}.calls"] = sum(rows[f]["calls"] for f in entries if f in rows)
        out[f"{group}.self_ms"] = sum(rows[f]["self_ms"] for f in entries + helpers if f in rows)
    out.update(counts)
    return out


# ------------------------------------------------------------------ sweep
#
# Re-measures the ROADMAP's seed baselines and fits a log-log growth slope
# per layer (time against bits of work: operand bits for the interleave,
# table bits 2**nv for the tree builders and ev).

ROADMAP_FIGURES = {
    "sweep.bitmerge_pair.16kbit_ms": "5 ms",
    "sweep.bitmerge_pair.64kbit_ms": "49 ms",
    "sweep.plain_bdd.nv18_ms": "3800 ms",
    "sweep.reduced_bdd_column.nv18_ms": "2900-4100 ms",
}


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _time_ms(fn: Callable[[], Any], reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def sweep(nb: Any, rng: random.Random) -> dict[str, float]:
    out: dict[str, float] = {}
    points = []
    for kbit in (4, 8, 16, 32, 64):
        x, y = rng.getrandbits(kbit << 10), rng.getrandbits(kbit << 10)
        t = _time_ms(lambda: nb.bitmerge_pair(x, y), 5 if kbit < 64 else 3)
        points.append((kbit << 10, t))
        if kbit in (16, 64):
            out[f"sweep.bitmerge_pair.{kbit}kbit_ms"] = t
    out["pairing.bitmerge.slope"] = slope(points)

    points = []
    for nv in (12, 14, 16, 18):
        tt = rng.getrandbits(1 << nv)
        t = _time_ms(lambda: nb.plain_bdd(nv, tt), 3 if nv < 16 else 1)
        points.append((1 << nv, t))
    out["sweep.plain_bdd.nv18_ms"] = t
    out["bdd.plain_bdd.slope"] = slope(points)

    points = []
    for nv in (14, 16, 18):
        tt = workloads.column_table(nv, nv // 2)
        t = _time_ms(lambda: nb.reduced_bdd(nv, tt), 1)
        points.append((1 << nv, t))
    out["sweep.reduced_bdd_column.nv18_ms"] = t
    out["bdd.reduced_bdd.slope"] = slope(points)

    points = []
    for nv in (10, 12, 14, 16):
        tree = nb.reduced_bdd(nv, rng.getrandbits(1 << nv))
        points.append((1 << nv, _time_ms(lambda: nb.ev(tree), 3)))
    out["bdd.ev.slope"] = slope(points)
    return out

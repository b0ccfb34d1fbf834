"""Span tracing of raagkit's layers, installed from the benchmark's side.

``Tracer.install`` wraps every public function and method defined in each
layer module and replaces every module-level binding of it across
``raagkit.*`` (and every class attribute holding it), so calls between layers
are caught as well as calls from the benchmark.  ``uninstall`` puts the
originals back.

A call that enters a layer from outside it opens a span: name, start, end,
parent span and query id.  Calls within the layer are counted but fold into
the enclosing span, which keeps the span count proportional to layer
crossings.  A layer's self time is the duration of its spans minus the part
covered by their child spans.

Counts depend only on the inputs, never on timing, so two traced runs of the
same queries report the same counts.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import math
import statistics
import sys
import time
from array import array

import raagkit.words

LAYERS = ("words", "functors", "coalgebra", "recovery", "graphs", "fileio", "cli")

# Canonical-form calls used to fit time against size (words.nf_exponent).
NF_FAMILY = ("words.canonical_form", "words.canonical_key", "words.equals")

# (scope, callee): calls to the callee made while the scope is running.
SCOPED = {
    "recovery.find.elements_scanned": ("recovery.find_vertices", "coalgebra.apply_structure"),
    "recovery.search.candidates": ("recovery.search_coalgebra", "functors.ac_key"),
    "recovery.search.assignments_tried": ("recovery.search_coalgebra",
                                          "coalgebra.check_coalgebra"),
}


def _syllables(args, kwargs) -> int:
    """Syllables of the Word arguments a words call has to process; power
    processes |k| copies of its word."""
    Word = raagkit.words.Word
    n = sum(len(a.syllables) for a in args if isinstance(a, Word))
    n += sum(len(a.syllables) for a in kwargs.values() if isinstance(a, Word))
    return n


def _power_syllables(args, kwargs) -> int:
    w, k = (list(args) + [kwargs.get("w"), kwargs.get("k")])[:2]
    return len(w.syllables) * abs(k)


def _ac_symbols(args, kwargs) -> int:
    return sum(len(a.letters) for a in args)


class Tracer:
    def __init__(self):
        self.active = False
        self.query = -1
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.amount: list[int] = []
        self.inside: list[int] = []
        self.found = 0
        self.scoped = {key: 0 for key in SCOPED}
        self.cur_layer = -1
        self.cur_span = -1
        self.span_name = array("l")
        self.span_parent = array("q")
        self.span_query = array("l")
        self.span_size = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def _public(self):
        """(qualified name, layer index, function) for every public function
        and method defined in a layer module."""
        for li, layer in enumerate(LAYERS):
            mod = importlib.import_module(f"raagkit.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{name}", li, obj
                elif inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            yield f"{layer}.{name}.{mname}", li, meth

    def install(self) -> None:
        wrappers = {}
        for qualname, li, fn in self._public():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(fn, qualname, li))
        fid_of = {name: i for i, name in enumerate(self.names)}
        watch: dict[int, list] = {}
        for key, (scope, callee) in SCOPED.items():
            watch.setdefault(fid_of[callee], []).append((fid_of[scope], key))
        self.watch = {fid: tuple(v) for fid, v in watch.items()}
        self.found_fid = fid_of["recovery.search_coalgebra"]
        for modname, mod in list(sys.modules.items()):
            if modname != "raagkit" and not modname.startswith("raagkit."):
                continue
            for owner in [mod] + [c for c in vars(mod).values() if inspect.isclass(c)]:
                for name, obj in list(vars(owner).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patched.append((owner, name, obj))
                        setattr(owner, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._patched):
            setattr(owner, name, obj)
        self._patched.clear()

    def _wrap(self, fn, qualname: str, li: int):
        fid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(li)
        self.calls.append(0)
        self.amount.append(0)
        self.inside.append(0)
        if qualname == "words.power":
            probe = _power_syllables
        elif LAYERS[li] == "words":
            probe = _syllables
        elif qualname == "functors.ac_equals":
            probe = _ac_symbols
        else:
            probe = None
        tracer = self
        clock = time.perf_counter_ns
        calls, amount, inside = self.calls, self.amount, self.inside

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[fid] += 1
            size = probe(args, kwargs) if probe is not None else 0
            amount[fid] += size
            for scope, key in tracer.watch.get(fid, ()):
                if inside[scope]:
                    tracer.scoped[key] += 1
            inside[fid] += 1
            if tracer.cur_layer == li:
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside[fid] -= 1
            idx = len(tracer.span_name)
            tracer.span_name.append(fid)
            tracer.span_parent.append(tracer.cur_span)
            tracer.span_query.append(tracer.query)
            tracer.span_size.append(size)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            saved = tracer.cur_layer, tracer.cur_span
            tracer.cur_layer, tracer.cur_span = li, idx
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_start[idx] = start
                tracer.span_end[idx] = clock()
                tracer.cur_layer, tracer.cur_span = saved
                inside[fid] -= 1
            if fid == tracer.found_fid and result is not None:
                tracer.found += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        start, end, parent = self.span_start, self.span_end, self.span_parent
        n = len(start)
        child_time = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child_time[parent[i]] += end[i] - start[i]
        totals = [0] * len(LAYERS)
        for i in range(n):
            totals[self.layer_of[self.span_name[i]]] += end[i] - start[i] - child_time[i]
        return {layer: totals[li] / 1e9 for li, layer in enumerate(LAYERS)}

    def nf_exponent(self) -> float:
        """Least-squares slope of log(median time) on log(syllables), over
        power-of-two size bins of canonical-form calls entering the words
        layer; 0 when fewer than two bins are populated."""
        family = {i for i, name in enumerate(self.names) if name in NF_FAMILY}
        bins: dict[int, list[int]] = {}
        for i in range(len(self.span_name)):
            size = self.span_size[i]
            if self.span_name[i] in family and size > 0:
                bins.setdefault(size.bit_length(), []).append(self.span_end[i] - self.span_start[i])
        if len(bins) < 2:
            return 0.0
        xs = [math.log(2 ** (b - 1)) for b in bins]
        ys = [math.log(max(1, statistics.median(v))) for v in bins.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxx = sum((x - mx) ** 2 for x in xs)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx

    def layer_metrics(self) -> dict[str, float]:
        self_s = self.layer_self_seconds()
        calls = {layer: 0 for layer in LAYERS}
        for fid, n in enumerate(self.calls):
            calls[LAYERS[self.layer_of[fid]]] += n
        by_name = dict(zip(self.names, self.calls))
        words = LAYERS.index("words")
        syllables_in = sum(self.span_size[i] for i in range(len(self.span_name))
                           if self.layer_of[self.span_name[i]] == words)
        equals_fid = self.names.index("functors.ac_equals")
        equals_calls = self.calls[equals_fid]
        tried = self.scoped["recovery.search.assignments_tried"]
        return {
            "words.calls": calls["words"],
            "words.self_s": self_s["words"],
            "words.syllables_in": syllables_in,
            "words.ns_per_syllable": self_s["words"] * 1e9 / syllables_in if syllables_in else 0.0,
            "words.nf_exponent": self.nf_exponent(),
            "functors.calls": calls["functors"],
            "functors.self_s": self_s["functors"],
            "functors.ac_equals.calls": equals_calls,
            "functors.symbols_per_equals":
                self.amount[equals_fid] / equals_calls if equals_calls else 0.0,
            "coalgebra.calls": calls["coalgebra"],
            "coalgebra.self_s": self_s["coalgebra"],
            "coalgebra.apply_structure.calls": by_name["coalgebra.apply_structure"],
            "recovery.find.elements_scanned": self.scoped["recovery.find.elements_scanned"],
            "recovery.self_s": self_s["recovery"],
            "recovery.search.candidates": self.scoped["recovery.search.candidates"],
            "recovery.search.assignments_tried": tried,
            "recovery.search.accept_ratio": self.found / tried if tried else 0.0,
            "graphs.self_s": self_s["graphs"],
            "fileio.calls": calls["fileio"],
            "fileio.self_s": self_s["fileio"],
            "cli.self_s": self_s["cli"],
        }

    def write_spans(self, path: str) -> int:
        """Spans as tab-separated text (query, name, start_ns, end_ns, parent),
        gzip-compressed; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("query\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{self.span_query[i]}\t{names[self.span_name[i]]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\t{self.span_parent[i]}\n")
        return len(self.span_name)

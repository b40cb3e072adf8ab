"""Spans recorded from outside altdet by wrapping its public functions.

`Tracer.install` finds every public module-level function of every
``altdet.*`` module and replaces each binding of it (module globals and
dict values in module globals, such as the CLI handler table) with a
wrapper, so ``onn.det`` and ``exact.det`` are both traced.
``MultilinearForm.__call__`` is wrapped as the ``engine.form_eval`` span.
`Tracer.restore` puts every original back.

A span is (index, parent, name, item, start, end) on the perf_counter
clock.  Spans are kept in memory, up to a cap, and written when the run
ends; the per-name aggregates (calls, self time, errors, nonzero results,
generator yields) cover every span, stored or not.  Self time is a span's
duration minus the time its child spans cover.  Generators get one span
per resumption, so their self time is the time spent producing values.

Only the thread that runs the items records spans.  Calls made from pool
worker threads (threads=2) are counted but not timed: their time stays in
the self time of the span that started the pool, together with the pool
wait, which cannot be separated from outside the program.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from array import array

CALLS, SELF, ERRORS, NONZERO, YIELDS = range(5)

# Functions whose results are tested against zero for the nonzero ratios.
NONZERO_TRACKED = {"exact.det", "exact.poly_det", "svrtan.choice_det", "engine.form_eval"}

# (outer span, inner function): inner calls made while an outer span is open.
UNDER = {
    "exact.det": ("onn.rota_search",),
    "exact.poly_det": ("svrtan.svrtan_search",),
}

ITEM = "bench.item"


def _public_callables(module):
    """Public functions defined in ``module``, by name (lru_cache wrappers too)."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        is_cached = isinstance(obj, functools._lru_cache_wrapper)
        if (inspect.isfunction(obj) or is_cached) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.stats: dict[str, list] = {}
        self.layer_errors: dict[str, int] = {}
        self.under: dict[tuple[str, str], list[int]] = {}
        self.open_count: dict[str, int] = {}
        self.stack: list[list] = []
        self.next_idx = 0
        self.item = -1
        self.enabled = False
        self.main = threading.get_ident()
        self.lock = threading.Lock()
        self.dropped = 0
        self.cols = {
            "idx": array("q"), "parent": array("q"), "name": array("i"),
            "item": array("i"), "start": array("d"), "end": array("d"),
        }
        self._undo: list[tuple] = []
        self.wrapped: set[str] = set()
        self.layers: set[str] = set()

    # -- bookkeeping -------------------------------------------------------

    def stat(self, key: str) -> list:
        if key not in self.stats:
            self.stats[key] = [0, 0.0, 0, 0, 0]
            self.name_ids[key] = len(self.names)
            self.names.append(key)
        return self.stats[key]

    def _open(self, key: str) -> list:
        stack = self.stack
        parent = stack[-1][0] if stack else -1
        frame = [self.next_idx, parent, key, time.perf_counter(), 0.0]
        self.next_idx += 1
        stack.append(frame)
        if key in self.open_count:
            self.open_count[key] += 1
        return frame

    def _close(self, frame: list, st: list, nonzero: bool, error: bool, yielded: bool = False):
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        key = frame[2]
        dur = end - frame[3]
        st[CALLS] += 1
        st[SELF] += dur - frame[4]
        if nonzero:
            st[NONZERO] += 1
        if yielded:
            st[YIELDS] += 1
        if stack:
            stack[-1][4] += dur
        if key in self.open_count:
            self.open_count[key] -= 1
        for outer in UNDER.get(key, ()):
            if self.open_count.get(outer):
                counts = self.under[(outer, key)]
                counts[0] += 1
                counts[1] += nonzero
        if error:
            st[ERRORS] += 1
            layer = key.split(".", 1)[0]
            parent_layer = stack[-1][2].split(".", 1)[0] if stack else None
            if parent_layer != layer:
                self.layer_errors[layer] = self.layer_errors.get(layer, 0) + 1
        if self.next_idx <= self.span_cap:
            c = self.cols
            c["idx"].append(frame[0])
            c["parent"].append(frame[1])
            c["name"].append(self.name_ids[key])
            c["item"].append(self.item)
            c["start"].append(frame[3])
            c["end"].append(end)
        else:
            self.dropped += 1

    def _count_off_thread(self, st: list, nonzero: bool, yielded: bool = False):
        with self.lock:
            st[CALLS] += 1
            if nonzero:
                st[NONZERO] += 1
            if yielded:
                st[YIELDS] += 1

    # -- items ---------------------------------------------------------------

    def begin_item(self, item: int) -> list:
        self.item = item
        self.enabled = True
        return self._open(ITEM)

    def end_item(self, frame: list, error: bool):
        self._close(frame, self.stat(ITEM), False, error)
        self.enabled = False

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, key: str, fn):
        tracer = self
        st = self.stat(key)
        track = key in NONZERO_TRACKED
        for outer in UNDER.get(key, ()):
            self.under[(outer, key)] = [0, 0]
            self.open_count.setdefault(outer, 0)
        main = self.main
        get_ident = threading.get_ident

        if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", fn)):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(key) if tracer.enabled and get_ident() == main else None
                    try:
                        value = next(it)
                    except StopIteration:
                        if frame:
                            tracer._close(frame, st, False, False)
                        return
                    except BaseException:
                        if frame:
                            tracer._close(frame, st, False, True)
                        raise
                    if frame:
                        tracer._close(frame, st, False, False, True)
                    elif tracer.enabled:
                        tracer._count_off_thread(st, False, True)
                    yield value

            return functools.wraps(fn)(gen_wrapper)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if get_ident() != main:
                result = fn(*args, **kwargs)
                tracer._count_off_thread(st, track and result != 0)
                return result
            frame = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, st, False, True)
                raise
            tracer._close(frame, st, track and result != 0, False)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self, modules: dict):
        """Wrap every public function defined in an ``altdet.*`` module and
        replace its bindings in every given module, the package included."""
        replacements = {}
        for modname, module in modules.items():
            if "." not in modname:
                continue
            layer = modname.split(".", 1)[1]
            self.layers.add(layer)
            for name, fn in _public_callables(module).items():
                key = f"{layer}.{name}"
                replacements[id(fn)] = (fn, self._wrap(key, fn))
                self.wrapped.add(key)
        for module in modules.values():
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((namespace, name, obj))
                    namespace[name] = hit[1]
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        hit = replacements.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._undo.append((obj, k, v))
                            obj[k] = hit[1]
        engine = modules.get("altdet.engine")
        form_cls = getattr(engine, "MultilinearForm", None)
        if form_cls is not None and "__call__" in vars(form_cls):
            original = vars(form_cls)["__call__"]
            self._undo.append((form_cls, "__call__", original))
            setattr(form_cls, "__call__", self._wrap("engine.form_eval", original))
            self.wrapped.add("engine.form_eval")

    def restore(self):
        for target, name, original in reversed(self._undo):
            if isinstance(target, type):
                setattr(target, name, original)
            else:
                target[name] = original
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        c = self.cols
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("idx,parent,name,item,start,end\n")
            for i in range(len(c["idx"])):
                fh.write(
                    f"{c['idx'][i]},{c['parent'][i]},{self.names[c['name'][i]]},"
                    f"{c['item'][i]},{c['start'][i]:.9f},{c['end'][i]:.9f}\n"
                )

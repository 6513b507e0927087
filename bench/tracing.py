"""Layer tracing for the benchmark's traced runs.

:func:`install` wraps the public functions of each ``cauchykit`` module in
place, from outside the program: every module attribute and class method
that is one of the functions listed in ``LAYERS`` is replaced by a wrapper
that opens a span under the layer's name. Spans nest on a stack, so each
span's self time is its duration minus the time covered by its child
spans. Everything is kept in memory and written once, at the end of the
run. ``ring.inv`` runs n^2 times per matrix, so it is only counted and
timed, not kept span by span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, layer). An attribute "Class.method" patches the class.
LAYERS = (
    ("ring", "RationalRing.inv", "ring.inv"),
    ("ring", "PrimeField.inv", "ring.inv"),
    ("cauchy", "CauchySpec.__init__", "cauchy.spec"),
    ("cauchy", "build", "cauchy.build"),
    ("cauchy", "det_closed", "cauchy.det_closed"),
    ("cauchy", "inverse_closed", "cauchy.inverse_closed"),
    ("cauchy", "inverse_entry_sum", "cauchy.sums"),
    ("cauchy", "adjugate_entry_sum_closed", "cauchy.sums"),
    ("cauchy", "bordered_det_closed", "cauchy.sums"),
    ("densela", "Matrix.det_fast", "densela.det_fast"),
    ("densela", "Matrix.adjugate", "densela.adjugate"),
    ("densela", "Matrix.inverse", "densela.inverse"),
    ("densela", "Matrix.__mul__", "densela.matmul"),
    ("minmat", "normalize", "minmat.closed"),
    ("minmat", "det_closed", "minmat.closed"),
    ("minmat", "det_zero_predicate", "minmat.closed"),
    ("minmat", "inverse_entry_sum", "minmat.inverse"),
    ("minmat", "inverse_column_sums", "minmat.inverse"),
    ("verify", "check_*", "verify.check"),
    ("cli", "main", "cli.main"),
    ("canary", "run_canary", "canary.run"),
)
UNKEPT = {"ring.inv"}


class Tracer:
    def __init__(self):
        self.request = None  # index of the operation being run, or "setup"
        self.stack: list[list] = []  # [layer, span id, start ns, child ns]
        self.stats: dict[tuple, list[int]] = {}  # (phase, layer) -> [count, total, self]
        self.nonsingular_det_ns = 0
        self.spans: list[tuple] = []
        self._next_id = 0

    def _enter(self, layer):
        self._next_id += 1
        self.stack.append([layer, self._next_id, time.perf_counter_ns(), 0])

    def _exit(self):
        end = time.perf_counter_ns()
        layer, sid, start, child = self.stack.pop()
        dur = end - start
        phase = "setup" if self.request == "setup" else "run"
        st = self.stats.setdefault((phase, layer), [0, 0, 0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        parent = None
        if self.stack:
            top = self.stack[-1]
            top[3] += dur
            parent = top[1]
            if layer == "densela.det_fast" and top[0] == "minmat.inverse":
                self.nonsingular_det_ns += dur
        if layer not in UNKEPT:
            self.spans.append((self.request, sid, parent, layer, start, end))

    def wrap(self, layer, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def count(self, layer, phase="run") -> int:
        return self.stats.get((phase, layer), [0, 0, 0])[0]

    def self_ms(self, layer, phase="run") -> float:
        return self.stats.get((phase, layer), [0, 0, 0])[2] / 1e6

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "stats": [
                        {"phase": ph, "layer": layer, "count": c, "total_ns": t, "self_ns": s}
                        for (ph, layer), (c, t, s) in sorted(self.stats.items())
                    ],
                    "span_fields": ["request", "id", "parent", "layer", "start_ns", "end_ns"],
                    "spans": self.spans,
                },
                fh,
            )


def install(tracer: Tracer) -> None:
    """Wrap every function in ``LAYERS`` wherever the imported ``cauchykit``
    modules refer to it (``from .cauchy import build`` makes a second
    reference in ``canary``)."""
    mods = {
        name.rsplit(".", 1)[-1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("cauchykit.") and mod is not None
    }
    wrappers = {}  # id(original function) -> wrapper
    for modname, attr, layer in LAYERS:
        mod = mods.get(modname)
        if mod is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(layer, fn))
            continue
        names = [a for a in vars(mod) if a.startswith(attr[:-1])] if attr.endswith("*") else [attr]
        for name in names:
            fn = getattr(mod, name)
            if callable(fn) and not isinstance(fn, type):
                wrappers[id(fn)] = (fn, tracer.wrap(layer, fn))
    for mod in mods.values():
        for name, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, name, hit[1])

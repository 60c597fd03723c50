"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions of ``series``, ``chern``, ``k3``, ``certify`` and ``cli``
are replaced by timing wrappers in every ``rigidcurves`` module that holds a
binding to them (``from .series import mul`` copies the binding into
``chern``, so rebinding ``series.mul`` alone would miss those calls).  The
program's own source is never edited.

A span is (name, request, parent, start, end).  Self time is a span's
duration minus the time covered by its direct children; it is accumulated
as spans close, so no pass over the spans is needed to report it.  Spans
stay in compact arrays and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# layer -> (module that defines the functions, traced public functions)
LAYERS = {
    "series": ("rigidcurves.series", ("mul", "invert", "int_pow", "binomial_series")),
    "chern": ("rigidcurves.chern",
              ("total_chern", "excess_count", "degeneracy_count", "rigid_count")),
    "k3": ("rigidcurves.k3", ("knutsen_exists", "nonspeciality_route")),
    "certify": ("rigidcurves.certify",
                ("certify", "stated_conditions", "derived_conditions",
                 "enumerate_region")),
    "cli": ("rigidcurves.cli", ("main",)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_request = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.max_order = 0
        self.degeneracy_inputs: set = set()
        self.request = -1
        # one [span index, time covered by children, name] per open span
        self._open: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> list:
        parent = self._open[-1][0] if self._open else -1
        frame = [len(self.span_start), 0.0, name]
        self.span_name.append(self._name_id(name))
        self.span_request.append(self.request)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        self._open.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        index, child_s, name = frame
        self._open.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._open:
            self._open[-1][1] += duration

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(self, args, kwargs)
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a rigidcurves module binds it."""
        importlib.import_module("rigidcurves.cli")
        modules = [m for key, m in sys.modules.items()
                   if key == "rigidcurves" or key.startswith("rigidcurves.")]
        for layer, (module_name, functions) in LAYERS.items():
            # import_module, because ``import rigidcurves.certify`` binds the
            # re-exported function of that name, not the module.
            home = importlib.import_module(module_name)
            for function in functions:
                original = getattr(home, function)
                wrapper = self.wrap(f"{layer}.{function}", original,
                                    _OBSERVERS.get(function))
                for module in modules:
                    if getattr(module, function, None) is original:
                        self._restore.append((module, function, original))
                        setattr(module, function, wrapper)
        certificate = importlib.import_module("rigidcurves.certify").Certificate
        self._restore.append((certificate, "to_dict", certificate.to_dict))
        certificate.to_dict = self.wrap("certify.to_dict", certificate.to_dict)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def absorb(self, path: Path, request: int, parent: int) -> None:
        """Append the spans another process dumped, re-rooting its top-level
        spans under ``parent`` and tagging them with ``request``."""
        header, columns = load_spans(path)
        offset = len(self.span_start)
        ids = [self._name_id(name) for name in header["names"]]
        self.span_name.extend(ids[i] for i in columns["name"])
        self.span_request.extend([request] * len(columns["name"]))
        self.span_parent.extend(p + offset if p >= 0 else parent
                                for p in columns["parent"])
        self.span_start.extend(columns["start"])
        self.span_end.extend(columns["end"])
        for name, calls in header["calls"].items():
            self.calls[name] += calls
        for name, seconds in header["self_s"].items():
            self.self_s[name] += seconds
        self.max_order = max(self.max_order, header["max_order"])
        self.degeneracy_inputs.update(
            tuple(map(tuple, item)) for item in header["degeneracy_inputs"])

    def dump(self, path: Path) -> None:
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "max_order": self.max_order,
            "degeneracy_inputs": sorted(self.degeneracy_inputs),
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_request, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(out)


def load_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Read a file written by :meth:`Tracer.dump`."""
    with open(path, "rb") as source:
        header = json.loads(source.readline())
        columns = {}
        for key, code in (("name", "i"), ("request", "q"), ("parent", "q"),
                          ("start", "d"), ("end", "d")):
            columns[key] = array(code)
            columns[key].fromfile(source, header["spans"])
    return header, columns


def _series_order(tracer: Tracer, args, kwargs) -> None:
    tracer.max_order = max(tracer.max_order, args[0].order)


def _binomial_order(tracer: Tracer, args, kwargs) -> None:
    order = args[2] if len(args) > 2 else kwargs["order"]
    tracer.max_order = max(tracer.max_order, order)


def _degeneracy_input(tracer: Tracer, args, kwargs) -> None:
    tracer.degeneracy_inputs.add(tuple(tuple(a) for a in args[:2]))


_OBSERVERS = {
    "mul": _series_order,
    "invert": _series_order,
    "int_pow": _series_order,
    "binomial_series": _binomial_order,
    "degeneracy_count": _degeneracy_input,
}

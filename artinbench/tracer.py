"""Span tracer for the artin layers, installed from the benchmark's side.

Every public function and public method of the eight layer modules is
replaced, at every module attribute that binds it (including `from`-imports
such as `complexes.is_finite_type` and `cli.finite_type_subsets`), by a
wrapper that records a span.  Calls from one layer into another are then
charged to the callee.  Private helpers run inside their caller's span, so
`monoid`'s use of `coxeter._rewriter` closures is monoid time; the one
private function wrapped is `complexes._poset`, for the poset metrics.

A layer's self time is the time of its spans minus the time of their child
spans.  Aggregates are kept per span name; the spans themselves (name,
start, end, parent, op id) are kept in memory while `keep_spans` is set and
written out by `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("diagram", "tits", "coxeter", "monoid", "group", "complexes", "shelling", "cli")
_EXTRA = {"complexes": ("_poset",)}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span index or -1, child-span time, name]
        self.spans: list[list] = []
        self.keep_spans = True
        self.op_id = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._wrappers: dict[int, object] = {}

    # ------------------------------------------------------------ recording
    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def parent_name(self) -> str | None:
        return self.stack[-1][2] if self.stack else None

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = -1
            if tracer.keep_spans:
                idx = len(tracer.spans)
                parent = tracer.stack[-1][0] if tracer.stack else -1
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.op_id])
            frame = [idx, 0.0, name]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not hasattr(exc, "bench_origin"):
                    try:
                        exc.bench_origin = name
                    except AttributeError:
                        pass
                raise
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - start
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + dur - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                if idx >= 0:
                    tracer.spans[idx][1:3] = [start, end]
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return span

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    # ------------------------------------------------------------ install
    def install(self):
        """Import every layer module and rebind its public callables."""
        modules = {name: importlib.import_module(f"artin.{name}") for name in LAYERS}
        package = importlib.import_module("artin")
        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    if not attr.startswith("_") or attr in _EXTRA.get(layer, ()):
                        label = f"{layer}.{attr.lstrip('_')}"
                        self._wrappers[id(val)] = self.wrap(label, val, _HOOKS.get(label))
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    if attr.startswith("_"):
                        continue
                    for mname, member in list(vars(val).items()):
                        if mname.startswith("_") or not inspect.isfunction(member):
                            continue
                        label = f"{layer}.{attr}.{mname}"
                        setattr(val, mname, self.wrap(label, member, _HOOKS.get(label)))
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return modules


# ---------------------------------------------------------------- counters
# Each hook sees (tracer, args, kwargs, result) after a span closes.


def _elements(tracer, args, kwargs, layers):
    tracer.count("coxeter.elements", sum(len(layer) for layer in layers))


def _poset(tracer, args, kwargs, poset):
    tracer.count("complexes.poset_relations", len(poset.less))


def _faces(tracer, args, kwargs, faces):
    if tracer.parent_name() == "complexes.homology":
        tracer.count("complexes.faces", sum(len(fs) for fs in faces))
        tracer.count(
            "complexes.boundary_nnz", sum((k + 1) * len(fs) for k, fs in enumerate(faces) if k)
        )


def _verify(tracer, args, kwargs, report):
    tracer.count("shelling.chambers", len(args[0].chambers))


def _sf(tracer, args, kwargs, sf):
    tracer.count("diagram.sf_size", len(sf))
    tracer.count("diagram.sf_space", 2 ** args[0].rank)


def _letters(tracer, args, kwargs, g):
    word = args[1] if len(args) > 1 else kwargs["word"]
    tracer.count("group.letters", len(word.split() if isinstance(word, str) else word))


_HOOKS = {
    "coxeter.enumerate_elements": _elements,
    "complexes.poset": _poset,
    "complexes.SimplicialComplex.faces_by_dim": _faces,
    "shelling.verify_claims": _verify,
    "diagram.finite_type_subsets": _sf,
    "group.from_letters": _letters,
}

"""Per-diagram state: one bounded cache, the Coxeter engine, which also owns
the Artin monoid state."""

import ast
import gc
import pathlib
import weakref

import artin
from artin import coxeter, monoid
from artin.diagram import preset


def _unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines where a functools cache is used without an integer maxsize."""
    caches, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                caches[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}

    def cache_name(node):
        if isinstance(node, ast.Name):
            return caches.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if node.value.id in modules else None
        return None

    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    bad = []
    for node in ast.walk(tree):
        name = cache_name(node)
        if name == "cache":
            bad.append(node.lineno)
        elif name == "lru_cache":
            call = calls.get(id(node))
            sizes = [] if call is None else call.args[:1] + [
                k.value for k in call.keywords if k.arg == "maxsize"]
            if not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int):
                bad.append(node.lineno)
    return sorted(bad)


def test_the_gate_finds_unbounded_caches():
    src = """
import functools
from functools import lru_cache, cache as memo
@lru_cache(maxsize=None)
def a(): pass
@functools.lru_cache
def b(): pass
@memo
def c(): pass
@functools.cache
def d(): pass
@lru_cache(maxsize=8)
def e(): pass
@functools.lru_cache(16)
def f(): pass
"""
    assert _unbounded_caches(ast.parse(src)) == [4, 6, 8, 10]


def test_every_cache_in_the_package_is_bounded():
    root = pathlib.Path(artin.__file__).parent
    found = {p.name: _unbounded_caches(ast.parse(p.read_text())) for p in root.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_engine_owns_the_monoid_state():
    d = preset("B3")
    monoid.canonicalize(d, "s t u s")
    coxeter._engine.cache_clear()
    st = monoid._begin(d, 10, "canonicalize")
    assert st.eng is coxeter._engine(d) and st.eng.monoid is st


def test_evicting_an_engine_drops_its_monoid_state():
    coxeter._engine.cache_clear()
    ds = [preset(f"I2({p})") for p in range(3, 73)]
    monoid.canonicalize(ds[0], "s t s")
    first = weakref.ref(coxeter._engine(ds[0]))
    for d in ds[1:]:
        monoid.canonicalize(d, "s t s")
    assert coxeter._engine.cache_info().currsize == 64
    gc.collect()
    assert first() is None

"""The public surface of locale_lab: every public top-level function, and
every public method and property of a public class, has a use in the
package, and no check is a bare `assert`, which `python -O` drops. Also
the size of each module in parser tokens, which sets what its compile
costs."""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import pytest

import locale_lab

SRC = Path(locale_lab.__file__).resolve().parent
PACKAGE = "locale_lab"

# Public names kept for a reader outside the package.
ALLOWED_UNUSED = {
    # the benchmark's self-test builds its identity map through it
    "morphisms.identity_morphism",
    # the round-trip partner that proves report_to_json is canonical
    "runner.report_from_json",
    # the least part, the twin of `whole`; union_all starts from mask 0
    "sublocales.empty",
    # the bound on what a lazy open's later stages add; the tests check
    # stage lengths against it, and the package reads the raw `_tail`
    "presented.LazyOpen.tail",
    # a bound's width, which the benchmark's checks and the tests read
    "measure.MeasureBounds.width",
}


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _is_law(fn: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_declare"
        for d in fn.decorator_list
    )


def _free_names(node, bound=frozenset()):
    """The names `node` loads that no function around them binds."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        bound = bound | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)} | {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _free_names(child, bound)


def _uses(trees) -> set:
    """Every `module.name` that some module of the package uses."""
    used = set()
    for mod, tree in trees.items():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == PACKAGE:
                for a in node.names:
                    aliases[a.asname or a.name] = a.name
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(PACKAGE + "."):
                src = node.module.split(".", 1)[1]
                used.update(f"{src}.{a.name}" for a in node.names)
        for top in tree.body:
            # a function calling itself is not a use
            own = {top.name} if isinstance(top, ast.FunctionDef) else set()
            used.update(f"{mod}.{name}" for name in _free_names(top, own))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                used.add(f"{aliases[node.value.id]}.{node.attr}")
    return used


def test_no_assert_in_src():
    found = [
        f"{mod}.py:{node.lineno}"
        for mod, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_public_function_has_a_use_in_src():
    trees = _modules()
    used = _uses(trees)
    unused = {
        f"{mod}.{fn.name}"
        for mod, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and not _is_law(fn)
    } - used
    assert unused == {name for name in ALLOWED_UNUSED if name.count(".") == 1}


def _public_methods(trees):
    """`module.Class.name` of every public method and property of a public
    top-level class."""
    return {
        f"{mod}.{cls.name}.{fn.name}"
        for mod, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    }


def test_every_public_method_has_a_use_in_src():
    # a use is any `x.name` in the package: the scan cannot tell the
    # classes apart, so a name some other class uses counts for all
    trees = _modules()
    attrs = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = {name for name in _public_methods(trees) if name.rsplit(".", 1)[1] not in attrs}
    assert unused == {name for name in ALLOWED_UNUSED if name.count(".") == 2}


def test_the_scan_sees_each_kind_of_use():
    trees = {
        "a": ast.parse("def f(): pass\ndef g(): pass\ndef h(): pass\nk = h\n"),
        "b": ast.parse("from locale_lab.a import f\nfrom locale_lab import a as m\nm.g()\n"),
    }
    assert {"a.f", "a.g", "a.h"} <= _uses(trees)
    # neither a recursive call nor a local of the same name is a use
    lone = ast.parse("def h(n): return h(n - 1)\ndef g(h): return h\nk = lambda h: h\n")
    assert "a.h" not in _uses({"a": lone})
    # the methods of public classes, and neither private ones nor the
    # methods of private classes
    cls = ast.parse("class C:\n    def m(self): pass\n    def _p(self): pass\nclass _D:\n    def m(self): pass\n")
    assert _public_methods({"a": cls}) == {"a.C.m"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_each_module_stays_under_the_parser_token_step(path):
    # CPython 3.11's parser doubles its token array at 2^14 tokens: a
    # laws.py past 16,384 raised the compile peak of that one file from
    # 5.5 to 6.25 MB and the benchmark's laws-corpus peak_rss_mb by about
    # 1 MB (CHANGES.md, the MENDED line on laws.py's parser tokens), and so
    # would any module that grew past it. Counted as there: tokenize's
    # tokens, comments and blank lines left out, and an f-string one token,
    # as 3.11 reads it on every version: from 3.12 on, tokenize splits an
    # f-string into FSTRING_START, its parts and the tokens of each field
    # up to FSTRING_END, which count here as one
    text = path.read_text()
    start, end = (getattr(tokenize, name, None) for name in ("FSTRING_START", "FSTRING_END"))
    count = depth = 0
    for t in tokenize.generate_tokens(io.StringIO(text).readline):
        count += depth == 0 and t.type not in (tokenize.COMMENT, tokenize.NL)
        depth += (t.type == start) - (t.type == end)
    assert count < 2**14

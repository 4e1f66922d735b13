"""The public surface of locale_lab: every public top-level function, and
every public method and property of a public class, has a use in the
package (a method name that several classes define, a use the scan can
attribute to its class or one named in UNATTRIBUTED), and no check is a
bare `assert`, which `python -O` drops. Also the size of each module in
parser tokens, which sets what its compile costs."""

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
    # [u] for an element name or index; the package reads the part table
    # at the point sets it computes
    "sublocales.open_sublocale",
    # the part of a set of point names; the part laws read
    # `SubLattice.subspace_idx`, the same bits by point mask
    "sublocales.subspace_sublocale",
    # the bound on what a lazy open's later stages add; the tests check
    # stage lengths against it, and the package reads the raw `_tail`
    "presented.LazyOpen.tail",
    # a bound's width, which the benchmark's checks and the tests read
    "measure.MeasureBounds.width",
    # a union's length as a Fraction, which the tests read; the package
    # reads the integer pair `_length_pair`
    "intervals.FinUnion.length",
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


# Uses of a method name that two or more public classes define, made
# through a value the scan cannot type, each with the class it reads.
UNATTRIBUTED = {
    "intervals.normalize: p.is_empty": "intervals.Iv",
    "intervals.FinUnion.__post_init__: p.is_empty": "intervals.Iv",
    "presented.LazyOpen.stage: new.is_empty": "intervals.RatOpen",
    "presented.lazy_meet: gb.is_empty": "intervals.RatOpen",
    "presented.held_by: s.contains": "intervals.RatOpen",
    "presented.held_by: leaf.points.contains": "presented.Enumerator",
}


def _class_name(annotation, classes):
    """The class an annotation names, a name or a string, if it is one of
    `classes`."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return classes.get(annotation.value)
    if isinstance(annotation, ast.Name):
        return classes.get(annotation.id)
    return None


def _agreed(pairs) -> dict:
    """key -> value for each key that every pair gives the same value."""
    seen = {}
    for k, v in pairs:
        seen.setdefault(k, set()).add(v)
    return {k: vs.pop() for k, vs in seen.items() if len(vs) == 1 and None not in vs}


def _defs(tree):
    """(qualified name, enclosing class or None, def) of each top-level
    function and each method of a top-level class."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, None, top
        elif isinstance(top, ast.ClassDef):
            for fn in top.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{top.name}.{fn.name}", top.name, fn


def _attributed_uses(trees, names):
    """The `x.name` uses, for each of `names`, the scan can attribute to
    a class, as `module.Class.name`, and those it cannot, as `module.def:
    source`. x is typed when it is a class, `self` in a method of one, a
    parameter annotated with one, a local every assignment of which is
    typed alike, a construction of a class, a call of a function or
    method that every definition of its name annotates as returning a
    class, or a field a class annotates. Only uses inside functions and
    methods are read."""
    classes = {cls.name: f"{mod}.{cls.name}" for mod, tree in trees.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)}
    returns = _agreed((fn.name, _class_name(fn.returns, classes))
                      for tree in trees.values() for _, _, fn in _defs(tree))
    fields = {(classes[cls.name], node.target.id): _class_name(node.annotation, classes)
              for tree in trees.values() for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}

    def typed(node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in classes:
                return classes[f.id]
            return returns.get(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
        if isinstance(node, ast.Attribute):
            return fields.get((typed(node.value, env), node.attr))
        return None

    credited, unattributed = set(), set()
    for mod, tree in trees.items():
        for qual, owner, fn in _defs(tree):
            base = dict(classes, **({"self": classes[owner]} if owner else {}))
            # a name bound otherwise than by `name = value`, by a loop or
            # an unpacking, has a type only as an annotated parameter
            assigns = sorted((n for n in ast.walk(fn) if isinstance(n, ast.Assign)
                              and len(n.targets) == 1 and isinstance(n.targets[0], ast.Name)),
                             key=lambda n: n.lineno)
            simple = {id(n.targets[0]) for n in assigns}
            binds = [(a.arg, _class_name(a.annotation, classes)) for a in ast.walk(fn) if isinstance(a, ast.arg)]
            binds += [(n.id, None) for n in ast.walk(fn)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and id(n) not in simple]
            for n in assigns:
                binds.append((n.targets[0].id, typed(n.value, {**base, **_agreed(binds)})))
            env = {**base, **_agreed(binds)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr in names:
                    cls = typed(node.value, env)
                    if cls:
                        credited.add(f"{cls}.{node.attr}")
                    else:
                        unattributed.add(f"{mod}.{qual}: {ast.unparse(node)}")
    return credited, unattributed


def _unused_methods(trees):
    """The public methods without a use in the package, and the uses of
    shared method names the scan cannot attribute. A method name only one
    public class defines is used by any `x.name`; one that several define
    is used only where the scan can tell whose it is."""
    methods = _public_methods(trees)
    owners = {}
    for name in methods:
        owners.setdefault(name.rsplit(".", 1)[1], set()).add(name)
    shared = {attr for attr, names in owners.items() if len(names) > 1}
    attrs = {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    credited, unattributed = _attributed_uses(trees, shared)
    credited |= {UNATTRIBUTED[use] + "." + use.rsplit(".", 1)[1] for use in unattributed & set(UNATTRIBUTED)}
    unused = {name for name in methods if name.rsplit(".", 1)[1] not in attrs
              or (name.rsplit(".", 1)[1] in shared and name not in credited)}
    return unused, unattributed


def test_every_public_method_has_a_use_in_src():
    unused, unattributed = _unused_methods(_modules())
    assert unattributed == set(UNATTRIBUTED)
    assert unused == {name for name in ALLOWED_UNUSED if name.count(".") == 2}


def test_a_shared_method_name_is_credited_only_where_its_class_is_known():
    twins = ast.parse(
        "class A:\n    def m(self): pass\n    def n(self): pass\n    def k(self) -> 'A': return self\n"
        "class B:\n    def m(self): pass\n    def n(self): return self.m()\n"
        "def f(a: A, b):\n    x = A()\n    y = b\n    return a.m, x.k().n, y.n, A.k\n"
    )
    assert _attributed_uses({"t": twins}, {"m", "n"}) == ({"t.A.m", "t.B.m", "t.A.n"}, {"t.f: y.n"})
    # a twin that nothing in the package calls is unused, though its
    # name's other owner is called everywhere
    trees = _modules()
    iv = next(cls for cls in trees["intervals"].body if isinstance(cls, ast.ClassDef) and cls.name == "Iv")
    iv.body.append(ast.parse("def contains(self, x): return False").body[0])
    unused, _ = _unused_methods(trees)
    assert "intervals.Iv.contains" in unused


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

"""The library holds only code that the CLI, the experiments or the benchmark
call or read: no name or member in `src/wavesnap` is there for the tests alone.
It lists the field kinds once, in `fields.BASES`, and no code asks a field's kind."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trees(pattern):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(ROOT.glob(pattern))]


def _name(node):
    """The name a Name or an Attribute node spells, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _emitted_whole(library, trees):
    """The classes whose instances `dataclasses.asdict` emits whole in `trees`:
    the return annotation of the `library` function whose call result the
    argument of asdict is assigned, in the same function."""
    returns = {
        node.name: ast.unparse(node.returns)
        for tree in library
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.returns is not None
    }
    whole = set()
    for tree in trees:
        for func in [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]:
            assigned = {
                target.id: node.value
                for node in ast.walk(func)
                if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for call in ast.walk(func):
                args = call.args if isinstance(call, ast.Call) and _name(call.func) == "asdict" else []
                if args and isinstance(args[0], ast.Name):
                    value = assigned.get(args[0].id)
                    if isinstance(value, ast.Call) and _name(value.func) in returns:
                        whole.add(returns[_name(value.func)])
    return whole


def unread_members(library, readers):
    """What in the `library` trees nothing in `library + readers` uses, sorted:
    - a top-level function or class that no ast.Name, ast.Attribute or import names;
    - a public method or property ("Class.member") that no ast.Attribute reads;
    - a field, an annotated name in a class body ("Class.field"), that no
      ast.Attribute reads and no string constant (a JSON member name) spells,
      unless the class is a NamedTuple (it is unpacked) or `dataclasses.asdict`
      emits its instances whole."""
    named, read, strings = set(), set(), set()
    for tree in library + readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    exempt = _emitted_whole(library, library + readers)
    unread = []
    for tree in library:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in named:
                unread.append(node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    if item.name not in read:
                        unread.append(f"{node.name}.{item.name}")
            if node.name in exempt or "NamedTuple" in map(_name, node.bases):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if item.target.id not in read and item.target.id not in strings:
                        unread.append(f"{node.name}.{item.target.id}")
    return sorted(unread)


def test_every_library_name_has_a_caller():
    library = _trees("src/wavesnap/*.py")
    defined = {node.name for tree in library for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    allowed = set()  # names and members kept without a caller: none
    assert len(defined) > 100
    assert _emitted_whole(library, library) == {"OddTypeReport", "DoubledFractionWitness"}
    assert sorted(set(unread_members(library, _trees("bench/*.py"))) - allowed) == []


SYNTHETIC = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Report:
    used: int
    emitted: int
    unread: float

    @property
    def shown(self) -> bool:
        return self.used > 0

    @property
    def unshown(self) -> bool:
        return self.used < 0


def make() -> Report:
    return Report(1, 2, unread=3.0)
"""

READER = """
def main():
    rep = make()
    unshown = unread = rep.shown  # local names spelled like the members read neither
    return {"emitted": rep.used, "unshown": unshown + unread}
"""


def test_unread_members_flags_an_unread_field_and_property():
    # negative control: a field that nothing reads and a property that only a
    # name and a string constant spell are both flagged; "emitted" is a JSON member name
    library = [ast.parse(SYNTHETIC)]
    assert unread_members(library, [ast.parse(READER)]) == ["Report.unread", "Report.unshown"]
    # emitted whole through dataclasses.asdict, the class's fields need no reader, its properties still do
    whole = READER.replace("return {", "return dataclasses.asdict(rep), {")
    assert unread_members(library, [ast.parse(whole)]) == ["Report.unshown"]


BASIS_NAMES = {"Flat", "Sphere"}


def kind_tests(trees):
    """Where the `trees` say which field kinds there are, sorted as (line, code):
    - a basis class named outside its own class body, the `BASES` table and
      a construction `Flat(...)` or `Sphere(...)`, imports aside;
    - an isinstance that tests a field's basis, or tests against a basis class or `BASES`."""
    found = []
    for tree in trees:
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

        def inside(node, allowed):
            while node in parent:
                node = parent[node]
                if allowed(node):
                    return True
            return False

        for node in ast.walk(tree):
            name = _name(node)
            if name in BASIS_NAMES and isinstance(node, (ast.Name, ast.Attribute)):
                construction = isinstance(parent.get(node), ast.Call) and parent[node].func is node
                own_class = inside(node, lambda n: isinstance(n, ast.ClassDef) and n.name == name)
                table = inside(node, lambda n: isinstance(n, ast.Assign) and [_name(t) for t in n.targets] == ["BASES"])
                if not (construction or own_class or table):
                    found.append((node.lineno, ast.unparse(parent.get(node, node))))
            elif isinstance(node, ast.Call) and _name(node.func) == "isinstance":
                spelled = {_name(n) for arg in node.args for n in ast.walk(arg)}
                if spelled & (BASIS_NAMES | {"basis", "BASES"}):
                    found.append((node.lineno, ast.unparse(node)))
    return sorted(set(found))


def test_field_kinds_are_listed_once():
    library = _trees("src/wavesnap/*.py")
    assert kind_tests(library) == []


KINDS = """
from .fields import Flat, Sphere


@dataclass(frozen=True)
class Flat:
    dim: int

    def same(self, other):
        return isinstance(other, Flat)


BASES = (Flat, Sphere)


def build(dim, n):
    return Flat(dim), Sphere(n), fields.Flat(dim)


def kind(f):
    if isinstance(f.basis, Sphere) or isinstance(f, Field):
        return {"wave": Flat}
    return f.basis is fields.Sphere or isinstance(f.basis, BASES)
"""


def test_kind_tests_flag_a_second_list_of_kinds():
    # negative control: the class's own name in its body, the table, constructions and imports pass;
    # a kind named anywhere else, and each isinstance on a basis, even in the class body, are flagged
    assert [line for line, _ in kind_tests([ast.parse(KINDS)])] == [10, 21, 22, 23, 23]

"""Every top-level name in `src/kll` is reached from a user path.

A user path starts at a subcommand (`cli.py`), a benchmark job
(`perfbench/`, including the names `perfbench/spans.LAYERS` wraps), an
oracle (`tests/oracles.py`), an acceptance criterion
(`tests/test_acceptance.py`) or an exhaustive CI check
(`tests/exhaustive_*.py`).  The closure is taken over the names each
reached function, class or constant mentions, resolved through its
module's own definitions and imports; module attributes such as
`polys.mul` count, method calls on values do not.  A name that only its
unit tests call is dead code and fails this test.

Methods are judged by name alone: a non-dunder method of a `src/kll`
class is live if some root or some other `src/kll` code names it, as an
attribute (`x.apply`) or in a string (`"FieldElement.char_poly"`).
"""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
ROOTS = ["src/kll/cli.py", "perfbench/*.py", "tests/oracles.py",
         "tests/test_acceptance.py", "tests/exhaustive_*.py"]

# Test-input builders kept beside the user paths, one reason each.
EXTRA_ROOTS = {
    # random cubic graphs feed the canonical-form, lemma and linalg tests
    ("kll.trivalent", "random_connected_trivalent"),
    # the index-n cyclic covers feed the fpgroups, invariants and tau tests
    ("kll.fpgroups", "cyclic_quotient_table"),
}


def _keys(pattern):
    """Module key -> path for the files matching `pattern`: `kll.x` for
    the library, the bare file name (as tests import it) elsewhere."""
    out = {}
    for path in glob.glob(os.path.join(ROOT, pattern)):
        stem = os.path.basename(path)[:-3]
        if os.path.basename(os.path.dirname(path)) == "kll":
            stem = "kll" if stem == "__init__" else "kll." + stem
        out[stem] = path
    return out


class _Module:
    def __init__(self, key, path, known):
        with open(path) as fh:
            self.tree = ast.parse(fh.read())
        self.key = key
        self.defs = {name: node for node in self.tree.body
                     for name in self._defined(node)}
        self.imports = {}  # local name -> (module key, None) or (module key, name)
        package = key.rpartition(".")[0]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = package + ("." + base if base else "")
                for alias in node.names:
                    local = alias.asname or alias.name
                    if f"{base}.{alias.name}" in known:
                        self.imports[local] = (f"{base}.{alias.name}", None)
                    elif base in known:
                        self.imports[local] = (base, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in known and (alias.asname or "." not in alias.name):
                        self.imports[alias.asname or alias.name] = (alias.name, None)

    @staticmethod
    def _defined(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]

    def references(self, node):
        """(module key, name) pairs mentioned anywhere in `node`."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in self.imports:
                    mod, name = self.imports[sub.id]
                    if name is not None:
                        yield mod, name
                elif sub.id in self.defs:
                    yield self.key, sub.id
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = self.imports.get(sub.value.id)
                if target is not None and target[1] is None:
                    yield target[0], sub.attr


def _span_names(spans):
    """(module, top-level name) for each function `spans.LAYERS` wraps."""
    for node in spans.tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            layers = ast.literal_eval(node.value)
            return {("kll." + layer, qual.split(".")[0])
                    for layer, quals in layers.items() for qual in quals}
    raise AssertionError("perfbench/spans.py defines no LAYERS literal")


def unreachable():
    paths = {}
    for folder in ("src/kll", "tests", "perfbench"):
        paths.update(_keys(folder + "/*.py"))
    mods = {key: _Module(key, path, paths) for key, path in paths.items()}
    seen = set(EXTRA_ROOTS) | _span_names(mods["spans"])
    work = [(mods[m], mods[m].defs[n]) for m, n in seen]
    work += [(mods[key], mods[key].tree) for pattern in ROOTS for key in _keys(pattern)]
    while work:
        mod, node = work.pop()
        for ref in mod.references(node):
            # a name imported from elsewhere resolves to its definition
            while ref[0] in mods and ref[1] not in mods[ref[0]].defs \
                    and ref[1] in mods[ref[0]].imports:
                ref = mods[ref[0]].imports[ref[1]]
            target = mods.get(ref[0])
            if ref in seen or target is None or ref[1] not in target.defs:
                continue
            seen.add(ref)
            work.append((target, target.defs[ref[1]]))
    return sorted(f"{key}.{name}" for key, mod in mods.items() if key.startswith("kll")
                  for name in mod.defs
                  if (key, name) not in seen and not name.startswith("__"))


def test_every_library_name_is_reachable():
    dead = unreachable()
    assert not dead, "reached by no user path: " + ", ".join(dead)


def _method_mentions(node):
    """Attribute names and the dotted parts of string constants in `node`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from sub.value.split(".")


def unreferenced_methods():
    paths = set(_keys("src/kll/*.py").values())
    for pattern in ROOTS:
        paths.update(_keys(pattern).values())
    trees = {}
    for path in paths:
        with open(path) as fh:
            trees[path] = ast.parse(fh.read())
    mentions = Counter(name for tree in trees.values()
                       for name in _method_mentions(tree))
    dead = []
    for key, path in sorted(_keys("src/kll/*.py").items()):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or fn.name.startswith("__"):
                    continue
                # mentions inside the method itself do not keep it alive
                own = Counter(_method_mentions(fn))
                if mentions[fn.name] == own[fn.name]:
                    dead.append(f"{key}.{cls.name}.{fn.name}")
    return dead


def test_every_library_method_is_named_outside_itself():
    dead = unreferenced_methods()
    assert not dead, "named by no user path: " + ", ".join(dead)

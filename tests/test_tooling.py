"""Checks on the source tree itself."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "dpoembed"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_no_assert_statements_in_the_library():
    # `python -O` strips asserts; invariants must raise typed errors
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def test_every_imported_name_is_used():
    # an import nothing reads is dead code that still couples modules
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports are its purpose
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found


def _definitions(tree):
    """Top-level functions, classes and constants, and class methods,
    each as (name, whether it is a method); dunders excluded."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.name, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names += [(t.id, False) for t in targets
                      if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [(item.name, True) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(n, method) for n, method in names
            if not (n.startswith("__") and n.endswith("__"))]


def _references(tree):
    """The names the tree reads as a bare name or imports, and the names
    it reads as an attribute."""
    bare, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            bare.update(alias.name for alias in node.names)
    return bare, attrs


def test_every_definition_is_referenced():
    # a definition nothing reads is dead code: src, tests and the bench
    # are all the callers there are.  A method is read only as an
    # attribute, so a bare name of the same spelling does not count.
    root = SRC.parent.parent
    files = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"),
             *(root / "perfbench").glob("*.py")]
    bare, attrs = set(), set()
    for path in files:
        file_bare, file_attrs = _references(ast.parse(path.read_text()))
        bare |= file_bare
        attrs |= file_attrs
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name, method in _definitions(ast.parse(path.read_text()))
             if name not in attrs and (method or name not in bare)]
    assert not found


def test_lawcheck_uses_no_private_name_of_the_library():
    # the law suite and its oracles check the constructive code, so they
    # may call only its public API
    found = []
    for name in ("lawcheck.py", "oracle.py"):
        tree = ast.parse((SRC / name).read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("dpoembed")):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append(f"{name}:{node.lineno}: {alias.name}")
                    if not node.module or node.module == "dpoembed":
                        modules.add(alias.asname or alias.name)
        found += [f"{name}:{node.lineno}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
    assert not found


# The private names one library module reads from another, each listed
# on purpose: the entry checks its arguments once and its unchecked core
# stays in its module, so no caller crosses that check by importing it.
_CROSS_MODULE_PRIVATE = {
    ("dpo", "graph._union_find"),
    ("dpo", "rotation._surface"),
}


def test_private_names_cross_modules_only_where_listed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("dpoembed")):
                module = (node.module or "").split(".")[-1]
                for alias in node.names:
                    if module in ("", "dpoembed"):
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.add((path.stem, f"{module}.{alias.name}"))
        found |= {(path.stem, f"{node.value.id}.{node.attr}")
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
    assert found == _CROSS_MODULE_PRIVATE


# The oracles may build and read the library's objects, nothing more.
_ORACLE_IMPORTS = {
    "graph": {"Flag", "Graph", "SRC", "TGT", "UnknownVertex", "graph"},
    "morphism": {"GraphMorphism", "morphism"},
    "boundary": {"BoundaryEmbedding", "BoundaryGraph", "PairingGraph",
                 "PartitioningSpan", "RewriteRule", "POS", "NEG"},
    "rotation": {"RotationSystem", "rotation_system"},
}


def test_oracle_imports_only_data_types():
    # the naive definitions check the constructive code, so they import
    # only the data types and plain constructors, each from the module
    # that defines it, and no validator, classifier or search
    tree = ast.parse((SRC / "oracle.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("dpoembed")):
            module = (node.module or "").split(".")[-1]
            allowed = _ORACLE_IMPORTS.get(module, set())
            found += [f"{node.lineno}: {module}.{alias.name}"
                      for alias in node.names if alias.name not in allowed]
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "dpoembed"]
    assert not found


def _names_in(node):
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_lawcheck_hom_oracles_do_not_use_classify():
    # the brute-force hom sets check classify, so neither they nor any
    # lawcheck or oracle function they reach, the predicates they filter
    # with included, may call it
    funcs = {node.name: node
             for name in ("lawcheck.py", "oracle.py")
             for node in ast.parse((SRC / name).read_text()).body
             if isinstance(node, ast.FunctionDef)}
    todo = ["enumerate_morphisms", "enumerate_premorphisms"]
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(n for n in _names_in(funcs[name]) if n in funcs)
    assert "is_morphism" in reached
    found = sorted(name for name in reached
                   if "classify" in _names_in(funcs[name]))
    assert not found


_DICT_WRITES = ("update", "setdefault", "pop", "popitem", "clear")


def _is_morphism_map(node):
    return isinstance(node, ast.Attribute) and node.attr in ("vmap", "amap")


def test_no_module_writes_into_a_morphism_map():
    # a morphism caches its flag map and classification on first use, so
    # its vmap and amap must never change once it is built
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                write = _is_morphism_map(node.value)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                write = (node.func.attr in _DICT_WRITES
                         and _is_morphism_map(node.func.value))
            else:
                continue
            if write:
                found.append(f"{path.name}:{node.lineno}")
    assert not found


# Each object type is built by its one constructor, which decides the
# order of its tables; every other reader iterates them as stored.
_CONSTRUCTORS = {("graph", "graph", "Graph"),
                 ("morphism", "morphism", "GraphMorphism"),
                 ("rotation", "rotation_system", "RotationSystem")}


def _calls(tree):
    """(innermost enclosing function or "<module>", called name) of each
    call in `tree`."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                out.add((scope, getattr(func, "id",
                                        getattr(func, "attr", None))))
            visit(child, scope)

    visit(tree, "<module>")
    return out


def test_only_the_constructors_call_the_object_types():
    found = {(path.stem, scope, name)
             for path in sorted(SRC.glob("*.py"))
             for scope, name in _calls(ast.parse(path.read_text()))
             if name in ("Graph", "GraphMorphism", "RotationSystem")}
    assert found == _CONSTRUCTORS


def test_rewrite_is_the_two_checked_squares():
    # a DPO step is the complement square, then the pushout square, each
    # through its checked entry: no unchecked core may close it
    called = {name for scope, name in _calls(ast.parse(
        (SRC / "dpo.py").read_text())) if scope == "rewrite"}
    assert {"pushout_complement", "pushout"} <= called
    assert not {name for name in called if name.startswith("_")}


def _library_imports(path):
    """The library modules a source file imports from; a name imported
    from the package itself counts as a module of that name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("dpoembed")):
            module = (node.module or "").split(".")[-1]
            if module in ("", "dpoembed"):
                found.update(alias.name for alias in node.names)
            else:
                found.add(module)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names
                         if alias.name.split(".")[0] == "dpoembed")
    return found


def test_rotation_imports_only_graph_and_morphism():
    # the topology layer sits below the rewriting engine that uses it
    assert _library_imports(SRC / "rotation.py") <= {"graph", "morphism"}


# The data and validity layer: the objects and every check on them.
_DATA_LAYER = {"graph", "morphism", "boundary", "rotation"}


def test_modules_import_along_the_layers():
    # the engine (dpo) and the matcher only build, from the data and
    # validity layer; the formats and the oracles need neither of them
    imports = {path.stem: _library_imports(path)
               for path in SRC.glob("*.py")}
    for name in sorted(_DATA_LAYER):
        assert imports[name] <= _DATA_LAYER, name
    for name in ("serialize", "dot", "oracle"):
        assert not imports[name] & {"dpo", "matcher"}, name
    # so matcher, among others, does not import dpo
    assert sorted(name for name, modules in imports.items()
                  if "dpo" in modules) == ["__init__", "cli", "lawcheck"]


def _cli(flags, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, *flags, "-m", "dpoembed.cli",
                           *argv], capture_output=True, env=env)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv,code", [
    (["rewrite", "match_identity_loop.json"], 0),
    (["repairings", "--classify-genus",
      "boundary_embedding_interleaving.json"], 0),
    (["complement", "--rotations", "boundary_embedding_interleaving.json"], 0),
    (["repairings", "--classify-genus",
      "boundary_embedding_three_pairs.json"], 1),
    (["rewrite", "--rotations", "match_rotation_loop.json"], 0),
    (["pushout", "--rotations", "span_rotation_loop.json"], 0),
], ids=["rewrite", "classify-genus", "rot-complement", "missing-rotations",
        "rot-rewrite", "rot-pushout"])
def test_cli_output_is_the_same_under_optimize(argv, code):
    # the unchecked cores must not lean on anything `-O` strips
    argv = argv[:-1] + [str(FIXTURES / argv[-1])]
    plain = _cli([], argv)
    assert plain[0] == code
    assert _cli(["-O"], argv) == plain


def test_missing_field_message_does_not_depend_on_the_hash_seed(tmp_path):
    # required fields are a set; its order changes with PYTHONHASHSEED
    doc = tmp_path / "span.json"
    doc.write_text('{"format_version": "1", "kind": "span", "body": {}}')
    errs = set()
    for seed in range(5):
        env = dict(os.environ, PYTHONPATH=str(SRC.parent),
                   PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-m", "dpoembed.cli",
                               "validate", str(doc)],
                              capture_output=True, env=env)
        assert proc.returncode == 1
        errs.add(proc.stderr)
    assert errs == {b"error: span: missing field 'boundary'\n"}

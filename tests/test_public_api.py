"""Every public module-level def and class of the package has a caller
outside the tests: in the package itself or in the benchmark harness.
A re-export in ``__init__.py`` is not a caller.  Every name that
``__all__`` lists is defined.  Only the rows of ``models.MODEL_KINDS``
branch on the model kind."""

import ast
import importlib
import inspect
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "tractlab").glob("*.py"))
CALLERS = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
    (ROOT / "perfbench").glob("*.py")
)


def _public_definitions():
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def _references(paths) -> Counter:
    # NAME tokens, except the name a def or class statement binds; comments
    # and docstrings are COMMENT and STRING tokens, so they do not count
    names = Counter()
    for path in paths:
        previous = None
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    names[tok.string] += 1
                previous = tok.string
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    names = _references(CALLERS)
    definitions = list(_public_definitions())
    assert len(definitions) >= 50
    unused = [qualified for qualified, name in definitions if not names[name]]
    assert unused == []


def test_every_all_entry_is_defined():
    # __main__ runs the CLI on import, so it is left out
    modules = ["tractlab"] + [
        f"tractlab.{path.stem}"
        for path in PACKAGE
        if path.stem not in ("__init__", "__main__")
    ]
    listed = 0
    for name in modules:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        listed += len(exported)
        missing = [entry for entry in exported if not hasattr(module, entry)]
        assert missing == [], name
    assert listed > 0


# a branch on the model kind: every kind rule is a column of MODEL_KINDS
KIND_BRANCH = re.compile(r"family\s*[!=]=|plane_map is (not )?None")


def test_only_the_model_kind_table_branches_on_the_kind():
    from tractlab import models

    sources = {
        name: (ROOT / "src" / "tractlab" / f"{name}.py").read_text()
        for name in ("tracts", "orbits", "conjugacy", "cli", "semiconj", "gridkernel")
    }
    for fn in (
        models.eval_F,
        models.domain_contains,
        models._dF_kernel,
        models._eval_F_array,
        models.eval_dF,
        models._member_past_overflow,
        models.model_from_json,
        models.model_to_json,
        models.LogLiftModel.__post_init__,
    ):
        sources[fn.__qualname__] = inspect.getsource(fn)
    branching = [name for name, text in sources.items() if KIND_BRANCH.search(text)]
    assert branching == []
    # the rows themselves do branch, so the pattern finds what it looks for
    assert KIND_BRANCH.search(inspect.getsource(models))

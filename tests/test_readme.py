import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import qfsp

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(qfsp.__path__)}
CLASSES = {name for name, obj in vars(qfsp).items()
           if inspect.isclass(obj) and not name.startswith("_")}


def _references() -> list:
    """Backticked dotted names (a trailing call like ``(z, x)`` is dropped)
    that start with qfsp, a qfsp module or a public qfsp class."""
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`",
                       README.read_text(encoding="utf-8"))
    return sorted({n for n in names
                   if n.split(".")[0] in MODULES | CLASSES | {"qfsp"}})


def _resolve(name: str):
    head, *rest = name.split(".")
    if head == "qfsp":
        head, *rest = rest
    if head in MODULES:
        obj = importlib.import_module(f"qfsp.{head}")
    else:
        obj = getattr(qfsp, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_readme_names_resolve():
    names = _references()
    assert len(names) >= 10
    stale = []
    for name in names:
        try:
            _resolve(name)
        except AttributeError:
            stale.append(name)
    assert stale == []

"""The README's rule for library code, run: every public top-level name of
``src/barhom`` is on the path of the CLI and ``barhom.checks`` or one of the
oracles the README names, else it is deleted rather than kept."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _readme_oracles() -> set:
    """The names the README keeps as oracles: each bullet of its oracle
    lists names them before ", for" what they check, and a paper claim is
    named as "`name` states a paper claim"."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("Some library code is kept only"):readme.index("deleted rather than kept")]
    named = "".join(re.split(r",\s+for\s", item)[0] for item in section.split("\n* ")[1:])
    claims = re.findall(r"`(\w+)`\s+states\s+a\s+paper\s+claim", section)
    return set(re.findall(r"`(\w+)`", named)) | set(claims)


def _unused_public_names() -> list:
    """``module.name`` of each public top-level function, class or constant
    of ``src/barhom`` that no code there loads outside its own definition,
    as a name or as an attribute."""
    defined, loaded = [], set()
    for path in sorted((ROOT / "src" / "barhom").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, ast.Assign):
                own = {target.id for target in node.targets if isinstance(target, ast.Name)}
            else:
                own = set()
            defined += [(path.stem, name) for name in sorted(own) if not name.startswith("_")]
            uses = {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) or isinstance(sub, ast.Attribute)}
            loaded |= uses - own
    return [f"{module}.{name}" for module, name in defined if name not in loaded]


def test_every_public_name_is_used_or_a_readme_oracle():
    oracles = _readme_oracles()
    assert {"ez", "shuffles", "bell", "instance_eval", "ratio_limit"} <= oracles
    assert [name for name in _unused_public_names() if name.split(".")[1] not in oracles] == []

"""The number of options the public API offers.

Counted as in ROADMAP aim 2: every defaulted parameter of a public
function, or of a public method of a public class, in
``src/resetctrl/*.py``. A change that adds or removes an option edits
``PUBLIC_DEFAULTED_PARAMETERS`` on purpose.
"""

import ast
import dataclasses
from pathlib import Path

from resetctrl.config import ExperimentConfig

PUBLIC_DEFAULTED_PARAMETERS = 31
# the config file's options: every field that is not a section, over the
# sections reachable from ExperimentConfig; a change that adds or removes
# a config field edits this on purpose too
CONFIG_LEAF_FIELDS = 29

SRC = Path(__file__).resolve().parents[1] / "src" / "resetctrl"


def _defaults(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _public_functions(body):
    return [
        node for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def count_public_defaulted_parameters() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        functions = _public_functions(body)
        for cls in body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                functions += _public_functions(cls.body)
        total += sum(map(_defaults, functions))
    return total


def test_public_defaulted_parameter_count():
    assert count_public_defaulted_parameters() == PUBLIC_DEFAULTED_PARAMETERS


def count_config_leaf_fields(section=ExperimentConfig) -> int:
    return sum(
        count_config_leaf_fields(f.type) if dataclasses.is_dataclass(f.type) else 1
        for f in dataclasses.fields(section)
    )


def test_config_leaf_field_count():
    assert count_config_leaf_fields() == CONFIG_LEAF_FIELDS

"""The benchmark's workloads use only names the package still exports.

A benchmark child that imports a deleted or renamed name crashes, and the
run then ends without a result line. This reads perfbench/workloads.py as
text, so nothing under perfbench/ is imported or changed.
"""

import ast
import pathlib

import privmine

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _privmine_names(source: str) -> set[str]:
    """Every ``privmine.<name>`` attribute and ``from privmine import <name>``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "privmine"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "privmine":
            names.update(alias.name for alias in node.names)
    return names


def test_benchmark_workloads_use_existing_names():
    names = _privmine_names(WORKLOADS.read_text())
    assert {"cut_paste_perturb", "cut_paste_dataset", "mask_itemset_condition",
            "SubsetMarginalSpec", "itemset_label"} <= names
    missing = sorted(n for n in names if not hasattr(privmine, n))
    assert not missing, f"perfbench/workloads.py uses names privmine lacks: {missing}"

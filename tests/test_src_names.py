"""src/ keeps only code the library runs: every public definition is exported or used there,
and every exported name has its reason in the README."""

import argparse
import ast
import re
from pathlib import Path

import clarkekin
from clarkekin import cli

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
README = Path(__file__).resolve().parents[1] / "README.md"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
# One line per public name: "- `name`: " and then its reason, which is one of
# "CLI `command`, ...", "paper, ..." and "acceptance criterion/criteria NN, ...".
NAME_LINE = re.compile(r"- `(\w+)`: (CLI (?:`[\w-]+`(?:, )?)+|paper, |acceptance criteri(?:on|a) \d\d)")


def src_trees():
    modules = sorted(Path(clarkekin.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    return {module.name: ast.parse(module.read_text(), str(module)) for module in modules}


def loaded_names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_public_definition_is_exported_or_loaded_in_src():
    # A public top-level def or class that clarkekin.__all__ does not export
    # and no code in src/ loads by name is code that only the tests call.
    trees = src_trees()
    loaded = set().union(*map(loaded_names, trees.values()))
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
        if node.name not in clarkekin.__all__ and node.name not in loaded
    ]
    assert not unused, f"neither exported nor used in src/: {unused}"


def public_names_section():
    lines = README.read_text().splitlines()
    start = lines.index("## Public names") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    return [line for line in lines[start:end] if line.startswith("- ")]


def reached_from_the_cli():
    # Every name that cli.py loads, then every name that a top-level definition so reached loads, in any module.
    trees = src_trees()
    definitions = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                definitions.setdefault(node.name, []).append(node)
    reached, frontier = set(), loaded_names(trees["cli.py"])
    while frontier:
        name = frontier.pop()
        reached.add(name)
        for node in definitions.get(name, ()):
            frontier |= loaded_names(node) - reached
    return reached


def test_every_public_name_has_its_reason_in_the_readme():
    lines = public_names_section()
    bad = [line for line in lines if not NAME_LINE.match(line)]
    assert not bad, f"lines that give no reason: {bad}"
    listed = [NAME_LINE.match(line).group(1) for line in lines]
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(clarkekin.__all__), (
        f"listed, not exported: {sorted(set(listed) - set(clarkekin.__all__))}; "
        f"exported, not listed: {sorted(set(clarkekin.__all__) - set(listed))}"
    )


def test_each_reason_holds():
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    reached = reached_from_the_cli()
    criteria = {
        node.name[len("test_criterion_") :][:2]: loaded_names(node)
        for node in ast.parse(ACCEPTANCE.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")
    }
    wrong = []
    for line in public_names_section():
        name, reason = NAME_LINE.match(line).groups()
        if reason.startswith("CLI"):
            named = re.findall(r"`([\w-]+)`", reason)
            wrong += [f"{name}: no command {c}" for c in named if c not in commands]
            if name not in reached:
                wrong.append(f"{name}: not reached from cli.py")
        elif reason.startswith("acceptance"):
            for number in re.findall(r"\b\d\d\b", line.split(": ", 1)[1]):
                if name not in criteria.get(number, ()):
                    wrong.append(f"{name}: criterion {number} does not call it")
    assert not wrong, wrong

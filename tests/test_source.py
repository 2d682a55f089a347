"""Source-level rules for the package itself, and its README's quickstart and CLI lines."""

import ast
import re
import shlex
from dataclasses import fields
from pathlib import Path

import tracecc
from tracecc import ccc, cli

PACKAGE = Path(tracecc.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def test_no_verification_rests_on_assert():
    # python -O strips assert statements, so a check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_import_is_used():
    # no linter runs on this package, so a name left imported after its last use is caught here
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # imports there are the public exports
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in used
        ]
    assert found == []


def test_only_cli_main_writes_to_the_terminal():
    # one output path: handlers return their reports and cli.main writes them
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            found += [
                f"{path.name}:{node.lineno} in {owner}"
                for node in ast.walk(top)
                if (isinstance(node, ast.Name) and node.id == "print")
                or (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("stdout", "stderr")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "sys"
                )
                if owner != "cli.main"
            ]
    assert found == []


def test_no_module_hashes_rows_with_tobytes():
    # rows are told apart by vectorized keys and checks, never hashed one at a time in Python
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "tobytes"
    ]
    assert found == []


def test_only_plan_sweep_names_a_skip():
    # one gate: every skip reason is decided in sweep.plan_sweep, before any instance runs
    reasons = ("exceeds q-cap", "odd extension degree", "degenerate defining set")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            found += [
                (owner, reason, f"{path.name}:{node.lineno} in {owner}")
                for node in ast.walk(top)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                for reason in reasons
                if reason in node.value
            ]
    assert [where for owner, _, where in found if owner != "sweep.plan_sweep"] == []
    assert {reason for _, reason, _ in found} == set(reasons)


def test_only_build_construction_reads_or_fills_a_pairwise_reference():
    # one owner of the first family's alpha != 0 sharing: build_construction alone runs the
    # scaling check and reads or fills the reference, and extraction is handed a distance
    names = {field.name for field in fields(ccc.PairwiseReference)} | {"scaling"}
    extractors = ("ccc._extract", "ccc.extract_subcode_first", "ccc.extract_subcode_second")
    found, parameters = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            found += [
                (owner, node.attr, f"{path.name}:{node.lineno} in {owner}")
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr in names
            ]
            if owner in extractors:
                parameters[owner] = [a.arg for a in ast.walk(top.args) if isinstance(a, ast.arg)]
    owners = ("ccc.build_construction", "ccc.PairwiseReference")  # the class reads its own field
    assert [where for owner, _, where in found if owner not in owners] == []
    assert {name for owner, name, _ in found if owner == "ccc.build_construction"} == names
    assert sorted(parameters) == sorted(extractors)
    assert [owner for owner, args in parameters.items() if "reference" in args] == []


def test_only_gfpm_turns_the_trace_form_into_arrays():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "gfpm.py":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            found += [
                (f"{path.stem}.{getattr(top, 'name', '<module>')}", f"{path.name}:{node.lineno}")
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr in ("trace_form", "digits")
            ]
    assert found == []


def test_readme_quickstart_prints_what_its_comments_say(capsys):
    # each print line of the README's python block ends in a comment with what it prints
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert expected and capsys.readouterr().out.splitlines() == expected


def test_readme_cli_lines_exit_zero(tmp_path, monkeypatch):
    # each tracecc line of the README's sh blocks runs as written, its trailing comment aside
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("tracecc ")]
    monkeypatch.chdir(tmp_path)
    codes = {line: cli.main(shlex.split(line, comments=True)[1:]) for line in lines}
    assert lines and codes == dict.fromkeys(lines, 0)

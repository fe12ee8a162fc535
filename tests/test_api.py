"""The top-level package surface, the README's library example, and the
modules each subcommand imports."""

import ast
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import sealedbid

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_resolve_sorted_and_at_most_31():
    names = sealedbid.__all__
    assert [name for name in names if not hasattr(sealedbid, name)] == []
    assert names == sorted(names)
    assert len(names) <= 31


def test_an_outcome_holds_only_what_callers_read():
    assert sealedbid.Outcome._fields == ("winner", "price")


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    with redirect_stdout(StringIO()):
        exec(compile(example, str(README), "exec"), {})


SRC = Path(sealedbid.__file__).resolve().parents[1]
# The names bench/tracer.py wraps on `sealedbid.cli`; it looks each one up there.
TRACED_ON_CLI = (
    "build_parser", "canonical_json", "check_truthfulness", "dispatch", "dominance_sweep",
    "find_counterexample", "outcome", "run_experiment", "write_rounds_csv",
)
RUN_AND_LIST_MODULES = """
import json, runpy, sys
sys.argv = ["sealedbid", *sys.argv[1:]]
try:
    runpy.run_module("sealedbid", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(json.dumps([exc.code, sorted(sys.modules)]), file=sys.stderr)
"""


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)


def modules_loaded_by(*argv: str, exit_code: int = 0) -> set:
    """The modules a fresh ``python -m sealedbid *argv`` holds when it exits."""
    child = fresh_python("-c", RUN_AND_LIST_MODULES, *argv)
    code, modules = json.loads(child.stderr.splitlines()[-1])
    assert code == exit_code
    return set(modules)


def test_dominance_loads_no_simulation_module():
    loaded = modules_loaded_by("dominance", "--n", "2", "--ticks", "2")
    assert "sealedbid.verify" in loaded
    assert loaded.isdisjoint({"sealedbid.simulate", "fractions", "csv", "heapq"})


def test_simulate_loads_no_verification_module(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_bidders": 2, "n_rounds": 5, "value_low": 0, "value_high": 3}))
    loaded = modules_loaded_by("simulate", str(config))
    assert "sealedbid.simulate" in loaded and "sealedbid.verify" not in loaded


# Each CLI start imports the package afresh, so nothing on its path may pull in
# `dataclasses`: it and the `inspect` it imports would add their import time to
# every invocation.
START_UP_FREE = {"dataclasses", "inspect"}


def test_building_the_parser_loads_no_dataclasses_or_inspect():
    child = fresh_python("-c", "import json, sys, sealedbid.cli\n"
                               "sealedbid.cli.build_parser()\n"
                               "print(json.dumps(sorted(sys.modules)))")
    assert child.returncode == 0, child.stderr
    assert START_UP_FREE.isdisjoint(json.loads(child.stdout))


@pytest.mark.parametrize("argv, exit_code", [
    (["validate", "{instance}"], 0),
    (["check", "{instance}"], 0),
    (["classify", "{instance}", "--bidder", "0", "--deviation", "5"], 0),
    (["dominance", "--n", "2", "--ticks", "2"], 0),
    (["falsify", "--n-max", "2", "--ticks", "1"], 1),  # first-price: a counterexample
    (["simulate", "{config}", "--csv", "{csv}"], 0),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path, argv, exit_code):
    paths = {"instance": tmp_path / "instance.json", "config": tmp_path / "config.json",
             "csv": tmp_path / "rounds.csv"}
    paths["instance"].write_text(json.dumps({"valuations": [3, 6, 4], "bids": [3, 5, 4]}))
    paths["config"].write_text(json.dumps({"n_bidders": 2, "n_rounds": 5,
                                           "value_low": 0, "value_high": 3}))
    argv = [arg.format(**paths) for arg in argv]
    assert START_UP_FREE.isdisjoint(modules_loaded_by(*argv, exit_code=exit_code))


def test_traced_cli_names_resolve_in_a_fresh_process():
    child = fresh_python("-c", "import sys, sealedbid.cli as cli\n"
                               "assert all(callable(getattr(cli, n)) for n in sys.argv[1:])",
                         *TRACED_ON_CLI)
    assert child.returncode == 0, child.stderr


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads: not as a name, nor inside a
    quoted annotation."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.parse(part.value, mode="eval")
                used |= {name.id for name in ast.walk(quoted) if isinstance(name, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted((SRC / "sealedbid").glob("*.py")), ids=lambda p: p.name)
def test_module_imports_nothing_it_does_not_use(path):
    assert unused_imports(path) == []


def test_every_export_is_read_by_the_library_or_documented():
    """No export is there for the tests alone: each is read by a package module
    other than ``__init__`` (as a loaded name, an attribute, or a word of a
    string constant, as the CLI names its deferred imports) or backquoted in
    README's Library section."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    read = set(re.findall(r"`(\w+)`", library.split("\n## ", 1)[0]))
    for path in set((SRC / "sealedbid").glob("*.py")) - {SRC / "sealedbid" / "__init__.py"}:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(node.value.split())
    assert [name for name in sealedbid.__all__ if name not in read] == []


TICK_FAULTS = ("non-integer tick (", "negative tick (", "tick too large (")


def functions_where(found) -> set:
    """The qualified names of the functions in whose own body a node is ``found``."""
    names = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            elif found(child):
                names.add(scope)
            else:
                visit(child, scope)

    for path in sorted((SRC / "sealedbid").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return names


# Per rule: a test of a string literal, or of an f-string's literal part, that
# words the rule, and the one function that states the rule.
RULE_WORDINGS = {
    "tick": (lambda text: text.startswith(TICK_FAULTS), "core.tick_violation"),
    "bidder-count": (lambda text: text.startswith("N >= 2 required"),
                     "core.bidder_count_violation"),
    "seed-range": (lambda text: text.endswith(" outside unsigned 64-bit range"),
                   "core.seed_violation"),
    "payment-rule": (lambda text: text.startswith("payment rule must be a PaymentRule member"),
                     "core.rule_violation"),
    "budget": (lambda text: text.startswith("budget must be nonnegative"), "core.budget_violation"),
    "case": (lambda text: text in ("win", "lose"), "verify.CaseTag.of"),
    "top-pick": (lambda text: text.endswith(", not a highest bidder"), "core.outcome"),
}


def compares_type_with_int(node) -> bool:
    """A ``type(...) is not int`` comparison."""
    return isinstance(node, ast.Compare) and bool(
        re.fullmatch(r"type\(.+\) is not int", ast.unparse(node)))


@pytest.mark.parametrize("rule", RULE_WORDINGS)
def test_each_rule_is_worded_in_one_function(rule):
    words, owner = RULE_WORDINGS[rule]
    assert functions_where(lambda node: isinstance(node, ast.Constant)
                           and isinstance(node.value, str) and words(node.value)) == {owner}


def reads_a_mixing_constant(node) -> bool:
    """A read of the splitmix64 finalizer's multiplier ``MIX_A`` or ``MIX_B``."""
    return (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id in ("MIX_A", "MIX_B"))


def test_the_splitmix64_step_is_written_in_one_function():
    assert functions_where(reads_a_mixing_constant) == {"seeding.splitmix64"}


def renders_a_rational(node) -> bool:
    """An f-string that reads both a ``.numerator`` and a ``.denominator``."""
    read = {part.attr for part in ast.walk(node) if isinstance(part, ast.Attribute)}
    return isinstance(node, ast.JoinedStr) and {"numerator", "denominator"} <= read


def test_the_rational_rule_is_written_in_one_function():
    # Besides the "p/q" rule of every document, only the shade strategy's refusal.
    assert functions_where(renders_a_rational) == {"core.Record.to_dict",
                                                   "simulate.Shade.__post_init__"}


def test_only_the_tick_and_integer_field_rules_test_for_an_int():
    assert functions_where(compares_type_with_int) == {"core.tick_violation", "core.integer_violation"}

"""Tests for the pipeline driver, ``run_pipeline``."""

import ast
import pathlib

import pytest

import repro
from repro.experiments.pipeline import run_pipeline
from repro.opt import optimize_module
from repro.workloads import benchmark_by_name

SRC = pathlib.Path(repro.__file__).parent

#: The only functions allowed to both profile and inline: the driver,
#: the differential oracle (an independent check of the driver's
#: output), and ``graph --dot`` (selection reasons only, no re-profile).
ALLOWED = {
    "repro.experiments.pipeline:run_pipeline",
    "repro.verify.differential:verify_inlining",
    "repro.cli:_cmd_graph",
}

PROFILERS = {"profile_module"}
INLINERS = {"inline_module", "InlineExpander"}


def _called_names(node: ast.AST) -> set[str]:
    names = set()
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name):
            names.add(func.id)
        elif isinstance(func, ast.Attribute):
            names.add(func.attr)
    return names


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{node.name}"
            yield name, node
            yield from _functions(node, f"{name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def _all_functions():
    """(``module:qualname``, node) of every function under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts).removesuffix(".__init__")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _functions(tree):
            yield f"{module}:{name}", node


class TestOneDriver:
    def test_only_the_driver_profiles_and_inlines(self):
        offenders = [
            name
            for name, node in _all_functions()
            if _called_names(node) & PROFILERS
            and _called_names(node) & INLINERS
            and name not in ALLOWED
        ]
        assert offenders == []

    def test_allowed_functions_exist(self):
        # A rename must not silently turn the allow-list into dead text.
        assert ALLOWED <= {name for name, _ in _all_functions()}


@pytest.fixture(scope="module")
def compress():
    benchmark = benchmark_by_name("compress")
    module = benchmark.compile()
    optimize_module(module)
    return module, benchmark.make_runs("small")[:2]


class TestDriver:
    def test_optimized_arm_is_no_larger_with_identical_outputs(self, compress):
        module, specs = compress
        plain = run_pipeline(module, specs, check_exit=False)
        optimized = run_pipeline(
            module, specs, optimize_after=True, check_exit=False
        )
        assert optimized.inline.records and plain.inline.records
        assert (
            optimized.inline.module.total_code_size()
            <= plain.inline.module.total_code_size()
        )
        assert optimized.post_profile.outputs == plain.post_profile.outputs
        assert plain.post_profile.outputs == plain.profile.outputs

    def test_input_module_is_left_unchanged(self, compress):
        module, specs = compress
        size = module.total_code_size()
        run = run_pipeline(module, specs, optimize_after=True)
        assert run.module is module
        assert module.total_code_size() == size

    def test_reused_profile_is_not_measured_again(self, compress):
        module, specs = compress
        first = run_pipeline(module, specs)
        again = run_pipeline(module, specs, profile=first.profile)
        assert again.profile is first.profile
        assert again.code_increase == first.code_increase
        assert again.call_decrease == first.call_decrease

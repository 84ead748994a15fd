"""What the benchmark in perfbench/ takes from the program, checked
without running it: the calls its tracer wraps, the arguments its hooks
read by name, the calls run.py makes and the attributes its manifest
reads.  perfbench/layers.py and perfbench/run.py are parsed, not
imported, so nothing is written under perfbench/.  The full check is
perfbench/smoke.py, which runs every workload (minutes, not tier-1).
"""
import ast
import importlib
import inspect
import os

import pytest

import mimoloc

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def parse(name):
    with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def assigned(tree, name):
    """The value node of the module-level assignment to name."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return node.value
    raise AssertionError(f"perfbench: no assignment to {name}")


def resolve(module, attr):
    owner = importlib.import_module(f"mimoloc.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


LAYERS = parse("layers.py")
LAYER_CALLS = ast.literal_eval(assigned(LAYERS, "LAYER_CALLS"))
TARGETS = {span: (module, attr) for span, module, attr in LAYER_CALLS}


def hook_reads():
    """span name -> the argument names its hook reads as args["name"]."""
    hooks = assigned(LAYERS, "HOOKS")
    funcs = {f.name: f for f in LAYERS.body
             if isinstance(f, ast.FunctionDef)}
    reads = {}
    for key, value in zip(hooks.keys, hooks.values):
        func = funcs[value.id]
        args = func.args.args[0].arg
        reads[key.value] = {
            node.slice.value for node in ast.walk(func)
            if isinstance(node, ast.Subscript)
            and getattr(node.value, "id", None) == args
            and isinstance(node.slice, ast.Constant)}
    return reads


HOOK_READS = hook_reads()


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_layer_call_resolves(span):
    assert callable(resolve(*TARGETS[span]))


@pytest.mark.parametrize("span", sorted(HOOK_READS))
def test_hook_arguments_bind(span):
    params = inspect.signature(resolve(*TARGETS[span])).parameters
    assert HOOK_READS[span] <= set(params)


def test_hooks_read_the_known_arguments():
    # the parse above finds every argument the hooks read today
    read = set().union(*HOOK_READS.values())
    assert {"obs_matrix", "corr", "n0", "taps", "energy", "cross_out",
            "ll_out", "fld", "cache", "n_targets"} <= read


def program_calls():
    """(name, call node) of each call run.py makes into the program's
    public API, mimoloc.name(...) or self.m.name(...)."""
    out = []
    for node in ast.walk(parse("run.py")):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if (getattr(owner, "id", None) == "mimoloc"
                or (isinstance(owner, ast.Attribute) and owner.attr == "m"
                    and getattr(owner.value, "id", None) == "self")):
            out.append((node.func.attr, node))
    return out


PROGRAM_CALLS = program_calls()


def test_run_calls_the_program():
    names = {name for name, _ in PROGRAM_CALLS}
    assert {"calibrate_threshold", "run_sweep", "load_scenario",
            "RunContext", "ThresholdConfig"} <= names


@pytest.mark.parametrize("name, call", PROGRAM_CALLS,
                         ids=[name for name, _ in PROGRAM_CALLS])
def test_run_call_binds(name, call):
    # calibrate_threshold(..., cache=) and run_sweep(..., ctx=) among them
    assert not any(isinstance(a, ast.Starred) for a in call.args)
    assert all(k.arg is not None for k in call.keywords)
    inspect.signature(getattr(mimoloc, name)).bind(
        *call.args, **{k.arg: k.value for k in call.keywords})


def test_manifest_attributes():
    assert isinstance(mimoloc.KERNEL_BACKEND, str)
    assert mimoloc.likelihood._FFT_WORKERS >= 1

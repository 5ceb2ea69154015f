"""Smoke tests: the gallery scripts and the benchmark tracer run against the
current package API, and every name the package exports resolves and has a
use outside the tests."""

import ast
import functools
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import a2w

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_constant_estimates_gallery():
    lines = run_script("constant_estimates.py")
    rows = lines[2:]
    assert [r[:28].strip() for r in rows] == [
        "scalar |x|^(1/2)", "2x2 power matrix", "3x3 power matrix",
        "rotation, equal exponents", "planar radial ||x||^(1/2)"]
    assert all(r.split()[-4] == "a2" for r in rows)
    scalar = rows[0].split()
    assert scalar[-3] == scalar[-1] == "1.33333"
    assert rows[1].split()[-3:-1] == ["13.2075", "51.4732"]


def test_divergence_sweep_few_points():
    lines = run_script("divergence_sweep.py", "--points", "2")
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 6
    assert all(float(r[2]) > 0.0 for r in rows)


def test_every_exported_name_resolves():
    # a deletion that leaves its name behind in an __all__ fails here
    modules = [a2w] + [importlib.import_module(f"a2w.{m.name}")
                       for m in pkgutil.iter_modules(a2w.__path__)]
    assert len(modules) == 13
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_regions_and_scalar_power_load_no_search():
    # the package loads a module on first use of one of its names, so a
    # module that takes a region need not load the search
    code = "\n".join([
        "import sys; sys.path[:0] = ['src']",
        "import a2w.regions",
        "print(sorted(m for m in sys.modules if m.startswith('a2w')))",
        "import a2w.scalar_power",
        "print('a2w.search' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['a2w', 'a2w.regions']", "False"]


def _code_lines(path: Path) -> list[tuple[str, set[str]]]:
    """path's lines, each with the names whose def or class line it is,
    leaving out __all__ lists and import statements."""
    text = path.read_text(encoding="utf-8")
    skip, defines = set(), {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            skip.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defines.setdefault(node.lineno, set()).add(node.name)
    return [(line, defines.get(k, set()))
            for k, line in enumerate(text.splitlines(), 1) if k not in skip]


def _public_members(cls) -> list[str]:
    """The public methods and properties that cls defines itself."""
    return [name for name, member in vars(cls).items() if not name.startswith("_")
            and (inspect.isfunction(member) or isinstance(
                member, (property, functools.cached_property, classmethod, staticmethod)))]


def test_every_exported_name_has_a_use_outside_the_tests():
    # the package's own modules (its __init__ re-exports only), the
    # gallery scripts and the benchmark tracer; a name that only tests
    # call is dead API. So is a public method or property of an exported
    # class that no line reads as an attribute (.name).
    paths = [p for p in sorted((ROOT / "src" / "a2w").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "a2wbench" / "tracing.py"]
    lines = [entry for p in paths for entry in _code_lines(p)]
    modules = [a2w] + [importlib.import_module(f"a2w.{m.name}")
                       for m in pkgutil.iter_modules(a2w.__path__)]
    names = sorted({name for mod in modules for name in mod.__all__})
    unused = [name for name in names
              if not any(re.search(rf"\b{re.escape(name)}\b", line) and name not in own
                         for line, own in lines)]
    classes = {getattr(mod, name) for mod in modules for name in mod.__all__
               if inspect.isclass(getattr(mod, name))}
    unused += sorted(f"{cls.__name__}.{member}" for cls in classes
                     for member in _public_members(cls)
                     if not any(re.search(rf"\.{member}\b", line) for line, _ in lines))
    assert unused == []


def test_every_private_definition_has_a_use_outside_its_body():
    # a private module-level function or class of the package that no
    # code outside its own body names is dead, or lives on for the tests
    # alone. Uses are names and attributes in the syntax tree of the
    # package, the gallery scripts and the benchmark tracer: a comment,
    # docstring or import is not one. A dunder such as the package's
    # module __getattr__ is called by Python, not by name, so it is not
    # private.
    package = sorted((ROOT / "src" / "a2w").glob("*.py"))
    paths = package + sorted((ROOT / "scripts").glob("*.py")) + \
        [ROOT / "a2wbench" / "tracing.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    uses = [(p, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for p, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    private = [(p, node) for p in package for node in trees[p].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert len(private) > 50
    unused = [f"{p.stem}.{node.name}" for p, node in private
              if not any(name == node.name
                         and not (q == p and node.lineno <= line <= node.end_lineno)
                         for q, line, name in uses)]
    assert unused == []


def test_benchmark_tracer_finds_every_name_it_wraps():
    # install() rebinds a2w names for the whole process, so it runs apart.
    # A traced divergence run must still feed the quadrature counters.
    code = "\n".join([
        "import sys; sys.path[:0] = ['a2wbench', 'src']",
        "from tracing import Tracer; from a2w import cli",
        "tracer = Tracer(); tracer.install()",
        "tracer.run_op(0, cli.main, ['divergence', '--gamma1=-1/2', '--gamma2=1/2',"
        " '--points=2', '--n-min=100', '--n-max=200', '--json'])",
        "m = tracer.layer_metrics(1)",
        "print(m['quadrature.adaptive_quad.calls'][0], m['type2.unitary_stack.calls'][0])",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    quad_calls, stack_calls = (float(v) for v in proc.stdout.split()[-2:])
    assert quad_calls > 0 and stack_calls > 0


def test_benchmark_tracer_counts_a_rotation_constant(tmp_path):
    # The tracer binds estimator.average_numeric, estimator.run_interval_search,
    # search.golden_max, type2.unitary_stack and quadrature.adaptive_quad by
    # name; a traced constant run must still count every evaluation and node.
    spec = tmp_path / "rotation.json"
    spec.write_text(json.dumps({"kind": "type2", "alphas": [3.0, 9.0],
                                "gammas": ["1/4", "1/4"], "unitary": "rotation2d"}))
    code = "\n".join([
        "import sys; sys.path[:0] = ['a2wbench', 'src']",
        "from tracing import Tracer; from a2w import cli",
        "tracer = Tracer(); tracer.install()",
        f"rc = tracer.run_op(0, cli.main, ['constant', {str(spec)!r}, '--json'])",
        "m = tracer.layer_metrics(1)",
        "print(rc, m['search.evaluations'][0], m['type2.unitary_stack.nodes'][0],"
        " m['search.refine_evaluations'][0])",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, evaluations, nodes, refined = proc.stdout.split()[-4:]
    # 16 nodes for the Fourier coefficients, 20 per Gauss-rule interval
    assert (int(rc), float(evaluations), float(nodes)) == (0, 205, 1816)
    # the 8 golden rounds and their 2 starting points; the lookahead
    # stacks that score them ahead are not evaluations
    assert float(refined) == 10


def test_benchmark_tracer_times_the_radial_cube_stack(tmp_path):
    # The tracer binds multivar.average_type1b by name, and the cube estimate
    # averages W and W^-1 on its one unit cube through it once, as one
    # stack; a traced type1b constant run must count that call and its time.
    spec = tmp_path / "radial.json"
    spec.write_text(json.dumps({"kind": "type1b", "coeff": [[2, 1], [1, 2]], "d": 2,
                                "diag_exponents": ["-1/3", "1/2"]}))
    code = "\n".join([
        "import sys; sys.path[:0] = ['a2wbench', 'src']",
        "from tracing import Tracer; from a2w import cli",
        "tracer = Tracer(); tracer.install()",
        f"rc = tracer.run_op(0, cli.main, ['constant', {str(spec)!r}, '--json'])",
        "m = tracer.layer_metrics(1)",
        "print(rc, m['multivar.average_type1b.calls'][0], m['multivar.average_type1b.s'][0])",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, calls, seconds = proc.stdout.split()[-3:]
    assert (int(rc), float(calls)) == (0, 1)
    assert float(seconds) > 0.0


def test_benchmark_tracer_counts_the_functionals_checks(tmp_path):
    # The tracer binds linalg.as_hermitian by name, and the weight's
    # builder, the decision and the functionals' pair check all call it:
    # 2 outside the estimate (the builder and the decision, which the
    # closed-form bound reads back from the weight), then one for the
    # anchored shape, the one value a power matrix scores. That is
    # estimate_a2's one value, not the run_interval_search the tracer
    # wraps, so the tracer counts no search evaluations.
    spec = tmp_path / "w2.json"
    spec.write_text(json.dumps({"kind": "type1", "coeff": [[5, 3], [3, 2]],
                                "diag_exponents": ["1/2", "-2/3"]}))
    code = "\n".join([
        "import sys; sys.path[:0] = ['a2wbench', 'src']",
        "from tracing import Tracer; from a2w import cli",
        "tracer = Tracer(); tracer.install()",
        f"rc = tracer.run_op(0, cli.main, ['constant', {str(spec)!r}, '--json',"
        " '--functional', 'norm'])",
        "m = tracer.layer_metrics(1)",
        "print(rc, m['linalg.as_hermitian.calls'][0], m['search.evaluations'][0],"
        " m['search.refine_evaluations'][0])",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, checks, evaluations, refined = proc.stdout.split()[-4:]
    assert (int(rc), float(evaluations), float(refined)) == (0, 0, 0)
    assert float(checks) == 2 + 1

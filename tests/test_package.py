import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import cyl
from recorded_outputs import COMMANDS

# every parameter of a function in src/cyl that has a default, as
# module.function.param: a settable value with one value in use is a
# constant, so a change that adds an option adds it here, where its diff
# shows it
OPTIONS = {
    "cyl.acceptance.run_acceptance.indices",
    "cyl.acceptance.run_acceptance.printer",
    "cyl.cli.main.argv",
    "cyl.config.RunConfig.resolve_out_dir.cli_out",
    "cyl.constants.bubble.eps",
    "cyl.geometry.cnc.RadialCNCProfile.jet.order",
    "cyl.geometry.curvature.curvature_at.h_fd",
    "cyl.geometry.links.sphere_points.seed",
    "cyl.green.AssembledGreen.__init__.harmonic",
    "cyl.green._sym_directions.n",
    "cyl.green.extract_mass.eps0",
    "cyl.green.extract_mass.profile",
    "cyl.green.parametrix_residual.with_cnc",
    "cyl.minmax._LegBatch.__init__.chart",
    "cyl.minmax._LegBatch.__init__.curvature",
    "cyl.minmax.build_path.mu_grid",
    "cyl.minmax.fit_expansion_A.spec",
    "cyl.quadrature.IntegralResult.expect.what",
    "cyl.quadrature._seed_breaks.transform",
    "cyl.quadrature._panels_2d.par",
    "cyl.quadrature._panels_2d.ends",
    "cyl.quadrature._adapt.params",
    "cyl.quadrature._integrate_2d.params",
    "cyl.quadrature.integrate_biradial.zeta_domain",
    "cyl.quadrature.integrate_biradial.rho_domain",
    "cyl.quadrature.integrate_biradial.params",
    "cyl.quadrature.build_frozen_mesh.zeta_domain",
    "cyl.quadrature.build_frozen_mesh.rho_domain",
    "cyl.quadrature.build_frozen_mesh.params",
}


def test_every_all_name_resolves():
    # a def deleted without its __all__ entry breaks `from module import *`
    modules = [cyl] + [importlib.import_module(info.name) for info in
                       pkgutil.walk_packages(cyl.__path__, "cyl.")]
    names = {m.__name__ for m in modules}
    assert {"cyl.minmax", "cyl.green", "cyl.geometry.links"} <= names
    stale = [f"{m.__name__}.{name}" for m in modules
             for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert stale == []


def _defaulted_parameters(node, prefix):
    """module.function.param of each defaulted parameter of the functions
    under ``node``, methods and nested functions included; a lambda's
    default binds a loop variable and is no option."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            positional = a.posonlyargs + a.args
            with_default = positional[len(positional) - len(a.defaults):] + [
                arg for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None]
            yield from (f"{prefix}{child.name}.{arg.arg}"
                        for arg in with_default)
            yield from _defaulted_parameters(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, f"{prefix}{child.name}.")
        else:
            yield from _defaulted_parameters(child, prefix)


def _source_trees():
    """(module name, parsed source) of every module of src/cyl."""
    root = Path(cyl.__path__[0])
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        yield module, ast.parse(path.read_text())


def test_every_option_is_on_the_committed_list():
    found = set()
    for module, tree in _source_trees():
        found.update(_defaulted_parameters(tree, f"{module}."))
    assert sorted(found - OPTIONS) == [], "a new option: list it in OPTIONS"
    assert sorted(OPTIONS - found) == [], "an option is gone: drop it here"


# a leg or a chart carries its own behaviour, so no code chooses one by
# comparing its name; names are parsed only by the command line, the config
# and the two sweeps that take a model or kind name as their argument
NAMES = {"DOUBLE", "INTERP", "GLUED", "flat", "round"}
NAME_FIELDS = {"variant", "kind"}
NAME_PARSES = ("cyl.cli.", "cyl.config.", "cyl.green.mass_divergence_sweep.",
               "cyl.interaction.asymptotic_slope.")


def _name_comparisons(node, prefix):
    """module.function:line of each ==, != or (not) in under ``node`` that
    compares a ``.variant`` or ``.kind`` or a leg or chart name literal."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from _name_comparisons(child, f"{prefix}{child.name}.")
            continue
        if isinstance(child, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                for op in child.ops):
            if any((isinstance(sub, ast.Attribute)
                    and sub.attr in NAME_FIELDS)
                   or (isinstance(sub, ast.Constant)
                       and isinstance(sub.value, str) and sub.value in NAMES)
                   for operand in (child.left, *child.comparators)
                   for sub in ast.walk(operand)):
                yield f"{prefix}:{child.lineno}"
        yield from _name_comparisons(child, prefix)


def test_the_name_gate_sees_each_form_of_comparison():
    code = ("def f(leg, chart, x):\n"
            "    a = leg.variant == x\n"
            "    b = 'flat' != chart.name\n"
            "    if x not in ('GLUED', 'INTERP'):\n"
            "        return chart.kind in x\n"
            "    return a, b, leg.variant, x == 'flat-cone', x < 'round'\n")
    assert list(_name_comparisons(ast.parse(code), "m.")) == [
        "m.f.:2", "m.f.:3", "m.f.:4", "m.f.:5"]


def test_no_code_chooses_behaviour_by_a_leg_or_chart_name():
    sites = [site for module, tree in _source_trees()
             for site in _name_comparisons(tree, f"{module}.")
             if not site.startswith(NAME_PARSES)]
    assert sites == []


def test_no_module_loads_scipy_at_import():
    # SciPy costs most of a cold start; each routine is imported by the one
    # function that calls it, so importing the package loads none of it
    code = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {os.path.dirname(cyl.__path__[0])!r})\n"
        "import cyl\n"
        "names = [i.name for i in pkgutil.walk_packages(cyl.__path__, 'cyl.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "assert {'cyl.minmax', 'cyl.green', 'cyl.cli'} <= set(names), names\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_green_and_glued_paths_stay_off_scipy_interpolate():
    # the Green modes are closed forms, so the mass sweep and the glued
    # data load no SciPy module at all, interpolate or linalg
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(cyl.__path__[0])!r})\n"
        "from cyl.green import mass_divergence_sweep\n"
        "from cyl.minmax import glued_data\n"
        "row, = mass_divergence_sweep('football', [0.05], 0.8)\n"
        "data = glued_data(1e-3, 0.3, 0.05)\n"
        "assert row['A_q'] > 0.0 and 0.0 < data.s_tau < data.s_2tau\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_path_legs_load_no_scipy():
    # one point per leg, DOUBLE, INTERP and GLUED: the legs' integrands and
    # the gbar radius of the glued data are NumPy alone
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(cyl.__path__[0])!r})\n"
        "from cyl.minmax import PathConfig, build_path\n"
        "prof = build_path(PathConfig(), [0.5, 1.5, 2.4])\n"
        "assert prof.legs == ['DOUBLE', 'INTERP', 'GLUED'], prof.legs\n"
        "assert prof.converged.all()\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_link_and_chart_commands_load_no_scipy(tmp_path):
    # the link flow is closed form and the CNC chart is elementary, so
    # gauge-verify and cnc-verify load no SciPy module at all
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(cyl.__path__[0])!r})\n"
        "from cyl.cli import main\n"
        "for command in ('gauge-verify', 'cnc-verify'):\n"
        f"    assert main(['--out', {str(tmp_path)!r}, command]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_no_command_loads_scipy(tmp_path):
    # the Green modes are closed forms and every other layer is NumPy alone,
    # so the six default commands, in one process, load no SciPy module
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(cyl.__path__[0])!r})\n"
        "from cyl.cli import main\n"
        f"for command in {COMMANDS!r}:\n"
        f"    assert main(['--out', {str(tmp_path)!r}, command]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.strip().splitlines()[-1] == "[]"

import importlib
import os
import pkgutil
import subprocess
import sys

import cyl


def test_every_all_name_resolves():
    # a def deleted without its __all__ entry breaks `from module import *`
    modules = [cyl] + [importlib.import_module(info.name) for info in
                       pkgutil.walk_packages(cyl.__path__, "cyl.")]
    names = {m.__name__ for m in modules}
    assert {"cyl.minmax", "cyl.green", "cyl.geometry.links"} <= names
    stale = [f"{m.__name__}.{name}" for m in modules
             for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert stale == []


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
    # the mode sum, the gbar-radius inversion and the glued leg's rho are
    # in-house splines; LAPACK's gtsv (scipy.linalg.lapack) may load
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(cyl.__path__[0])!r})\n"
        "from cyl.green import mass_divergence_sweep\n"
        "from cyl.minmax import glued_data\n"
        "row, = mass_divergence_sweep('football', [0.05], 0.8)\n"
        "data = glued_data(1e-3, 0.3, 0.05)\n"
        "assert row['A_q'] > 0.0 and 0.0 < data.s_tau < data.s_2tau\n"
        "print('scipy.interpolate' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


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

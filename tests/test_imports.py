"""Each module imports on its own: the package root imports nothing, so an
import cycle between modules cannot hide behind the order it once set.  The
CLI loads no process pool until ``ablate`` starts one.  And no module logs or
reads the environment."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pdalab

SRC = Path(pdalab.__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(pdalab.__path__))


def test_every_module_imports_alone_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = {"": "import sys, pdalab; print(sorted(m for m in sys.modules if 'pdalab' in m))",
              "pool": "import sys, pdalab.cli; print(sorted(m for m in sys.modules if "
                      "m.split('.')[0] in ('multiprocessing', 'concurrent')))",
              **{m: f"import pdalab.{m}" for m in MODULES}}
    procs = {m: subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for m, code in script.items()}
    results = {m: (*p.communicate(), p.returncode) for m, p in procs.items()}
    assert {"cli", "config", "tensor"} <= set(MODULES)  # discovery found the package
    assert {m: err for m, (_, err, code) in results.items() if code} == {}
    assert results[""][0] == "['pdalab']\n"  # the root alone pulls in no module
    assert results["pool"][0] == "[]\n"  # only ablate, which starts a pool, loads one


def test_no_module_logs_or_reads_the_environment():
    """The config file and the flags stay the only inputs that steer a run."""
    uses = []
    for path in sorted((SRC / "pdalab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0], *(a.name for a in node.names)]
            else:  # an attribute (os.environ) or a bare name
                names = [getattr(node, "attr", None) or getattr(node, "id", None)]
            uses += [f"{path.name}:{node.lineno}: {name}" for name in names
                     if name in {"logging", "environ", "getenv"}]
    assert uses == []

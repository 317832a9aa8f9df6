"""The package's public surface and what importing it does.

The benchmark's traced run wraps each listed name with `getattr`, so a
name left in `__all__` after its function is deleted would break it.

The package loads its modules on first use, so `raketab.cli` can choose
numpy's BLAS thread count before numpy loads. Those checks run in a fresh
interpreter each, since this one has loaded numpy and raketab already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raketab as rt

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# prints the environment, whether numpy is loaded and the process's OS threads
REPORT = (
    "import json, os, sys; print(json.dumps({'env': dict(os.environ), "
    "'numpy': 'numpy' in sys.modules, 'threads': len(os.listdir('/proc/self/task'))}))"
)
linux_only = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)


def fresh_env(**env):
    """This environment with src on the path and no BLAS thread variable
    but those in `env`."""
    environ = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [environ.get("PYTHONPATH")])])
    return dict(environ, **env)


def fresh(code, **env):
    """Run `code` in a new interpreter under fresh_env(**env); return what
    it prints, read as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(**env), capture_output=True, text=True,
        check=True,
    )
    return json.loads(out.stdout)


def openblas_pool():
    """Whether numpy's BLAS is OpenBLAS with room for a two-thread pool."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in name and len(os.sched_getaffinity(0)) >= 2


def test_all_names_resolve_once():
    assert len(set(rt.__all__)) == len(rt.__all__)
    missing = [name for name in rt.__all__ if not hasattr(rt, name)]
    assert missing == []


def test_a_resolved_name_is_stored_in_the_package():
    assert vars(rt)["rake"] is rt.rake is rt.raking.rake
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rt.no_such_name


def test_star_import_binds_every_public_name():
    report = fresh(
        "import json, raketab; listed = set(dir(raketab)); from raketab import *; "
        "print(json.dumps({'unbound': [n for n in raketab.__all__ if n not in globals()], "
        "'unlisted': [n for n in raketab.__all__ if n not in listed]}))"
    )
    assert report == {"unbound": [], "unlisted": []}


def test_import_raketab_loads_no_numpy_and_leaves_the_environment():
    before = fresh(REPORT)
    assert fresh("import raketab; " + REPORT) == before
    assert not before["numpy"]
    used = fresh("import raketab; raketab.rake; " + REPORT)
    assert used["env"] == before["env"] and used["numpy"]


@linux_only
def test_cli_runs_blas_on_one_thread():
    report = fresh("import raketab.cli; " + REPORT)
    assert report["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert report["threads"] == 1


@linux_only
@pytest.mark.skipif(not openblas_pool(), reason="needs OpenBLAS and two CPUs")
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_keeps_the_callers_blas_threads(variable):
    report = fresh("import raketab.cli; " + REPORT, **{variable: "2"})
    assert {k: report["env"].get(k) for k in BLAS_VARIABLES} == {
        k: "2" if k == variable else None for k in BLAS_VARIABLES
    }
    assert report["threads"] == 2


def test_cli_after_numpy_leaves_the_environment():
    report = fresh(
        "import json, os, numpy; before = dict(os.environ); import raketab.cli; "
        "print(json.dumps(before == dict(os.environ)))"
    )
    assert report is True

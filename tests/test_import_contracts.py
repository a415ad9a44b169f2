"""What importing the package loads, and what forked workers import.

Each test runs a fresh interpreter, so the modules the rest of the suite
has loaded cannot hide an import.

* The packet-trace path (the Sec. I monitoring use case) needs only
  NumPy: importing it loads no SciPy and none of the science modules.
* The science modules load before a pool forks, so forked workers
  inherit them instead of each importing them again: a campaign cell and
  a ``run all`` figure import nothing the parent did not.
* The package loads no SciPy at all: its root finder and minimiser
  (:mod:`repro.utils.brent`) and its normal CDF, log-gamma and digamma
  (:mod:`repro.utils.special`) are ports, and fGn runs on ``numpy.fft``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: The modules the ``trace-monitor`` benchmark imports, in its order.
TRACE_PATH = (
    "repro",
    "repro.traffic.synthetic",
    "repro.trace.io",
    "repro.trace.binning",
    "repro.core.streaming",
    "repro.parallel.streaming",
    "repro.queueing.simulation",
)

#: Science modules the packet-trace path must not load.
SCIENCE = (
    "repro.traffic.fgn",
    "repro.traffic.copula",
    "repro.core.bss",
    "repro.core.parameters",
    "repro.hurst",
    "repro.analysis",
)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


def _run(code: str, *args: str) -> object:
    """Run ``code`` in a fresh interpreter importing ``repro`` from this
    checkout; return the JSON its last stdout line holds."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1])\n"
         + code, str(SRC), *args],
        check=True, capture_output=True, text=True, timeout=300,
    )
    return json.loads(result.stdout.splitlines()[-1])


def _is_or_under(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def test_trace_path_loads_no_scipy():
    loaded = _run(
        "import importlib, json\n"
        "for name in sys.argv[2:]:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        *TRACE_PATH,
    )
    assert set(TRACE_PATH) <= set(loaded)
    assert [m for m in loaded if _is_or_under(m, ("scipy",))] == []
    assert [m for m in loaded if _is_or_under(m, SCIENCE)] == []


def test_package_loads_no_scipy_solvers():
    """Every module of the package, then a call into each one that used
    to reach SciPy: its solvers, fGn, and the three special functions
    (``ndtr`` through the copula, ``gammaln`` through Eq. 11, ``digamma``
    through the wavelet logscale diagram)."""
    names, loaded = _run(
        "import importlib, json, pkgutil\n"
        "import numpy as np\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "from repro.analysis.theory import simple_random_sampled_acf\n"
        "from repro.core.parameters import epsilon_roots\n"
        "from repro.experiments import fig14, fig16\n"
        "from repro.hurst.wavelet import logscale_diagram\n"
        "from repro.hurst.whittle import fgn_whittle_hurst, local_whittle_hurst\n"
        "from repro.traffic.copula import ParetoLRDModel\n"
        "from repro.traffic.fgn import fgn_davies_harte\n"
        "values = fgn_davies_harte(1024, 0.8, 1)\n"
        "epsilon_roots(10, 1.5, 0.148)\n"
        "fig14._eps_for_xi(5, 1.4)\n"
        "fig16.eps_for_xi_at_l(1.2, 10, 1.5)\n"
        "fgn_whittle_hurst(values)\n"
        "local_whittle_hurst(values)\n"
        "logscale_diagram(values)\n"
        "ParetoLRDModel.from_mean(5.0, 1.5, 0.8).generate(1024, 1)\n"
        "simple_random_sampled_acf([90, 512], 0.1, 0.5)\n"
        "print(json.dumps([names, sorted(sys.modules)]))\n",
    )
    assert {"repro.utils.brent", "repro.utils.special", "repro.hurst.wavelet",
            "repro.experiments.fig16", "repro.scenarios.campaign"} <= set(names)
    assert set(names) <= set(loaded)
    assert [m for m in loaded if _is_or_under(m, ("scipy",))] == []


@needs_fork
def test_campaign_cell_in_a_forked_worker_imports_nothing():
    """One cell of each built-in scenario, in a child forked after the
    campaign module loads, as the campaign's pool forks its workers."""
    new = _run(
        "import json, os, traceback\n"
        "from repro.scenarios.campaign import evaluate_cell, expand_cells\n"
        "from repro.scenarios.registry import available_scenarios\n"
        "cells = [expand_cells([name])[0] for name in available_scenarios()]\n"
        "before = set(sys.modules)\n"
        "read, write = os.pipe()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    status = 1\n"
        "    try:\n"
        "        for cell in cells:\n"
        "            evaluate_cell(cell, campaign='imports')\n"
        "        new = sorted(set(sys.modules) - before)\n"
        "        os.write(write, json.dumps(new).encode())\n"
        "        status = 0\n"
        "    except Exception:\n"
        "        traceback.print_exc()\n"
        "    finally:\n"
        "        os._exit(status)\n"
        "os.close(write)\n"
        "with os.fdopen(read) as pipe:\n"
        "    out = pipe.read()\n"
        "assert os.waitpid(pid, 0)[1] == 0, 'the forked child failed'\n"
        "print(out)\n",
    )
    assert [m for m in new if _is_or_under(m, ("repro", "numpy", "scipy"))] == []


@needs_fork
def test_run_all_workers_import_only_their_figures():
    """``run all --workers 2`` through the CLI, with each task reporting
    the modules its pool worker imported since the fork."""
    new = _run(
        "import contextlib, io, json\n"
        "import repro.parallel\n"
        "from repro.experiments.__main__ import main\n"
        "dispatch = repro.parallel.run_shards\n"
        "imported = set()\n"
        "at_fork = set()\n"
        "def probe(fn, *task):\n"
        "    result = fn(*task)\n"
        "    return result, sorted(set(sys.modules) - at_fork)\n"
        "def run_shards(fn, tasks):\n"
        "    at_fork.update(sys.modules)\n"
        "    for result, new in dispatch(probe, [(fn, *t) for t in tasks]):\n"
        "        imported.update(new)\n"
        "        yield result\n"
        "repro.parallel.run_shards = run_shards\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['run', 'all', '--scale', '0.02', '--workers', '2'])\n"
        "print(json.dumps(sorted(imported)))\n",
    )
    figure_modules = [
        m for m in new
        if m.startswith("repro.experiments.fig")
        or m == "repro.experiments._bss_sweeps"
    ]
    assert [m for m in new if m.startswith("repro.")] == figure_modules
    assert [m for m in new if _is_or_under(m, ("numpy", "scipy"))] == []

"""Import cost: loading canm pulls in no SciPy module. scipy.special comes
with the first Pearson test, scipy.spatial with the first k-NN tree; each
takes a large share of a process's start-up, so a ``canm`` command that
needs neither must not pay for it."""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import canm, canm.cli, canm.harness
report = {"at_import": scipy_modules()}

from canm.graph import Dag
from canm.independence import data_ci_test, oracle_ci_test
oracle_ci_test(Dag(2, {(0, 1)}))
report["after_oracle"] = scipy_modules()
data_ci_test("dcorr")
report["after_dcorr"] = scipy_modules()
data_ci_test("pearson")
report["after_pearson"] = "scipy.special" in sys.modules

import numpy as np
from canm.estimation import KnnEquation
rng = np.random.default_rng(0)
x = rng.standard_normal((50, 2))
eq = KnnEquation(0, frozenset({0, 1}), 5, x, x.sum(axis=1), np.zeros(2), np.ones(2))
eq.predict(x[:3])
report["after_knn"] = "scipy.spatial" in sys.modules
print(json.dumps(report))
"""


def probe():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_import_loads_neither_scipy_stats_nor_spatial():
    report = probe()
    assert report["at_import"] == []
    # the k-NN regressor loads scipy.spatial when it builds its first tree
    assert report["after_knn"]


def test_only_a_pearson_test_loads_scipy_special():
    report = probe()
    assert report["after_oracle"] == [] and report["after_dcorr"] == []
    assert report["after_pearson"]

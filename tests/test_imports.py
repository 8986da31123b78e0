"""Import cost: loading canm pulls in scipy.special only. scipy.stats and
scipy.spatial each take a large share of a process's start-up, so every
``canm`` command would pay for them."""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import json, sys
import canm, canm.cli, canm.harness
at_import = sorted(m for m in sys.modules if m.startswith("scipy."))

import numpy as np
from canm.estimation import KnnEquation
rng = np.random.default_rng(0)
x = rng.standard_normal((50, 2))
eq = KnnEquation(0, frozenset({0, 1}), 5, x, x.sum(axis=1), np.zeros(2), np.ones(2))
eq.predict(x[:3])
print(json.dumps({"at_import": at_import, "after_knn": "scipy.spatial" in sys.modules}))
"""


def probe():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_import_loads_neither_scipy_stats_nor_spatial():
    report = probe()
    loaded = report["at_import"]
    assert "scipy.special" in loaded
    for heavy in ("scipy.stats", "scipy.spatial"):
        assert not any(m == heavy or m.startswith(heavy + ".") for m in loaded), heavy
    # the k-NN regressor loads scipy.spatial when it builds its first tree
    assert report["after_knn"]

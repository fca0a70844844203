#!/usr/bin/env python3
"""Fixed reference work for scaling wall times to the host's current speed.

    python3 perfbench/calibrate.py

Independent of ``ebct``: interpreter start, the numpy/scipy import, small
dense linear algebra and an interpreted loop, in proportions like those of the
CLI runs. The benchmark spawns it next to every workload invocation; see
``wall_s`` in ``perfbench/GLOSSARY.md``.
"""

import numpy as np
import scipy.linalg

rng = np.random.default_rng(0)
g = rng.standard_normal((1000, 21))
gamma = np.zeros(21)
for _ in range(60):
    s = g @ gamma
    w = np.exp(s - s.max())
    w /= w.sum()
    mean = g.T @ w
    hessian = (g * w[:, None]).T @ g - np.outer(mean, mean) + 1e-9 * np.eye(21)
    gamma -= 0.1 * scipy.linalg.cho_solve(scipy.linalg.cho_factor(hessian), mean)
rows = [",".join(repr(float(v)) for v in row) for row in g[:150]]
total = sum(float(cell) for row in rows for cell in row.split(","))

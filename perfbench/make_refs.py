"""Writes refs.json: the expected value of every number any workload plan prints.

    PYTHONPATH=src python3 perfbench/make_refs.py

f_eig references come from an independent LAPACK solve, not from the
program: the kernel A[k, k'] = s_k s_k' a_|k-k'|, with s = sqrt(b_M) and a the
autocorrelation of sqrt(b_N), is rebuilt here from math.lgamma and its largest
eigenvalue taken with scipy.linalg.eig_banded. Rows where s_k < 1e-17 max(s)
are dropped first: their entries are below 1e-17 of the largest, so by Weyl's
inequality the eigenvalue moves by less than ~1e-15 relative, and without
them LAPACK does not run into subnormal arithmetic. The other references are
the program's own full-precision values at the commit that runs this script.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import eig_banded

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, atoms, plan, rule_lambda  # noqa: E402
from check import Checker  # noqa: E402


def log_binomial(n: int) -> np.ndarray:
    """log(C(n, k) / 2^n) for k = 0..n."""
    top = math.lgamma(n + 1) - n * math.log(2.0)
    return np.array([top - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in range(n + 1)])


def perron_eigenvalue(n_copies: int, m_copies: int) -> float:
    sqrt_bn = np.exp(0.5 * log_binomial(n_copies))
    a = [math.fsum(sqrt_bn[: n_copies + 1 - j] * sqrt_bn[j:]) for j in range(n_copies + 1)]
    log_s = 0.5 * log_binomial(m_copies)
    s = np.exp(log_s[log_s > log_s.max() - 17.0 * math.log(10.0)])
    size = len(s)
    width = min(n_copies, size - 1)
    band = np.zeros((width + 1, size))
    for j in range(width + 1):
        band[j, : size - j] = s[: size - j] * s[j:] * a[j]
    top = eig_banded(band, lower=True, eigvals_only=True, select="i",
                     select_range=(size - 1, size - 1))
    return float(top[-1])


def main() -> int:
    from clonebench import entangled, equatorial, report

    need = atoms()
    refs = {"clon": {}, "mp": {}, "eig": {}, "appendix": {}}
    clone = {"qubit": equatorial.clone_fidelity_exact,
             "entangled": entangled.eco_clone_fidelity_exact}
    for family, n, m in sorted(need.clon):
        refs["clon"][f"{family}|{n}|{m}"] = clone[family](n, m)
    for family, n, m, lam in sorted(need.mp):
        if family == "qubit":
            value = equatorial.mp_fidelity_exact(n, m, equatorial.prepared_state_ansatz(m, float(lam)))
        else:
            state = entangled.prepared_state_ansatz_ent(m, float(lam))
            value = entangled.mp_fidelity_exact_ent(n, m, state)
        refs["mp"][f"{family}|{n}|{m}|{lam}"] = value
    for n, m in sorted(need.eig):
        refs["eig"][f"{n}|{m}"] = perron_eigenvalue(n, m)
    for n, lam, m in sorted(need.appendix):
        (row,) = report.appendix_check(n, float(lam), [m])
        refs["appendix"][f"{n}|{lam}|{m}"] = [row.f_exact, row.f_zeroth, row.f_second,
                                              row.gap_ratio]

    # Every plan a seed can draw must find its references.
    checker = Checker(refs)
    for workload in WORKLOADS:
        for seed in range(200):
            for spec in plan(workload, seed):
                _lookups(checker, spec)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print({kind: len(values) for kind, values in refs.items()})
    return 0


def _lookups(checker: Checker, spec: dict) -> None:
    """Looks up every reference the check of `spec` reads; KeyError if one is missing."""
    cmd, n, m = spec["cmd"], spec.get("n"), spec.get("m")
    if cmd == "clone-fidelity":
        checker.clon(spec["family"], n, m)
    elif cmd == "mp-fidelity":
        checker.mp(spec["family"], n, m, spec["lam"])
    elif cmd == "optimize-prep":
        checker.eig(n, m)
    elif cmd == "appendix-check":
        for each in m:
            checker.refs["appendix"][f"{n}|{float(spec['lam'])!r}|{each}"]
    elif cmd == "sweep":
        for row_n in n:
            for row_m in m:
                if row_m < row_n or (row_m - row_n) % 2:
                    continue
                checker.clon(spec["family"], row_n, row_m)
                lambdas = spec.get("grid") or [rule_lambda(row_m, spec["rule"])]
                for lam in (1.0, *lambdas):
                    checker.mp(spec["family"], row_n, row_m, lam)
                if spec["family"] == "qubit":
                    checker.eig(row_n, row_m)

if __name__ == "__main__":
    raise SystemExit(main())

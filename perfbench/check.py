"""Checks each invocation's output against the stored reference values.

References live in refs.json, written by make_refs.py. f_eig references come
from an independent LAPACK solve; every other value is the program's own
full-precision result at the commit that wrote the file.

Tolerances:
- f_eig, replayed_f_mp and the delta derived from f_eig must be within one
  unit of the reference's 9th significant digit, so an error in that digit
  fails. This accepts a solver that stops on the residual, and the power
  iteration's f_eig, which is up to 0.56 units (1.2e-9 relative) low at
  M ~ 10^5.
- Every other number must match to 1e-11 relative: the CLI prints 12
  significant digits.
- `support` of optimize-prep may shrink (a trimmed lattice window) but must
  stay within 1 .. M+1; `wall_time_ms` is measured, so it is not checked.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from workloads import lam_key, rule_lambda

REL_TOL = 1e-11


def digit9_unit(ref: float) -> float:
    """One unit of the 9th significant digit of `ref`."""
    return 10.0 ** (math.floor(math.log10(abs(ref))) - 8)


def _close(got, ref: float, what: str, abs_tol: float | None = None) -> str | None:
    if abs_tol is None:
        abs_tol = REL_TOL * abs(ref) + 1e-15
    if isinstance(got, float) and math.isfinite(got) and abs(got - ref) < abs_tol:
        return None
    return f"{what}: got {got!r}, want {ref!r} (tolerance {abs_tol:.2g})"


class Checker:
    def __init__(self, refs: dict):
        self.refs = refs

    def _ref(self, kind: str, *key) -> float:
        return self.refs[kind]["|".join(map(str, key))]

    def clon(self, family, n, m):
        return self._ref("clon", family, n, m)

    def mp(self, family, n, m, lam):
        return self._ref("mp", family, n, m, lam_key(lam))

    def eig(self, n, m):
        return self._ref("eig", n, m)

    def check(self, spec: dict, code: int, text: str) -> str | None:
        """None when the output matches, else a one-line reason."""
        if code != 0:
            return f"exit status {code}"
        try:
            return getattr(self, "_" + spec["cmd"].replace("-", "_"))(spec, text)
        except KeyError as exc:
            return f"no reference or field {exc}"
        except (ValueError, IndexError, TypeError) as exc:
            return f"unparseable output ({exc})"

    def eig_errors(self, spec: dict, text: str) -> list[float]:
        """Relative errors of every f_eig the output reports."""
        if spec["cmd"] == "optimize-prep":
            got = [(spec["n"], spec["m"], _scalars(spec, text)["f_eig"])]
        elif spec["cmd"] == "sweep" and spec["family"] == "qubit":
            got = [(r["N"], r["M"], r["f_eig"]) for r in _sweep_rows(spec, text)]
        else:
            return []
        return [abs(value - self.eig(n, m)) / self.eig(n, m) for n, m, value in got]

    def _clone_fidelity(self, spec, text):
        out = _scalars(spec, text)
        return _close(out["f_clon"], self.clon(spec["family"], spec["n"], spec["m"]), "f_clon")

    def _mp_fidelity(self, spec, text):
        out = _scalars(spec, text)
        ref = self.mp(spec["family"], spec["n"], spec["m"], spec["lam"])
        return _close(out["f_mp"], ref, "f_mp")

    def _optimize_prep(self, spec, text):
        out = _scalars(spec, text)
        ref = self.eig(spec["n"], spec["m"])
        if not 1 <= out["support"] <= spec["m"] + 1:
            return f"support {out['support']} outside 1..{spec['m'] + 1}"
        return (_close(out["f_eig"], ref, "f_eig", digit9_unit(ref))
                or _close(out["replayed_f_mp"], ref, "replayed_f_mp", digit9_unit(ref)))

    def _sweep(self, spec, text):
        rows = _sweep_rows(spec, text)
        family = spec["family"]
        pairs = [(n, m) for n in sorted(set(spec["n"])) for m in sorted(set(spec["m"]))
                 if m >= n and (m - n) % 2 == 0]
        if [(r["N"], r["M"]) for r in rows] != pairs or any(r["family"] != family for r in rows):
            return f"rows {[(r['N'], r['M']) for r in rows]}, want {pairs}"
        for row in rows:
            n, m = row["N"], row["M"]
            lambdas = spec["grid"] if "grid" in spec else [rule_lambda(m, spec["rule"])]
            mps = sorted((float(lam), self.mp(family, n, m, lam)) for lam in set(lambdas))
            best_lam, best = mps[0]
            for lam, value in mps[1:]:
                if value > best:
                    best_lam, best = lam, value
            f_clon = self.clon(family, n, m)
            naive = self.mp(family, n, m, 1.0)
            if family == "qubit":
                f_eig = self.eig(n, m)
                eig_tol = digit9_unit(f_eig)
                problem = _close(row["f_eig"], f_eig, "f_eig", eig_tol)
            else:
                f_eig, eig_tol = None, 0.0
                problem = None if row["f_eig"] is None else f"f_eig {row['f_eig']!r}, want empty"
            f_est = best if f_eig is None else max(best, f_eig)
            delta = (f_clon - f_est) / f_clon
            problem = (problem
                       or _close(row["lambda"], best_lam, "lambda")
                       or _close(row["f_clon"], f_clon, "f_clon")
                       or _close(row["f_mp"], best, "f_mp")
                       or _close(row["f_naive"], naive, "f_naive")
                       or _close(row["ratio_naive"], naive / f_clon, "ratio_naive")
                       or _close(row["delta"], delta, "delta",
                                 eig_tol / f_clon + REL_TOL * abs(delta) + 1e-15))
            if problem:
                return f"N={n} M={m}: {problem}"
        return None

    def _appendix_check(self, spec, text):
        if spec["format"] == "json":
            rows = json.loads(text)
        else:
            rows = [_floats(r) for r in csv.DictReader(io.StringIO(text))]
        if [int(r["M"]) for r in rows] != sorted(set(spec["m"])):
            return f"rows for M={[r['M'] for r in rows]}, want {sorted(set(spec['m']))}"
        for row in rows:
            ref = self._ref("appendix", spec["n"], lam_key(spec["lam"]), int(row["M"]))
            for name, value in zip(("f_exact", "f_zeroth", "f_second", "gap_ratio"), ref):
                problem = _close(row[name], value, f"M={row['M']} {name}")
                if problem:
                    return problem
        return None

    def _oracle_check(self, spec, text):
        found = re.findall(r"^([\w-]+): max \|closed-form - quadrature\| = (\S+) "
                           r"\(tol (\S+)\) -> (PASS|FAIL)$", text, re.MULTILINE)
        names = [name for name, *_ in found]
        if names != ["phase-circle", "su2-class", "character-integral"]:
            return f"oracle lines {names}"
        for name, worst, tol, verdict in found:
            if verdict != "PASS" or not float(worst) <= float(tol):
                return f"{name}: {worst} vs tol {tol} -> {verdict}"
        return None


def _floats(record: dict) -> dict:
    out = {}
    for key, value in record.items():
        if key == "family":
            out[key] = value
        elif value == "":
            out[key] = None
        elif key in ("N", "M", "support"):
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out


def _scalars(spec: dict, text: str) -> dict:
    if spec["format"] == "json":
        return json.loads(text)
    return _floats(dict(part.split("=", 1) for part in text.strip().split(", ")))


def _sweep_rows(spec: dict, text: str) -> list[dict]:
    if spec["format"] == "json":
        return json.loads(text)["rows"]
    return [_floats(record) for record in csv.DictReader(io.StringIO(text))]

"""Seeded invocation plans for the four benchmark workloads.

A plan is the list of CLI invocations that one pass of a workload runs. Each
invocation is a spec dict (command, family, sizes, lambdas, output format);
`argv` turns it into the arguments `clonebench.cli.main` receives, and
check.py reads the same spec to find the expected output.

The seed only picks members of fixed pools. Each pool is a narrow stratum of
the workload's size band, so the cost of a pass stays comparable between
seeds, and `atoms` lists every reference value any member of any pool needs,
so make_refs.py can store a reference for every plan any seed can draw.

`oracle-check` always runs the program's own fixed internal cases; the seed
does not reach them.
"""

from __future__ import annotations

import random

WORKLOADS = ("qubit-large-m", "qubit-large-n", "entangled", "small-batch")


def lam_key(lam: float) -> str:
    return repr(float(lam))


def rule_lambda(m: int, alpha: float = 0.5) -> float:
    # The same expression SweepConfig.lambdas_for evaluates for --lambda-rule.
    return float(m) ** float(alpha)


def argv(spec: dict) -> list[str]:
    cmd = spec["cmd"]
    if cmd == "oracle-check":
        return [cmd]
    out = [cmd]
    if "family" in spec:
        out += ["--family", spec["family"]]
    for flag in ("n", "m"):
        value = spec[flag]
        out += [f"--{flag}", ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    if "lam" in spec:
        out += ["--lambda", lam_key(spec["lam"])]
    if "rule" in spec:
        out += ["--lambda-rule", lam_key(spec["rule"])]
    if "grid" in spec:
        out += ["--grid", ",".join(lam_key(lam) for lam in spec["grid"])]
    out += ["--format", spec["format"]]
    return out


# Each plan is built in cost tiers whose members cost about the same: the
# median call falls inside the largest cheap tier, and the tail (the 11th
# slowest call of a run) inside a tier with more than 11 calls per run, near
# that tier's median where the pass length allows. So neither order statistic
# jumps between tiers when the seed or the number of passes that fit in a run
# changes.

# --- qubit-large-m: Perron solve on the full M-lattice, M up to ~10^5 -------
# N = 1 needs odd M and N = 2, 4 need even M (M - N even).
BIG_ODD = (100001, 100101, 100201, 100301, 100401)
BIG_EVEN = (100000, 100100, 100200, 100300, 100400)
# At M ~ 40000 an N = 1 solve costs ~1.2x an N = 2 or 4 one, so the middle
# tier, where the tail falls, holds only N = 2 and 4. One M >= 10^5 call and
# two middle calls per pass put the tail (11th slowest of ~6 passes) near the
# middle tier's median: an upper percentile of a tier follows the machine's
# slow stretches more than its median does.
MID_EVEN = (40000, 40100, 40200, 40300, 40400)
SMALL_ODD = (16385, 16485, 16585, 16685, 16785)
SMALL_EVEN = (16384, 16484, 16584, 16684, 16784)


def _pick_m(rng: random.Random, n: int, odd, even) -> int:
    return rng.choice(odd if n % 2 else even)


def _plan_large_m(rng: random.Random) -> list[dict]:
    def sweep(n, m):
        return {"cmd": "sweep", "family": "qubit", "n": n, "m": m, "rule": 0.5, "format": "csv"}

    def prep(n, m):
        return {"cmd": "optimize-prep", "n": n, "m": m, "format": "plain"}

    # One call carries both M >= 10^5 rows: an odd M for N = 1, an even M for N = 2 or 4.
    plan = [sweep([1, rng.choice((2, 4))], [rng.choice(BIG_ODD), rng.choice(BIG_EVEN)])]
    plan += [prep(rng.choice((2, 4)), rng.choice(MID_EVEN)) for _ in range(2)]
    # The cheap tier, where the median falls, has the same mix for every seed:
    # two optimize-prep and two single-row sweeps for each N.
    small = [call(n, _pick_m(rng, n, SMALL_ODD, SMALL_EVEN))
             for n in (1, 2, 4) for call in (prep, lambda n, m: sweep([n], [m])) for _ in range(2)]
    rng.shuffle(small)
    return plan + small


def _atoms_large_m(atoms: "Atoms") -> None:
    for n, pools in ((1, (BIG_ODD, SMALL_ODD)), (2, (BIG_EVEN, MID_EVEN, SMALL_EVEN)),
                     (4, (BIG_EVEN, MID_EVEN, SMALL_EVEN))):
        for pool in pools:
            for m in pool:
                atoms.qubit_row(n, m, (rule_lambda(m),))


# --- qubit-large-n: outcome-density spectrum and wide-band matvecs ----------
# M sits at the top of the band (4096, or 4095 for odd N): at fixed M the
# cost is smooth in N, while moving M also moves the solver's iteration count.
def _top_m(n: int) -> int:
    return 4096 - n % 2


N_2048 = (2047, 2048)
N_1000 = tuple(range(1000, 1033, 4))
N_256 = tuple(range(256, 273, 4))
N_300 = ((300, 600), (301, 1001), (320, 2048), (257, 3001))
LARGE_N_LAMBDAS = (4.0, 16.0, 64.0)


def _plan_large_n(rng: random.Random) -> list[dict]:
    def sweep(n):
        return {"cmd": "sweep", "family": "qubit", "n": [n], "m": [_top_m(n)], "rule": 0.5,
                "format": "csv"}

    def mp(n, m):
        return {"cmd": "mp-fidelity", "family": "qubit", "n": n, "m": m,
                "lam": rng.choice(LARGE_N_LAMBDAS), "format": "plain"}

    # The sweeps at N ~ 1000 are the slowest tier, so the tail lands among them.
    plan = [sweep(rng.choice(N_1000)) for _ in range(4)]
    plan += [sweep(rng.choice(N_256)) for _ in range(2)]
    for pool, count in ((N_1000, 12), (N_2048, 2)):
        for _ in range(count):
            n = rng.choice(pool)
            plan.append(mp(n, _top_m(n)))
    plan += [mp(*rng.choice(N_300)) for _ in range(2)]
    return plan


def _atoms_large_n(atoms: "Atoms") -> None:
    for n in (*N_1000, *N_256):
        atoms.qubit_row(n, _top_m(n), (rule_lambda(_top_m(n)),))
    for n, m in (*((n, _top_m(n)) for n in (*N_1000, *N_2048)), *N_300):
        for lam in LARGE_N_LAMBDAS:
            atoms.mp.add(("qubit", n, m, lam_key(lam)))


# --- entangled: the Clebsch-Gordan quadruple sum ----------------------------
# Cost grows as (N/2 + 1)^2 (M/lambda)^2, so large N goes with small M.
# The lambda = 1 row at M = 4096 is in every plan, once: its O(M^2) pair
# matrices make it memory-bound, and from one call to the next it takes 0.7x
# to 1.5x its median. The tail (11th slowest call of a run) falls below it,
# near the median of the N ~ 64 tier, which costs the same for every member:
# with two such sweeps and 60 mp-fidelity calls a pass takes ~3.5 s, ~6
# passes fit a run, and the tail is the 5th slowest of its ~12 N ~ 64 calls.
ENT_ANCHOR = (2, 4096)
ENT_GRID = (1.0, 4.0, 16.0, 64.0)
ENT_LARGE_N = ((64, 256), (64, 258), (64, 260), (63, 257), (63, 259), (63, 261))
ENT_SMALL_N = ((4, 1024), (5, 1025), (4, 1032), (16, 384), (17, 385), (16, 392))
# N = 48 and 49 both have 25 total-spin blocks, so every member costs the same.
ENT_MP = ((48, 2048), (49, 2049), (48, 2050), (49, 2051), (48, 2046), (49, 2047))
ENT_MP_LAMBDA = 16.0


def _plan_entangled(rng: random.Random) -> list[dict]:
    def sweep(pair):
        return {"cmd": "sweep", "family": "entangled", "n": [pair[0]], "m": [pair[1]],
                "grid": list(ENT_GRID), "format": "csv"}

    def mp(pair):
        return {"cmd": "mp-fidelity", "family": "entangled", "n": pair[0], "m": pair[1],
                "lam": ENT_MP_LAMBDA, "format": "plain"}

    plan = [sweep(ENT_ANCHOR)]
    plan += [sweep(rng.choice(ENT_LARGE_N)) for _ in range(2)]
    plan += [sweep(rng.choice(ENT_SMALL_N)) for _ in range(3)]
    plan += [mp(rng.choice(ENT_MP)) for _ in range(60)]
    return plan


def _atoms_entangled(atoms: "Atoms") -> None:
    for n, m in (ENT_ANCHOR, *ENT_LARGE_N, *ENT_SMALL_N):
        atoms.clon.add(("entangled", n, m))
        for lam in ENT_GRID:
            atoms.mp.add(("entangled", n, m, lam_key(lam)))
    for n, m in ENT_MP:
        atoms.mp.add(("entangled", n, m, lam_key(ENT_MP_LAMBDA)))


# --- small-batch: many cheap calls, so argparse and glue dominate -----------
SMALL_N = tuple(range(1, 9))
SMALL_M = (16, 17, 24, 25, 32, 33, 48, 49, 64, 65, 96, 97, 128, 129, 192, 193, 255, 256)
SMALL_LAMBDAS = (1.0, 2.0, 4.0, 8.0, 16.0)
APPENDIX_LAMBDAS = (4.0, 8.0, 16.0)
FAMILIES = ("qubit", "entangled")
# Invocations per pass of each command. Three oracle-checks per pass give a
# run at least 11 of them even when only 4 passes fit, so the tail is always
# an oracle-check. The 120 cheap calls take ~0.3 s of a ~4.6 s pass, so ~5
# passes fit a run and the tail is about the 5th fastest of ~15 oracle-checks,
# not the 2nd fastest of 12: the lowest few follow the machine's fast stretches.
SMALL_MIX = (("clone-fidelity", 24), ("mp-fidelity", 33), ("sweep", 24),
             ("optimize-prep", 21), ("appendix-check", 18))
ORACLE_CHECKS = 3


def _small_pair(rng: random.Random) -> tuple[int, int]:
    n = rng.choice(SMALL_N)
    return n, rng.choice([m for m in SMALL_M if m % 2 == n % 2])


def _small_spec(rng: random.Random, cmd: str) -> dict:
    family = rng.choice(FAMILIES)
    n, m = _small_pair(rng)
    if cmd == "clone-fidelity":
        return {"cmd": cmd, "family": family, "n": n, "m": m, "format": rng.choice(("plain", "json"))}
    if cmd == "mp-fidelity":
        return {"cmd": cmd, "family": family, "n": n, "m": m, "lam": rng.choice(SMALL_LAMBDAS),
                "format": rng.choice(("plain", "json"))}
    if cmd == "optimize-prep":
        return {"cmd": cmd, "n": n, "m": m, "format": rng.choice(("plain", "json"))}
    if cmd == "appendix-check":
        ms = sorted({rng.choice(SMALL_M) for _ in range(rng.randint(1, 3))})
        return {"cmd": cmd, "n": n, "lam": rng.choice(APPENDIX_LAMBDAS), "m": ms,
                "format": rng.choice(("csv", "json"))}
    ns = sorted({rng.choice(SMALL_N) for _ in range(rng.randint(1, 2))})
    ms = sorted({rng.choice(SMALL_M) for _ in range(rng.randint(1, 2))})
    spec = {"cmd": "sweep", "family": family, "n": ns, "m": ms, "format": rng.choice(("csv", "json"))}
    if rng.random() < 0.5:
        spec["rule"] = 0.5
    else:
        spec["grid"] = sorted(rng.sample(SMALL_LAMBDAS, 3))
    return spec


def _plan_small(rng: random.Random) -> list[dict]:
    plan = [_small_spec(rng, cmd) for cmd, count in SMALL_MIX for _ in range(count)]
    plan += [{"cmd": "oracle-check"} for _ in range(ORACLE_CHECKS)]
    rng.shuffle(plan)
    return plan


def _atoms_small(atoms: "Atoms") -> None:
    for n in SMALL_N:
        for m in SMALL_M:
            if m < n or (m - n) % 2:
                continue
            atoms.qubit_row(n, m, (rule_lambda(m), *SMALL_LAMBDAS))
            atoms.clon.add(("entangled", n, m))
            for lam in (rule_lambda(m), *SMALL_LAMBDAS):
                atoms.mp.add(("entangled", n, m, lam_key(lam)))
        for lam in APPENDIX_LAMBDAS:
            for m in SMALL_M:
                atoms.appendix.add((n, lam_key(lam), m))


class Atoms:
    """Every reference value a set of plans can ask for, by kind and key."""

    def __init__(self):
        self.clon: set[tuple] = set()
        self.mp: set[tuple] = set()
        self.eig: set[tuple] = set()
        self.appendix: set[tuple] = set()

    def qubit_row(self, n: int, m: int, lambdas) -> None:
        """A qubit (N, M) pair as a sweep row or optimize-prep needs it."""
        self.clon.add(("qubit", n, m))
        self.eig.add((n, m))
        for lam in (1.0, *lambdas):
            self.mp.add(("qubit", n, m, lam_key(lam)))


_PLANS = {
    "qubit-large-m": (_plan_large_m, _atoms_large_m),
    "qubit-large-n": (_plan_large_n, _atoms_large_n),
    "entangled": (_plan_entangled, _atoms_entangled),
    "small-batch": (_plan_small, _atoms_small),
}


def plan(workload: str, seed: int) -> list[dict]:
    """The invocation list of one pass; the same seed gives the same list."""
    return _PLANS[workload][0](random.Random(f"{workload}:{seed}"))


def atoms() -> Atoms:
    """Reference values needed by every plan of every workload."""
    result = Atoms()
    for _, add in _PLANS.values():
        add(result)
    return result

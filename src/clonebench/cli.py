"""Command-line interface.

Exit statuses: 0 success (including empty sweeps), 1 configuration error,
2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import logging
import random
import re
import sys
import warnings

import numpy as np

from . import entangled, equatorial, optimize, quadrature, report
from .errors import ConvergenceError, DomainError

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes -1 and -0.5 for values but -1e-3, -inf and -nan for
        # flags; read those as values too, so they reach the domain checks.
        self._negative_number_matcher = re.compile(
            rf"{self._negative_number_matcher.pattern}|^-(\d+\.?\d*|\.\d+)[eE][-+]?\d+$"
            r"|^-(?i:inf|infinity|nan)$"
        )

    # argparse exits with status 2 on bad flags; remap to the config-error status.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _emit_scalar(args, payload: dict) -> None:
    _write_output(report.serialize_scalar(payload, args.output_format), args.out)


def _cmd_clone_fidelity(args) -> int:
    fidelity = optimize.Family.named(args.family).clone_fidelity(args.n, args.m)
    _emit_scalar(args, {"family": args.family, "N": args.n, "M": args.m, "f_clon": fidelity})
    return 0


def _cmd_mp_fidelity(args) -> int:
    evaluators = optimize.Family.named(args.family)
    state = evaluators.ansatz(args.m, args.lam)
    fidelity = evaluators.mp_fidelity(evaluators.seed_for(args.n, args.m), args.m, state)
    _emit_scalar(
        args,
        {"family": args.family, "N": args.n, "M": args.m, "lambda": args.lam, "f_mp": fidelity},
    )
    return 0


def _cmd_sweep(args) -> int:
    config = report.SweepConfig(
        family=args.family,
        n_values=args.n,
        m_values=args.m,
        lambda_grid=args.grid,
        lambda_exponent=args.lambda_rule,
        output_format=args.output_format,
        output_path=args.out,
    )
    result = report.run_sweep(config)
    _write_output(report.serialize_report(result, config.output_format), config.output_path)
    return 0


def _cmd_optimize_prep(args) -> int:
    form = optimize.build_quadratic_form(args.n, args.m)
    fidelity, state = optimize.optimal_prepared_state(form, tol=args.tol)
    replay = equatorial.mp_fidelity_exact_from_seed(form.fourier, args.m, state)
    _emit_scalar(
        args,
        {
            "N": args.n,
            "M": args.m,
            "f_eig": fidelity,
            "replayed_f_mp": replay,
            "support": len(state.twice),
        },
    )
    return 0


def _cmd_appendix_check(args) -> int:
    rows = report.appendix_check(args.n, args.lam, args.m)
    _write_output(report.serialize_appendix(rows, args.output_format), args.out)
    return 0


def _worst_mp_gap(rng, family, n_max, m_max, lambdas, quadrature_fidelity, nodes_for):
    """Largest |exact - quadrature| measure-and-prepare fidelity over 50 random cases.

    The exact side builds one seed spectrum per distinct N; each quadrature
    forms its own weights, so it stays independent of the sums it checks.
    """
    evaluators = optimize.Family.named(family)
    cases = []
    for _ in range(50):
        n = rng.randint(1, n_max)
        m = rng.randint(n, m_max)
        cases.append((n, m, evaluators.ansatz(m, rng.choice(lambdas))))
    seeds = {n: evaluators.seed(n) for n in {n for n, _, _ in cases}}
    worst = 0.0
    for n, m, state in cases:
        exact = evaluators.mp_fidelity(seeds[n], m, state)
        approx = quadrature_fidelity(n, m, state, nodes_for(n, m))
        worst = max(worst, abs(exact - approx))
    return worst


def _oracle_lines(nodes_override, tol_qubit, tol_ent):
    def nodes_or(required):
        return required if nodes_override is None else nodes_override

    rng = random.Random(170)
    worst_qubit = _worst_mp_gap(
        rng, "qubit", 6, 256, [1.0, 2.0, 4.0, 8.0], quadrature.phase_quadrature_fidelity,
        lambda n, m: nodes_or(quadrature.phase_nodes_required(n, m)),
    )
    yield "phase-circle", worst_qubit, tol_qubit

    worst_ent = _worst_mp_gap(
        rng, "entangled", 4, 24, [1.0, 2.0, 4.0], quadrature.su2_quadrature_fidelity_ent,
        lambda n, m: nodes_or(2 * quadrature.su2_nodes_required(n, m)),
    )
    yield "su2-class", worst_ent, tol_ent

    t = np.indices((13,) * 4).reshape(4, -1)  # every quadruple of doubled labels 0..12
    j = t / 2
    values = quadrature.weyl_quadrature_char4(*j, nodes_or(2 * t.sum(axis=0) + 8))
    worst_cg = float(np.max(np.abs(values - entangled.cg_overlap_count(*j))))
    yield "character-integral", worst_cg, tol_ent


# Every default case is exact at or below 525 nodes (phase-circle, 2(6 + 256) + 1);
# more check nothing and cost time that grows with the count.
_MAX_NODES = 100_000


def _cmd_oracle_check(args) -> int:
    if args.nodes is not None and args.nodes > _MAX_NODES:
        raise DomainError(f"--nodes must be at most {_MAX_NODES}, got {args.nodes}; "
                          "every default case is exact at or below 525 nodes")
    tol_qubit, tol_ent = (1e-10, 1e-9) if args.tol is None else (args.tol, args.tol)
    status = 0
    # Each stage's warnings (below-threshold quadratures) make one stderr line, not one each.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", quadrature.QuadratureWarning)
        for name, worst, tol in _oracle_lines(args.nodes, tol_qubit, tol_ent):
            ok = worst <= tol
            print(f"{name}: max |closed-form - quadrature| = {worst:.3e} "
                  f"(tol {tol:.0e}) -> {'PASS' if ok else 'FAIL'}")
            if caught:
                first = caught[0]
                sys.stderr.write(f"warning: {name}: {first.category.__name__}: {first.message} "
                                 f"({len(caught)} in this stage)\n")
                caught.clear()
            if not ok:
                status = 2
    return status


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once: argparse leaves ~300 objects
    of cyclic garbage per build, which callers of main() in one process
    would pay for in full garbage collections."""
    parser = _Parser(prog="clonebench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, family=True, formats=("csv", "json", "plain"), default_format="plain"):
        if family:
            p.add_argument("--family", choices=optimize.FAMILIES, default="qubit")
        p.add_argument("--format", dest="output_format", choices=formats, default=default_format)
        p.add_argument("--out", default=None, help="output path, '-' for stdout")

    p = sub.add_parser("clone-fidelity", help="exact optimal-cloner fidelity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_clone_fidelity)

    p = sub.add_parser("mp-fidelity", help="exact measure-and-prepare fidelity at one lambda")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    add_common(p)
    p.set_defaults(func=_cmd_mp_fidelity)

    p = sub.add_parser("sweep", help="fidelity sweep over (N, M) with a lambda rule or grid")
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated N values")
    p.add_argument("--m", type=_int_list, required=True, help="comma-separated M values")
    p.add_argument("--grid", type=_float_list, default=None, help="explicit lambda grid")
    p.add_argument("--lambda-rule", dest="lambda_rule", type=float, default=None,
                   help="power-rule exponent alpha: lambda = M^alpha")
    add_common(p, formats=("csv", "json"), default_format="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize-prep", help="best prepared state via the kernel eigenproblem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-13,
                   help="relative residual bound ||A q - f q|| <= tol * f of the returned "
                        "state q and fidelity f (default 1e-13)")
    add_common(p, family=False)
    p.set_defaults(func=_cmd_optimize_prep)

    p = sub.add_parser("appendix-check", help="exact fidelity vs its moment expansions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m", type=_int_list, required=True)
    add_common(p, family=False, formats=("csv", "json"), default_format="csv")
    p.set_defaults(func=_cmd_appendix_check)

    p = sub.add_parser("oracle-check", help="closed forms vs brute-force quadrature oracles")
    p.add_argument("--nodes", type=int, default=None, help="override the per-case node count")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "tol", None) is not None and not args.tol >= 0:  # also NaN
            raise DomainError(f"tolerance must be >= 0, got {args.tol}")
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    except ConvergenceError as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"fatal: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"fatal: out of memory: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

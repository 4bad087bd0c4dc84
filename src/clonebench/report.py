"""Sweep rows, sweep orchestration and CSV/JSON report emission.

relative_gap computes one sweep row, the row the reports print.  A sweep
computes its rows one after another, in ascending (N, M) order over
the deduplicated copy numbers, so a report lists its rows in that order.  All
numeric columns are deterministic across runs; wall_time_ms is measured and
therefore is the one column exempt from bit-identical reproducibility.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

from . import __version__ as _version
from . import equatorial, optimize
from .errors import DomainError
from .equatorial import ansatz_cutoff

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep request: which family, which (N, M) pairs, which lambdas.

    Exactly one of `lambda_grid` (explicit values) and `lambda_exponent`
    (power rule lambda = M^alpha, alpha in (0,1)) must be given.
    """

    family: str
    n_values: tuple[int, ...]
    m_values: tuple[int, ...]
    lambda_grid: tuple[float, ...] | None = None
    lambda_exponent: float | None = None
    output_format: str = "csv"
    output_path: str | None = None

    def __post_init__(self):
        optimize.Family.named(self.family)
        if (self.lambda_grid is None) == (self.lambda_exponent is None):
            raise DomainError("give exactly one of lambda_grid / lambda_exponent")
        if self.lambda_grid is not None:
            if not self.lambda_grid:
                raise DomainError("lambda grid must be non-empty")
            if any(not 1 <= lam < math.inf for lam in self.lambda_grid):  # also NaN
                raise DomainError("every lambda must be finite and >= 1")
        if self.lambda_exponent is not None and not 0 < self.lambda_exponent < 1:
            raise DomainError("lambda exponent must lie in (0, 1)")
        if self.output_format not in ("csv", "json"):
            raise DomainError(f"unknown output format {self.output_format!r}")

    def lambdas_for(self, m_copies: int) -> tuple[float, ...]:
        if self.lambda_grid is not None:
            return self.lambda_grid
        return (float(m_copies) ** self.lambda_exponent,)

    def digest(self) -> str:
        import hashlib  # here, not at the top: ~3.5 ms of every process start

        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SweepRow:
    family: str
    n_copies: int
    m_copies: int
    lam: float
    f_clon: float
    f_mp: float
    f_naive: float
    f_eig: float | None
    ratio_naive: float
    delta: float
    wall_time_ms: float


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)
    version: str = _version
    config_hash: str = ""


def relative_gap(n_copies: int, m_copies: int, family: str = "qubit", lambdas=None) -> SweepRow:
    """One sweep row: the relative gap delta = (F_clon - F_est) / F_clon and what it is made of.

    F_est is the best swept ansatz fidelity `f_mp` (at lambda `lam`, over the
    powers of two up to M by default), and for a family with a kernel also
    its Perron eigenvalue `f_eig`.  For qubits f_eig is the optimum over all
    measure-and-prepare strategies (see the optimize module), so delta is the
    exact gap, to the solver's tol.  For the entangled family F_est is the
    best ansatz value, an achievable fidelity, so delta bounds the gap from
    above.  `f_naive` is the lambda = 1 ansatz fidelity, taken from the sweep
    when the grid holds 1.  The row builds the family's seed spectrum once
    and shares it with the sweep, the kernel and the naive value.
    """
    start = time.perf_counter()
    evaluators = optimize.Family.named(family)
    if lambdas is None:
        lambdas = optimize.default_lambda_grid(m_copies)
    # A family with a kernel takes its seed from the form, which carries it.
    form = evaluators.kernel(n_copies, m_copies) if evaluators.kernel is not None else None
    seed = evaluators.seed_for(n_copies, m_copies) if form is None else form.fourier
    sweep = evaluators.sweep(seed, m_copies, lambdas)
    f_clon = evaluators.clone_fidelity(n_copies, m_copies)
    f_eig = None
    f_est = sweep.best_fidelity
    if form is not None:
        f_eig, _ = optimize.optimal_prepared_state(form)
        f_est = max(f_est, f_eig)
    naive = dict(sweep.rows).get(1.0)
    if naive is None:
        naive = evaluators.mp_fidelity(seed, m_copies, evaluators.ansatz(m_copies, 1.0))
    return SweepRow(
        family=family,
        n_copies=n_copies,
        m_copies=m_copies,
        lam=sweep.best_lambda,
        f_clon=f_clon,
        f_mp=sweep.best_fidelity,
        f_naive=naive,
        f_eig=f_eig,
        ratio_naive=naive / f_clon,
        delta=(f_clon - f_est) / f_clon,
        wall_time_ms=(time.perf_counter() - start) * 1000.0,
    )


def run_sweep(config: SweepConfig) -> SweepReport:
    """Evaluate every admissible (N, M) pair; inadmissible pairs are logged and skipped."""
    rows = []
    for n_copies in sorted(set(config.n_values)):
        for m_copies in sorted(set(config.m_values)):
            if m_copies < n_copies or (m_copies - n_copies) % 2 != 0:
                logger.info(
                    "skipping N=%d M=%d: needs M >= N with matching parity",
                    n_copies,
                    m_copies,
                )
                continue
            lambdas = config.lambdas_for(m_copies)
            for lam in lambdas:
                _, clamped = ansatz_cutoff(m_copies, lam)
                if clamped:
                    logger.warning(
                        "N=%d M=%d lambda=%g: cutoff clamped to the parity minimum",
                        n_copies,
                        m_copies,
                        lam,
                    )
            rows.append(relative_gap(n_copies, m_copies, config.family, lambdas))
    return SweepReport(rows=rows, config_hash=config.digest())


@dataclass(frozen=True)
class AppendixRow:
    m_copies: int
    f_exact: float
    f_zeroth: float
    f_second: float
    gap_ratio: float


def appendix_check(n_copies: int, lam: float, m_values) -> list[AppendixRow]:
    """Exact ansatz fidelity against its zeroth- and second-order expansions.

    The expansions are assembled from the moments S1 = sum sqrt(b_{N,n}) and
    S2 = sum n^2 sqrt(b_{N,n}); the relative gap to the zeroth order scales
    like N(1+lambda)/M, so it should roughly halve when M doubles.
    """
    m_values = sorted(set(m_values))
    fourier = optimize.Family.named("qubit").seed_for(n_copies, *m_values)
    s1 = equatorial.sqrt_binomial_sum(n_copies)
    s2 = equatorial.sqrt_binomial_second_moment(n_copies)
    rows = []
    for m_copies in m_values:
        state = equatorial.prepared_state_ansatz(m_copies, lam)
        f_exact = equatorial.mp_fidelity_exact_from_seed(fourier, m_copies, state)
        prefactor = math.sqrt(2.0 * lam / (math.pi * m_copies * (1.0 + lam)))
        f_zeroth = prefactor * s1 * s1
        f_second = prefactor * s1 * (s1 - (1.0 + lam) / (2.0 * math.pi * m_copies) * s2)
        rows.append(
            AppendixRow(
                m_copies=m_copies,
                f_exact=f_exact,
                f_zeroth=f_zeroth,
                f_second=f_second,
                gap_ratio=abs(f_exact - f_zeroth) / f_exact,
            )
        )
    return rows


class _Column(NamedTuple):
    """One report column: its CSV header / JSON key, the row field, the CSV cell parser."""

    name: str
    field: str
    parse: Callable[[str], object]


def _optional_float(cell: str) -> float | None:
    return float(cell) if cell else None


SWEEP_COLUMNS = (
    _Column("family", "family", str),
    _Column("N", "n_copies", int),
    _Column("M", "m_copies", int),
    _Column("lambda", "lam", float),
    _Column("f_clon", "f_clon", float),
    _Column("f_mp", "f_mp", float),
    _Column("f_naive", "f_naive", float),
    _Column("f_eig", "f_eig", _optional_float),
    _Column("ratio_naive", "ratio_naive", float),
    _Column("delta", "delta", float),
    _Column("wall_time_ms", "wall_time_ms", float),
)

APPENDIX_COLUMNS = (
    _Column("M", "m_copies", int),
    _Column("f_exact", "f_exact", float),
    _Column("f_zeroth", "f_zeroth", float),
    _Column("f_second", "f_second", float),
    _Column("gap_ratio", "gap_ratio", float),
)

CSV_COLUMNS = ",".join(column.name for column in SWEEP_COLUMNS)


def _fmt(value):
    """Text of one CSV or plain-text field: floats to 12 significant digits,
    None to an empty field, the rest as is."""
    if value is None:
        return ""
    return f"{value:.12g}" if isinstance(value, float) else value


def _json_value(value):
    """Floats rounded to 12 significant digits, the rest as is."""
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _table(header, records, output_format: str, meta: dict | None = None) -> str:
    """The one report writer: for CSV the header line and one line per record,
    for JSON one object per record, listed under "rows" after the `meta` keys
    when `meta` is given."""
    if output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in record] for record in records)
        return buffer.getvalue()
    if output_format == "json":
        items = [{name: _json_value(value) for name, value in zip(header, record)}
                 for record in records]
        return json.dumps(items if meta is None else {**meta, "rows": items}, indent=2) + "\n"
    raise DomainError(f"unknown output format {output_format!r}")


def serialize_report(report: SweepReport, output_format: str) -> str:
    """CSV (fixed 11-column header) or JSON (with version/config metadata)."""
    records = ([getattr(row, column.field) for column in SWEEP_COLUMNS] for row in report.rows)
    meta = {"version": report.version, "config_hash": report.config_hash}
    return _table([column.name for column in SWEEP_COLUMNS], records, output_format, meta)


def parse_report(text: str, output_format: str) -> SweepReport:
    """Inverse of serialize_report; CSV carries no metadata by design."""
    if output_format == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header != [column.name for column in SWEEP_COLUMNS]:
            raise DomainError("unexpected CSV header")
        rows = [
            SweepRow(**{column.field: column.parse(cell)
                        for column, cell in zip(SWEEP_COLUMNS, record)})
            for record in reader
            if record
        ]
        return SweepReport(rows=rows)
    if output_format == "json":
        payload = json.loads(text)
        rows = [
            SweepRow(**{column.field: item[column.name] for column in SWEEP_COLUMNS})
            for item in payload["rows"]
        ]
        return SweepReport(
            rows=rows,
            version=payload.get("version", _version),
            config_hash=payload.get("config_hash", ""),
        )
    raise DomainError(f"unknown output format {output_format!r}")


def serialize_appendix(rows: list[AppendixRow], output_format: str) -> str:
    records = ([getattr(row, column.field) for column in APPENDIX_COLUMNS] for row in rows)
    return _table([column.name for column in APPENDIX_COLUMNS], records, output_format)


def serialize_scalar(payload: dict, output_format: str) -> str:
    """One scalar command's result: `key=value` pairs (plain), a header and a
    value row (CSV), or a JSON object; floats carry 12 significant digits in
    every format."""
    if output_format == "plain":
        return ", ".join(f"{key}={_fmt(value)}" for key, value in payload.items()) + "\n"
    if output_format == "json":
        return json.dumps({key: _json_value(value) for key, value in payload.items()},
                          indent=2) + "\n"
    return _table(payload.keys(), [payload.values()], output_format)

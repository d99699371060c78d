"""Analytical speedup model for concurrent structures.

The classic speedup law says a program that is parallel over fraction p of
its work speeds up by 1 / ((1 - p) + p/P) on P processors. For a concurrent
data structure the parallel work is taxed twice: every operation carries
snapshot work (reading a consistent view) and control work (locks,
validation, retries bookkeeping) on top of its useful work, and of the P
threads only the uncontended fraction (1 - c) makes progress, of which a
fraction alpha actually lands its effect. That yields

    speedup = P * (1 - c) * alpha / (1 + w_snapshot/w_p + w_control/w_p)

with c the measured contention rate and alpha bounded by the structure's
snapshot/control balance: alpha <= w_snapshot * beta / w_control, where beta
is the rate of recording valid linearization points. The bound's approach
over time follows a hardness curve alpha(t) = asymptote * (1 - h**(-t)).

Everything here is a pure function over :class:`ModelParams`;
:func:`fit_contention` and :func:`predict_vs_measured` connect the model to
benchmark records.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .bench import BenchRecord, open_text

COMPARISON_FIELDS = ("variant", "threads", "measured_speedup", "predicted_speedup", "ratio", "c_fitted")
COMPARISON_HEADER = ",".join(COMPARISON_FIELDS)


class ModelDomainError(ValueError):
    """A model input violates the inequality named in the message."""


class ModelInputError(ValueError):
    """Benchmark records are unsuitable for the requested comparison."""


@dataclass(frozen=True)
class ModelParams:
    """Inputs to the speedup model.

    processors is the thread count P; contention is the fraction c of
    attempts that retry; alpha and beta are the linearization rates (both
    default to 1, the optimistic limit); the three work terms are abstract
    relative units, so only the ratios snapshot/parallel and
    control/parallel matter and parallel_work is normally left at 1;
    hardness shapes the alpha(t) curve.
    """

    processors: int
    contention: float
    alpha: float = 1.0
    beta: float = 1.0
    parallel_work: float = 1.0
    snapshot_work: float = 0.0
    control_work: float = 0.0
    hardness: float = 2.0


# (symbol, inequality, value, holds): one bound checked against one value.
_Bound = tuple[str, str, float, bool]


def _bounds(params: ModelParams) -> list[_Bound]:
    """The five bounds that the speedup formula and the published constraint
    block share. Each test is written so that NaN fails it."""
    P, c, alpha = params.processors, params.contention, params.alpha
    w_p, w_c = params.parallel_work, params.control_work
    return [
        ("P", "P >= 1", P, P >= 1),
        ("c", "0 <= c <= 1", c, 0.0 <= c <= 1.0),
        ("alpha", "0 <= alpha <= 1", alpha, 0.0 <= alpha <= 1.0),
        ("w_p", "w_p > 0", w_p, w_p > 0),
        ("w_control", "w_control >= 0", w_c, w_c >= 0),
    ]


def _hardness_bound(h: float) -> _Bound:
    return ("h", "h > 1", h, h > 1)


def _violation(sym: str, ineq: str, value) -> str:
    return f"violates {ineq} ({sym} = {value})"


def _require(*bounds: _Bound) -> None:
    """Raise ModelDomainError for the first bound that does not hold."""
    for sym, ineq, value, holds in bounds:
        if not holds:
            raise ModelDomainError(f"{sym} out of range: {_violation(sym, ineq, value)}")


def amdahl_speedup(p_fraction: float, processors: float) -> float:
    """The classic law: 1 / ((1 - p) + p/P)."""
    # P takes the shared bound; the other four hold at their defaults.
    _require(
        ("p", "0 <= p <= 1", p_fraction, 0.0 <= p_fraction <= 1.0),
        *_bounds(ModelParams(processors, 0.0)),
    )
    return 1.0 / ((1.0 - p_fraction) + p_fraction / processors)


def concurrent_speedup(params: ModelParams) -> float:
    """P(1-c)alpha / (1 + w_snapshot/w_p + w_control/w_p).

    The numerator P(1-c)alpha counts the threads that make committed
    progress; the denominator taxes each by its snapshot and control work.
    """
    ws = params.snapshot_work
    _require(*_bounds(params), ("w_snapshot", "w_snapshot >= 0", ws, ws >= 0))
    overhead = 1.0 + ws / params.parallel_work + params.control_work / params.parallel_work
    return params.processors * (1.0 - params.contention) * params.alpha / overhead


def _alpha_points(hardness: float, asymptote: float, ts) -> list[tuple[float, float]]:
    """(t, asymptote * (1 - h**(-t))) for each t in ``ts``."""
    _require(
        _hardness_bound(hardness),
        ("asymptote", "-inf < asymptote < inf", asymptote, math.isfinite(asymptote)),
    )
    return [(t, asymptote * (1.0 - hardness ** (-t))) for t in ts]


def alpha_at(t: float, params: ModelParams) -> float:
    """The hardness curve: asymptote * (1 - h**(-t)).

    The asymptote is w_snapshot * beta / w_control; alpha climbs toward it
    from 0 at t = 0, faster for harder structures (larger h).
    """
    w_c = params.control_work
    # The asymptote divides by w_control, so it is checked before the division.
    _require(("w_control", "w_control > 0", w_c, w_c > 0), ("t", "t >= 0", t, t >= 0))
    asymptote = params.snapshot_work * params.beta / w_c
    return _alpha_points(params.hardness, asymptote, [t])[0][1]


def alpha_curve(hardness: float, asymptote: float, t_max: float, step: float) -> list[tuple[float, float]]:
    """Sample (t, alpha) pairs from 0 to t_max inclusive at the given step.

    The asymptote, t_max and step must be finite, or the grid is undefined.
    """
    _require(
        ("step", "0 < step < inf", step, 0 < step < math.inf),
        ("t_max", "0 <= t_max < inf", t_max, 0 <= t_max < math.inf),
    )
    n = int(math.floor(t_max / step + 1e-9))
    return _alpha_points(hardness, asymptote, [i * step for i in range(n + 1)])


def validate(params: ModelParams) -> list[str]:
    """Check the full constraint block; one entry per violated inequality.

    Beyond the bounds the speedup formula checks, the block tightens the
    formula's w_snapshot >= 0 to w_snapshot > 0 and asks for a hardness
    above 1, beta between 1/w_snapshot and 1, and alpha under
    w_snapshot*beta/w_control. That cap binds alpha, not the ratio: alpha
    may never exceed 1 even when the ratio does, and an alpha above both is
    reported against both. Every check is written so that NaN fails it.
    """
    ws = params.snapshot_work
    bounds = [
        *_bounds(params),
        ("w_snapshot", "w_snapshot > 0", ws, ws > 0),
        _hardness_bound(params.hardness),
    ]
    v = [_violation(sym, ineq, value) for sym, ineq, value, holds in bounds if not holds]
    beta, alpha, w_c = params.beta, params.alpha, params.control_work
    if ws > 0 and not 1.0 / ws <= beta <= 1.0:
        v.append(f"violates 1/w_snapshot <= beta <= 1 (1/w_snapshot = {1.0 / ws}, beta = {beta})")
    if w_c > 0 and not alpha <= (bound := ws * beta / w_c):
        v.append(f"violates alpha <= w_snapshot*beta/w_control (alpha = {alpha}, bound = {bound})")
    return v


# -- connecting the model to measurements ------------------------------------

# Records are grouped by everything that identifies a benchmark point except
# the repeat index.
def _config_key(rec: BenchRecord):
    return (
        rec.variant,
        rec.threads,
        rec.key_range,
        rec.insert_pct,
        rec.delete_pct,
        rec.search_pct,
    )


def fit_contention(records: Iterable[BenchRecord]) -> dict[tuple, float]:
    """Mean contention rate per benchmark point across its repeats."""
    records = list(records)
    if not records:
        raise ModelInputError("no records to fit")
    sums: dict[tuple, list[float]] = {}
    for rec in records:
        sums.setdefault(_config_key(rec), []).append(rec.contention_rate)
    return {key: sum(cs) / len(cs) for key, cs in sums.items()}


class ComparisonRow(NamedTuple):
    """One predicted-vs-measured line of the comparison table."""

    variant: str
    threads: int
    measured_speedup: float
    predicted_speedup: float
    ratio: float
    c_fitted: float


def predict_vs_measured(
    records: Iterable[BenchRecord], params_template: ModelParams
) -> list[ComparisonRow]:
    """Compare measured speedups against the model's predictions.

    Measured speedup for a point is its mean throughput over the mean
    1-thread throughput of the same variant and workload; the prediction
    evaluates the template with P set to the point's thread count and c to
    its fitted contention. The ratio is measured/predicted (infinite when
    the model predicts 0).
    """
    records = list(records)
    if not records:
        raise ModelInputError("no records to compare")
    thr: dict[tuple, list[float]] = {}
    for rec in records:
        thr.setdefault(_config_key(rec), []).append(rec.throughput_ops_s)
    mean_thr = {key: sum(ts) / len(ts) for key, ts in thr.items()}
    c_fit = fit_contention(records)

    rows = []
    for key in sorted(mean_thr):
        variant, threads, kr, ins, dele, srch = key
        base_key = (variant, 1, kr, ins, dele, srch)
        if base_key not in mean_thr:
            raise ModelInputError(
                f"missing 1-thread baseline for variant={variant} "
                f"key_range={kr} mix=({ins},{dele},{srch})"
            )
        baseline = mean_thr[base_key]
        measured = mean_thr[key] / baseline if baseline > 0 else math.inf
        c = c_fit[key]
        predicted = concurrent_speedup(
            replace(params_template, processors=threads, contention=c)
        )
        ratio = measured / predicted if predicted > 0 else math.inf
        rows.append(ComparisonRow(variant, threads, measured, predicted, ratio, c))
    return rows


def write_comparison_csv(rows: list[ComparisonRow], dest) -> None:
    """Write comparison rows as CSV to a path or text file object."""
    with open_text(dest, "w") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(COMPARISON_FIELDS)
        for row in rows:
            writer.writerow(row)

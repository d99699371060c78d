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


def amdahl_speedup(p_fraction: float, processors: float) -> float:
    """The classic law: 1 / ((1 - p) + p/P)."""
    if not 0.0 <= p_fraction <= 1.0:
        raise ModelDomainError(
            f"p out of range: violates 0 <= p <= 1 (p = {p_fraction})"
        )
    if not processors >= 1:
        raise ModelDomainError(f"P out of range: violates P >= 1 (P = {processors})")
    return 1.0 / ((1.0 - p_fraction) + p_fraction / processors)


def effective_parallelism(params: ModelParams) -> float:
    """P * (1 - c) * alpha, the threads that make committed progress."""
    return params.processors * (1.0 - params.contention) * params.alpha


def _check_speedup_inputs(params: ModelParams) -> None:
    # Only what the speedup formula itself needs; the full constraint block
    # lives in validate(). Every check is written so that NaN fails it.
    if not params.processors >= 1:
        raise ModelDomainError(
            f"P out of range: violates P >= 1 (P = {params.processors})"
        )
    if not 0.0 <= params.contention <= 1.0:
        raise ModelDomainError(
            f"c out of range: violates 0 <= c <= 1 (c = {params.contention})"
        )
    if not 0.0 <= params.alpha <= 1.0:
        raise ModelDomainError(
            f"alpha out of range: violates 0 <= alpha <= 1 (alpha = {params.alpha})"
        )
    if not params.parallel_work > 0:
        raise ModelDomainError(
            f"w_p out of range: violates w_p > 0 (w_p = {params.parallel_work})"
        )
    if not params.snapshot_work >= 0:
        raise ModelDomainError(
            f"w_snapshot out of range: violates w_snapshot >= 0 "
            f"(w_snapshot = {params.snapshot_work})"
        )
    if not params.control_work >= 0:
        raise ModelDomainError(
            f"w_control out of range: violates w_control >= 0 "
            f"(w_control = {params.control_work})"
        )


def concurrent_speedup(params: ModelParams) -> float:
    """P(1-c)alpha / (1 + w_snapshot/w_p + w_control/w_p)."""
    _check_speedup_inputs(params)
    overhead = 1.0 + params.snapshot_work / params.parallel_work + (
        params.control_work / params.parallel_work
    )
    return effective_parallelism(params) / overhead


def alpha_at(t: float, params: ModelParams) -> float:
    """The hardness curve: asymptote * (1 - h**(-t)).

    The asymptote is w_snapshot * beta / w_control; alpha climbs toward it
    from 0 at t = 0, faster for harder structures (larger h).
    """
    if not params.hardness > 1:
        raise ModelDomainError(
            f"h out of domain: violates h > 1 (h = {params.hardness})"
        )
    if not params.control_work > 0:
        raise ModelDomainError(
            f"w_control out of domain: the alpha(t) asymptote needs w_control > 0 "
            f"(w_control = {params.control_work})"
        )
    if not t >= 0:
        raise ModelDomainError(f"t out of domain: violates t >= 0 (t = {t})")
    asymptote = params.snapshot_work * params.beta / params.control_work
    if not math.isfinite(asymptote):
        raise ModelDomainError(
            f"asymptote out of domain: w_snapshot*beta/w_control must be finite "
            f"(asymptote = {asymptote})"
        )
    return asymptote * (1.0 - params.hardness ** (-t))


def alpha_curve(hardness: float, asymptote: float, t_max: float, step: float) -> list[tuple[float, float]]:
    """Sample (t, alpha) pairs from 0 to t_max inclusive at the given step.

    The asymptote, t_max and step must be finite, or the grid is undefined.
    """
    if not hardness > 1:
        raise ModelDomainError(f"h out of domain: violates h > 1 (h = {hardness})")
    if not math.isfinite(asymptote):
        raise ModelDomainError(f"asymptote out of domain: must be finite (asymptote = {asymptote})")
    if not 0 < step < math.inf:
        raise ModelDomainError(f"step out of domain: violates 0 < step < inf (step = {step})")
    if not 0 <= t_max < math.inf:
        raise ModelDomainError(f"t_max out of domain: violates 0 <= t_max < inf (t_max = {t_max})")
    points = []
    n = int(math.floor(t_max / step + 1e-9))
    for i in range(n + 1):
        t = i * step
        points.append((t, asymptote * (1.0 - hardness ** (-t))))
    return points


def validate(params: ModelParams) -> list[str]:
    """Check the full constraint block; one entry per violated inequality.

    The trailing cap in 0 <= alpha <= w_snapshot*beta/w_control <= 1 binds
    alpha, not the ratio: alpha may never exceed 1 even when the ratio
    does. Every check is written so that NaN fails it.
    """
    v = []
    if not params.processors >= 1:
        v.append(f"violates P >= 1 (P = {params.processors})")
    if not 0.0 <= params.contention <= 1.0:
        v.append(f"violates 0 <= c <= 1 (c = {params.contention})")
    if not params.parallel_work > 0:
        v.append(f"violates w_p > 0 (w_p = {params.parallel_work})")
    if not params.snapshot_work > 0:
        v.append(f"violates w_snapshot > 0 (w_snapshot = {params.snapshot_work})")
    if not params.control_work >= 0:
        v.append(f"violates w_control >= 0 (w_control = {params.control_work})")
    if not params.hardness > 1:
        v.append(f"violates h > 1 (h = {params.hardness})")
    if params.snapshot_work > 0 and not (
        1.0 / params.snapshot_work <= params.beta <= 1.0
    ):
        v.append(
            f"violates 1/w_snapshot <= beta <= 1 "
            f"(1/w_snapshot = {1.0 / params.snapshot_work}, beta = {params.beta})"
        )
    if not 0.0 <= params.alpha <= 1.0:
        v.append(f"violates 0 <= alpha <= 1 (alpha = {params.alpha})")
    elif params.control_work > 0:
        bound = params.snapshot_work * params.beta / params.control_work
        if not params.alpha <= bound:
            v.append(
                f"violates alpha <= w_snapshot*beta/w_control "
                f"(alpha = {params.alpha}, bound = {bound})"
            )
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

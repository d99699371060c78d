import ast
import io
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbst.model
from cbst.bench import BenchRecord
from cbst.model import (
    COMPARISON_HEADER,
    MAX_CURVE_POINTS,
    ModelDomainError,
    ModelInputError,
    ModelParams,
    alpha_at,
    alpha_curve,
    amdahl_speedup,
    concurrent_speedup,
    fit_contention,
    predict_vs_measured,
    validate,
    write_comparison_csv,
)

from oracle import region_ok

NAN = float("nan")
INF = float("inf")


def params(**kw):
    defaults = dict(processors=4, contention=0.1)
    defaults.update(kw)
    return ModelParams(**defaults)


class TestAmdahl:
    def test_fully_sequential(self):
        assert amdahl_speedup(0.0, 64) == 1.0

    def test_fully_parallel(self):
        assert amdahl_speedup(1.0, 8) == 8.0

    def test_half_parallel_two_procs(self):
        assert amdahl_speedup(0.5, 2) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_single_processor_is_unity(self):
        for p in (0.0, 0.3, 1.0):
            assert amdahl_speedup(p, 1) == 1.0

    def test_domain_errors_name_inequality(self):
        with pytest.raises(ModelDomainError, match=r"0 <= p <= 1"):
            amdahl_speedup(-0.1, 4)
        with pytest.raises(ModelDomainError, match=r"P >= 1"):
            amdahl_speedup(0.5, 0)
        with pytest.raises(ModelDomainError, match=r"0 <= p <= 1"):
            amdahl_speedup(NAN, 4)
        with pytest.raises(ModelDomainError, match=r"P >= 1"):
            amdahl_speedup(0.5, NAN)


class TestWorkloadTerms:
    def test_effective_parallelism(self):
        # With no snapshot or control work the speedup is P(1-c)alpha, the
        # threads that make committed progress.
        assert concurrent_speedup(params(processors=32, contention=0.0)) == 32
        assert concurrent_speedup(params(processors=32, contention=1.0,
                                         alpha=0.7)) == 0
        assert concurrent_speedup(params(processors=16, contention=0.5,
                                         alpha=0.5)) == pytest.approx(4.0)


class TestConcurrentSpeedup:
    def test_perfect_scaling_limit(self):
        p = params(processors=32, contention=0.0, alpha=1.0)
        assert concurrent_speedup(p) == 32.0

    def test_worked_example(self):
        p = params(processors=16, contention=0.5, alpha=0.5,
                   snapshot_work=0.25, control_work=0.25)
        assert concurrent_speedup(p) == pytest.approx(8.0 / 3.0, abs=1e-9)

    def test_control_work_strictly_hurts(self):
        base = params(processors=8, contention=0.2, control_work=0.5)
        worse = params(processors=8, contention=0.2, control_work=1.0)
        assert concurrent_speedup(worse) < concurrent_speedup(base)

    @pytest.mark.parametrize("kw,fragment", [
        (dict(contention=1.5), r"0 <= c <= 1"),
        (dict(contention=-0.1), r"0 <= c <= 1"),
        (dict(processors=0), r"P >= 1"),
        (dict(alpha=1.1), r"0 <= alpha <= 1"),
        (dict(parallel_work=0.0), r"w_p > 0"),
        (dict(snapshot_work=-1.0), r"w_snapshot >= 0"),
        (dict(control_work=-0.5), r"w_control >= 0"),
        (dict(processors=NAN), r"P >= 1"),
        (dict(contention=NAN), r"0 <= c <= 1"),
        (dict(alpha=NAN), r"0 <= alpha <= 1"),
        (dict(parallel_work=NAN), r"w_p > 0"),
        (dict(snapshot_work=NAN), r"w_snapshot >= 0"),
        (dict(control_work=NAN), r"w_control >= 0"),
    ])
    def test_domain_errors_name_inequality(self, kw, fragment):
        with pytest.raises(ModelDomainError, match=fragment):
            concurrent_speedup(params(**kw))

    def test_error_reports_offending_value(self):
        with pytest.raises(ModelDomainError, match=r"c = 1\.5"):
            concurrent_speedup(params(contention=1.5))

    @given(
        procs=st.integers(min_value=1, max_value=512),
        c=st.floats(min_value=0, max_value=1),
        alpha=st.floats(min_value=0, max_value=1),
        ws=st.floats(min_value=0, max_value=10),
        wc=st.floats(min_value=0, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_form(self, procs, c, alpha, ws, wc):
        p = params(processors=procs, contention=c, alpha=alpha,
                   snapshot_work=ws, control_work=wc)
        expected = procs * (1 - c) * alpha / (1 + ws + wc)
        assert concurrent_speedup(p) == pytest.approx(expected, abs=1e-12)


class TestMonotonicity:
    # fixed random pairs, one axis varied per check
    def test_speedup_axes(self):
        rng = random.Random(99)
        for _ in range(500):
            procs = rng.randint(1, 64)
            c = rng.random()
            alpha = rng.random()
            ws = rng.uniform(0, 4)
            wc = rng.uniform(0, 4)
            base = params(processors=procs, contention=c, alpha=alpha,
                          snapshot_work=ws, control_work=wc)
            s = concurrent_speedup(base)
            more_p = ModelParams(**{**base.__dict__, "processors": procs + rng.randint(1, 8)})
            assert concurrent_speedup(more_p) >= s
            more_c = ModelParams(**{**base.__dict__, "contention": min(1.0, c + rng.random() * (1 - c))})
            assert concurrent_speedup(more_c) <= s + 1e-12
            more_ws = ModelParams(**{**base.__dict__, "snapshot_work": ws + rng.uniform(0, 4)})
            assert concurrent_speedup(more_ws) <= s + 1e-12
            more_wc = ModelParams(**{**base.__dict__, "control_work": wc + rng.uniform(0, 4)})
            assert concurrent_speedup(more_wc) <= s + 1e-12

    def test_amdahl_axes(self):
        rng = random.Random(7)
        for _ in range(500):
            p = rng.random()
            procs = rng.randint(1, 128)
            s = amdahl_speedup(p, procs)
            assert amdahl_speedup(min(1.0, p + rng.random() * (1 - p)), procs) >= s - 1e-12
            assert amdahl_speedup(p, procs + rng.randint(1, 16)) >= s - 1e-12


class TestAlphaCurve:
    def test_zero_at_origin(self):
        p = params(snapshot_work=2.0, control_work=1.0, hardness=2.0)
        assert alpha_at(0.0, p) == 0.0

    def test_half_asymptote_at_one_for_h2(self):
        p = params(snapshot_work=2.0, beta=0.5, control_work=1.0, hardness=2.0)
        asymptote = 2.0 * 0.5 / 1.0
        assert alpha_at(1.0, p) == pytest.approx(asymptote / 2, abs=1e-12)

    def test_approaches_asymptote(self):
        p = params(snapshot_work=3.0, beta=0.25, control_work=1.5, hardness=4.0)
        asymptote = 3.0 * 0.25 / 1.5
        assert alpha_at(200.0, p) == pytest.approx(asymptote, abs=1e-9)

    def test_matches_closed_form_random_params(self):
        rng = random.Random(31)
        for _ in range(100):
            ws = rng.uniform(0.1, 5)
            wc = rng.uniform(0.1, 5)
            beta = rng.uniform(0.05, 1)
            h = rng.uniform(1.01, 10)
            t = rng.uniform(0, 20)
            p = params(snapshot_work=ws, beta=beta, control_work=wc, hardness=h)
            expected = (ws * beta / wc) * (1 - math.exp(-t * math.log(h)))
            assert alpha_at(t, p) == pytest.approx(expected, abs=1e-9)

    def test_nondecreasing_in_t_and_bounded(self):
        p = params(snapshot_work=1.5, beta=0.9, control_work=2.0, hardness=3.0)
        asymptote = 1.5 * 0.9 / 2.0
        prev = -1.0
        for i in range(50):
            a = alpha_at(i * 0.3, p)
            assert a >= prev
            assert a <= asymptote + 1e-12
            prev = a

    def test_domain_errors(self):
        with pytest.raises(ModelDomainError, match=r"h > 1"):
            alpha_at(1.0, params(hardness=1.0, control_work=1.0))
        with pytest.raises(ModelDomainError, match="w_control"):
            alpha_at(1.0, params(hardness=2.0, control_work=0.0))
        with pytest.raises(ModelDomainError, match=r"t >= 0"):
            alpha_at(-0.5, params(hardness=2.0, control_work=1.0))

    def test_curve_sampling(self):
        pts = alpha_curve(hardness=2.0, asymptote=0.8, t_max=5.0, step=0.5)
        assert len(pts) == 11
        assert pts[0] == (0.0, 0.0)
        assert pts[-1][0] == pytest.approx(5.0)
        assert pts[2][1] == pytest.approx(0.8 * (1 - 2.0 ** -1.0), abs=1e-12)
        ts = [t for t, _ in pts]
        assert ts == sorted(ts)

    @pytest.mark.parametrize("t,field", [
        (NAN, None), (1.0, "hardness"), (1.0, "control_work"),
        (1.0, "snapshot_work"), (1.0, "beta"),
    ])
    def test_nan_rejected(self, t, field):
        kw = dict(snapshot_work=2.0, control_work=1.0, hardness=2.0)
        if field:
            kw[field] = NAN
        with pytest.raises(ModelDomainError, match="nan"):
            alpha_at(t, params(**kw))

    def test_curve_domain_errors(self):
        with pytest.raises(ModelDomainError):
            alpha_curve(1.0, 0.5, 5.0, 0.5)
        with pytest.raises(ModelDomainError):
            alpha_curve(2.0, 0.5, 5.0, 0.0)
        with pytest.raises(ModelDomainError):
            alpha_curve(2.0, 0.5, -1.0, 0.5)

    def test_curve_point_cap(self):
        # The grid is refused before it is built: t_max / step overflows to
        # inf here, and is one past the cap below.
        for t_max, step in ((1e300, 1e-10), (MAX_CURVE_POINTS, 1.0)):
            with pytest.raises(ModelDomainError, match="t_max / step"):
                alpha_curve(2.0, 1.0, t_max, step)
        assert len(alpha_curve(2.0, 1.0, MAX_CURVE_POINTS - 1, 1.0)) == MAX_CURVE_POINTS

    @pytest.mark.parametrize("args", [
        (NAN, 0.5, 5.0, 0.5), (2.0, NAN, 5.0, 0.5), (2.0, 0.5, NAN, 0.5),
        (2.0, 0.5, 5.0, NAN), (2.0, INF, 5.0, 0.5), (2.0, -INF, 5.0, 0.5),
        (2.0, 0.5, INF, 0.5), (2.0, 0.5, 5.0, INF),
    ])
    def test_curve_non_finite_rejected(self, args):
        with pytest.raises(ModelDomainError, match="nan|inf"):
            alpha_curve(*args)


class TestValidate:
    def test_worked_example_accepted(self):
        p = ModelParams(processors=8, contention=0.1, alpha=0.2, beta=0.5,
                        parallel_work=1.0, snapshot_work=4.0, control_work=1.0)
        assert validate(p) == []

    def test_contention_out_of_range(self):
        p = params(contention=1.5, snapshot_work=1.0, beta=1.0)
        v = validate(p)
        assert len(v) == 1 and "0 <= c <= 1" in v[0]

    def test_beta_below_reciprocal_floor(self):
        p = params(beta=1.0, snapshot_work=0.5, control_work=0.0)
        v = validate(p)
        assert any("1/w_snapshot" in s for s in v)

    def test_alpha_capped_at_one_even_when_ratio_exceeds_it(self):
        # ratio ws*beta/wc = 4*0.5/1 = 2, but alpha may still not pass 1
        good = ModelParams(processors=8, contention=0.1, alpha=1.0, beta=0.5,
                           parallel_work=1.0, snapshot_work=4.0, control_work=1.0)
        assert validate(good) == []
        bad = ModelParams(processors=8, contention=0.1, alpha=1.5, beta=0.5,
                          parallel_work=1.0, snapshot_work=4.0, control_work=1.0)
        assert validate(bad) != []

    def test_alpha_bound_by_ratio_when_ratio_small(self):
        p = ModelParams(processors=8, contention=0.1, alpha=0.9, beta=0.5,
                        parallel_work=1.0, snapshot_work=2.0, control_work=4.0)
        # bound = 2*0.5/4 = 0.25 < alpha
        v = validate(p)
        assert any("alpha <= w_snapshot*beta/w_control" in s for s in v)

    @pytest.mark.parametrize("field,fragment", [
        ("processors", "P >= 1"), ("contention", "0 <= c <= 1"),
        ("alpha", "0 <= alpha <= 1"), ("beta", "beta <= 1"),
        ("parallel_work", "w_p > 0"), ("snapshot_work", "w_snapshot > 0"),
        ("control_work", "w_control >= 0"), ("hardness", "h > 1"),
    ])
    def test_nan_field_reported(self, field, fragment):
        good = dict(processors=8, contention=0.1, alpha=0.2, beta=0.5,
                    parallel_work=1.0, snapshot_work=4.0, control_work=1.0)
        v = validate(ModelParams(**{**good, field: NAN}))
        assert any(fragment in s and "nan" in s for s in v), v

    def test_one_entry_per_violation(self):
        p = ModelParams(processors=0, contention=2.0, alpha=0.5, beta=1.0,
                        parallel_work=1.0, snapshot_work=1.0, control_work=0.0,
                        hardness=0.5)
        v = validate(p)
        assert len(v) == 3

    def test_region_agreement_random_vectors(self):
        rng = random.Random(1234)
        accepted = rejected = 0
        for _ in range(1000):
            P = rng.choice([0, 1, 2, 8, 16])
            c = rng.choice([-0.1, 0.0, rng.random(), 1.0, 1.2])
            alpha = rng.choice([-0.1, 0.0, rng.random(), 1.0, 1.3])
            beta = rng.choice([0.05, rng.random(), 1.0, 1.4])
            wp = rng.choice([0.0, 0.5, 1.0])
            ws = rng.choice([0.0, 0.5, 1.0, 2.0, 5.0])
            wc = rng.choice([0.0, 0.5, 1.0, 3.0])
            h = rng.choice([0.5, 1.0, 1.5, 2.0])
            p = ModelParams(processors=P, contention=c, alpha=alpha, beta=beta,
                            parallel_work=wp, snapshot_work=ws,
                            control_work=wc, hardness=h)
            expected = region_ok(P, c, alpha, beta, wp, ws, wc, h)
            got = validate(p) == []
            assert got == expected, p
            if expected:
                accepted += 1
            else:
                rejected += 1
        assert accepted > 20 and rejected > 20

    def test_formula_bounds_are_validate_bounds(self):
        # Every inequality concurrent_speedup raises on is listed by
        # validate too, over the region check's vectors plus a NaN P and a
        # negative w_control. A negative w_snapshot is left out: validate
        # tightens the formula's w_snapshot >= 0 to w_snapshot > 0.
        rng = random.Random(4321)
        raised = 0
        for _ in range(1000):
            p = ModelParams(
                processors=rng.choice([0, 1, 2, 8, 16, NAN]),
                contention=rng.choice([-0.1, 0.0, rng.random(), 1.0, 1.2]),
                alpha=rng.choice([-0.1, 0.0, rng.random(), 1.0, 1.3]),
                beta=rng.choice([0.05, rng.random(), 1.0, 1.4]),
                parallel_work=rng.choice([0.0, 0.5, 1.0]),
                snapshot_work=rng.choice([0.0, 0.5, 1.0, 2.0, 5.0]),
                control_work=rng.choice([-0.5, 0.0, 0.5, 1.0, 3.0]),
                hardness=rng.choice([0.5, 1.0, 1.5, 2.0]),
            )
            try:
                concurrent_speedup(p)
            except ModelDomainError as exc:
                raised += 1
                violation = str(exc).split(": ", 1)[1]
                assert violation in validate(p), (violation, validate(p))
        assert raised > 100

    def test_boundary_equalities_accepted(self):
        p = ModelParams(processors=1, contention=0.0, alpha=0.0, beta=1.0,
                        parallel_work=0.125, snapshot_work=1.0,
                        control_work=0.0, hardness=1.0001)
        assert validate(p) == []
        q = ModelParams(processors=1, contention=1.0, alpha=1.0, beta=0.5,
                        parallel_work=1.0, snapshot_work=2.0,
                        control_work=1.0, hardness=2.0)
        assert validate(q) == []


def record(variant, threads, throughput, contention, repeat=0):
    return BenchRecord(variant=variant, threads=threads, key_range=100,
                       insert_pct=20, delete_pct=10, search_pct=70,
                       duration_ms=100, ops_completed=1000,
                       throughput_ops_s=throughput, retries=0,
                       contention_rate=contention, wall_time_ms=100.0,
                       seed=0, repeat=repeat)


class TestFitContention:
    def test_mean_across_repeats(self):
        recs = [record("fem", 2, 100.0, 0.1, 0),
                record("fem", 2, 100.0, 0.2, 1),
                record("fem", 2, 100.0, 0.3, 2)]
        fit = fit_contention(recs)
        (key, c), = fit.items()
        assert key[:2] == ("fem", 2)
        assert c == pytest.approx(0.2)

    def test_zero_retries_give_zero(self):
        fit = fit_contention([record("fem", 1, 50.0, 0.0)])
        assert list(fit.values()) == [0.0]

    def test_groups_by_config(self):
        recs = [record("fem", 1, 50.0, 0.0), record("fem", 2, 80.0, 0.25),
                record("tn", 1, 60.0, 0.0)]
        assert len(fit_contention(recs)) == 3

    def test_empty_rejected(self):
        with pytest.raises(ModelInputError):
            fit_contention([])


class TestPredictVsMeasured:
    def template(self):
        return ModelParams(processors=1, contention=0.0, alpha=1.0)

    def test_baseline_row_is_exactly_unity(self):
        rows = predict_vs_measured([record("fem", 1, 500.0, 0.0)],
                                   self.template())
        assert rows[0].measured_speedup == 1.0

    def test_ideal_prediction_equals_thread_count(self):
        recs = [record("fem", 1, 100.0, 0.0), record("fem", 4, 250.0, 0.0)]
        rows = predict_vs_measured(recs, self.template())
        four = [r for r in rows if r.threads == 4][0]
        assert four.predicted_speedup == 4.0
        assert four.measured_speedup == pytest.approx(2.5)
        assert four.ratio == pytest.approx(2.5 / 4.0)

    def test_fitted_contention_feeds_prediction(self):
        recs = [record("fem", 1, 100.0, 0.0), record("fem", 2, 150.0, 0.25)]
        rows = predict_vs_measured(recs, self.template())
        two = [r for r in rows if r.threads == 2][0]
        assert two.c_fitted == pytest.approx(0.25)
        assert two.predicted_speedup == pytest.approx(2 * 0.75)

    def test_missing_baseline_names_config(self):
        with pytest.raises(ModelInputError, match="variant=fem"):
            predict_vs_measured([record("fem", 4, 100.0, 0.1)], self.template())

    def test_rows_sorted(self):
        recs = [record("tn", 1, 10.0, 0.0), record("fem", 2, 15.0, 0.1),
                record("fem", 1, 10.0, 0.0), record("tn", 2, 18.0, 0.1)]
        rows = predict_vs_measured(recs, self.template())
        keys = [(r.variant, r.threads) for r in rows]
        assert keys == sorted(keys)

    def test_comparison_csv(self):
        recs = [record("fem", 1, 100.0, 0.0), record("fem", 2, 150.0, 0.25)]
        rows = predict_vs_measured(recs, self.template())
        buf = io.StringIO()
        write_comparison_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == COMPARISON_HEADER
        assert lines[0] == ("variant,threads,measured_speedup,"
                            "predicted_speedup,ratio,c_fitted")
        assert len(lines) == 3


# The inequalities that the speedup formula, the constraint block and the
# alpha(t) curve share.
SHARED_INEQUALITIES = ["P >= 1", "0 <= c <= 1", "0 <= alpha <= 1", "w_p > 0",
                       "w_control >= 0", "h > 1"]


def test_each_shared_inequality_written_once():
    module = ast.parse(Path(cbst.model.__file__).read_text(encoding="utf-8"))
    texts = [node.value for node in ast.walk(module)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    counts = {ineq: sum(ineq in text for text in texts) for ineq in SHARED_INEQUALITIES}
    assert counts == dict.fromkeys(SHARED_INEQUALITIES, 1)

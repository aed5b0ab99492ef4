import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedbound import serialize, toy
from schedbound.bounds import GradNormModel, bound_curve
from schedbound.schedules import constant, wsd
from schedbound.toy import (
    RunRecord,
    ToyProblem,
    comparison_runs,
    generate_problem,
    linf_subgradient,
    loss,
    run_sgd,
)


class TestGenerateProblem:
    def test_shapes_and_consistency(self):
        p = generate_problem(20, 2, 0)
        assert p.A.shape == (20, 2)
        assert p.b.shape == (20,)
        assert p.x_oracle.shape == (2,)
        assert np.array_equal(p.b, p.A @ p.x_oracle)
        assert p.d == 2

    def test_too_large_for_memory_rejected_before_any_draw(self, monkeypatch):
        from schedbound import _checks

        # m*d + m + 3d = 66 float64 values for m = 20, d = 2
        monkeypatch.setattr(_checks, "_physical_memory", lambda: 8 * 66)
        assert generate_problem(20, 2).d == 2
        monkeypatch.setattr(_checks, "_physical_memory", lambda: 8 * 66 - 1)
        monkeypatch.setattr(toy, "_uniforms", lambda seed, n: pytest.fail("drew the problem"))
        with pytest.raises(ValueError, match="toy problem m=20, d=2 needs about .* GiB of physical memory"):
            generate_problem(20, 2)

    def test_fields_are_A_b_and_a_keyword_only_oracle(self):
        assert [f.name for f in dataclasses.fields(ToyProblem)] == ["A", "b", "x_oracle"]
        A, b = np.ones((3, 2)), np.ones(3)
        assert ToyProblem(A, b).x_oracle is None
        # a third positional argument fills no field
        with pytest.raises(TypeError):
            ToyProblem(A, b, np.zeros(2))

    def test_seed_zero_goldens(self):
        p = generate_problem(20, 2, 0)
        assert p.A[0, 0] == pytest.approx(-0.9718659286687046, rel=1e-15)
        assert p.A[0, 1] == pytest.approx(-0.48446550875076455, rel=1e-15)
        assert p.x_oracle[0] == pytest.approx(0.42574204191973597, rel=1e-15)
        assert p.x_oracle[1] == pytest.approx(-0.3411189994040389, rel=1e-15)

    def test_entries_in_unit_box(self):
        p = generate_problem(30, 4, 3)
        assert np.all(np.abs(p.A) <= 1.0)
        assert np.all(np.abs(p.x_oracle) <= 1.0)

    def test_deterministic_per_seed(self):
        a = generate_problem(10, 3, 42)
        b = generate_problem(10, 3, 42)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)
        c = generate_problem(10, 3, 43)
        assert not np.array_equal(a.A, c.A)

    SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 7, 2**200 + 3]  # 1 to 7 entropy words

    # m*d + d words: 2, 15, 42, 2114 and 100,110 leave a part-used Philox block, 24 does not;
    # 100,110 words span more than 3 slices of the rounds, and take 4 of the seeds
    @pytest.mark.parametrize(
        "m, d, seeds",
        [(1, 1, SEEDS), (2, 5, SEEDS), (20, 2, SEEDS), (7, 3, SEEDS), (301, 7, SEEDS), (10010, 10, [0, 1, 2**64 - 1, 2**200 + 3])],
        ids=["1-1", "2-5", "20-2", "7-3", "301-7", "10010-10"],
    )
    def test_draws_equal_numpy_philox_bit_for_bit(self, m, d, seeds):
        assert m < 10010 or m * d + d > 3 * 4 * toy._SLICE  # the long case spans more than 3 slices
        for seed in seeds:
            p = generate_problem(m, d, seed)
            rng = np.random.Generator(np.random.Philox(seed))
            assert np.array_equal(p.A, rng.uniform(-1.0, 1.0, size=(m, d))), seed
            assert np.array_equal(p.x_oracle, rng.uniform(-1.0, 1.0, size=d)), seed

    def test_draws_hold_one_slice_of_working_memory(self):
        n = 4_000_000
        tracemalloc.start()
        try:
            toy._uniforms(0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 33.1 MB, the 32 MB of draws and 16 words per block of one slice (144 MB unsliced)
        assert peak <= 1.5 * 8 * n + 16 * 8 * toy._SLICE

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_problem(0, 2, 0)
        with pytest.raises(ValueError):
            generate_problem(5, 0, 0)
        with pytest.raises(ValueError):
            ToyProblem(A=np.ones((3, 2)), b=np.ones(4))

    @pytest.mark.parametrize("A", [np.ones(3), np.ones((0, 2)), np.ones((3, 0)), np.ones((3, 2, 1))], ids=["1-d", "no rows", "no columns", "3-d"])
    def test_A_that_is_not_a_non_empty_matrix_rejected(self, A):
        with pytest.raises(ValueError, match="^A must be a non-empty 2-d matrix$"):
            ToyProblem(A=A, b=np.ones(3))

    def test_x_oracle_is_kept_as_a_float64_vector(self):
        p = ToyProblem(np.ones((3, 2)), np.full(3, 3.0), x_oracle=[1, 2])
        assert type(p.x_oracle) is np.ndarray and p.x_oracle.dtype == np.float64
        assert p.x_oracle.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "x_oracle, message",
        [
            ([5.0], r"x_oracle must be a finite vector of length 2, got \[5\.\]"),
            ([[1.0, 2.0]], r"x_oracle must be a finite vector of length 2, got \[\[1\. 2\.\]\]"),
            (3.0, r"x_oracle must be a finite vector of length 2, got 3\.0"),
            ([math.nan, 1.0], r"x_oracle must be a finite vector of length 2, got \[nan  1\.\]"),
            ([1.0, -math.inf], r"x_oracle must be a finite vector of length 2, got \[  1\. -inf\]"),
        ],
    )
    def test_x_oracle_of_another_shape_or_non_finite_rejected(self, x_oracle, message):
        with pytest.raises(ValueError, match=message):
            ToyProblem(np.ones((3, 2)), np.ones(3), x_oracle=x_oracle)

    @pytest.mark.parametrize(
        "A, b, name",
        [
            ([[math.nan, 1.0]], [1.0], "A"),
            ([[1.0, -math.inf]], [1.0], "A"),
            ([[math.nan, 1.0]], [math.inf], "A"),
            ([[1.0, 1.0]], [math.inf], "b"),
            ([[1.0, 1.0]], [math.nan], "b"),
        ],
    )
    def test_non_finite_A_or_b_rejected(self, A, b, name):
        # the array at fault is named, not the start point or gamma that a failing run_sgd would name
        with pytest.raises(ValueError, match=f"^{name} must be finite, got a non-finite entry$"):
            ToyProblem(np.array(A), np.array(b))


class TestLossAndSubgradient:
    def test_loss_hand_value(self):
        p = ToyProblem(A=np.array([[1.0, 0.0], [0.0, 2.0]]), b=np.array([1.0, -1.0]))
        assert loss(p, np.zeros(2)) == 1.0
        assert loss(p, np.array([2.0, 0.0])) == 1.0
        assert loss(p, np.array([0.0, 1.0])) == 3.0

    def test_subgradient_signs_and_rows(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        p = ToyProblem(A=A, b=np.array([0.0, 0.0]))
        g = linf_subgradient(p, np.array([0.0, 1.0]))  # residuals (0, 2)
        assert np.array_equal(g, A[1])
        g = linf_subgradient(p, np.array([0.0, -1.0]))  # residuals (0, -2)
        assert np.array_equal(g, -A[1])

    @pytest.mark.parametrize("x", [[0.0, 1.0], [0.0, -1.0]])
    def test_subgradient_is_not_a_view_of_A(self, x):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        p = ToyProblem(A=A, b=np.array([0.0, 0.0]))
        g = linf_subgradient(p, np.array(x))
        assert not np.shares_memory(g, p.A)
        g[:] = 7.0
        assert np.array_equal(p.A, [[1.0, 0.0], [0.0, 2.0]])

    @pytest.mark.parametrize("x", [[0.0, 1.0], [0.0, -1.0], [-1.0, 0.0], [np.nan, 1.0]])
    def test_subgradient_equals_sign_times_row_bit_for_bit(self, x):
        # the row holds -0.0 and +0.0, whose signs a multiplication by +-1.0 keeps or flips
        A = np.array([[-0.0, 0.5, 0.0], [1.5, -0.0, 0.0]])
        p = ToyProblem(A=A, b=np.array([0.0, 0.25]))
        x = np.array([*x, 0.0])
        r = A @ x - p.b
        i = int(np.argmax(np.abs(r)))
        assert linf_subgradient(p, x).tobytes() == (np.sign(r[i]) * A[i]).tobytes()

    def test_argmax_tie_breaks_to_smallest_index(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = ToyProblem(A=A, b=np.zeros(2))
        g = linf_subgradient(p, np.array([1.0, 1.0]))  # both residuals = 1
        assert np.array_equal(g, A[0])

    def test_zero_residual_gives_zero_vector(self):
        A = np.array([[1.0, 2.0]])
        p = ToyProblem(A=A, b=np.array([3.0]))
        g = linf_subgradient(p, np.array([1.0, 1.0]))  # exact fit
        assert np.array_equal(g, np.zeros(2))

    @settings(max_examples=40)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        px=st.integers(min_value=0, max_value=2**31),
    )
    def test_subgradient_validity_inequality(self, seed, px):
        p = generate_problem(8, 3, seed)
        rng = np.random.default_rng(px)
        x = rng.uniform(-2.0, 2.0, size=3)
        y = rng.uniform(-2.0, 2.0, size=3)
        g = linf_subgradient(p, x)
        assert loss(p, y) >= loss(p, x) + g @ (y - x) - 6e-15  # measured 1.6e-15 over 170,000 draws


class TestRunSgd:
    def test_losses_align_with_pre_update_iterates(self):
        p = generate_problem(10, 2, 1)
        sched = wsd(25, 0.4)
        rec = run_sgd(p, sched, 0.05, record_iterates=True)
        assert len(rec.losses) == 25
        assert rec.iterates.shape == (25, 2)
        # losses[k] is evaluated at the iterate before the k-th update
        for k in range(25):
            assert rec.losses[k] == loss(p, rec.iterates[k])
        assert rec.iterates[0].tobytes() == np.zeros(2).tobytes()  # the origin, +0.0 in each entry
        assert rec.losses[0] == loss(p, np.zeros(2))

    def test_update_rule(self):
        p = generate_problem(10, 2, 1)
        sched = constant(3)
        rec = run_sgd(p, sched, 0.1, record_iterates=True)
        x = np.zeros(2)
        for k in range(3):
            assert np.array_equal(rec.iterates[k], x)
            x = x - 0.1 * sched.values[k] * linf_subgradient(p, x)

    def test_custom_start(self):
        p = generate_problem(10, 2, 1)
        rec = run_sgd(p, constant(5), 0.1, x_start=np.array([1.0, -1.0]))
        assert rec.losses[0] == loss(p, np.array([1.0, -1.0]))

    def test_gamma_validation(self):
        p = generate_problem(5, 2, 0)
        with pytest.raises(ValueError):
            run_sgd(p, constant(5), 0.0)
        with pytest.raises(ValueError):
            run_sgd(p, constant(5), -0.1)
        with pytest.raises(ValueError, match="gamma must be finite"):
            run_sgd(p, constant(5), np.inf)
        with pytest.raises(ValueError, match="gamma must be positive"):
            run_sgd(p, constant(5), np.nan)

    def test_start_validation(self):
        p = generate_problem(5, 2, 0)
        with pytest.raises(ValueError, match="x_start must be finite"):
            run_sgd(p, constant(5), 0.1, x_start=np.array([np.inf, 0.0]))
        for x_start in (np.zeros(3), np.zeros((1, 2)), 0.0):
            with pytest.raises(ValueError, match=r"^x_start must have length 2, got shape"):
                run_sgd(p, constant(5), 0.1, x_start=x_start)

    def test_loss_out_of_range_rejected(self):
        # the residuals overflow at the start; the suite makes a RuntimeWarning an error
        p = generate_problem(20, 2, 0)
        with pytest.raises(ValueError, match=r"x_start \[1e\+308, 1e\+308\] at base learning rate gamma 0.1"):
            run_sgd(p, constant(5), 0.1, x_start=[1e308, 1e308])

    def test_iterates_too_large_for_memory_rejected_before_any_step(self, monkeypatch):
        from schedbound import _checks

        p, sched = generate_problem(10, 70, 0), constant(100)
        # T*d = 7000 float64 iterates
        monkeypatch.setattr(_checks, "_physical_memory", lambda: 8 * 7000)
        assert run_sgd(p, sched, 0.1, record_iterates=True).iterates.shape == (100, 70)
        monkeypatch.setattr(_checks, "_physical_memory", lambda: 8 * 7000 - 1)
        assert run_sgd(p, sched, 0.1).iterates is None
        monkeypatch.setattr(toy, "_loss_and_subgradient", lambda problem, x: pytest.fail("took a step"))
        with pytest.raises(ValueError, match="recorded iterates of T=100, d=70 needs about .* GiB of physical memory"):
            run_sgd(p, sched, 0.1, record_iterates=True)

    @settings(max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        start=st.sampled_from(["origin", "oracle", "offset"]),
        gamma=st.floats(min_value=1e-3, max_value=0.5),
    )
    def test_matches_two_residual_loop(self, seed, start, gamma):
        # one residual per step must give the losses and iterates of the loop
        # that forms it twice, with the loss and subgradient formulas spelled out
        p = generate_problem(12, 3, seed)
        x0 = {"origin": None, "oracle": p.x_oracle, "offset": p.x_oracle + 1e-3}[start]
        sched = wsd(60, 0.3)
        rec = run_sgd(p, sched, gamma, x_start=x0, record_iterates=True)
        x = np.zeros(p.d) if x0 is None else np.array(x0, dtype=np.float64)
        for t in range(sched.horizon):
            r = p.A @ x - p.b
            assert rec.losses[t] == float(np.max(np.abs(r)))
            assert rec.iterates[t].tobytes() == x.tobytes()
            i = int(np.argmax(np.abs(r)))
            g = np.zeros(p.d) if r[i] == 0.0 else np.sign(r[i]) * p.A[i]
            assert np.array_equal(g, linf_subgradient(p, x))
            assert rec.losses[t] == loss(p, x)
            x = x - gamma * sched.values[t] * g
        if start == "oracle":
            assert not np.any(rec.losses)

    def test_record_metadata(self):
        p = generate_problem(5, 2, 7)
        sched = constant(5)
        rec = run_sgd(p, sched, 0.1)
        assert isinstance(rec, RunRecord)
        assert rec.schedule_used is sched
        assert rec.iterates is None


class TestComparisonRuns:
    def test_default_configuration_goldens(self):
        runs = comparison_runs(seed=0, T=400)
        assert set(runs) == {"wsd", "constant", "cosine"}
        w = runs["wsd"]
        assert w.losses[0] == pytest.approx(0.5823581837214566, rel=1e-15)
        assert w.losses[319] == pytest.approx(0.020679158658531982, rel=1e-15)
        assert w.losses[399] == pytest.approx(0.0005334408140041796, rel=1e-15)
        assert runs["constant"].losses[-1] == pytest.approx(0.03311901952573666, rel=1e-15)
        assert runs["cosine"].losses[-1] == pytest.approx(1.1595518038948205e-06, rel=1e-15)

    def test_loss_drop_during_cooldown(self):
        runs = comparison_runs(seed=0, T=400)
        w = runs["wsd"].losses
        assert w[319] / w[399] > w[239] / w[319]

    def test_byte_stable_across_runs(self):
        a = comparison_runs(seed=0, T=120)
        b = comparison_runs(seed=0, T=120)
        for name in a:
            assert np.array_equal(a[name].losses, b[name].losses)
            text_a = serialize.csv_text(["t", "loss"], enumerate(a[name].losses))
            text_b = serialize.csv_text(["t", "loss"], enumerate(b[name].losses))
            assert text_a == text_b

    def test_shared_problem_instance(self):
        runs = comparison_runs(seed=3, T=50)
        # one seed-3 instance; first-step losses only differ via start point
        assert runs["wsd"].losses[0] == runs["cosine"].losses[0] == loss(generate_problem(seed=3), np.zeros(2))


def test_gradient_norms_stay_bounded_away_from_zero():
    # non-smooth objective: subgradients do not vanish even at low loss
    p = generate_problem(20, 2, 0)
    rec = run_sgd(p, wsd(400, 0.2), 0.02, record_iterates=True)
    norms = [np.linalg.norm(linf_subgradient(p, rec.iterates[t])) for t in range(200, 400)]
    row_norms = np.linalg.norm(p.A, axis=1)
    assert min(norms) > 0.1 * float(np.median(row_norms))


@pytest.mark.parametrize("name", ["wsd", "constant", "cosine"])
def test_comparison_runs_stay_below_their_bound_curve(name):
    # the last-iterate bound at horizon t sums eta_1..eta_t and bounds f(x_t),
    # which is losses[t - 1]; G bounds every subgradient (a signed row of A),
    # and D is the distance from each run's own start to the minimizer
    problem = generate_problem(seed=0)
    run = comparison_runs(seed=0, T=400)[name]
    start = np.full(problem.d, 1e-3) if name == "constant" else np.zeros(problem.d)
    D = float(np.linalg.norm(start - problem.x_oracle))
    G = float(np.max(np.linalg.norm(problem.A, axis=1)))
    gamma = {"wsd": 0.02, "constant": 0.02, "cosine": 0.04}[name]  # comparison_runs' base learning rates
    curve = bound_curve(run.schedule_used, GradNormModel(G), D, stride=1).at_gamma(gamma)
    assert np.array_equal(curve.t, np.arange(1, run.losses.size + 1))
    assert np.all(run.losses < 0.49 * curve.values)

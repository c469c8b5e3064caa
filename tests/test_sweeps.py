"""The randomized/exhaustive cross-validation sweeps themselves."""

import dataclasses

import pytest

import zerosum.sweeps as sweeps_mod
from zerosum import (
    InvalidInputError,
    make_group,
    run_all_sweeps,
    sweep_congruence,
    sweep_i0,
    sweep_row_transform,
    sweep_zerosub_soundness,
)


class TestIndividualSweeps:
    def test_i0_small(self):
        outcome = sweep_i0(ps=(3,), ts=(0,), max_T=80)
        assert outcome.name == "i0-predictions"
        assert outcome.cases > 100
        assert outcome.passed and outcome.violations == ()

    def test_i0_includes_p2_via_4_9(self):
        outcome = sweep_i0(ps=(2, 3), ts=(0, 1), max_T=60)
        assert outcome.passed

    def test_row_transform(self):
        outcome = sweep_row_transform(count=50, seed=1)
        assert outcome.cases == 50
        assert outcome.passed

    def test_congruence(self):
        outcome = sweep_congruence(samples=40, seed=2)
        assert outcome.cases == 120  # samples x 3 default groups
        assert outcome.passed

    def test_congruence_custom_groups(self):
        outcome = sweep_congruence(samples=10, seed=2, groups=(make_group([2, 2]),))
        assert outcome.cases == 10
        assert outcome.passed

    def test_zerosub_soundness(self):
        outcome = sweep_zerosub_soundness(samples=40, seed=3)
        assert outcome.cases == 40
        assert outcome.passed

    @pytest.mark.parametrize("samples", [1, 2, 5])
    def test_zerosub_soundness_runs_as_many_cases_as_asked(self, samples):
        # The odd case goes to the first plan.
        assert sweep_zerosub_soundness(samples=samples, seed=3).cases == samples

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize(
        "sweep,keyword",
        [
            (sweep_row_transform, "count"),
            (sweep_congruence, "samples"),
            (sweep_zerosub_soundness, "samples"),
        ],
        ids=["row-transform", "count-congruence", "zerosub-soundness"],
    )
    def test_no_cases_refused(self, sweep, keyword, count):
        # A sweep of no cases would report that all of them passed.
        with pytest.raises(InvalidInputError, match=f"need {keyword} >= 1"):
            sweep(**{keyword: count})


class TestRunAll:
    def test_fixed_order_and_determinism(self):
        kwargs = dict(seed=5, max_T=60, row_count=20,
                      congruence_samples=20, soundness_samples=20)
        first = run_all_sweeps(**kwargs)
        second = run_all_sweeps(**kwargs)
        assert [o.name for o in first] == [
            "i0-predictions",
            "row-transform",
            "count-congruence",
            "zerosub-soundness",
        ]
        assert first == second
        assert all(o.passed for o in first)


def _value_plus_one(original):
    def faulty(dec):
        pred = original(dec)
        return pred if pred.value is None else dataclasses.replace(pred, value=pred.value + 1)

    return faulty


FAULTS = {
    "predict_i0 value+1": ("predict_i0", _value_plus_one),
    "check_4_7 always true": ("check_4_7", lambda original: lambda *args: True),
    "check_4_9 always true": ("check_4_9", lambda original: lambda *args: True),
    "compute_i0 always None": ("compute_i0", lambda original: lambda *args, **kwargs: None),
}


class TestSweepCatchesFaults:
    """Each injected fault must surface as a violation, so a passing sweep
    means something."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_reported(self, monkeypatch, fault):
        name, make_faulty = FAULTS[fault]
        monkeypatch.setattr(sweeps_mod, name, make_faulty(getattr(sweeps_mod, name)))
        outcome = sweep_i0(ps=(3,), ts=(0, 1), max_T=80)
        assert outcome.cases > 100
        assert not outcome.passed

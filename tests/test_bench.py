"""The shared bench harness: determinism check, leaf diff, gates."""

import copy
import json
import os

import pytest

from repro.bench import (SCENARIOS, NonDeterministicRun, Scenario, check,
                         diff, load, run)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _committed(name):
    with open(os.path.join(_ROOT, f"BENCH_{name}.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_workload_equals_the_committed_section(name):
    """Importing a scenario runs nothing; its workload is the file's."""
    written = json.loads(json.dumps(load(name).workload))
    assert written == _committed(name).get("workload", {})


def test_repeats_that_disagree_name_the_first_differing_leaf():
    runs = iter([9.0, 9.5])

    def once():
        timeline = [{"t": 1.0}, {"t": 4.0}, {"t": next(runs)}]
        return {"fail_slow": {"timeline": timeline}}, {}

    stub = Scenario(name="stub", workload={}, run=once)
    with pytest.raises(NonDeterministicRun,
                       match=r"invariants\.fail_slow\.timeline\[2\]\.t: "
                             r"9\.0 != 9\.5"):
        run(stub, repeats=2)


def test_runner_keeps_the_best_named_measurement():
    walls = iter([3.0, 1.0, 2.0])
    stub = Scenario(name="stub", workload={"seed": 0},
                    best="current.wall_s",
                    run=lambda: ({"jobs": 1},
                                 {"current": {"wall_s": next(walls)}}))
    result = run(stub, repeats=3)
    assert result["current"] == {"wall_s": 1.0}
    assert result["repeats"] == 3 and result["invariants"] == {"jobs": 1}


class TestObsLeafDiff:
    """String and bool leaves are diffed, not dropped."""

    @pytest.fixture
    def obs(self):
        committed = _committed("obs")
        return load("obs"), committed, copy.deepcopy(committed)

    def test_committed_copy_matches(self, obs):
        scenario, committed, fresh = obs
        assert check(scenario, fresh, committed) == []

    def test_string_leaf_drift_fails(self, obs):
        scenario, committed, fresh = obs
        fresh["invariants"]["driver_crash"]["driver_down_labels"] = "driver=0"
        assert check(scenario, fresh, committed) == [
            "invariants.driver_crash.driver_down_labels: 'driver=0' != "
            "'driver=1'"]

    def test_bool_leaf_drift_fails(self, obs):
        scenario, committed, fresh = obs
        fresh["invariants"]["fail_slow"]["exemplars_resolve"] = False
        assert check(scenario, fresh, committed) == [
            "invariants.fail_slow.exemplars_resolve: False != True"]

    def test_leaf_missing_on_either_side_fails(self, obs):
        scenario, committed, fresh = obs
        del fresh["invariants"]["fault_free"]["completed"]
        fresh["workload"]["extra"] = 1
        failures = check(scenario, fresh, committed)
        assert "workload.extra: 1 != (missing)" in failures
        assert any(f.startswith("invariants.fault_free.completed: "
                                "(missing) != ") for f in failures)

    def test_overhead_is_gated_not_diffed(self, obs):
        scenario, committed, fresh = obs
        fresh["observed_overhead"]["ms_per_sim_s"] = 49.0
        assert check(scenario, fresh, committed) == []
        fresh["observed_overhead"]["ms_per_sim_s"] = 51.0
        [failure] = check(scenario, fresh, committed)
        assert "exceeds the 50.0 ms budget" in failure
        # Gates hold without a baseline to diff against, too.
        assert check(scenario, fresh) == [failure]


@pytest.mark.parametrize("drift,failures", [(0.019, 0), (0.021, 1)])
def test_clarity_numbers_drift_within_tolerance(drift, failures):
    committed = _committed("clarity")
    fresh = copy.deepcopy(committed)
    fresh["candidates"][2]["actual_p95_s"] += drift
    found = check(load("clarity"), fresh, committed)
    assert len(found) == failures
    assert all(f.startswith("candidates[2].actual_p95_s: ") for f in found)


def test_clarity_gates_hold_the_ranking_and_envelope():
    committed = _committed("clarity")
    fresh = dict(committed, ranking_matches=False)
    assert "advisor ranking no longer matches ground truth" in check(
        load("clarity"), fresh, committed)
    fresh = dict(committed, max_error_p95=0.31)
    assert check(load("clarity"), fresh) == [
        "max_error_p95 0.31 exceeds the 0.3 envelope"]


def test_leaf_types_are_compared_exactly():
    assert diff({"a": True}, {"a": 1}) == ["a: True != 1"]
    assert diff({"a": []}, {"a": {}}) == ["a: [] != {}"]
    assert diff({"a": (1, 2)}, {"a": [1, 2]}) == []
    assert diff({"a": 2}, {"a": 2.0}) == []

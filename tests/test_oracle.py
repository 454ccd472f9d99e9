import math

import pytest

from blochpulse.bloch import PulseTarget
from blochpulse.bounded import reachable_boundary
from blochpulse.errors import DidNotConverge
from blochpulse.oracle import _Rollout, oracle_transcription

QUARTER = math.pi / 2


class TestRollout:
    def test_single_saturated_segment_follows_reachable_boundary(self):
        # one segment at u = m traces the outermost trajectory
        m = 2.0
        rollout = _Rollout(
            n_segments=1,
            seg_dt=1.5,
            n_sub=64,
            target_theta=math.pi,
            target_radius=0.1,
        )
        rollout.reset([m])
        theta_end = rollout.theta[-1]
        r_end = math.exp(rollout.log_r[-1])
        assert r_end == pytest.approx(reachable_boundary(theta_end, m), abs=1e-6)

    def test_min_distance_monotone(self):
        rollout = _Rollout(1, 1.0, 32, QUARTER, 0.6)
        rollout.reset([1.5])
        assert all(
            b <= a for a, b in zip(rollout.min_dist, rollout.min_dist[1:])
        )

    def test_settled_probe_matches_full_rollout(self):
        # the trajectory passes the target early and then decays inside its
        # radius, so probes stop short; their miss and the states marched
        # lazily after each commit must equal those of a full rollout
        controls = [1.5] * 20 + [0.0] * 40
        rollout = _Rollout(60, 0.1, 4, QUARTER, 0.6)
        full = _Rollout(60, 0.1, 4, QUARTER, 0.6)
        rollout.reset(controls)
        stopped = 0
        for index, value in ((5, 1.35), (12, 1.6), (30, 0.2), (59, 0.1)):
            tail = rollout.probe(controls, index, value)
            stopped += len(tail[1]) < 60 - index
            changed = list(controls)
            changed[index] = value
            assert tail[0] == full.reset(changed)
            rollout.commit(index, tail)
            controls[index] = value
        assert stopped == 4
        assert rollout.valid < 60
        rollout.probe(controls, 60, 0.0)
        assert rollout.theta == full.theta
        assert rollout.log_r == full.log_r
        assert rollout.min_dist == full.min_dist


class TestTranscriptionSearch:
    def test_small_search_converges(self, example2):
        target = PulseTarget(0.61, QUARTER)
        result = oracle_transcription(
            2.0,
            target,
            n_segments=60,
            evaluations=3000,
            seed=3,
            restarts=0,
            program=example2,
        )
        assert result.endpoint_error <= 1e-3
        assert result.best_energy >= example2.energy - 1e-2
        assert result.best_energy <= example2.energy * 1.1
        assert len(result.control_grid) == 60
        assert all(0.0 <= u <= 2.0 for u in result.control_grid)

    def test_deterministic_for_fixed_seed(self, example2):
        target = PulseTarget(0.61, QUARTER)
        kwargs = dict(
            n_segments=60, evaluations=1500, seed=11, restarts=1, program=example2
        )
        first = oracle_transcription(2.0, target, **kwargs)
        second = oracle_transcription(2.0, target, **kwargs)
        assert first.best_energy == second.best_energy
        assert first.endpoint_error == second.endpoint_error
        assert first.control_grid == second.control_grid

    def test_half_turn_target_is_truncated(self, example1):
        target = PulseTarget(0.39, math.pi)
        result = oracle_transcription(
            2.0,
            target,
            n_segments=60,
            evaluations=4000,
            seed=5,
            restarts=0,
            program=example1,
        )
        assert result.target_theta == pytest.approx(math.pi - 1e-3)
        # the mapped radius sits on the program's final smooth arc
        assert result.target_radius == pytest.approx(
            example1.radius_at(math.pi - 1e-3), rel=1e-12
        )
        assert result.endpoint_error <= 1e-3

    def test_budget_too_small_raises(self, example2):
        with pytest.raises(DidNotConverge):
            oracle_transcription(
                2.0,
                PulseTarget(0.61, QUARTER),
                n_segments=20,
                evaluations=25,
                seed=1,
                restarts=0,
                program=example2,
            )

    def test_segment_count_validated(self, example2):
        with pytest.raises(ValueError):
            oracle_transcription(
                2.0,
                PulseTarget(0.61, QUARTER),
                n_segments=10,
                evaluations=100,
                program=example2,
            )

    def test_json_fields(self, example2):
        result = oracle_transcription(
            2.0,
            PulseTarget(0.61, QUARTER),
            n_segments=60,
            evaluations=1000,
            seed=3,
            restarts=0,
            program=example2,
        )
        import json

        raw = json.loads(result.to_json())
        assert set(raw) == {
            "best_energy",
            "endpoint_error",
            "horizon",
            "target_theta",
            "target_radius",
            "evaluations",
            "control_grid",
        }
        assert len(raw["control_grid"]) == 60

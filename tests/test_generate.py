"""The seeded scenario generator: determinism, bounds, admission.

The campaign-scale guarantees under test: the same seed always draws
the byte-identical topology and spec (and therefore the identical
golden run digest), different seeds explore the parameter space, and
the admission oracle reproducibly rejects the same broken candidates
without ever running them.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.generate import (
    PROFILES,
    admit,
    build_generated,
    draw_topology,
    fault_summary,
    generate_candidates,
    profile_by_name,
)
from repro.runner import ScenarioSpec, SweepRunner, run_scenario
from repro.runner.cache import CheckCache

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------
def test_profiles_cover_the_documented_space():
    assert set(PROFILES) >= {"mixed", "small", "large", "faults", "bench"}
    for prof in PROFILES.values():
        assert prof.nodes[0] >= 3  # a relay chain needs sender/gw/consumer
        assert prof.nodes[0] <= prof.nodes[1]
        assert prof.vns[0] >= 2
        assert prof.horizon_ns > 0


def test_unknown_profile_raises():
    with pytest.raises(ConfigurationError):
        profile_by_name("nope")


# ----------------------------------------------------------------------
# topology determinism & bounds
# ----------------------------------------------------------------------
def test_same_seed_draws_identical_topology():
    prof = profile_by_name("mixed")
    assert draw_topology(12345, prof) == draw_topology(12345, prof)


def test_different_seeds_draw_different_topologies():
    prof = profile_by_name("mixed")
    drawn = {draw_topology(seed, prof) for seed in range(40)}
    assert len(drawn) > 30  # near-total diversity, tiny collision slack


def test_topology_respects_profile_bounds():
    prof = profile_by_name("large")
    for seed in range(50):
        topo = draw_topology(seed, prof)
        assert prof.nodes[0] <= len(topo.nodes) <= prof.nodes[1]
        assert prof.vns[0] <= len(topo.chain_vns) + len(topo.noise) \
            <= prof.vns[1] + len(topo.noise)
        assert 1 <= len(topo.hops) <= prof.gateways[1]
        assert topo.hops[-1].dst_kind == "TT"  # terminal hop is TT state
        assert topo.sender_period_ns in prof.sender_periods_ns
        for hop in topo.hops:
            if hop.dst_kind == "TT":
                assert hop.dst_period_ns in prof.periods_ns
            else:
                assert hop.dst_period_ns == 0
            assert hop.host in topo.nodes


def test_fault_profile_always_draws_a_fault_plan():
    prof = profile_by_name("faults")
    kinds = set()
    for seed in range(30):
        topo = draw_topology(seed, prof)
        assert topo.fault is not None
        assert 0 < topo.fault.at_ns < prof.horizon_ns
        kinds.add(topo.fault.kind)
    assert kinds == {"crash", "babble", "timing"}


def test_plain_profiles_never_draw_faults():
    prof = profile_by_name("mixed")
    assert all(draw_topology(seed, prof).fault is None for seed in range(30))


# ----------------------------------------------------------------------
# candidate specs
# ----------------------------------------------------------------------
def test_same_seed_yields_byte_identical_specs():
    a = generate_candidates(25, "mixed", base_seed=7)
    b = generate_candidates(25, "mixed", base_seed=7)
    assert ([json.dumps(s.as_dict(), sort_keys=True) for s in a]
            == [json.dumps(s.as_dict(), sort_keys=True) for s in b])


def test_different_base_seeds_yield_different_candidates():
    a = generate_candidates(10, "mixed", base_seed=0)
    b = generate_candidates(10, "mixed", base_seed=1)
    assert all(x.seed != y.seed for x, y in zip(a, b))


def test_candidate_specs_round_trip_and_rebuild():
    spec = generate_candidates(1, "small")[0]
    clone = ScenarioSpec.from_dict(spec.as_dict())
    assert clone == spec
    assert clone.builder == "generated"
    sim = build_generated(clone)
    assert sim is not None


def test_generated_builder_is_registered():
    from repro.runner import BUILDERS

    assert "generated" in BUILDERS


# ----------------------------------------------------------------------
# admission gating
# ----------------------------------------------------------------------
def test_admission_is_reproducible_and_counts_rejections():
    candidates = generate_candidates(40, "mixed")
    first, summary1 = admit(candidates)
    second, summary2 = admit(candidates)
    assert [s.name for s in first] == [s.name for s in second]
    assert summary1.rejected_names == summary2.rejected_names
    assert summary1.as_dict() == summary2.as_dict()
    assert summary1.total == 40
    assert summary1.admitted + summary1.rejected == 40
    assert summary1.rejected == len(summary1.rejected_names)
    # the oracle must actually reject something in a 40-candidate
    # mixed-profile stream — an all-pass gate guards nothing
    assert summary1.rejected > 0
    assert summary1.rejected_rules


def test_admission_with_cache_matches_uncached(tmp_path):
    candidates = generate_candidates(15, "mixed")
    cold, s_cold = admit(candidates, CheckCache(tmp_path))
    warm, s_warm = admit(candidates, CheckCache(tmp_path))
    bare, s_bare = admit(candidates)
    assert [s.name for s in cold] == [s.name for s in warm] \
        == [s.name for s in bare]
    assert s_cold.as_dict() == s_warm.as_dict() == s_bare.as_dict()


def test_admitted_candidates_pass_strict_preflight(tmp_path):
    # zero gate escapes by construction: admission == pre-flight
    candidates = generate_candidates(12, "mixed")
    specs, _ = admit(candidates, CheckCache(tmp_path))
    runner = SweepRunner(workers=1, cache_dir=str(tmp_path), strict=True)
    runner.preflight(specs)  # must not raise


# ----------------------------------------------------------------------
# end-to-end determinism (golden digests)
# ----------------------------------------------------------------------
def test_generated_run_digest_is_deterministic():
    spec = next(iter(admit(generate_candidates(6, "small"))[0]))
    a = run_scenario(spec)
    b = run_scenario(spec)
    assert a["digest"] == b["digest"]
    assert a["events_executed"] == b["events_executed"]


def test_generated_campaign_digests_stable_across_runners(tmp_path):
    """Bare runs (no cache, no ledger), cold sweeps with two chunk sizes
    and a fully warm re-sweep all yield the same digests."""
    specs, _ = admit(generate_candidates(8, "small"))
    bare = [run_scenario(spec, ledger_path=None) for spec in specs]
    runner = SweepRunner(workers=1, cache_dir=str(tmp_path / "a"))
    r1 = runner.run(specs)
    r2 = SweepRunner(workers=1, cache_dir=str(tmp_path / "b"),
                     chunk_size=1).run(specs)
    warm = runner.run(specs)
    assert not r1["errors"] and not r2["errors"] and not warm["errors"]
    assert warm["cache_hits"] == len(specs)
    assert all(r["cached"] for r in warm["scenarios"])
    digests = [r["digest"] for r in bare]
    for report in (r1, r2, warm):
        assert [r["digest"] for r in report["scenarios"]] == digests


# ----------------------------------------------------------------------
# fault campaigns
# ----------------------------------------------------------------------
def test_fault_campaign_summary_buckets_by_kind(tmp_path):
    specs, _ = admit(generate_candidates(10, "faults"))
    report = SweepRunner(workers=1, cache_dir=str(tmp_path)).run(specs)
    assert not report["errors"]
    table = fault_summary(report["scenarios"], specs)
    assert set(table) <= {"crash", "babble", "timing", "none"}
    assert sum(row["runs"] for row in table.values()) == len(specs)
    for row in table.values():
        assert 0.0 <= row["survival_rate"] <= 1.0
        assert row["survived"] <= row["delivering"] <= row["runs"]
        if row["containment_rate"] is not None:
            assert row["containment_runs"] > 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))

"""Incremental `repro check`: digest-keyed report cache, hit/miss
accounting, and the CLI surface that exposes it."""

from __future__ import annotations

import json

import pytest

from repro.check.targets import scenario_targets
from repro.cli import main as cli_main
from repro.runner.cache import CheckCache, check_key, code_digest
from repro.runner.scenarios import default_registry


@pytest.fixture()
def spec():
    return default_registry()["tdma-smoke"]


class TestCheckKey:
    def test_stable_for_identical_inputs(self, spec):
        assert check_key(spec, "codeA") == check_key(spec, "codeA")

    def test_changes_with_code_digest(self, spec):
        assert check_key(spec, "codeA") != check_key(spec, "codeB")

    def test_changes_with_spec(self, spec):
        other = default_registry()["car-smoke"]
        assert check_key(spec, "codeA") != check_key(other, "codeA")

    def test_distinct_from_result_key_space(self, spec):
        # The checks cache must never collide with the results cache for
        # the same (spec, code) pair.
        from repro.runner.cache import result_key
        assert check_key(spec, "codeA") != result_key(spec, "codeA")


class TestCheckCache:
    def test_roundtrip_and_tallies(self, tmp_path, spec):
        cache = CheckCache(tmp_path)
        key = check_key(spec, "c1")
        assert cache.get(spec, key) is None           # miss
        payload = [{"rule": "FLOW001", "message": "m"}]
        cache.put(spec, key, payload)
        assert cache.get(spec, key) == payload        # hit
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1

    def test_clear_removes_entries_and_tallies(self, tmp_path, spec):
        cache = CheckCache(tmp_path)
        cache.put(spec, check_key(spec, "c1"), [])
        cache.get(spec, check_key(spec, "c1"))
        assert cache.clear() == 1
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats.get("hits", 0) == 0 and stats.get("misses", 0) == 0

    def test_code_change_invalidates(self, tmp_path, spec):
        cache = CheckCache(tmp_path)
        cache.put(spec, check_key(spec, "c1"), [{"rule": "X"}])
        assert cache.get(spec, check_key(spec, "c2")) is None


class TestScenarioTargets:
    def test_warm_run_is_a_hit_with_equal_diagnostics(self, tmp_path):
        cache = CheckCache(tmp_path)
        cold = [d.as_dict()
                for t in scenario_targets(["tdma-smoke"], cache=cache)
                for d in t.diagnostics()]
        warm = [d.as_dict()
                for t in scenario_targets(["tdma-smoke"], cache=cache)
                for d in t.diagnostics()]
        assert cold == warm
        stats = cache.stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_cacheless_call_still_works(self):
        targets = scenario_targets(["tdma-smoke"], cache=None)
        assert targets and targets[0].kind == "scenario"
        assert isinstance(targets[0].diagnostics(), list)


class TestCheckCli:
    def test_warm_check_hits_the_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cc")
        argv = ["check", "--scenarios", "tdma-smoke", "--cache-dir", cache_dir]
        assert cli_main(argv) == 0
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(["cache", "stats", "--cache-dir", cache_dir,
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["hits"] >= 1
        assert payload["checks"]["misses"] >= 1

    def test_no_cache_writes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cc"
        assert cli_main(["check", "--scenarios", "tdma-smoke", "--no-cache",
                         "--cache-dir", str(cache_dir)]) == 0
        assert not (cache_dir / "checks").exists()

    def test_cache_clear_reports_check_reports(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cc")
        assert cli_main(["check", "--scenarios", "tdma-smoke",
                         "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert cli_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "check report" in out


class TestCodeDigest:
    def test_digest_is_stable_within_a_process(self):
        digest = code_digest()
        assert digest == code_digest()
        assert digest and all(c in "0123456789abcdef" for c in digest)

    def test_source_edit_changes_digest_and_bytecode_cache_does_not(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n")
        (pkg / "sub" / "b.py").write_text("y = 2\n")
        before = code_digest((pkg,))
        assert before == code_digest((pkg,))
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "x.py").write_text("z = 3\n")
        (pkg / "sub" / "__pycache__").mkdir()
        (pkg / "sub" / "__pycache__" / "x.py").write_text("z = 3\n")
        assert code_digest((pkg,)) == before
        (pkg / "sub" / "b.py").write_text("y = 3\n")
        assert code_digest((pkg,)) != before


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))

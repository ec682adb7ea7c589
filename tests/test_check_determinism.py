"""Determinism lint: every forbidden pattern fires, pragmas waive,
and the shipped simulator core is clean."""

from __future__ import annotations

import pytest

from repro.check import DEFAULT_LINT_PACKAGES, lint_paths, lint_source
from repro.check.determinism import DEFAULT_LINT_FILES, default_lint_roots
from repro.check.diagnostics import Severity


def rules_of(diags):
    return {d.rule for d in diags}


class TestForbiddenPatterns:
    def test_det001_time_import(self):
        src = "from time import perf_counter\n"
        assert rules_of(lint_source(src, "x.py")) == {"DET001"}

    def test_det001_time_attribute_call(self):
        src = "import time\nt = time.monotonic()\n"
        assert "DET001" in rules_of(lint_source(src, "x.py"))

    def test_det001_datetime_now(self):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert "DET001" in rules_of(lint_source(src, "x.py"))

    def test_det002_import_random(self):
        assert rules_of(lint_source("import random\n", "x.py")) == {"DET002"}

    def test_det002_from_random_import(self):
        src = "from random import choice\n"
        assert rules_of(lint_source(src, "x.py")) == {"DET002"}

    def test_det002_relative_random_is_sanctioned(self):
        # `from .random import RandomStreams` is the seeded in-repo module.
        src = "from .random import RandomStreams\n"
        assert lint_source(src, "x.py") == []

    def test_det003_iteration_over_set_literal(self):
        src = "for x in {1, 2, 3}:\n    pass\n"
        assert rules_of(lint_source(src, "x.py")) == {"DET003"}

    def test_det003_iteration_over_set_call(self):
        src = "for x in set(items):\n    pass\n"
        assert "DET003" in rules_of(lint_source(src, "x.py"))

    def test_det003_comprehension_over_set_union(self):
        src = "out = [x for x in a_set | b_set if x]\n"
        # a_set/b_set are plain names — undecidable, must NOT flag...
        assert lint_source(src, "x.py") == []
        # ...but an explicit set expression in the union must.
        src2 = "out = [x for x in {1} | other]\n"
        assert "DET003" in rules_of(lint_source(src2, "x.py"))

    def test_det003_sorted_iteration_is_fine(self):
        src = "for x in sorted({1, 2, 3}):\n    pass\n"
        assert lint_source(src, "x.py") == []

    def test_det004_uuid_import(self):
        assert "DET004" in rules_of(lint_source("import uuid\n", "x.py"))

    def test_det004_os_environ(self):
        src = "import os\nhome = os.environ['HOME']\n"
        assert "DET004" in rules_of(lint_source(src, "x.py"))

    def test_det004_listdir(self):
        src = "from os import listdir\n"
        assert "DET004" in rules_of(lint_source(src, "x.py"))

    def test_all_findings_are_errors(self):
        src = ("import random\nimport uuid\n"
               "from time import time\nfor x in {1}:\n    pass\n")
        diags = lint_source(src, "x.py")
        assert len(diags) >= 4
        assert all(d.severity is Severity.ERROR for d in diags)
        assert all(d.location.line is not None for d in diags)


class TestPragmas:
    def test_bare_pragma_waives_all(self):
        src = "from time import perf_counter  # det-ok\n"
        assert lint_source(src, "x.py") == []

    def test_scoped_pragma_waives_named_rule(self):
        src = "from time import perf_counter  # det-ok: DET001\n"
        assert lint_source(src, "x.py") == []

    def test_scoped_pragma_does_not_waive_other_rules(self):
        src = "import random  # det-ok: DET001\n"
        assert rules_of(lint_source(src, "x.py")) == {"DET002"}

    def test_pragma_only_covers_its_line(self):
        src = ("from time import perf_counter  # det-ok\n"
               "import random\n")
        assert rules_of(lint_source(src, "x.py")) == {"DET002"}


class TestShippedCore:
    def test_default_packages_are_lint_clean(self):
        diags = lint_paths()
        assert diags == [], "\n".join(
            f"{d.location.file}:{d.location.line} {d.rule} {d.message}"
            for d in diags)

    def test_default_packages_cover_the_guarded_packages(self):
        assert DEFAULT_LINT_PACKAGES == (
            "sim", "core_network", "gateway", "vn", "ledger", "generate",
            "platform", "apps", "faults", "systems", "messaging", "spec",
            "automata")
        assert DEFAULT_LINT_FILES == ("runner/telemetry.py",)

    def test_default_roots_include_ledger_and_telemetry(self):
        roots = default_lint_roots()
        names = {r.name for r in roots}
        assert "ledger" in names
        assert "telemetry.py" in names
        assert all(r.exists() for r in roots), roots

    def test_ledger_wallclock_sites_are_pragma_sanctioned(self):
        # The ledger timestamps records and telemetry paces a live
        # display — both touch the wall clock on purpose.  The lint must
        # SEE those sites (coverage) while the pragmas keep them clean.
        base = default_lint_roots()[0].parent
        for rel in ("ledger/store.py", "runner/telemetry.py"):
            source = (base / rel).read_text()
            assert "# det-ok: DET001" in source, rel
            stripped = source.replace("# det-ok: DET001", "# pragma removed")
            assert any(d.rule == "DET001"
                       for d in lint_source(stripped, rel)), (
                f"{rel}: lint no longer detects the sanctioned site")

    def test_cli_tool_matches_library(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        diags = lint_paths([str(bad)])
        assert rules_of(diags) == {"DET002"}


class TestSeededRandomMode:
    """The scenario generator's relaxed DET002: seeded Random only."""

    GEN = "src/repro/generate/x.py"

    def test_seeded_random_instance_is_allowed(self):
        src = "from random import Random\nr = Random(42)\n"
        assert lint_source(src, self.GEN) == []

    def test_module_alias_seeded_random_is_allowed(self):
        src = "import random\nr = random.Random(seed)\n"
        assert lint_source(src, self.GEN) == []

    def test_unseeded_random_instance_flags(self):
        src = "from random import Random\nr = Random()\n"
        assert rules_of(lint_source(src, self.GEN)) == {"DET002"}

    def test_unseeded_module_random_instance_flags(self):
        src = "import random\nr = random.Random()\n"
        assert rules_of(lint_source(src, self.GEN)) == {"DET002"}

    def test_global_stream_call_flags(self):
        src = "import random\nx = random.random()\n"
        assert rules_of(lint_source(src, self.GEN)) == {"DET002"}

    def test_global_stream_import_flags(self):
        src = "from random import randint\n"
        assert rules_of(lint_source(src, self.GEN)) == {"DET002"}

    def test_global_seed_call_flags(self):
        src = "import random\nrandom.seed(1)\n"
        assert rules_of(lint_source(src, self.GEN)) == {"DET002"}

    def test_wall_clock_still_forbidden_in_generate(self):
        src = "import time\nt = time.time()\n"
        assert "DET001" in rules_of(lint_source(src, self.GEN))

    def test_core_packages_keep_the_strict_mode(self):
        src = "from random import Random\nr = Random(42)\n"
        assert rules_of(lint_source(src, "src/repro/sim/x.py")) == {"DET002"}

    def test_generate_package_is_covered_and_clean(self):
        # Coverage self-test: the generator package is in the default
        # roots, the lint visits its seeded-Random sites (strict mode
        # over the same files would flag them), and the relaxed mode
        # leaves the shipped sources clean.
        roots = default_lint_roots()
        gen = [r for r in roots if r.name == "generate"]
        assert gen and gen[0].is_dir()
        topo = gen[0] / "topology.py"
        source = topo.read_text()
        assert lint_source(source, str(topo)) == []
        strict = lint_source(source, str(topo), allow_seeded_random=False)
        assert "DET002" in rules_of(strict), (
            "coverage self-test: the lint no longer sees the generator's "
            "Random sites")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))

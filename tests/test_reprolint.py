"""Tests for the reprolint static invariant checker (tools.reprolint).

Coverage map (mirroring tests/test_lint.py for the netlist linter):

* per-rule positive/negative coverage from the
  ``tests/reprolint_fixtures`` corpus (every rule has a triggering and
  a passing snippet) plus an every-rule-covered meta-test;
* injected-violation acceptance checks: a naked ``np.random.normal``,
  a ``Workload`` field missing from ``config()`` and an unlocked
  ``self._entries`` write are each caught with the correct rule id and
  file:line;
* suppression and baseline mechanics (mandatory reason, unknown
  rules, locus matching);
* report/finding mechanics: exit codes, ordering, JSON rendering;
* the ``python -m tools.reprolint`` CLI (text, ``--json``,
  ``--list-rules``, ``--only``, ``--write-baseline``);
* the tier-1 regression: the live ``src/repro`` tree passes clean.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import (RULES, SEVERITIES, Finding, Report,  # noqa: E402
                             analyze, iter_rules, load_baseline,
                             parse_modules, rule)
from tools.reprolint.__main__ import main  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "reprolint_fixtures"

# ---------------------------------------------------------------------------
# corpus-driven per-rule coverage
# ---------------------------------------------------------------------------

#: fixture name -> rule id every finding in it must carry
BAD_FIXTURES = {
    "bad_rng": "rng-discipline",
    "bad_lane_plan": "lane-plan",
    "bad_fingerprint_determinism": "fingerprint-determinism",
    "bad_fingerprint_completeness": "fingerprint-completeness",
    "bad_lock": "lock-discipline",
    "bad_telemetry": "telemetry-hygiene",
    "bad_error": "error-contract",
    "bad_suppression": "suppression-hygiene",
}

GOOD_FIXTURES = [
    "good_rng", "good_lane_plan", "good_fingerprint_determinism",
    "good_fingerprint_completeness", "good_lock", "good_telemetry",
    "good_error", "good_suppression",
]


@pytest.mark.parametrize("name", sorted(BAD_FIXTURES))
def test_bad_fixture_triggers_its_rule(name):
    report = analyze([FIXTURES / f"{name}.py"])
    assert report.findings, f"{name} produced no findings"
    assert {f.rule for f in report.findings} == {BAD_FIXTURES[name]}
    for finding in report.findings:
        assert finding.path.endswith(f"{name}.py")
        assert finding.line > 0
        assert finding.severity == "error"


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_good_fixture_is_clean(name):
    report = analyze([FIXTURES / f"{name}.py"])
    assert report.findings == [], report.render_text()
    assert report.exit_code() == 0


def test_every_rule_has_bad_and_good_coverage():
    assert set(BAD_FIXTURES.values()) == set(RULES)
    stems = {name.replace("bad_", "").replace("-", "_")
             for name in BAD_FIXTURES}
    good_stems = {name.replace("good_", "") for name in GOOD_FIXTURES}
    assert stems == good_stems


def test_live_src_tree_is_clean():
    report = analyze([REPO_ROOT / "src" / "repro"])
    assert report.files_scanned > 50
    assert report.ok(), report.render_text()
    assert len(report.rules_run) >= 6


# ---------------------------------------------------------------------------
# injected-violation acceptance checks
# ---------------------------------------------------------------------------

def _one_finding(tmp_path, source, rule_id, only=None):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    report = analyze([path], only=only)
    matches = [f for f in report.findings if f.rule == rule_id]
    assert matches, report.render_text()
    return matches


def test_injected_naked_np_random_normal(tmp_path):
    findings = _one_finding(tmp_path, (
        "import numpy as np\n"
        "\n"
        "\n"
        "def sample(n):\n"
        "    return np.random.normal(0.0, 1.0, size=n)\n"
    ), "rng-discipline")
    assert findings[0].line == 5
    assert findings[0].path.endswith("snippet.py")
    assert "np.random.normal" in findings[0].message


def test_injected_seedless_default_rng(tmp_path):
    findings = _one_finding(tmp_path, (
        "import numpy as np\n"
        "rng = np.random.default_rng()\n"
    ), "rng-discipline")
    assert findings[0].line == 2


def test_injected_workload_field_missing_from_config(tmp_path):
    findings = _one_finding(tmp_path, (
        "class Workload:\n"
        "    pass\n"
        "\n"
        "\n"
        "class W(Workload):\n"
        "    def __init__(self, seed, lanes):\n"
        "        self.seed = seed\n"
        "        self.lanes = lanes\n"
        "\n"
        "    def config(self):\n"
        "        return {'seed': self.seed}\n"
    ), "fingerprint-completeness")
    assert findings[0].line == 8
    assert findings[0].locus == "W.lanes"


def test_injected_unlocked_entries_write(tmp_path):
    findings = _one_finding(tmp_path, (
        "import threading\n"
        "\n"
        "\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._entries = {}\n"
        "\n"
        "    def put(self, k, v):\n"
        "        with self._lock:\n"
        "            self._entries[k] = v\n"
        "\n"
        "    def wipe(self):\n"
        "        self._entries = {}\n"
    ), "lock-discipline")
    assert findings[0].line == 14
    assert "_entries" in findings[0].message


def test_injected_wall_clock_in_config(tmp_path):
    findings = _one_finding(tmp_path, (
        "import time\n"
        "\n"
        "\n"
        "class W:\n"
        "    def config(self):\n"
        "        return {'at': time.time()}\n"
    ), "fingerprint-determinism")
    assert findings[0].line == 6


def test_import_aliases_are_resolved(tmp_path):
    # The violation hides behind both import styles.
    _one_finding(tmp_path, (
        "from numpy.random import normal\n"
        "x = normal(size=3)\n"
    ), "rng-discipline")
    _one_finding(tmp_path, (
        "import numpy.random as nr\n"
        "x = nr.uniform(size=3)\n"
    ), "rng-discipline")


def test_lock_held_private_helper_is_not_flagged(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "import threading\n"
        "\n"
        "\n"
        "class Sink:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0\n"
        "\n"
        "    def emit(self):\n"
        "        with self._lock:\n"
        "            self._n += 1\n"
        "            if self._n > 10:\n"
        "                self._rotate()\n"
        "\n"
        "    def _rotate(self):\n"
        "        self._n = 0\n"
    )
    report = analyze([path], only=["lock-discipline"])
    assert report.findings == [], report.render_text()


def test_parse_error_becomes_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    report = analyze([path])
    assert [f.rule for f in report.findings] == ["parse-error"]
    assert report.exit_code() == 1


# ---------------------------------------------------------------------------
# suppression and baseline mechanics
# ---------------------------------------------------------------------------

_VIOLATION = ("import numpy as np\n"
              "x = np.random.normal(size=2){comment}\n")


def test_reasoned_suppression_silences_and_is_counted(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(_VIOLATION.format(
        comment="  # reprolint: disable=rng-discipline -- known legacy"))
    report = analyze([path])
    assert report.findings == []
    assert report.suppressed == 1


def test_reasonless_suppression_does_not_silence(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(_VIOLATION.format(
        comment="  # reprolint: disable=rng-discipline"))
    report = analyze([path])
    rules_found = {f.rule for f in report.findings}
    # The violation still fires AND the lazy suppression is a finding.
    assert rules_found == {"rng-discipline", "suppression-hygiene"}


def test_standalone_suppression_comment_covers_next_line(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "import numpy as np\n"
        "# reprolint: disable=rng-discipline -- demo exemption\n"
        "x = np.random.normal(size=2)\n")
    report = analyze([path])
    assert report.findings == []
    assert report.suppressed == 1


def test_suppression_only_covers_named_rule(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(_VIOLATION.format(
        comment="  # reprolint: disable=error-contract -- wrong rule"))
    report = analyze([path])
    assert {f.rule for f in report.findings} == {"rng-discipline"}


def test_baseline_matches_on_rule_path_locus(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "class Workload:\n"
        "    pass\n"
        "\n"
        "\n"
        "class W(Workload):\n"
        "    def __init__(self, lanes):\n"
        "        self.lanes = lanes\n"
        "\n"
        "    def config(self):\n"
        "        return {}\n")
    entries = [{"rule": "fingerprint-completeness",
                "path": "snippet.py", "locus": "W.lanes"}]
    report = analyze([path], baseline_entries=entries)
    assert report.findings == []
    assert report.baselined == 1
    # A non-matching locus does not baseline the finding away.
    report = analyze([path], baseline_entries=[
        {"rule": "fingerprint-completeness", "path": "snippet.py",
         "locus": "W.other"}])
    assert len(report.findings) == 1


def test_load_baseline(tmp_path):
    target = tmp_path / "baseline.json"
    assert load_baseline(target) == []
    target.write_text(json.dumps(
        {"entries": [{"rule": "r", "path": "p", "locus": ""}]}))
    assert load_baseline(target) == [{"rule": "r", "path": "p", "locus": ""}]
    target.write_text(json.dumps({"entries": "nope"}))
    with pytest.raises(ValueError):
        load_baseline(target)


def test_shipped_baseline_is_loadable():
    entries = load_baseline(
        REPO_ROOT / "tools" / "reprolint" / "baseline.json")
    assert isinstance(entries, list)


# ---------------------------------------------------------------------------
# registry / report / finding mechanics
# ---------------------------------------------------------------------------

def test_rule_registry_contents():
    assert len(RULES) >= 6
    for rule_id, entry in RULES.items():
        assert entry.rule_id == rule_id
        assert entry.severity in SEVERITIES
        assert entry.summary


def test_rule_registration_guards():
    with pytest.raises(ValueError, match="severity"):
        rule("tmp-bad-severity", "fatal", "x")
    with pytest.raises(ValueError, match="duplicate"):
        rule("rng-discipline", "error", "x")(lambda ctx: iter(()))


def test_iter_rules_only_selection():
    selected = iter_rules(["rng-discipline", "error-contract"])
    assert {r.rule_id for r in selected} == {"rng-discipline",
                                            "error-contract"}
    with pytest.raises(ValueError, match="unknown"):
        iter_rules(["no-such-rule"])


def test_only_selection_in_analyze(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(
        "import numpy as np\n"
        "x = np.random.normal(size=2)\n"
        "try:\n"
        "    pass\n"
        "except:\n"
        "    pass\n")
    report = analyze([path], only=["error-contract"])
    assert {f.rule for f in report.findings} == {"error-contract"}


def test_finding_validation_and_render():
    with pytest.raises(ValueError, match="severity"):
        Finding("r", "catastrophic", "m")
    finding = Finding("r", "error", "broken", path="a.py", line=3,
                      hint="fix it")
    text = finding.render()
    assert "a.py:3: error[r]: broken" in text
    assert "hint: fix it" in text
    assert finding.baseline_entry() == {"rule": "r", "path": "a.py",
                                        "locus": ""}


def test_report_ordering_counts_and_exit_codes():
    report = Report(source="x")
    report.add(Finding("b", "warning", "w", path="b.py", line=9))
    report.add(Finding("a", "error", "e", path="a.py", line=2))
    ordered = report.sorted_findings()
    assert [f.path for f in ordered] == ["a.py", "b.py"]
    assert report.count("error") == 1 and report.count("warning") == 1
    assert report.exit_code() == 1
    warn_only = Report(findings=[Finding("a", "warning", "w")])
    assert warn_only.exit_code() == 0
    assert warn_only.exit_code(strict=True) == 1
    assert Report().exit_code(strict=True) == 0


def test_report_json_roundtrip(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text("import numpy as np\nx = np.random.normal(size=2)\n")
    report = analyze([path])
    payload = json.loads(report.render_json())
    assert payload["ok"] is False
    assert payload["counts"]["error"] == 1
    assert payload["findings"][0]["rule"] == "rng-discipline"
    assert payload["files_scanned"] == 1


def test_parse_modules_builds_alias_table(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text("import numpy as np\nfrom json import dumps\n")
    modules, errors = parse_modules([path])
    assert errors == []
    assert modules[0].aliases["np"] == "numpy"
    assert modules[0].aliases["dumps"] == "json.dumps"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_clean_and_failing(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("VALUE = 1\n")
    assert main([str(good)]) == 0
    assert "clean" in capsys.readouterr().out
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nx = np.random.normal(size=2)\n")
    assert main([str(bad)]) == 1
    assert "rng-discipline" in capsys.readouterr().out


def test_cli_json_mode(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nx = np.random.normal(size=2)\n")
    assert main([str(bad), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_cli_unknown_only_is_usage_error(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("VALUE = 1\n")
    assert main([str(good), "--only", "no-such-rule"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "class Workload:\n"
        "    pass\n"
        "\n"
        "\n"
        "class W(Workload):\n"
        "    def __init__(self, lanes):\n"
        "        self.lanes = lanes\n"
        "\n"
        "    def config(self):\n"
        "        return {}\n")
    baseline = tmp_path / "baseline.json"
    assert main([str(bad), "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()
    assert main([str(bad), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out

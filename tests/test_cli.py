"""Command-line interface: exit codes, report schema, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gtsystems
from gtsystems import __version__
from gtsystems.cli import DEFAULT_SEED, main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse error paths
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestReportSchema:
    def test_json_report_fields(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--d", "3", "--a", "2")
        assert code == 0
        report = json.loads(out)
        assert report["tool_version"] == __version__
        assert report["command"] == "invariants"
        assert report["inputs"]["d"] == 3
        assert isinstance(report["results"], dict)
        for check in report["checks"]:
            assert check["status"] in {"pass", "fail", "finding"}

    def test_explicit_action_triple(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--d", "42", "--action", "0,3,7")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["mu"] == 28

    def test_gt_verdict_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "gt-verdict", "--d", "7", "--a", "3")
        assert code == 0
        report = json.loads(out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["artinian"] == "pass"
        assert statuses["injectivity_fails"] == "pass"
        assert statuses["generator_bound"] == "pass"

    def test_general_form_sampling_ranks_agree(self, capsys):
        code, out, _ = run_cli(capsys, "gt-verdict", "--d", "5", "--a", "2", "--general-l", "3")
        assert code == 0
        report = json.loads(out)
        samples = report["results"]["general_form_samples"]
        assert len(samples) == 3
        base = report["results"]["base_rank"]
        assert all(s["rank"] == base for s in samples)

    def test_classify_reports_finding_not_failure(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--d", "7")
        assert code == 0
        report = json.loads(out)
        statuses = {c["status"] for c in report["checks"]}
        assert "finding" in statuses  # published-vs-oracle count mismatch
        assert "fail" not in statuses


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_invalid_d(self, capsys):
        code, _, _ = run_cli(capsys, "invariants", "--d", "0", "--a", "2")
        assert code == 1

    def test_invalid_action_weights(self, capsys):
        code, _, _ = run_cli(capsys, "invariants", "--d", "6", "--action", "0,2,4")
        assert code == 1

    def test_missing_required_argument(self, capsys):
        code, _, _ = run_cli(capsys, "invariants")
        assert code == 1

    def test_oversized_request_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "circulant", "--d", "25")
        assert code == 1

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gtsystems.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "subcommand" in proc.stdout or "usage" in proc.stdout


class TestVerdictAtLargeD:
    def test_repeated_weight_above_rank_report_limit(self, capsys):
        code, out, _ = run_cli(capsys, "gt-verdict", "--d", "40", "--action", "0,1,1")
        assert code == 0
        verdict = json.loads(out)["results"]["verdict"]
        assert verdict["mu"] == 42
        assert verdict["fails_injectivity"] is True
        assert verdict["fails_wlp_at_d_minus_1"] is False
        assert verdict["is_togliatti"] is False  # mu 42 > d + 1

    def test_beyond_product_limit(self, capsys):
        code, out, _ = run_cli(capsys, "gt-verdict", "--d", "200", "--action", "0,1,3")
        assert code == 0
        verdict = json.loads(out)["results"]["verdict"]
        assert verdict["fails_injectivity"] is True
        assert verdict["is_togliatti"] is True

    @pytest.mark.parametrize("argv,n", [
        (("--d", "13", "--a", "4"), 1),
        (("--d", "40", "--action", "0,1,3"), 2),
    ])
    def test_general_form_sampling_at_any_d(self, capsys, argv, n):
        code, out, _ = run_cli(capsys, "gt-verdict", *argv, "--general-l", str(n))
        assert code == 0
        results = json.loads(out)["results"]
        assert len(results["general_form_samples"]) == n
        assert all(s["rank"] == results["base_rank"] for s in results["general_form_samples"])


class TestCirculantSection:
    def test_section_above_former_limit(self, capsys):
        code, out, _ = run_cli(capsys, "circulant", "--d", "100", "--a", "1", "--b", "3")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["support_complete"] is True
        assert results["n_terms"] == 53

    def test_section_beyond_limit_is_invalid_input(self, capsys):
        code, _, err = run_cli(capsys, "circulant", "--d", "129", "--a", "1", "--b", "3")
        assert code == 1
        assert "128" in err


class TestDependencies:
    def test_runs_without_numpy(self):
        # numpy is no dependency: with its import blocked, the subset oracle
        # and a large verdict still run
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from gtsystems.cli import main\n"
            "codes = [main(['minimal', '--d', '7', '--action', '0,1,3', '--subset-oracle']),\n"
            "         main(['gt-verdict', '--d', '64', '--action', '0,1,3'])]\n"
            "sys.exit(1 if any(codes) else 0)\n"
        )
        src = str(Path(gtsystems.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert '"minimal_subset_oracle": true' in proc.stdout
        assert '"command": "gt-verdict"' in proc.stdout


class TestFormats:
    def test_markdown(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--d", "7", "--format", "md")
        assert code == 0
        assert out.startswith("# gtsys classify")
        assert "| members | size | type |" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--d", "3", "--a", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "section,key,value,detail"
        assert any(line.startswith("meta,tool_version,") for line in lines)

    def test_stream_mode_emits_one_json_per_unit(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture-scan", "--dmax", "4", "--stream")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        units = [json.loads(ln) for ln in lines]
        assert len(units) == 9  # (d=3: 3 pairs) + (d=4: 6 pairs)
        assert all("status" in u for u in units)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "minimal", "--d", "5", "--a", "2", "--out", str(target))
        assert code == 0
        report = json.loads(target.read_text())
        assert report["command"] == "minimal"


class TestDeterminism:
    def test_reports_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "report", "--d", "7", "--a", "3")
        _, out2, _ = run_cli(capsys, "report", "--d", "7", "--a", "3")
        assert out1 == out2

    def test_seed_changes_sampled_coefficients(self, capsys):
        base = ("gt-verdict", "--d", "5", "--a", "2", "--general-l", "2")
        _, out1, _ = run_cli(capsys, *base, "--seed", "1")
        _, out2, _ = run_cli(capsys, *base, "--seed", "2")
        _, out3, _ = run_cli(capsys, *base, "--seed", "1")
        assert out1 == out3
        assert out1 != out2

    def test_default_seed_constant(self):
        assert isinstance(DEFAULT_SEED, int)


class TestCompositeReport:
    def test_report_aggregates_sections(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--d", "7", "--a", "3")
        assert code == 0
        report = json.loads(out)
        names = {c["name"] for c in report["checks"]}
        # the composite report prefixes each check with its originating section
        assert "verdict.artinian" in names
        assert "minimal.minimal_circulant" in names
        assert "membership.random_forms" in names
        assert all(c["status"] != "fail" for c in report["checks"])

    def test_surface_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--d", "5")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["degree_model"]["degree"] == 5

    def test_arrangement_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "arrangement", "--type", "fermat", "--d", "4")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["lines"] == 12

    def test_conjecture_scan_no_findings(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture-scan", "--dmax", "5")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["findings"] == []

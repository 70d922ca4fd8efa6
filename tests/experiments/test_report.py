"""Tests for the Markdown report generator."""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.report import _markdown_table, generate_report


class TestMarkdownTable:
    def test_renders_header_and_rows(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.25}]
        table = _markdown_table(rows)
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert "| 1 | 2.500 |" in table

    def test_empty_rows(self):
        assert _markdown_table([]) == "(no rows)"


class TestGenerateReport:
    def test_single_experiment(self):
        text = generate_report(["area"])
        assert "# FlexFlow Reproduction Results" in text
        assert "## area" in text
        assert "| architecture |" in text

    def test_multiple_sections_ordered(self):
        text = generate_report(["fig01", "area"])
        assert text.index("## fig01") < text.index("## area")

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError, match="fig99"):
            generate_report(["fig99"])

    def test_custom_title(self):
        text = generate_report(["area"], title="My Report")
        assert text.startswith("# My Report")

    def test_results_md_is_the_report(self):
        """RESULTS.md is ``repro report`` output, every section included;
        regenerate it with ``REPRO_CACHE=off repro report -o RESULTS.md``."""
        results = Path(__file__).resolve().parents[2] / "RESULTS.md"
        assert results.read_text(encoding="utf-8") == generate_report()


class TestReportCommand:
    def test_writes_file(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        # Restrict to one fast experiment by monkeypatching the registry
        # would change semantics; instead just write the real report for
        # one id through generate_report and the file path through the CLI
        # using a stubbed generator.
        import repro.experiments.report as report_mod

        monkeypatch.setattr(
            report_mod, "generate_report", lambda **kwargs: "# stub report\n"
        )
        target = tmp_path / "results.md"
        assert main(["report", "-o", str(target)]) == 0
        assert target.read_text() == "# stub report\n"
        assert "wrote" in capsys.readouterr().out

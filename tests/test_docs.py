"""Documentation health: links resolve, code blocks compile, doctests run.

Three guards over the repo's Markdown:

* every intra-repo link (``[text](relative/path)``) points at a file
  that exists;
* every fenced ``python`` code block parses (we compile, not execute —
  blocks may assume optional extras or long runtimes);
* documents containing ``>>>`` interpreter sessions pass ``doctest``
  (these are live examples, executed here).

It also checks that the metric catalog in ``docs/OBSERVABILITY.md``
lists exactly the series the code registers, and that every ``repro``
subcommand and ``--flag`` the docs name exists in the CLI.
"""

import doctest
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown covered by the link and code-block checks.
DOC_FILES = sorted(
    [
        *REPO_ROOT.glob("*.md"),
        *(REPO_ROOT / "docs").glob("*.md"),
    ]
)

#: The verify skill spells out CLI probes, so the CLI checks read it too.
CLI_DOC_FILES = DOC_FILES + [
    REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
]

#: Root documents that describe the CLI as it is now.  The root's records
#: of past and planned changes name flags a later change retired, so the
#: flag check reads only these of the root documents.
CURRENT_ROOT_DOCS = {
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "RESULTS.md",
    "ROADMAP.md",
}
FLAG_DOC_FILES = [
    p
    for p in CLI_DOC_FILES
    if p.parent != REPO_ROOT or p.name in CURRENT_ROOT_DOCS
]

#: Documents whose ``>>>`` examples are executed as doctests.
DOCTEST_FILES = [
    REPO_ROOT / "docs" / "OBSERVABILITY.md",
    REPO_ROOT / "docs" / "FAULTS.md",
    REPO_ROOT / "docs" / "DATAFLOWS.md",
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)


def _strip_fences(text: str) -> str:
    """Drop fenced code blocks so example links aren't link-checked."""
    return _FENCE.sub("", text)


def _doc_ids(paths):
    return [str(p.relative_to(REPO_ROOT)) for p in paths]


@pytest.mark.parametrize("path", DOC_FILES, ids=_doc_ids(DOC_FILES))
def test_intra_repo_links_resolve(path):
    text = _strip_fences(path.read_text(encoding="utf-8"))
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.name}: broken links {broken}"


@pytest.mark.parametrize("path", DOC_FILES, ids=_doc_ids(DOC_FILES))
def test_python_code_blocks_compile(path):
    text = path.read_text(encoding="utf-8")
    failures = []
    for index, match in enumerate(_FENCE.finditer(text)):
        language, body = match.group(1), match.group(2)
        if language != "python" or ">>>" in body:
            continue  # doctest blocks are executed, not just compiled
        try:
            compile(body, f"{path.name}[block {index}]", "exec")
        except SyntaxError as exc:
            failures.append(f"block {index}: {exc}")
    assert not failures, f"{path.name}: {failures}"


@pytest.mark.parametrize(
    "path", DOCTEST_FILES, ids=_doc_ids(DOCTEST_FILES)
)
def test_doc_examples_run(path):
    results = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.attempted > 0, f"{path.name}: no examples found"
    assert results.failed == 0


def test_every_docs_page_reachable_from_readme():
    """No orphan documentation: README links must reach every docs page.

    Follows intra-repo Markdown links transitively from README.md and
    asserts every ``docs/*.md`` file is visited — a new page must be
    linked from the README (directly or via another reachable page) to
    be discoverable.
    """
    queue = [REPO_ROOT / "README.md"]
    reachable = set()
    while queue:
        page = queue.pop()
        if page in reachable or not page.exists():
            continue
        reachable.add(page)
        text = _strip_fences(page.read_text(encoding="utf-8"))
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if relative.endswith(".md"):
                queue.append((page.parent / relative).resolve())
    orphans = sorted(
        str(path.relative_to(REPO_ROOT))
        for path in (REPO_ROOT / "docs").glob("*.md")
        if path.resolve() not in reachable
    )
    assert not orphans, f"docs pages unreachable from README.md: {orphans}"


#: ``repro <word>`` in running text or code; the lookbehind skips
#: Python ``from repro import ...`` statements.
_CLI_MENTION = re.compile(r"(?<!from )\brepro ([a-z][a-z0-9_]*)\b")


def _cli_parser():
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.cli import _build_parser
    finally:
        sys.path.pop(0)
    return _build_parser()


def _subparsers(parser):
    """``name -> subparser`` for ``parser``'s subcommands (empty if none)."""
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _cli_subcommands():
    commands = set(_subparsers(_cli_parser()))
    assert commands, "CLI parser has no subcommands"
    return commands


def _long_options(parser):
    """Every ``--option`` of ``parser`` and of its nested subcommands."""
    options = {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    for child in _subparsers(parser).values():
        options |= _long_options(child)
    return options


#: An inline code span; it may wrap lines.
_INLINE_CODE = re.compile(r"`([^`]+)`")
#: A long option that is not the tail of a longer word.
_LONG_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: Shell separators: a flag after one belongs to the next command.  A
#: pipe needs blanks around it, so a synopsis's ``auto|cext`` is no pipe.
_SHELL_SEPARATOR = re.compile(r"\s\|\|?\s|&&|;")


def _code_units(text):
    """Each fenced code line (``\\`` continuations joined) and inline span."""
    units = []
    for _language, body in _FENCE.findall(text):
        units.extend(body.replace("\\\n", " ").splitlines())
    units.extend(_INLINE_CODE.findall(_strip_fences(text)))
    return units


def _flag_mentions(unit):
    """``(subcommand, flag)`` for each ``--flag`` after a ``repro <cmd>``."""
    for segment in _SHELL_SEPARATOR.split(unit):
        mentions = list(_CLI_MENTION.finditer(segment))
        ends = [m.start() for m in mentions[1:]] + [len(segment)]
        for mention, end in zip(mentions, ends):
            for flag in _LONG_FLAG.findall(segment, mention.end(), end):
                yield mention.group(1), flag


@pytest.mark.parametrize("path", CLI_DOC_FILES, ids=_doc_ids(CLI_DOC_FILES))
def test_repro_cli_mentions_exist(path):
    """Every ``repro <cmd>`` a doc mentions must be a real subcommand."""
    commands = _cli_subcommands()
    text = path.read_text(encoding="utf-8")
    unknown = sorted(
        {
            mention
            for mention in _CLI_MENTION.findall(text)
            if mention not in commands
        }
    )
    assert not unknown, (
        f"{path.name} mentions nonexistent repro subcommands {unknown};"
        f" known: {sorted(commands)}"
    )


def test_flag_mentions_parse_code_units():
    text = (
        "Run `python -m repro dse all\n  --dims 8,16` or\n"
        "```bash\nrepro experiment all --jobs 2 \\\n"
        "  --timeout 60 | head --lines 1\n```\n"
        "`repro dse PV [--kernels a|b] [--jobs N]`, `--jobs` alone.\n"
    )
    mentions = [
        found for unit in _code_units(text) for found in _flag_mentions(unit)
    ]
    assert sorted(mentions) == [
        ("dse", "--dims"),
        ("dse", "--jobs"),
        ("dse", "--kernels"),
        ("experiment", "--jobs"),
        ("experiment", "--timeout"),
    ]


@pytest.mark.parametrize("path", FLAG_DOC_FILES, ids=_doc_ids(FLAG_DOC_FILES))
def test_repro_cli_flags_exist(path):
    """Every ``--flag`` after ``repro <cmd>`` in one code span or code-block
    line must be an option of that subcommand (or of one nested in it)."""
    parser = _cli_parser()
    options = {
        name: _long_options(child)
        for name, child in _subparsers(parser).items()
    }
    unknown = sorted(
        {
            f"repro {command} {flag}"
            for unit in _code_units(path.read_text(encoding="utf-8"))
            for command, flag in _flag_mentions(unit)
            if command in options and flag not in options[command]
        }
    )
    assert not unknown, f"{path.name} names nonexistent CLI flags {unknown}"


def test_doctest_coverage_list_is_current():
    """Any doc that grows ``>>>`` examples must join DOCTEST_FILES."""
    with_examples = {
        path
        for path in DOC_FILES
        if any(
            lang == "" and ">>>" in body or lang == "python" and ">>>" in body
            for lang, body in _FENCE.findall(
                path.read_text(encoding="utf-8")
            )
        )
    }
    missing = with_examples - set(DOCTEST_FILES)
    assert not missing, f"add {sorted(missing)} to DOCTEST_FILES"


#: ``REGISTRY.counter("name", ...)`` (or ``gauge`` / ``histogram``); the
#: name may sit on the next line.
_REGISTRY_CALL = re.compile(r"REGISTRY\.(?:counter|gauge|histogram)\(")
_REGISTERED = re.compile(
    r"REGISTRY\.(counter|gauge|histogram)\(\s*(f?)\"([^\"]+)\""
)
#: ``_record_cache_outcome("layer_cache", ...)`` registers
#: ``mapper.layer_cache`` through the mapper's ``f"mapper.{name}"``.
_CACHE_OUTCOME = re.compile(r"_record_cache_outcome\(\s*\"(\w+)\"")
_MAPPER_TEMPLATE = "mapper.{name}"
_CATALOG_ROW = re.compile(
    r"^\| `([a-z_.]+)` \| (counter|gauge|histogram) \|", re.MULTILINE
)


def _registered_series():
    """Series name -> kind for every registry call under ``src/``."""
    series = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        calls = _REGISTERED.findall(text)
        assert len(calls) == len(_REGISTRY_CALL.findall(text)), (
            f"{path.name}: a registry call without a literal series name"
        )
        for kind, templated, name in calls:
            if templated:
                assert name == _MAPPER_TEMPLATE, (
                    f"{path.name}: templated series {name!r}; teach this"
                    " test how to expand it"
                )
                continue
            series[name] = kind
        for name in _CACHE_OUTCOME.findall(text):
            series[_MAPPER_TEMPLATE.format(name=name)] = "counter"
    return series


def test_metric_catalog_matches_registered_series():
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(
        encoding="utf-8"
    )
    section = text.split("### Metric catalog", 1)[1].split("\n#", 1)[0]
    catalog = dict(_CATALOG_ROW.findall(section))
    registered = _registered_series()
    assert "mapper.layer_cache" in registered
    missing = sorted(set(registered) - set(catalog))
    assert not missing, f"registered but not in the catalog: {missing}"
    stale = sorted(set(catalog) - set(registered))
    assert not stale, f"catalog rows nothing registers: {stale}"
    wrong_kind = {
        name: (catalog[name], kind)
        for name, kind in registered.items()
        if catalog[name] != kind
    }
    assert not wrong_kind, f"catalog kind != registered kind: {wrong_kind}"

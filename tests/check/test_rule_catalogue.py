"""The rule catalogue must not drift: the module docstrings, the
``RULES``/``DATAFLOW_RULES`` registries, and ``docs/static_analysis.md``
all list the same rules in the same order."""

import re
from pathlib import Path

import repro.check.dataflow as dataflow_module
import repro.check.lint as lint_module
from repro.check.dataflow import DATAFLOW_RULES
from repro.check.lint import RULES

REPO = Path(__file__).resolve().parents[2]

_BULLET = re.compile(r"^\* \*\*(CHK\d{3})\*\*", re.MULTILINE)
_TABLE_ROW = re.compile(r"^\| `(CHK\d{3})` \|", re.MULTILINE)


class TestRegistries:
    def test_registries_do_not_overlap(self):
        assert not set(RULES) & set(DATAFLOW_RULES)

    def test_numbering_is_contiguous_across_both(self):
        # CHK008 and CHK012 policed the in-place plan mutators, which
        # are gone; their numbers stay retired, never reused.
        retired = {"CHK008", "CHK012"}
        combined = list(RULES) + list(DATAFLOW_RULES)
        assert not retired & set(combined)
        assert combined == [
            f"CHK{i:03d}" for i in range(1, len(combined) + len(retired) + 1)
            if f"CHK{i:03d}" not in retired
        ]

    def test_every_rule_has_a_description(self):
        for catalogue in (RULES, DATAFLOW_RULES):
            assert all(catalogue.values())


class TestDocstrings:
    def test_lint_docstring_lists_pattern_rules_in_registry_order(self):
        assert _BULLET.findall(lint_module.__doc__) == list(RULES)

    def test_dataflow_docstring_lists_its_rules_in_registry_order(self):
        assert _BULLET.findall(dataflow_module.__doc__) == list(DATAFLOW_RULES)


class TestDocs:
    def test_static_analysis_doc_tables_match_registry_order(self):
        doc = (REPO / "docs" / "static_analysis.md").read_text()
        assert _TABLE_ROW.findall(doc) == list(RULES) + list(DATAFLOW_RULES)

    def test_static_analysis_doc_mentions_every_rule_description_home(self):
        doc = (REPO / "docs" / "static_analysis.md").read_text()
        for rule in (*RULES, *DATAFLOW_RULES):
            assert rule in doc, f"{rule} missing from docs/static_analysis.md"

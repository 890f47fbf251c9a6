"""The CHK lint rules: each must fire on a seeded violation, stay quiet
on the sanctioned pattern, honor pragmas -- and the repo must be clean."""

from pathlib import Path

from repro.check.lint import RULES, lint_paths, lint_source

REPO = Path(__file__).resolve().parents[2]

# Path contexts: CORE enables every src rule incl. CHK004; PLAIN is src/
# but outside core/; TESTS is exempt from CHK002/CHK003.
CORE = "src/repro/core/example.py"
PLAIN = "src/repro/workloads/example.py"
TESTS = "tests/core/test_example.py"


def rules(source, path=PLAIN):
    return [f.rule for f in lint_source(source, path)]


class TestChk001FlatPlanMutation:
    def test_unsanctioned_method_store(self):
        src = (
            "class FlatPlan:\n"
            "    def rebalance(self):\n"
            "        self.slot_ref = []\n"
        )
        assert rules(src, CORE) == ["CHK001"]

    def test_patch_method_is_sanctioned(self):
        # Plans never change once built: __init__ is the one sanctioned
        # writer, and a patch method is just another method.
        src = (
            "class FlatPlan:\n"
            "    def __init__(self):\n"
            "        self.slot_ref = []\n"
            "    def patch_insert(self):\n"
            "        self.pair_keys = []\n"
        )
        assert [(f.rule, f.line) for f in lint_source(src, CORE)] == [
            ("CHK001", 5)
        ]

    def test_alias_subscript_store(self):
        # peek_plan() / export_plan() hand out the maintained plan,
        # which lock-free readers may hold.
        for source in (
            "compile_plan(index)", "index.peek_plan()", "index.export_plan()"
        ):
            src = (
                "def corrupt(index):\n"
                f"    plan = {source}\n"
                "    plan.pair_keys[0] = 1.0\n"
            )
            assert rules(src) == ["CHK001"], source

    def test_flat_attribute_mutating_call(self):
        src = "def corrupt(index):\n    index._flat.values.append(None)\n"
        assert rules(src) == ["CHK001"]

    def test_plain_local_list_is_not_a_plan(self):
        src = (
            "def build():\n"
            "    values = []\n"
            "    values.append(1)\n"
            "    values[0] = 2\n"
        )
        assert rules(src) == []


class TestChk002BareAssert:
    SRC = "def f(x):\n    assert x > 0\n"

    def test_flagged_in_src(self):
        assert rules(self.SRC) == ["CHK002"]

    def test_exempt_in_tests_and_benchmarks(self):
        assert rules(self.SRC, TESTS) == []
        assert rules(self.SRC, "benchmarks/bench_example.py") == []

    def test_pragma_waives(self):
        src = (
            "def f(x):\n"
            "    assert x > 0  # repro-check: allow CHK002 -- narrowing\n"
        )
        assert rules(src) == []

    def test_pragma_for_other_rule_does_not_waive(self):
        src = (
            "def f(x):\n"
            "    assert x > 0  # repro-check: allow CHK004 -- wrong rule\n"
        )
        assert rules(src) == ["CHK002"]

    def test_pragma_anywhere_on_multiline_statement(self):
        src = (
            "def f(x):\n"
            "    assert (\n"
            "        x > 0  # repro-check: allow CHK002 -- narrowing\n"
            "    )\n"
        )
        assert rules(src) == []


class TestChk003CostLiterals:
    def test_compute_with_cycle_literal(self):
        assert rules("tracer.compute(17.0)") == ["CHK003"]

    def test_literal_inside_expression(self):
        assert rules("tracer.compute(130.0 / 8.0)") == ["CHK003"]

    def test_non_calibration_float_ok(self):
        assert rules("tracer.compute(3.0)") == []

    def test_integer_literals_are_not_cost_charges(self):
        assert rules("tracer.compute(2 * step)") == []

    def test_cycles_per_op_retyping(self):
        assert rules("c = CyclesPerOp(cache_miss=130.0)") == ["CHK003"]

    def test_mu_e_keyword(self):
        assert rules("model_cost(n, mu_e=17.0)") == ["CHK003"]

    def test_exempt_in_tests_and_latency(self):
        assert rules("tracer.compute(17.0)", TESTS) == []
        assert rules(
            "tracer.compute(17.0)", "src/repro/simulate/latency.py"
        ) == []


class TestChk004FloatEquality:
    def test_flagged_in_core(self):
        assert rules("ok = x == 2.5", CORE) == ["CHK004"]
        assert rules("ok = 0.1 != y", CORE) == ["CHK004"]

    def test_zero_guard_allowed(self):
        assert rules("ok = span == 0.0", CORE) == []

    def test_only_core_is_checked(self):
        assert rules("ok = x == 2.5", PLAIN) == []

    def test_ordering_comparisons_allowed(self):
        assert rules("ok = x >= 2.5", CORE) == []


class TestChk005TracerDiscipline:
    def test_none_default_flagged(self):
        assert rules("def get(key, tracer=None):\n    pass\n") == ["CHK005"]

    def test_null_tracer_default_ok(self):
        assert rules("def get(key, tracer=NULL_TRACER):\n    pass\n") == []
        assert rules(
            "def get(key, *, tracer=tracer_mod.NULL_TRACER):\n    pass\n"
        ) == []

    def test_instantiation_outside_tracer_module(self):
        assert rules("t = NullTracer()") == ["CHK005"]
        assert rules("t = Tracer()") == ["CHK005"]

    def test_tracer_module_is_exempt(self):
        assert rules(
            "NULL_TRACER = NullTracer()", "src/repro/simulate/tracer.py"
        ) == []


class TestChk006FaultInjectorCtor:
    def test_flagged_in_plain_source(self):
        assert rules("inj = FaultInjector()") == ["CHK006"]

    def test_tests_are_exempt(self):
        assert rules("inj = FaultInjector()", TESTS) == []

    def test_faultpoints_module_is_exempt(self):
        assert rules(
            "NULL_FAULTS = FaultInjector()",
            "src/repro/durability/faultpoints.py",
        ) == []

    def test_fault_registry_module_is_exempt(self):
        assert rules(
            "injector = FaultInjector()",
            "src/repro/resilience/faults.py",
        ) == []

    def test_pragma_waives(self):
        assert rules(
            "inj = FaultInjector()"
            "  # repro-check: allow CHK006 -- bespoke crash rig\n"
        ) == []


class TestChk007UntrustedBytes:
    def test_pickle_load_and_loads_flagged(self):
        src = (
            "def bad(fh, blob):\n"
            "    a = pickle.load(fh)\n"
            "    b = pickle.loads(blob)\n"
        )
        assert rules(src) == ["CHK007", "CHK007"]

    def test_memmap_and_raw_mmap_flagged(self):
        src = (
            "def bad(path, fh):\n"
            "    a = np.memmap(path, dtype='f8')\n"
            "    b = numpy.memmap(path, dtype='f8')\n"
            "    c = mmap.mmap(fh.fileno(), 0)\n"
        )
        assert rules(src) == ["CHK007", "CHK007", "CHK007"]

    def test_aliased_from_import_flagged(self):
        src = (
            "from pickle import loads as unfreeze\n"
            "def bad(blob):\n"
            "    return unfreeze(blob)\n"
        )
        assert rules(src) == ["CHK007"]

    def test_json_loads_is_not_flagged(self):
        src = (
            "from json import loads\n"
            "def fine(text):\n"
            "    return json.loads(text) or loads(text)\n"
        )
        assert rules(src) == []

    def test_durability_and_planstore_are_exempt(self):
        src = "def load(fh):\n    return pickle.load(fh)\n"
        assert rules(src, "src/repro/durability/snapshot.py") == []
        assert rules(src, "src/repro/planstore/store.py") == []

    def test_tests_are_exempt(self):
        assert rules("x = pickle.loads(blob)", TESTS) == []

    def test_pragma_waives(self):
        assert rules(
            "x = pickle.loads(blob)"
            "  # repro-check: allow CHK007 -- payload CRC-checked above\n"
        ) == []


class TestChk009DirectDiliConstruction:
    SRC = "def build(keys):\n    index = DILI()\n    return index\n"

    def test_flagged_in_unsanctioned_src(self):
        assert rules(self.SRC, "src/repro/sharding/coordinator.py") == [
            "CHK009"
        ]
        assert rules(self.SRC, PLAIN) == ["CHK009"]

    def test_factories_are_sanctioned(self):
        assert rules(self.SRC, "src/repro/sharding/worker.py") == []
        assert rules(self.SRC, "src/repro/sharding/partition.py") == []
        assert rules(self.SRC, "src/repro/durability/recovery.py") == []
        assert rules(self.SRC, "src/repro/bench/harness.py") == []

    def test_core_is_exempt(self):
        # core/ IS the index implementation; the rule fences the rest
        # of the tree off from raw construction, not the type itself.
        assert "CHK009" not in rules(self.SRC, CORE)

    def test_tests_and_benchmarks_are_exempt(self):
        assert rules(self.SRC, TESTS) == []
        assert rules(self.SRC, "benchmarks/bench_example.py") == []

    def test_other_calls_not_flagged(self):
        src = (
            "def open_index(path):\n"
            "    a = DurableDILI(path)\n"
            "    b = MmapDILI(path)\n"
            "    c = ConcurrentDILI()\n"
        )
        assert rules(src, PLAIN) == []

    def test_pragma_waives(self):
        src = (
            "def build():\n"
            "    index = DILI()"
            "  # repro-check: allow CHK009 -- throwaway probe\n"
        )
        assert rules(src, PLAIN) == []


class TestEngine:
    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def broken(:\n", PLAIN)
        assert [f.rule for f in findings] == ["PARSE"]

    def test_finding_format(self):
        (finding,) = lint_source("assert x\n", PLAIN)
        text = finding.format()
        assert text.startswith(f"{PLAIN}:1:")
        assert "CHK002" in text

    def test_every_rule_has_a_description(self):
        assert sorted(RULES) == [
            "CHK001", "CHK002", "CHK003", "CHK004", "CHK005", "CHK006",
            "CHK007", "CHK009",
        ]
        assert all(RULES.values())


class TestRepositoryIsClean:
    def test_src_and_benchmarks_lint_clean(self):
        findings = lint_paths([REPO / "src", REPO / "benchmarks"])
        assert findings == [], "\n".join(f.format() for f in findings)


class TestPragmaMultiLineStatements:
    """A pragma waives when it sits on *any* line of the offending
    statement -- decorated signatures, parenthesized multi-line calls,
    and multi-line ``with`` headers included."""

    def test_decorated_def_pragma_on_decorator_line(self):
        src = (
            "@probe  # repro-check: allow CHK005 -- bench shim\n"
            "def traced(\n"
            "    tracer=None,\n"
            "):\n"
            "    pass\n"
        )
        assert rules(src) == []

    def test_decorated_def_pragma_inside_body_does_not_waive(self):
        src = (
            "@probe\n"
            "def traced(tracer=None):\n"
            "    pass  # repro-check: allow CHK005 -- too late\n"
        )
        assert rules(src) == ["CHK005"]

    def test_multiline_call_pragma_on_closing_paren(self):
        src = (
            "injector = FaultInjector(\n"
            "    'probe',\n"
            ")  # repro-check: allow CHK006 -- seeded\n"
        )
        assert rules(src) == []

    def test_multiline_call_pragma_on_first_line(self):
        src = (
            "injector = FaultInjector(  # repro-check: allow CHK006 -- seeded\n"
            "    'probe',\n"
            ")\n"
        )
        assert rules(src) == []

    def test_multiline_with_statement_pragma(self):
        src = (
            "import numpy as np\n"
            "with np.memmap(\n"
            "    'plan.bin',\n"
            "    mode='r',\n"
            ") as buf:  # repro-check: allow CHK007 -- fixture\n"
            "    pass\n"
        )
        assert rules(src) == []

    def test_unrelated_rule_pragma_on_multiline_call_does_not_waive(self):
        src = (
            "injector = FaultInjector(\n"
            "    'probe',\n"
            ")  # repro-check: allow CHK007 -- wrong rule\n"
        )
        assert rules(src) == ["CHK006"]


class TestSingleParsePerInvocation:
    """One ``repro check`` invocation parses each file exactly once;
    the pattern rules and the dataflow rules share the trees."""

    def test_parse_count_equals_file_count(self, tmp_path, monkeypatch):
        import ast as ast_module

        import repro.check.parsing  # noqa: F401 -- the patched seam
        from repro.check.dataflow import analyze_parsed
        from repro.check.lint import lint_parsed
        from repro.check.parsing import parse_paths

        (tmp_path / "a.py").write_text("def f():\n    return 1\n")
        (tmp_path / "b.py").write_text(
            "class C:\n    def m(self):\n        return 2\n"
        )
        calls = []
        real_parse = ast_module.parse

        def spying_parse(*args, **kwargs):
            calls.append(args[0][:20])
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(ast_module, "parse", spying_parse)
        parsed = parse_paths([tmp_path])
        assert len(calls) == 2
        lint_parsed(parsed)
        analyze_parsed(parsed)
        lint_parsed(parsed, include_waived=True)
        analyze_parsed(parsed, include_waived=True)
        assert len(calls) == 2, "a pass re-parsed instead of sharing trees"

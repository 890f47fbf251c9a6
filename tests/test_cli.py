"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--dataset", "zipf"])

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--method", "Trie"])


class TestCommands:
    def test_compare(self, capsys):
        assert main(["compare", "--dataset", "logn", "--keys", "5000"]) == 0
        out = capsys.readouterr().out
        assert "DILI" in out
        assert "lookup (ns)" in out

    def test_workload(self, capsys):
        code = main(
            [
                "workload",
                "--dataset",
                "logn",
                "--keys",
                "8000",
                "--method",
                "DILI",
                "--mix",
                "Read-Heavy",
                "--ops",
                "3000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Mops simulated" in out

    def test_workload_bad_mix(self, capsys):
        code = main(
            ["workload", "--keys", "5000", "--mix", "Chaos-Monkey"]
        )
        assert code == 2
        assert "unknown mix" in capsys.readouterr().err

    def test_datasets(self, capsys):
        assert main(["datasets", "--keys", "3000"]) == 0
        out = capsys.readouterr().out
        for name in ("fb", "wikits", "osm", "books", "logn"):
            assert name in out

    def test_structure(self, capsys):
        assert (
            main(["structure", "--dataset", "fb", "--keys", "5000"]) == 0
        )
        out = capsys.readouterr().out
        assert "avg height" in out
        assert "conflicts" in out


class TestDurabilityCommands:
    def test_snapshot_then_recover_roundtrip(self, capsys, tmp_path):
        state = str(tmp_path / "state")
        code = main(
            [
                "snapshot",
                "--dir", state,
                "--dataset", "logn",
                "--keys", "5000",
                "--wal-tail", "200",
                "--no-sync",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bulk-loaded 5,000" in out
        assert "200 inserts in the WAL tail" in out

        assert main(["recover", "--dir", state]) == 0
        out = capsys.readouterr().out
        assert "recovered 5,200 keys" in out
        assert "replayed 200 WAL records" in out
        assert "validate() passed" in out

    def test_snapshot_reopens_existing_state(self, capsys, tmp_path):
        state = str(tmp_path / "state")
        args = ["snapshot", "--dir", state, "--keys", "2000", "--no-sync"]
        assert main(args + ["--wal-tail", "50"]) == 0
        capsys.readouterr()
        # Second run folds the WAL tail into a fresh snapshot.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2,050 keys" in out
        assert main(["recover", "--dir", state]) == 0
        out = capsys.readouterr().out
        assert "replayed 0 WAL records" in out

    def test_recover_rejects_corrupt_snapshot(self, capsys, tmp_path):
        state = tmp_path / "state"
        assert main(
            ["snapshot", "--dir", str(state), "--keys", "1000", "--no-sync"]
        ) == 0
        capsys.readouterr()
        snap = state / "snapshot.dili"
        raw = bytearray(snap.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        snap.write_bytes(bytes(raw))
        assert main(["recover", "--dir", str(state)]) == 1
        assert "recovery failed" in capsys.readouterr().err

    def test_recover_requires_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recover"])

    def test_recover_with_skipped_records_exits_3(self, capsys, tmp_path):
        """Lossy recovery (replay skipped a poisoned WAL record) must
        not masquerade as success: distinct exit code, loud warning."""
        import pickle

        from repro.durability.recovery import WAL_NAME
        from repro.durability.wal import (
            OP_BULK_INSERT,
            OP_INSERT,
            WriteAheadLog,
        )

        def _args(*a):
            return pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL)

        with WriteAheadLog(tmp_path / WAL_NAME) as wal:
            wal.append(OP_INSERT, _args(1.0, "a"))
            # Duplicate-key bulk insert: logged but rejected on replay.
            wal.append(OP_BULK_INSERT, _args([5.0, 5.0], None))
            wal.append(OP_INSERT, _args(2.0, "b"))

        assert main(["recover", "--dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "recovered 2 keys" in captured.out
        assert "1 WAL record(s) failed to replay" in captured.err
        assert "incomplete" in captured.err


class TestReportCommand:
    def test_report_to_stdout(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["report", "table6", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "# DILI reproduction report" in out
        assert "Table 6" in out

    def test_report_unknown_experiment(self, capsys):
        assert main(["report", "table99", "--scale", "small"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "r.md"
        assert (
            main(
                [
                    "report",
                    "table6",
                    "--scale",
                    "small",
                    "-o",
                    str(out_file),
                ]
            )
            == 0
        )
        assert "Table 6" in out_file.read_text()


class TestBenchParser:
    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.scale == "medium"
        assert args.filter == ""

    def test_bench_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--scale", "galactic"])


class TestShardCommands:
    def test_init_records_dataset_and_serve_uses_it(
        self, tmp_path, capsys
    ):
        d = str(tmp_path / "shards")
        assert main(
            ["shard", "init", "--dir", d, "--keys", "3000",
             "--shards", "2", "--no-sync"]
        ) == 0
        assert (tmp_path / "shards" / "dataset.json").is_file()
        capsys.readouterr()
        # serve with *mismatched* flags must audit against the
        # recorded keyset, not the flag keyset.
        assert main(
            ["shard", "serve", "--dir", d, "--keys", "9999",
             "--rounds", "2", "--batch", "256", "--no-processes",
             "--no-sync"]
        ) == 0
        out = capsys.readouterr().out
        assert "using recorded dataset logn/3000/seed 7" in out
        assert "0 wrong" in out

    def test_init_refuses_non_empty_dir(self, tmp_path, capsys):
        d = tmp_path / "occupied"
        d.mkdir()
        (d / "junk").write_text("x")
        assert main(
            ["shard", "init", "--dir", str(d), "--keys", "1000"]
        ) == 2
        assert "refusing" in capsys.readouterr().err

    def test_status_healthy(self, tmp_path, capsys):
        d = str(tmp_path / "shards")
        assert main(
            ["shard", "init", "--dir", d, "--keys", "2000",
             "--no-sync"]
        ) == 0
        capsys.readouterr()
        assert main(["shard", "status", "--dir", d]) == 0
        out = capsys.readouterr().out
        assert "health healthy" in out
        # ISSUE 10: per-shard supervision state is part of status.
        assert "supervision:" in out
        assert "0 open breaker(s)" in out
        assert "closed/up" in out

    def test_chaos_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.schedule is None  # tree, then lock
        assert args.seed == 7
        assert args.json is False
        args = build_parser().parse_args(
            ["chaos", "--schedule", "supervision"]
        )
        assert args.schedule == "supervision"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--schedule", "lava"])
        for gone in (["shard", "chaos"], ["plan", "chaos"],
                     ["plan", "audit", "--dir", "d"],
                     ["check", "audit-wal", "--dir", "d"],
                     ["chaos", "--keys", "3000"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(gone)


class TestCheckCommands:
    SEED = (
        "def gather(conn):\n"
        "    return conn.recv()\n"
    )

    def seed(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "core"
        tree.mkdir(parents=True)
        (tree / "example.py").write_text(self.SEED)
        return tmp_path / "src"

    def test_check_dataflow_clean_tree(self, tmp_path, capsys):
        tree = tmp_path / "src" / "repro" / "core"
        tree.mkdir(parents=True)
        (tree / "fine.py").write_text("def f():\n    return 1\n")
        assert main(["check", "dataflow", str(tmp_path / "src")]) == 0
        assert "dataflow clean" in capsys.readouterr().out

    def test_check_dataflow_seeded_violation(self, tmp_path, capsys):
        src = self.seed(tmp_path)
        assert main(["check", "dataflow", str(src)]) == 1
        assert "CHK014" in capsys.readouterr().out

    def test_check_lint_gate_includes_dataflow(self, tmp_path, capsys):
        src = self.seed(tmp_path)
        assert main(["check", "lint", str(src)]) == 1
        assert "CHK014" in capsys.readouterr().out

    def test_check_json_format_schema(self, tmp_path, capsys):
        import json

        src = self.seed(tmp_path)
        assert main(["check", "dataflow", "--format=json", str(src)]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in findings] == ["CHK014"]
        assert set(findings[0]) == {
            "rule", "path", "line", "col", "message", "waived",
        }
        assert findings[0]["waived"] is False

    def test_check_json_format_includes_waived(self, tmp_path, capsys):
        import json

        src = self.seed(tmp_path)
        example = src / "repro" / "core" / "example.py"
        example.write_text(self.SEED.replace(
            "return conn.recv()",
            "return conn.recv()  # repro-check: allow CHK014 -- seeded",
        ))
        assert main(["check", "dataflow", "--format=json", str(src)]) == 0
        findings = json.loads(capsys.readouterr().out)
        assert [f["waived"] for f in findings] == [True]

"""The interprocedural rules CHK010-CHK014: each must fire on a seeded
violation, stay quiet on the sanctioned pattern, honor pragmas -- and
the repo's own src/ tree must be dataflow-clean."""

from pathlib import Path

from repro.check.dataflow import (
    DATAFLOW_RULES,
    analyze_paths,
    analyze_sources,
)

REPO = Path(__file__).resolve().parents[2]

# Path contexts: the taint scopes are package-addressed.
CORE = "src/repro/core/example.py"
PLANSTORE = "src/repro/planstore/example.py"
SHARDING = "src/repro/sharding/example.py"


def rules(sources):
    return [f.rule for f in analyze_sources(sources)]


class TestChk010LockDiscipline:
    LOCKED_AND_NOT = (
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._cache = None\n"
        "    def set_locked(self, value):\n"
        "        with self._lock:\n"
        "            self._cache = value\n"
        "    def set_racy(self, value):\n"
        "        self._cache = value\n"
    )

    def test_unlocked_write_to_guarded_attr_fires(self):
        findings = analyze_sources({CORE: self.LOCKED_AND_NOT})
        assert [f.rule for f in findings] == ["CHK010"]
        assert "set_racy" in findings[0].message
        assert "_cache" in findings[0].message
        assert "_lock" in findings[0].message

    def test_init_writes_are_exempt(self):
        src = (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cache = None\n"
            "    def set_locked(self, value):\n"
            "        with self._lock:\n"
            "            self._cache = value\n"
        )
        assert rules({CORE: src}) == []

    def test_helper_called_only_under_lock_is_entry_held(self):
        src = (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cache = None\n"
            "    def set_locked(self, value):\n"
            "        with self._lock:\n"
            "            self._cache = value\n"
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self._clear()\n"
            "    def _clear(self):\n"
            "        self._cache = None\n"
        )
        assert rules({CORE: src}) == []

    def test_helper_with_one_unlocked_call_site_fires(self):
        src = (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cache = None\n"
            "    def set_locked(self, value):\n"
            "        with self._lock:\n"
            "            self._cache = value\n"
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self._clear()\n"
            "    def reset_racy(self):\n"
            "        self._clear()\n"
            "    def _clear(self):\n"
            "        self._cache = None\n"
        )
        assert rules({CORE: src}) == ["CHK010"]

    def test_contextmanager_confers_its_lock(self):
        src = (
            "import threading\n"
            "from contextlib import contextmanager\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cache = None\n"
            "    @contextmanager\n"
            "    def exclusive(self):\n"
            "        with self._lock:\n"
            "            yield\n"
            "    def set_locked(self, value):\n"
            "        with self._lock:\n"
            "            self._cache = value\n"
            "    def set_via_cm(self, value):\n"
            "        with self.exclusive():\n"
            "            self._cache = value\n"
        )
        assert rules({CORE: src}) == []

    def test_unguarded_attrs_never_fire(self):
        src = (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def bump(self):\n"
            "        self._stats = 1\n"
            "    def bump_again(self):\n"
            "        self._stats = 2\n"
        )
        assert rules({CORE: src}) == []


class TestChk011UntrustedBytes:
    # The taint path crosses two function calls: the source lives in
    # load_raw's body and travels via its return summary, then through
    # the decode pass-through, before hitting the sink in serve.
    CHAIN = (
        "import pickle\n"
        "import numpy as np\n"
        "def load_raw(path):\n"
        "    return np.memmap(path, dtype='u1', mode='r')\n"
        "def decode(buf):\n"
        "    return buf.tobytes()\n"
        "def serve(path):\n"
        "    raw = load_raw(path)\n"
        "    data = decode(raw)\n"
        "    return pickle.loads(data)\n"
    )

    def test_source_to_sink_through_two_calls(self):
        findings = analyze_sources({PLANSTORE: self.CHAIN})
        assert [f.rule for f in findings] == ["CHK011"]
        assert "np.memmap" in findings[0].message
        assert "pickle.loads" in findings[0].message

    def test_verifier_between_source_and_sink_cleans(self):
        src = self.CHAIN.replace(
            "    raw = load_raw(path)\n",
            "    raw = load_raw(path)\n    verify(raw)\n",
        )
        assert rules({PLANSTORE: src}) == []

    def test_argless_method_verifier_blesses_receiver_state(self):
        src = (
            "import numpy as np\n"
            "class Handle:\n"
            "    def __init__(self, path):\n"
            "        self._plan = np.memmap(path, dtype='u1', mode='r')\n"
            "    def _ensure_verified(self):\n"
            "        pass\n"
            "    def get(self, keys):\n"
            "        self._ensure_verified()\n"
            "        plan = self._plan\n"
            "        return plan.lookup_batch(keys)\n"
        )
        assert rules({PLANSTORE: src}) == []

    def test_unblessed_serving_read_fires(self):
        src = (
            "import numpy as np\n"
            "class Handle:\n"
            "    def __init__(self, path):\n"
            "        self._plan = np.memmap(path, dtype='u1', mode='r')\n"
            "    def get(self, keys):\n"
            "        plan = self._plan\n"
            "        return plan.lookup_batch(keys)\n"
        )
        assert rules({PLANSTORE: src}) == ["CHK011"]

    def test_out_of_scope_package_is_ignored(self):
        assert rules({"src/repro/simulate/example.py": self.CHAIN}) == []

    # Seeded at the supervision path: raw pipe receives anywhere else
    # in the sharding package now additionally trip CHK014, and these
    # tests pin the CHK011 taint behavior alone.
    def test_pipe_recv_is_a_source(self):
        src = (
            "def pump(conn, worker):\n"
            "    req_id, method, args = conn.recv()\n"
            "    return worker.dispatch(method, args)\n"
        )
        findings = analyze_sources(
            {"src/repro/sharding/supervision.py": src}
        )
        assert [f.rule for f in findings] == ["CHK011"]
        assert "pipe recv" in findings[0].message

    def test_validated_recv_is_clean(self):
        src = (
            "def pump(conn, worker):\n"
            "    req_id, method, args = _validate_request(conn.recv())\n"
            "    return worker.dispatch(method, args)\n"
        )
        assert rules({"src/repro/sharding/supervision.py": src}) == []


class TestChk013PipeProtocol:
    WORKER = (
        "class MiniWorker:\n"
        "    def dispatch(self, method, args):\n"
        "        return getattr(self, method)(*args)\n"
        "    def lookup(self, keys):\n"
        "        return keys\n"
        "    def stats(self):\n"
        "        return {}\n"
    )
    WORKER_PATH = "src/repro/sharding/mini_worker.py"
    COORD_PATH = "src/repro/sharding/mini_coordinator.py"

    def check(self, coord_src, worker_src=None):
        return analyze_sources({
            self.WORKER_PATH: worker_src or self.WORKER,
            self.COORD_PATH: coord_src,
        })

    def test_conformant_protocol_is_clean(self):
        coord = (
            "def do_lookup(handle, keys):\n"
            "    return handle.call('lookup', (keys,))\n"
            "def do_stats(handle):\n"
            "    return handle.call('stats', ())\n"
        )
        assert [f.rule for f in self.check(coord)] == []

    def test_unknown_tag_fires_and_names_known_verbs(self):
        coord = (
            "def do_lookup(handle, keys):\n"
            "    return handle.call('lookpu', (keys,))\n"
            "def do_stats(handle):\n"
            "    return handle.call('stats', ())\n"
            "def do_lookup2(handle, keys):\n"
            "    return handle.call('lookup', (keys,))\n"
        )
        findings = self.check(coord)
        assert [f.rule for f in findings] == ["CHK013"]
        assert "lookpu" in findings[0].message
        assert "lookup" in findings[0].message  # suggests known verbs

    def test_payload_arity_mismatch_fires(self):
        coord = (
            "def do_lookup(handle, keys):\n"
            "    return handle.call('lookup', (keys, 1, 2))\n"
            "def do_stats(handle):\n"
            "    return handle.call('stats', ())\n"
        )
        findings = self.check(coord)
        assert [f.rule for f in findings] == ["CHK013"]
        assert "payload" in findings[0].message

    def test_handler_nobody_sends_fires_at_the_handler(self):
        coord = (
            "def do_lookup(handle, keys):\n"
            "    return handle.call('lookup', (keys,))\n"
        )
        findings = self.check(coord)
        assert [f.rule for f in findings] == ["CHK013"]
        assert "stats" in findings[0].message
        assert findings[0].path == self.WORKER_PATH

    def test_tag_through_a_forwarding_hop_counts_as_sent(self):
        coord = (
            "def _ask(handle, method, args):\n"
            "    return handle.call(method, args)\n"
            "def do_lookup(handle, keys):\n"
            "    return _ask(handle, 'lookup', (keys,))\n"
            "def do_stats(handle):\n"
            "    return _ask(handle, 'stats', ())\n"
        )
        assert [f.rule for f in self.check(coord)] == []

    def test_write_tag_through_the_fan_out_is_still_checked(self):
        # The sharded write path: insert_batch -> _write_batch(method)
        # -> _fan_out(method) -> _send_retry(method).  The tag is two
        # calls from the pipe, but one hop from the fan-out.
        worker = (
            "class MiniWorker:\n"
            "    def dispatch(self, method, args):\n"
            "        return getattr(self, method)(*args)\n"
            "    def insert_batch(self, keys, values=None):\n"
            "        return self.durable.insert_batch(keys, values)\n"
            "    def stats(self):\n"
            "        return {}\n"
        )
        coord = (
            "class MiniCoordinator:\n"
            "    def _send_retry(self, index, method, args, deadline):\n"
            "        return self.handles[index].send(method, args)\n"
            "    def _recv_retry(self, index, rid, method, args, deadline):\n"
            "        return self.handles[index].recv(rid)\n"
            "    def _call(self, index, method, args=()):\n"
            "        rid = self._send_retry(index, method, args, None)\n"
            "        return self._recv_retry(index, rid, method, args, None)\n"
            "    def _fan_out(self, method, parts, build_args, deadline):\n"
            "        sent = [(s, self._send_retry(s, method, build_args(p),\n"
            "                 deadline)) for s, p in parts]\n"
            "        return [self._recv_retry(s, rid, method, (), deadline)\n"
            "                for s, rid in sent]\n"
            "    def _write_batch(self, method, keys, values):\n"
            "        return self._fan_out(method, [(0, keys)],\n"
            "                             lambda p: (p, values), None)\n"
            "    def insert_batch(self, keys, values):\n"
            "        return self._write_batch(TAG, keys, values)\n"
            "    def stats(self):\n"
            "        return self._call(0, 'stats')\n"
        )
        assert self.check(coord.replace("TAG", "'insert_batch'"), worker) == []
        findings = self.check(coord.replace("TAG", "'insert_batchX'"), worker)
        assert [f.rule for f in findings] == ["CHK013"]
        assert "insert_batchX" in findings[0].message

    def test_non_three_tuple_pipe_frame_fires(self):
        coord = (
            "def do_lookup(handle, keys):\n"
            "    return handle.call('lookup', (keys,))\n"
            "def do_stats(handle):\n"
            "    return handle.call('stats', ())\n"
            "def reply(conn, rid, payload):\n"
            "    conn.send((rid, payload))\n"
        )
        findings = self.check(coord)
        assert [f.rule for f in findings] == ["CHK013"]
        assert "3" in findings[0].message or "req_id" in findings[0].message


class TestChk014UntimedPipeReceives:
    SUPERVISION_PATH = "src/repro/sharding/supervision.py"

    def test_raw_recv_outside_the_wrappers_fires(self):
        src = (
            "def gather(conn):\n"
            "    return conn.recv()\n"
        )
        findings = analyze_sources({SHARDING: src})
        assert [f.rule for f in findings] == ["CHK014"]
        assert "recv" in findings[0].message
        assert "deadline" in findings[0].message

    def test_raw_poll_fires_even_with_a_timeout_argument(self):
        # A local timeout is still outside the shared request budget;
        # only the supervision wrappers slice from the deadline.
        src = (
            "def wait(handle):\n"
            "    return handle.conn.poll(0.05)\n"
        )
        assert rules({SHARDING: src}) == ["CHK014"]

    def test_the_supervision_module_is_sanctioned(self):
        src = (
            "def recv_frame(conn):\n"
            "    if conn.poll(0.05):\n"
            "        return conn.recv()\n"
            "    return None\n"
        )
        assert rules({self.SUPERVISION_PATH: src}) == []

    def test_non_pipe_receivers_are_not_flagged(self):
        src = (
            "def drain(queue):\n"
            "    return queue.recv()\n"
        )
        assert rules({SHARDING: src}) == []

    def test_pragma_waives_a_sanctioned_blocking_receive(self):
        src = (
            "def serve(conn):\n"
            "    while True:\n"
            "        frame = conn.recv()"
            "  # repro-check: allow CHK014 -- server loop blocks by design\n"
            "        if frame is None:\n"
            "            break\n"
        )
        assert rules({SHARDING: src}) == []
        waived = analyze_sources({SHARDING: src}, include_waived=True)
        assert [f.rule for f in waived] == ["CHK014"]
        assert waived[0].waived


class TestEngine:
    def test_every_dataflow_rule_has_a_description(self):
        assert sorted(DATAFLOW_RULES) == [
            "CHK010", "CHK011", "CHK013", "CHK014",
        ]
        assert all(DATAFLOW_RULES.values())

    def test_pragma_waives_a_dataflow_finding(self):
        src = (
            "def gather(conn):\n"
            "    return conn.recv()"
            "  # repro-check: allow CHK014 -- seeded for a test\n"
        )
        assert rules({CORE: src}) == []
        waived = analyze_sources({CORE: src}, include_waived=True)
        assert [f.rule for f in waived] == ["CHK014"]
        assert waived[0].waived

    def test_test_trees_are_exempt(self):
        src = (
            "def gather(conn):\n"
            "    return conn.recv()\n"
        )
        assert rules({"tests/core/test_example.py": src}) == []

    def test_findings_share_the_lint_json_schema(self):
        src = (
            "def gather(conn):\n"
            "    return conn.recv()\n"
        )
        (finding,) = analyze_sources({CORE: src})
        assert finding.to_json() == {
            "rule": "CHK014",
            "path": CORE,
            "line": 2,
            "col": finding.col,
            "message": finding.message,
            "waived": False,
        }

    def test_syntax_errors_are_skipped_not_fatal(self):
        assert rules({CORE: "def broken(:\n"}) == []


class TestRepositoryIsClean:
    def test_src_is_dataflow_clean(self):
        findings = analyze_paths([REPO / "src"])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_the_only_waivers_are_the_documented_contracts(self):
        # Exactly two standing waivers: the planstore lazy-values
        # pickle contract (CHK011) and the shard worker's blocking
        # request loop (CHK014, liveness vouched by its heartbeat
        # thread).  Anything else appearing here is scope creep.
        waived = [
            f for f in analyze_paths([REPO / "src"], include_waived=True)
            if f.waived
        ]
        assert [(f.rule, Path(f.path).name) for f in waived] == [
            ("CHK011", "store.py"),
            ("CHK014", "worker.py"),
        ]

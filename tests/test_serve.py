"""The compile service: protocol, server, client, and CLI.

The hard requirements under test: a served compilation is byte-identical
to an in-process one; malformed requests and vanished clients never take
the server down; concurrent clients share one schedule cache; and
shutdown drains in-flight work before the listener dies.
"""

import json
import os
import socket as socketlib
import threading
import time

import pytest

import repro.batch.cache as cache_mod
from repro import WARP
from repro.batch import compile_many, compile_one
from repro.core.display import disassemble
from repro.serve import (
    CompileServer,
    ProtocolError,
    ServeClient,
    ServeClientError,
    ServeConfig,
    ServerThread,
)
from repro.serve.protocol import (
    decode_line,
    encode_line,
    policy_from_wire,
    validate_request,
)
from repro.workloads import generate_suite

SUITE = generate_suite()


# -- protocol ------------------------------------------------------------------


class TestProtocol:
    def test_roundtrip(self):
        payload = {"op": "status", "id": 7}
        line = encode_line(payload)
        assert line.endswith(b"\n")
        assert decode_line(line) == payload

    @pytest.mark.parametrize("line", [
        b"not json\n",
        b"[1, 2, 3]\n",
        b'"just a string"\n',
        b"\xff\xfe\n",
    ])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_line(line)

    @pytest.mark.parametrize("payload", [
        {},
        {"op": "frobnicate"},
        {"op": "compile"},
        {"op": "compile", "source": ""},
        {"op": "compile", "source": "x", "name": 7},
        {"op": "suite", "count": 0},
        {"op": "suite", "count": "many"},
        {"op": "suite", "count": True},
        {"op": "compile", "source": "x", "policy": "fast"},
    ])
    def test_invalid_requests_rejected(self, payload):
        with pytest.raises(ProtocolError):
            validate_request(payload)

    def test_valid_requests_pass(self):
        assert validate_request({"op": "compile", "source": "x"}) == "compile"
        assert validate_request({"op": "suite"}) == "suite"
        assert validate_request({"op": "status"}) == "status"
        assert validate_request({"op": "shutdown"}) == "shutdown"

    def test_policy_overrides(self):
        policy = policy_from_wire({"pipeline": False, "search": "binary"})
        assert policy.pipeline is False
        assert policy.search == "binary"
        assert policy_from_wire(None).pipeline is True

    def test_policy_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown policy field"):
            policy_from_wire({"warp_speed": 9})

    def test_removed_node_cap_is_an_unknown_field(self):
        with pytest.raises(ProtocolError, match="exact_max_nodes"):
            policy_from_wire({"exact_max_nodes": 24})

    @pytest.mark.parametrize("overrides", [
        {"pipeline": "no"},
        {"pipeline": 0},
        {"exact_max_conflicts": "x"},
        {"exact_max_conflicts": True},
        {"search": "bogus"},
        {"search": 1},
        {"mve_policy": "nope"},
        {"scheduler_backend": "ilp"},
        {"scheduler_backend": "exact", "exact_max_conflicts": 0},
    ])
    def test_policy_bad_value_rejected(self, overrides):
        with pytest.raises(ProtocolError):
            policy_from_wire(overrides)

    def test_policy_independent_arrays(self):
        policy = policy_from_wire({"independent_arrays": ["a", "b"]})
        assert policy.independent_arrays == frozenset({"a", "b"})
        with pytest.raises(ProtocolError, match="independent_arrays"):
            policy_from_wire({"independent_arrays": "a"})


def _recv_until(sock, done):
    """Read a raw socket until ``done(data)``; an early EOF fails."""
    data = b""
    while not done(data):
        chunk = sock.recv(1 << 20)
        assert chunk, f"connection closed after {data!r}"
        data += chunk
    return data


# -- server fixtures -----------------------------------------------------------


@pytest.fixture
def sock_path(tmp_path):
    return str(tmp_path / "serve.sock")


@pytest.fixture
def server(sock_path):
    instance = CompileServer(
        ServeConfig(socket_path=sock_path, jobs=2)
    )
    with ServerThread(instance):
        yield instance


# -- the service ---------------------------------------------------------------


class TestCompileService:
    def test_compile_roundtrip_is_byte_identical(self, server, sock_path):
        program = SUITE[0]
        local = compile_many([program], WARP)[0]
        with ServeClient(socket_path=sock_path) as client:
            remote = client.compile(
                program.source, name="p", disasm=True
            )
        assert remote["ok"]
        assert remote["report"] == local.compiled.report()
        assert remote["disasm"] == disassemble(local.compiled.code)
        assert remote["code_size"] == local.compiled.code_size

    def test_suite_roundtrip_matches_compile_many(self, server, sock_path):
        count = int(os.environ.get("REPRO_SUITE_SLICE", "0") or 0) or 72
        local = compile_many(SUITE[:count], WARP)
        assert not local.errors
        with ServeClient(socket_path=sock_path) as client:
            results, done = client.suite(count, disasm=True)
        assert done["ok"] == count and done["errors"] == 0
        assert len(results) == count
        by_name = {result["name"]: result for result in results}
        for local_result in local:
            remote = by_name[local_result.name]
            assert remote["disasm"] == disassemble(local_result.compiled.code)
            assert remote["report"] == local_result.compiled.report()

    def test_policy_override_changes_output(self, server, sock_path):
        with ServeClient(socket_path=sock_path) as client:
            pipelined = client.compile(SUITE[0].source, name="p")
            baseline = client.compile(
                SUITE[0].source, name="p", policy={"pipeline": False}
            )
        assert "pipelined" in pipelined["report"]
        assert "unpipelined" in baseline["report"]

    def test_bad_policy_value_is_an_error_reply(self, server, sock_path):
        with ServeClient(socket_path=sock_path) as client:
            with pytest.raises(ServeClientError, match="pipeline"):
                client.compile(SUITE[0].source, policy={"pipeline": "no"})
            assert client.compile(SUITE[0].source)["ok"]

    def test_zero_conflict_budget_is_an_error_reply(self, server, sock_path):
        policy = {"scheduler_backend": "exact", "exact_max_conflicts": 0}
        with ServeClient(socket_path=sock_path) as client:
            with pytest.raises(ServeClientError, match="exact_max_conflicts"):
                client.compile(SUITE[0].source, policy=policy)
            assert client.compile(SUITE[0].source)["ok"]

    def test_machine_selection_and_unknown_machine(self, server, sock_path):
        with ServeClient(socket_path=sock_path) as client:
            simple = client.compile(SUITE[0].source, machine="simple")
            assert "simple" in simple["report"]
            with pytest.raises(ServeClientError, match="unknown machine"):
                client.compile(SUITE[0].source, machine="cray")

    def test_compile_error_is_structured_not_fatal(self, server, sock_path):
        with ServeClient(socket_path=sock_path) as client:
            result = client.compile("function broken(; begin end.", name="bad")
            assert not result["ok"]
            assert result["error"]["error_type"]
            # The connection (and server) survive a failed program.
            assert client.compile(SUITE[0].source)["ok"]

    def test_results_stream_per_program(self, server, sock_path):
        with ServeClient(socket_path=sock_path) as client:
            kinds = [
                reply["type"]
                for reply in client.request({"op": "suite", "count": 6})
            ]
        assert kinds.count("result") == 6
        assert kinds[-1] == "done"


class TestCacheSharing:
    def test_second_client_hits_shared_cache(self, server, sock_path):
        program = SUITE[3]
        with ServeClient(socket_path=sock_path) as first:
            cold = first.compile(program.source, name="p")
        with ServeClient(socket_path=sock_path) as second:
            warm = second.compile(program.source, name="p")
        assert cold["from_cache"] is False
        assert warm["from_cache"] is True
        with ServeClient(socket_path=sock_path) as probe:
            stats = probe.status()["stats"]
        assert stats["requests"]["serve_cache_hits"] >= 1
        assert stats["cache"]["hits"] >= 1

    def test_concurrent_clients_all_complete(self, server, sock_path):
        outcomes = {}

        def run(name):
            with ServeClient(socket_path=sock_path) as client:
                _, done = client.suite(8)
                outcomes[name] = (done["ok"], done["errors"])

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes == {i: (8, 0) for i in range(3)}


class TestHitsOnTheLoop:
    """A repeat is answered on the event loop from the source alias; only
    misses become pool tasks, and ready reply lines share one write."""

    def test_repeat_skips_the_pool(self, server, sock_path):
        source = SUITE[1].source
        local = compile_one("p", source, WARP)
        with ServeClient(socket_path=sock_path) as client:
            cold = client.compile(source, name="p", disasm=True)
            before = client.status()["stats"]
            warm = client.compile(source, name="p", disasm=True)
            after = client.status()["stats"]
        assert not cold["from_cache"] and warm["from_cache"]
        assert after["pool"]["submitted"] == before["pool"]["submitted"] == 1
        assert (after["requests"]["serve_cache_hits"]
                == before["requests"].get("serve_cache_hits", 0) + 1)
        for reply in (cold, warm):
            assert reply["report"] == local.compiled.report()
            assert reply["code_size"] == local.compiled.code_size
            assert reply["disasm"] == disassemble(local.compiled.code)

    def test_suite_mixing_hits_and_misses(self, server, sock_path):
        count = 6
        programs = SUITE[:count]
        served = {program.name for program in programs[::2]}
        local = {r.name: r for r in compile_many(programs, WARP)}
        with ServeClient(socket_path=sock_path) as client:
            for program in programs[::2]:
                client.compile(program.source, name=program.name)
            submitted = server.pool.submitted
            replies = list(client.request({"op": "suite", "count": count}))
        *results, done = replies
        assert done["type"] == "done"
        assert (done["programs"], done["ok"], done["errors"]) == (count, count, 0)
        assert all(reply["type"] == "result" for reply in results)
        assert sorted(r["name"] for r in results) == sorted(local)
        assert {r["name"] for r in results if r["from_cache"]} == served
        assert server.pool.submitted - submitted == count - len(served)
        for reply in results:
            assert reply["report"] == local[reply["name"]].compiled.report()

    def test_failed_source_always_reaches_the_pool(self, server, sock_path):
        with ServeClient(socket_path=sock_path) as client:
            replies = [list(client.request(
                {"op": "compile", "source": "function broken(; begin end."}
            )) for _ in range(2)]
        for result, done in replies:
            assert not result["ok"] and not result["from_cache"]
            assert (done["ok"], done["errors"]) == (0, 1)
        assert server.pool.submitted == 2

    @pytest.mark.parametrize("on_disk", [False, True],
                             ids=["memory-only", "disk"])
    def test_alias_whose_entry_left_memory_goes_to_the_pool(
        self, tmp_path, monkeypatch, on_disk
    ):
        monkeypatch.setattr(cache_mod, "MEMORY_ENTRIES", 2)
        sock = str(tmp_path / "evict.sock")
        instance = CompileServer(ServeConfig(
            socket_path=sock, jobs=1,
            cache_dir=str(tmp_path / "cache") if on_disk else None,
        ))
        source = SUITE[2].source
        local = compile_one("p", source, WARP)
        with ServerThread(instance):
            with ServeClient(socket_path=sock) as client:
                client.compile(source, name="p")
                instance.cache.put("filler1", 1)
                instance.cache.put("filler2", 2)
                assert instance.cache.stats()["aliases"] == 1
                again = client.compile(source, name="p", disasm=True)
        assert instance.pool.submitted == 2
        assert again["from_cache"] is on_disk
        assert again["report"] == local.compiled.report()
        assert again["disasm"] == disassemble(local.compiled.code)
        assert instance.cache.stats()["source_hits"] == 0

    def test_long_hit_request_lets_other_connections_in(
        self, server, sock_path, monkeypatch
    ):
        import repro.serve.server as server_mod

        count = 12
        with ServeClient(socket_path=sock_path) as client:
            client.suite(count)
        status = encode_line({"op": "status"})
        suite = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        other = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        encoded = []
        encodes_before_status = []
        encode = server_mod.result_to_wire
        status_payload = server.status_payload

        def counting_encode(*args, **kwargs):
            if not encoded:
                # The other connection's request is on the wire before
                # the suite's first yield.
                other.sendall(status)
            encoded.append(1)
            return encode(*args, **kwargs)

        def counting_status():
            encodes_before_status.append(len(encoded))
            return status_payload()

        try:
            for sock in (suite, other):
                sock.settimeout(30)
                sock.connect(sock_path)
            # A first status round trip leaves the other connection's
            # handler waiting for its next line.
            other.sendall(status)
            _recv_until(other, lambda data: data.endswith(b"\n"))
            monkeypatch.setattr(server_mod, "result_to_wire", counting_encode)
            monkeypatch.setattr(server, "status_payload", counting_status)
            suite.sendall(encode_line({"op": "suite", "count": count}))
            data = _recv_until(suite, lambda data: b'"type":"done"' in data)
            reply = _recv_until(other, lambda data: data.endswith(b"\n"))
            assert decode_line(reply)["type"] == "status"
        finally:
            suite.close()
            other.close()
        # The status request is answered between two of the suite's
        # encodes, not after the last.
        assert len(encoded) == count
        assert encodes_before_status and encodes_before_status[0] < count
        assert data.count(b'"from_cache":true') == count

    def test_concurrent_suites_never_overfill_the_queue(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.server as server_mod

        max_pending, count, clients = 8, 6, 4
        sock = str(tmp_path / "admit.sock")
        instance = CompileServer(ServeConfig(
            socket_path=sock, jobs=1, max_pending=max_pending,
        ))
        compile = server_mod.compile_one

        def slow_compile(*args, **kwargs):
            time.sleep(0.02)
            return compile(*args, **kwargs)

        depths = []
        submit = instance.pool.submit

        def recording_submit(*args, **kwargs):
            future = submit(*args, **kwargs)
            depths.append(instance.pool.active)
            return future

        monkeypatch.setattr(server_mod, "compile_one", slow_compile)
        monkeypatch.setattr(instance.pool, "submit", recording_submit)
        socks = [socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
                 for _ in range(clients)]
        outcomes = []
        with ServerThread(instance):
            try:
                for raw in socks:
                    raw.settimeout(30)
                    raw.connect(sock)
                for raw in socks:
                    raw.sendall(encode_line({"op": "suite", "count": count}))
                for raw in socks:
                    data = _recv_until(raw, lambda data: (
                        b'"type":"done"' in data or b'"type":"error"' in data
                    ))
                    outcomes.append(decode_line(data.splitlines()[-1])["type"])
            finally:
                for raw in socks:
                    raw.close()
        assert "done" in outcomes
        assert depths and max(depths) <= max_pending

    def test_unkeyable_source_gets_an_error_result(self, server, sock_path):
        raw = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        raw.settimeout(30)
        raw.connect(sock_path)
        try:
            # Valid JSON holding a lone surrogate: it cannot be encoded
            # to UTF-8, so the source cannot be keyed.
            raw.sendall(b'{"op":"compile","source":"\\ud800"}\n')
            data = _recv_until(raw, lambda data: data.count(b"\n") == 2)
            raw.sendall(encode_line({"op": "status"}))
            after = _recv_until(raw, lambda data: data.endswith(b"\n"))
        finally:
            raw.close()
        result, done = [decode_line(line) for line in data.splitlines()]
        assert result["type"] == "result" and not result["ok"]
        assert result["error"]
        assert (done["type"], done["ok"], done["errors"]) == ("done", 0, 1)
        assert decode_line(after)["type"] == "status"

    def test_hit_result_and_done_arrive_in_one_recv(self, server, sock_path):
        request = encode_line({"op": "compile", "source": SUITE[0].source})
        raw = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        raw.settimeout(30)
        raw.connect(sock_path)
        try:
            raw.sendall(request)
            _recv_until(raw, lambda data: data.count(b"\n") == 2)
            raw.sendall(request)
            warm = raw.recv(1 << 20)
        finally:
            raw.close()
        replies = [decode_line(line) for line in warm.splitlines()]
        assert warm.endswith(b"\n")
        assert [reply["type"] for reply in replies] == ["result", "done"]
        assert replies[0]["from_cache"] and replies[1]["ok"] == 1


class TestRobustness:
    def test_malformed_line_keeps_connection_usable(self, server, sock_path):
        with ServeClient(socket_path=sock_path) as client:
            client._writer.write(b"this is not json\n")
            client._writer.flush()
            reply = decode_line(client._reader.readline())
            assert reply["type"] == "error"
            assert "JSON" in reply["message"]
            # Same connection still compiles.
            assert client.compile(SUITE[0].source)["ok"]

    def test_unknown_op_reports_error(self, server, sock_path):
        with ServeClient(socket_path=sock_path) as client:
            client._writer.write(encode_line({"op": "dance"}))
            client._writer.flush()
            reply = decode_line(client._reader.readline())
        assert reply["type"] == "error"
        assert "unknown op" in reply["message"]

    def test_client_disconnect_mid_stream(self, server, sock_path):
        # Ask for a big streamed reply, read one line, vanish.
        raw = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        raw.connect(sock_path)
        raw.sendall(encode_line({"op": "suite", "count": 24}))
        raw.recv(64)
        raw.close()
        # The server keeps serving other clients.
        with ServeClient(socket_path=sock_path) as client:
            assert client.compile(SUITE[0].source)["ok"]
            stats = client.status()["stats"]
        assert stats["requests"]["serve_requests"] >= 2

    def test_queue_full_is_rejected_not_queued(self, tmp_path):
        sock = str(tmp_path / "tiny.sock")
        instance = CompileServer(
            ServeConfig(socket_path=sock, jobs=1, max_pending=2)
        )
        with ServerThread(instance):
            with ServeClient(socket_path=sock) as client:
                with pytest.raises(ServeClientError, match="queue full"):
                    client.suite(12)
                # A request within the bound still works.
                assert client.compile(SUITE[0].source)["ok"]

    def test_status_payload_shape(self, server, sock_path):
        with ServeClient(socket_path=sock_path) as client:
            client.compile(SUITE[0].source)
            stats = client.status()["stats"]
        assert stats["protocol"] == 1
        assert stats["uptime_seconds"] >= 0
        assert stats["queue_depth"] == 0
        assert stats["draining"] is False
        assert set(stats["pool"]) == {
            "jobs", "started", "closed", "submitted", "completed", "active",
            "utilization",
        }
        assert stats["pool"]["jobs"] == 2
        assert stats["pool"]["completed"] >= 1
        assert 0.0 <= stats["pool"]["utilization"] <= 1.0
        assert stats["cache"]["memory_entries"] >= 1
        for counter in ("serve_connections", "serve_requests",
                        "serve_requests_compile", "serve_results"):
            assert stats["requests"][counter] >= 1, counter


class TestShutdownDrain:
    def test_shutdown_drains_inflight_request(self, tmp_path):
        sock = str(tmp_path / "drain.sock")
        instance = CompileServer(
            ServeConfig(socket_path=sock, jobs=1)
        )
        harness = ServerThread(instance).start()
        try:
            # Fire a large request and, before reading any of it, ask a
            # second connection for shutdown.
            raw = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            raw.connect(sock)
            raw.sendall(encode_line({"op": "suite", "count": 36}))
            with ServeClient(socket_path=sock) as killer:
                killer.shutdown()
            # The in-flight suite still streams to completion.
            reader = raw.makefile("rb")
            kinds = []
            while True:
                line = reader.readline()
                if not line:
                    break
                reply = decode_line(line)
                kinds.append(reply["type"])
                if reply["type"] == "done":
                    assert reply["ok"] == 36 and reply["errors"] == 0
                    break
            raw.close()
            assert kinds.count("result") == 36
            assert kinds[-1] == "done"
        finally:
            harness.stop()
        assert not os.path.exists(sock)

    def test_new_requests_rejected_while_draining(self, tmp_path):
        sock = str(tmp_path / "rej.sock")
        instance = CompileServer(ServeConfig(socket_path=sock, jobs=1))
        harness = ServerThread(instance).start()
        try:
            raw = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            raw.connect(sock)
            raw.sendall(encode_line({"op": "suite", "count": 30}))
            with ServeClient(socket_path=sock) as killer:
                killer.shutdown()
            # Pipelining another request behind the in-flight one on the
            # same connection: it must be refused, after the first drains.
            raw.sendall(encode_line({"op": "compile", "source": "x := 1"}))
            reader = raw.makefile("rb")
            saw_done = saw_draining_error = False
            while True:
                line = reader.readline()
                if not line:
                    break
                reply = decode_line(line)
                if reply["type"] == "done":
                    saw_done = True
                if reply["type"] == "error" and "draining" in reply["message"]:
                    saw_draining_error = True
                    break
            raw.close()
            assert saw_done and saw_draining_error
        finally:
            harness.stop()


class TestTcpEndpoint:
    def test_tcp_roundtrip(self):
        instance = CompileServer(
            ServeConfig(socket_path=None, host="127.0.0.1", port=0, jobs=2)
        )
        with ServerThread(instance):
            assert instance.port
            with ServeClient(host="127.0.0.1", port=instance.port) as client:
                assert client.compile(SUITE[0].source)["ok"]
                assert client.status()["stats"]["protocol"] == 1


def test_config_has_no_backend_knob():
    with pytest.raises(TypeError):
        ServeConfig(backend="thread")


class TestSubmitCli:
    def test_submit_suite_and_status(self, server, sock_path, capsys):
        from repro.__main__ import main

        assert main(["submit", "--socket", sock_path, "--suite", "4"]) == 0
        out = capsys.readouterr().out
        assert "suite: 4/4 compiled" in out

        assert main(["submit", "--socket", sock_path, "--status"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["type"] == "status"
        assert stats["stats"]["requests"]["serve_results"] >= 4

    def test_submit_file(self, server, sock_path, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "prog.w2"
        path.write_text(SUITE[0].source)
        assert main(["submit", "--socket", sock_path, str(path)]) == 0
        assert "pipelined" in capsys.readouterr().out

    def test_submit_nothing_errors(self, capsys):
        from repro.__main__ import main

        assert main(["submit"]) == 2
        assert "nothing to submit" in capsys.readouterr().err

    def test_submit_connection_refused(self, tmp_path, capsys):
        from repro.__main__ import main

        missing = str(tmp_path / "nope.sock")
        assert main(["submit", "--socket", missing, "--status"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_submit_shutdown(self, tmp_path, capsys):
        from repro.__main__ import main

        sock = str(tmp_path / "cli.sock")
        instance = CompileServer(ServeConfig(socket_path=sock, jobs=1))
        harness = ServerThread(instance).start()
        assert main(["submit", "--socket", sock, "--shutdown"]) == 0
        assert "draining" in capsys.readouterr().out
        harness.stop()
        assert not os.path.exists(sock)

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

import pytest

from repro import WARP
from repro.batch import compile_many
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

    @pytest.mark.parametrize("overrides", [
        {"pipeline": "no"},
        {"pipeline": 0},
        {"exact_max_nodes": "x"},
        {"exact_max_nodes": True},
        {"search": "bogus"},
        {"search": 1},
        {"mve_policy": "nope"},
        {"scheduler_backend": "ilp"},
    ])
    def test_policy_bad_value_rejected(self, overrides):
        with pytest.raises(ProtocolError):
            policy_from_wire(overrides)

    def test_policy_independent_arrays(self):
        policy = policy_from_wire({"independent_arrays": ["a", "b"]})
        assert policy.independent_arrays == frozenset({"a", "b"})
        with pytest.raises(ProtocolError, match="independent_arrays"):
            policy_from_wire({"independent_arrays": "a"})


# -- server fixtures -----------------------------------------------------------


@pytest.fixture
def sock_path(tmp_path):
    return str(tmp_path / "serve.sock")


@pytest.fixture
def server(sock_path):
    instance = CompileServer(
        ServeConfig(socket_path=sock_path, jobs=2, backend="thread")
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
            ServeConfig(socket_path=sock, jobs=1, backend="thread")
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


class TestProcessBackendService:
    def test_process_pool_serves(self, tmp_path):
        sock = str(tmp_path / "proc.sock")
        instance = CompileServer(
            ServeConfig(socket_path=sock, jobs=2, backend="process")
        )
        local = compile_many(SUITE[:3], WARP)
        with ServerThread(instance):
            with ServeClient(socket_path=sock) as client:
                results, done = client.suite(3, disasm=True)
        assert done["ok"] == 3
        by_name = {r["name"]: r for r in results}
        for local_result in local:
            assert by_name[local_result.name]["disasm"] == \
                disassemble(local_result.compiled.code)


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

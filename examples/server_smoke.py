"""End-to-end smoke check for the HTTP detection service.

Builds a tiny index with the CLI, starts ``gnn4ip serve`` (via
``python -m repro``) as a real subprocess on an ephemeral port, checks
that an empty design, a truncated gate-level source and a truncated
``genvar`` declaration are each refused with a 400 envelope in time,
runs one multi-suspect ``/v1/query`` round trip plus a health check
through :mod:`repro.client`, checks that a raw ``/v1/query`` body with a
non-ASCII label is exactly ``json.dumps`` of what it decodes to, and
shuts the server down cleanly.  CI runs this as the server smoke job; it
also works standalone::

    python examples/server_smoke.py
"""

import http.client
import json
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.client import Client, ServerError

ADDER = """
module adder(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule
"""

MUX = """
module mux(input [7:0] d, input [2:0] sel, output q);
  assign q = d[sel];
endmodule
"""

#: Lowers to a graph with no nodes: a per-request error, never a 500.
EMPTY = "module m(); endmodule"

#: Cut short inside a gate's argument list: a parse error, never a 500.
TRUNCATED = "module m(input a, output y); and g (y,"

#: Cut short inside a genvar declaration: a parse error, not a request
#: that never returns.
GENVAR = "module m; genvar i"

#: Seconds a request may take before the smoke check fails.
REQUEST_TIMEOUT_S = 10.0


def raw_query_body(port, payload):
    """The undecoded body of one ``POST /v1/query`` (status must be 200)."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("POST", "/v1/query", body=json.dumps(payload),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    assert response.status == 200, (response.status, body[:200])
    return body


def main():
    from repro.cli import main as cli

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus = tmp / "corpus"
        corpus.mkdir()
        (corpus / "adder.v").write_text(ADDER)
        (corpus / "mux.v").write_text(MUX)
        index_dir = tmp / "idx"
        code = cli(["index", "build", str(index_dir), str(corpus),
                    "--allow-untrained", "--jobs", "1"])
        assert code == 0, f"index build failed with exit code {code}"

        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(index_dir),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            port = None
            deadline = time.time() + 30
            while time.time() < deadline:
                line = server.stdout.readline()
                if not line:
                    break
                print(f"[serve] {line.rstrip()}")
                match = re.search(r"http://[^:]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "server never announced its port"

            client = Client("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
            health = client.healthz()
            assert health["status"] == "ok", health
            assert health["designs"] == 2, health

            for label, source, error_type in (
                    ("empty design", EMPTY, "GraphIRError"),
                    ("truncated source", TRUNCATED, "ParseError"),
                    ("truncated genvar", GENVAR, "ParseError")):
                try:
                    client.query(sources=[source], k=2)
                except TimeoutError:
                    raise AssertionError(
                        f"{label} got no reply in {REQUEST_TIMEOUT_S} s")
                except ServerError as exc:
                    assert exc.status == 400, (exc.status, exc.error_type)
                    assert exc.error_type == error_type, exc.error_type
                    print(f"{label} refused: {exc.status} {exc}")
                else:
                    raise AssertionError(f"{label} was not refused")

            out = client.query(sources=[ADDER, MUX],
                               labels=["adder.v", "mux.v"], k=2)
            adder_result, mux_result = out["results"]
            top = adder_result["matches"][0]
            assert top["design"] == "adder" and top["rank"] == 1, out
            assert top["is_piracy"], out
            assert mux_result["matches"][0]["design"] == "mux", out
            print(f"round trip ok: {len(out['results'])} suspects ranked "
                  f"({out['serving']})")

            # The reply is written without json.dumps; its bytes must
            # still be exactly what json.dumps makes of its content.
            label = 'añadido "α" ✓'
            body = raw_query_body(port, {
                "suspects": [{"source": ADDER, "label": label}], "k": 2})
            assert body == json.dumps(json.loads(body)).encode(), body
            assert json.loads(body)["results"][0]["label"] == label, body
            print(f"raw reply ok: {len(body)} bytes, json.dumps-exact")
        finally:
            server.send_signal(signal.SIGTERM)
            try:
                code = server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
                raise AssertionError("server ignored SIGTERM")
        assert code == 0, f"server exited with code {code}"
        print("clean shutdown ok")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Hostile-peer probe for a running tempest-collectd daemon.

    check_collectd_hostile.py --uds /tmp/collectd.sock \\
        --http http://127.0.0.1:PORT --meta /tmp/e2e.trace

Sends the daemon one ingest session per hostile input:

  * a bad frame magic,
  * a length field above --max-frame (default 8 MiB, the daemon's),
  * a torn EVENTS frame (its payload ends inside a record),
  * frames before HELLO (META, EVENTS, BYE),
  * a BYE whose counts disagree with the stream,

each of which the daemon must reject as a protocol error, and one
9 KiB HTTP request with no CRLFCRLF. --meta names a trace file; a
trace-v2 image is a valid META payload. Then checks that /healthz
answers 200, that collect_protocol_errors and collect_sessions_aborted
each rose by the number of hostile sessions, that
collect_sessions_folded did not move, and that the HTTP request got a
400.

Exit 0 when clean, 1 with a message per violation otherwise.
"""
import argparse
import json
import socket
import struct
import sys
import time
import urllib.error
import urllib.request

HELLO, META, EVENTS, BYE = 1, 2, 5, 7
FN_EVENT_RECORD_BYTES = 23
PROTOCOL_VERSION = 1


def frame(kind, payload, length=None):
    n = len(payload) if length is None else length
    return b"TC" + bytes([kind, 0]) + struct.pack("<I", n) + payload


def hello(name):
    return frame(HELLO, struct.pack("<IQ", PROTOCOL_VERSION, 4242) + name)


def bye(events, samples):
    return frame(BYE, struct.pack("<QQ", events, samples))


def send_session(path, data):
    """Send one session's bytes; True once the daemon hangs up."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(path)
        try:
            sock.sendall(data)
            while sock.recv(4096):
                pass
        except (BrokenPipeError, ConnectionResetError):
            pass  # the daemon may hang up before it read everything
        except TimeoutError:
            return False
    return True


def get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, ""


def counters(base):
    status, body = get(base, "/metrics?format=json")
    if status != 200:
        raise RuntimeError(f"/metrics -> HTTP {status}")
    doc = json.loads(body)
    return {key: doc.get(key, 0) for key in (
        "collect_protocol_errors", "collect_sessions_aborted",
        "collect_sessions_folded")}


def oversized_http_request(base):
    host, port = base.split("://", 1)[-1].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.0\r\nX-Pad: " + b"p" * 9216)
        reply = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return reply.split(b"\r\n", 1)[0].decode(errors="replace")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--uds", required=True, help="the daemon's ingest socket")
    ap.add_argument("--http", required=True, help="http://HOST:PORT")
    ap.add_argument("--meta", required=True, help="a trace file for META")
    ap.add_argument("--max-frame", type=int, default=8 << 20)
    args = ap.parse_args()
    meta = frame(META, open(args.meta, "rb").read())

    sessions = {
        "bad magic": b"XC" + bytes(6),
        "length above --max-frame":
            hello(b"oversized") + frame(EVENTS, b"", args.max_frame + 1),
        "torn EVENTS frame": hello(b"torn") + meta +
            frame(EVENTS, bytes(FN_EVENT_RECORD_BYTES * 3 // 2)),
        "frames before HELLO": meta + frame(EVENTS, b"") + bye(0, 0),
        "BYE with wrong counts": hello(b"liar") + meta + bye(5, 0),
    }

    errors = []
    before = counters(args.http)
    for name, data in sessions.items():
        if not send_session(args.uds, data):
            errors.append(f"{name}: the daemon kept the connection open")
    http_status_line = oversized_http_request(args.http)

    want = len(sessions)
    deadline = time.monotonic() + 10
    after = counters(args.http)
    while (after["collect_sessions_aborted"] - before["collect_sessions_aborted"]
           < want and time.monotonic() < deadline):
        time.sleep(0.1)
        after = counters(args.http)

    status, _ = get(args.http, "/healthz")
    if status != 200:
        errors.append(f"/healthz -> HTTP {status}, want 200")
    for key, rise in (("collect_protocol_errors", want),
                      ("collect_sessions_aborted", want),
                      ("collect_sessions_folded", 0)):
        got = after[key] - before[key]
        if got != rise:
            errors.append(f"{key} rose by {got}, want {rise} "
                          f"({len(sessions)} hostile sessions)")
    if not http_status_line.startswith("HTTP/1.0 400"):
        errors.append(f"9 KiB unterminated request got {http_status_line!r}, "
                      "want HTTP/1.0 400")

    for e in errors:
        print(f"check_collectd_hostile: {e}", file=sys.stderr)
    if not errors:
        print(f"check_collectd_hostile: {want} hostile sessions rejected, "
              "oversized request refused, daemon healthy")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

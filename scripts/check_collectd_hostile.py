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
trace-v2 image is a valid META payload. One more session is well
formed, but its META names a 512 MiB sparse regular file as the
executable: the daemon must fold it with hex names, reading no more of
the file than its header, so its own peak RSS (/metrics peak_rss_kb)
rises by less than 64 MiB. Then checks that /healthz answers 200, that
collect_protocol_errors and collect_sessions_aborted each rose by the
number of hostile sessions, that collect_sessions_folded rose by one,
and that the HTTP request got a 400.

Exit 0 when clean, 1 with a message per violation otherwise.
"""
import argparse
import json
import os
import socket
import struct
import sys
import tempfile
import time
import urllib.error
import urllib.request

HELLO, META, EVENTS, BYE = 1, 2, 5, 7
FN_EVENT_RECORD_BYTES = 23
ENTER, EXIT = 1, 2
PROTOCOL_VERSION = 1
TRACE_EXECUTABLE_OFFSET = 20  # after magic u64, version u32, tick rate f64
HOLE_BYTES = 512 << 20
PEAK_RSS_RISE_KB = 64 << 10
UNNAMED_ADDR = 0x401000


def frame(kind, payload, length=None):
    n = len(payload) if length is None else length
    return b"TC" + bytes([kind, 0]) + struct.pack("<I", n) + payload


def hello(name):
    return frame(HELLO, struct.pack("<IQ", PROTOCOL_VERSION, 4242) + name)


def bye(events, samples):
    return frame(BYE, struct.pack("<QQ", events, samples))


def with_executable(trace, path):
    """The trace image with its header's executable field set to path."""
    (n,) = struct.unpack_from("<I", trace, TRACE_EXECUTABLE_OFFSET)
    exe = path.encode()
    return (trace[:TRACE_EXECUTABLE_OFFSET] + struct.pack("<I", len(exe)) +
            exe + trace[TRACE_EXECUTABLE_OFFSET + 4 + n:])


def call_pair(addr):
    """An EVENTS frame with one enter/exit pair on thread 0, node 0."""
    return frame(EVENTS, struct.pack("<QQIHB", 1000, addr, 0, 0, ENTER) +
                 struct.pack("<QQIHB", 2000, addr, 0, 0, EXIT))


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


def send_and_close(path, data):
    """Send one well-formed session and hang up, as a recorder does."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(path)
        sock.sendall(data)


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
        "collect_sessions_folded", "peak_rss_kb")}


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
    trace = open(args.meta, "rb").read()
    meta = frame(META, trace)

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
    with tempfile.TemporaryDirectory() as tmp:
        hole = os.path.join(tmp, "hole.bin")
        with open(hole, "wb") as f:
            f.truncate(HOLE_BYTES)  # sparse: no disk or page cache spent
        hostile_meta = (hello(b"hostile-meta") +
                        frame(META, with_executable(trace, hole)) +
                        call_pair(UNNAMED_ADDR) + bye(2, 0))
        send_and_close(args.uds, hostile_meta)
        want = len(sessions)
        deadline = time.monotonic() + 10
        after = counters(args.http)
        while ((after["collect_sessions_aborted"] -
                before["collect_sessions_aborted"] < want or
                after["collect_sessions_folded"] -
                before["collect_sessions_folded"] < 1) and
               time.monotonic() < deadline):
            time.sleep(0.1)
            after = counters(args.http)
    http_status_line = oversized_http_request(args.http)

    status, _ = get(args.http, "/healthz")
    if status != 200:
        errors.append(f"/healthz -> HTTP {status}, want 200")
    for key, rise in (("collect_protocol_errors", want),
                      ("collect_sessions_aborted", want),
                      ("collect_sessions_folded", 1)):
        got = after[key] - before[key]
        if got != rise:
            errors.append(f"{key} rose by {got}, want {rise} "
                          f"({len(sessions)} hostile sessions, 1 to fold)")
    rss_rise = after["peak_rss_kb"] - before["peak_rss_kb"]
    if rss_rise >= PEAK_RSS_RISE_KB:
        errors.append(f"peak_rss_kb rose by {rss_rise} kB folding a session "
                      f"whose META names a {HOLE_BYTES >> 20} MiB file, want "
                      f"under {PEAK_RSS_RISE_KB} kB")
    status, body = get(args.http, "/profile?top=100000")
    names = {f["name"]: f for f in json.loads(body).get("functions", [])} \
        if status == 200 else {}
    unnamed = names.get(hex(UNNAMED_ADDR), {})
    if unnamed.get("calls", 0) < 1:
        errors.append(f"/profile has no call to {hex(UNNAMED_ADDR)}: the "
                      "session naming a sparse file did not fold with hex "
                      "names")
    if not http_status_line.startswith("HTTP/1.0 400"):
        errors.append(f"9 KiB unterminated request got {http_status_line!r}, "
                      "want HTTP/1.0 400")

    for e in errors:
        print(f"check_collectd_hostile: {e}", file=sys.stderr)
    if not errors:
        print(f"check_collectd_hostile: {want} hostile sessions rejected, "
              f"a META naming a {HOLE_BYTES >> 20} MiB file folded "
              f"(peak RSS +{rss_rise} kB), oversized request refused, "
              "daemon healthy")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

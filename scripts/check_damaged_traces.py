#!/usr/bin/env python3
"""Every trace tool rejects a damaged trace before any output.

Used by CI (e2e-asan) after the export steps:

    check_damaged_traces.py TOOLS_DIR TRACE BINARY

Writes four damaged copies of TRACE (a recorded trace, so it ends with
a RUNSTATS trailer) beside it: cut inside the event payload, cut inside
the sample section, with its last 10 bytes removed (a cut inside
RUNSTATS), and with 7 garbage bytes appended. Beside them it makes a
FIFO nobody writes to and a directory, two paths that are no trace
file at all. Runs tempest_parse, tempest-export, tempest-lint,
tempest-diff (against the intact TRACE) and tempest-audit --trace TRACE
BINARY on each, and checks that:

  * every run exits non-zero; tempest-lint exits 1 with a
    file-trailing-bytes finding for the garbage tail and 2 otherwise;
  * every read error is one stderr line starting "<tool>: <copy>:",
    and for the FIFO and the directory is exactly
    "<tool>: <path>: not a regular file";
  * every run exits within its deadline (10 s on the FIFO and the
    directory, which a reader that blocks would never leave);
  * no sanitizer reports anything;
  * every tempest-export output file is empty.

Exit 0 when every check holds, 1 with a message per violation otherwise.
"""
import os
import shutil
import struct
import subprocess
import sys

# Seconds a run may take: a sanitizer build reading a damaged copy, and
# a refusal that must come before any read.
DEADLINE_S = 120
NON_REGULAR_DEADLINE_S = 10
NON_REGULAR = ("fifo", "directory")


def sections(data):
    """(event payload offset, event count, sample section offset)."""
    pos = 8 + 4 + 8  # magic, version, tsc rate

    def take(fmt):
        nonlocal pos
        (value,) = struct.unpack_from(fmt, data, pos)
        pos += struct.calcsize(fmt)
        return value

    def skip_string():
        nonlocal pos
        length = take("<I")
        pos += length

    skip_string()  # executable
    take("<Q")  # load bias
    for _ in range(take("<I")):  # nodes
        take("<H")
        skip_string()
    for _ in range(take("<I")):  # sensors
        take("<H")
        take("<H")
        take("<d")
        skip_string()
    for _ in range(take("<I")):  # threads
        take("<I")
        take("<H")
        take("<H")
    for _ in range(take("<I")):  # synthetic symbols
        take("<Q")
        skip_string()
    events = take("<Q")
    take("<I")  # record size
    return pos, events, pos + events * 23


def damaged_copies(trace):
    with open(trace, "rb") as f:
        data = f.read()
    events_at, events, samples_at = sections(data)
    (samples,) = struct.unpack_from("<Q", data, samples_at)
    cuts = {
        "events": data[: events_at + events * 23 // 2],
        # Inside the payload, or inside the framing of an empty section.
        "samples": data[: samples_at + (12 + samples * 20 // 2 if samples else 6)],
        "runstats": data[:-10],
        "garbage": data + b"garbage",
    }
    paths = {}
    for name, body in cuts.items():
        path = f"{trace}.damaged-{name}"
        with open(path, "wb") as f:
            f.write(body)
        paths[name] = path
    for name in NON_REGULAR:
        path = f"{trace}.damaged-{name}"
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)
        if name == "fifo":
            os.mkfifo(path)
        else:
            os.mkdir(path)
        paths[name] = path
    return paths


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    tools, trace, binary = argv[1:]
    errors = []
    for name, path in damaged_copies(trace).items():
        out = path + ".perfetto.json"
        runs = {
            "tempest_parse": [path],
            "tempest-export": ["--format", "perfetto", "--out", out, path],
            "tempest-lint": [path],
            "tempest-diff": [trace, path],
            "tempest-audit": ["--trace", path, binary],
        }
        deadline = NON_REGULAR_DEADLINE_S if name in NON_REGULAR else DEADLINE_S
        for tool, args in runs.items():
            where = f"{tool} on the {name} copy"
            try:
                run = subprocess.run([os.path.join(tools, tool)] + args,
                                     capture_output=True, text=True,
                                     timeout=deadline)
            except subprocess.TimeoutExpired:
                errors.append(f"{where}: still running after {deadline} s")
                continue
            lines = run.stderr.splitlines()
            if "Sanitizer" in run.stderr or "runtime error" in run.stderr:
                errors.append(f"{where}: sanitizer report:\n{run.stderr}")
            if tool == "tempest-lint" and name == "garbage":
                if run.returncode != 1 or "file-trailing-bytes" not in run.stdout:
                    errors.append(f"{where}: want exit 1 with a file-trailing-bytes "
                                  f"finding, got exit {run.returncode}:\n{run.stdout}")
                continue
            want = 2 if tool == "tempest-lint" else None
            if run.returncode == 0 or (want is not None and run.returncode != want):
                errors.append(f"{where}: exit {run.returncode}, want "
                              f"{want if want is not None else 'non-zero'}")
            if len(lines) != 1 or not lines[0].startswith(f"{tool}: {path}:"):
                errors.append(f"{where}: want one stderr line starting "
                              f"'{tool}: {path}:', got:\n{run.stderr}")
            elif name in NON_REGULAR and lines[0] != f"{tool}: {path}: not a regular file":
                errors.append(f"{where}: want '{tool}: {path}: not a regular "
                              f"file', got:\n{run.stderr}")
        if not os.path.exists(out) or os.path.getsize(out) != 0:
            size = os.path.getsize(out) if os.path.exists(out) else "no"
            errors.append(f"tempest-export on the {name} copy: {size} bytes "
                          f"written to {out}, want an empty file")
    for e in errors:
        print(f"check_damaged_traces: {e}", file=sys.stderr)
    if errors:
        return 1
    print("4 damaged copies, a FIFO and a directory rejected by 5 tools, "
          "before any output")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

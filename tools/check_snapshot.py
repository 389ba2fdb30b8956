#!/usr/bin/env python3
"""Validate a strt.engine.snapshot.v2 file (engine warm-start cache).

Usage: check_snapshot.py SNAPSHOT_FILE [--min-entries N]

Independent re-implementation of the wire format documented in
src/snapshot/snapshot.hpp, with no dependencies beyond the standard
library, so CI can verify what strt_serve / analyze_file wrote without
rebuilding any C++:

  header     magic "STRTSNAP", u32 version == 2, u32 endianness tag ==
             0x01020304 (little-endian), u32 section count <= 5,
             u32 reserved == 0.
  sections   ids 1..5 (curves, rbf, dbf, sbf, derived), no
             duplicates, exact payload framing, FNV-1a 64 checksum over
             each payload, no trailing bytes after the last section.
  records    every section payload parses to its record layout exactly
             (no slack); curve records are canonical staircases (times
             strictly increasing from 0, values strictly increasing,
             horizon >= last breakpoint, tail period in [1, horizon]);
             every cached-curve fingerprint (the curve_fp a memo entry
             resolves to) is present in the curves section, and a
             workload entry's horizon matches its curve's horizon.
             Memo-key components (derived-op operands) are opaque and
             are NOT required to be present -- they identify inputs
             that need not be interned.

With --min-entries N the snapshot must carry at least N entries in
total (workload records count one entry per cached horizon) -- CI uses
this to assert a serve run actually persisted warmth.

Exit status 0 when everything holds; 1 with a message otherwise.
"""

import struct
import sys
from pathlib import Path

MAGIC = b"STRTSNAP"
VERSION = 2
ENDIAN_TAG = 0x01020304
SECTION_NAMES = {1: "curves", 2: "rbf", 3: "dbf", 4: "sbf",
                 5: "derived"}


def fail(msg):
    print(f"check_snapshot: {msg}", file=sys.stderr)
    sys.exit(1)


def fnv1a64(data):
    """FNV-1a 64-bit -- keep in sync with strt::snapshot::fnv1a64."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class Cursor:
    """Bounds-checked little-endian reader over one section payload."""

    def __init__(self, data, where):
        self.data = data
        self.pos = 0
        self.where = where

    def take(self, fmt):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            fail(f"{self.where}: truncated at byte {self.pos}")
        (value,) = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return value

    def take_bytes(self, n):
        if self.pos + n > len(self.data):
            fail(f"{self.where}: truncated at byte {self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take("<B")

    def u64(self):
        return self.take("<Q")

    def i64(self):
        return self.take("<q")

    def done(self):
        if self.pos != len(self.data):
            fail(f"{self.where}: {len(self.data) - self.pos} slack "
                 f"byte(s) after the last record")


def check_curve(rec_index, fp, horizon, has_tail, tail_period,
                tail_increment, times, values, where):
    where = f"{where}: curve {rec_index} (fp {fp:#x})"
    if len(times) != len(values):
        fail(f"{where}: times/values length mismatch")
    if not times:
        fail(f"{where}: empty breakpoint list")
    if times[0] != 0:
        fail(f"{where}: first breakpoint at {times[0]}, expected 0")
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            fail(f"{where}: times not strictly increasing at index {i}")
        if values[i] <= values[i - 1]:
            fail(f"{where}: values not strictly increasing at index {i}")
    if horizon < times[-1]:
        fail(f"{where}: horizon {horizon} below last breakpoint "
             f"{times[-1]}")
    if has_tail not in (0, 1):
        fail(f"{where}: has_tail is {has_tail}, expected 0 or 1")
    if has_tail:
        if not 1 <= tail_period <= horizon:
            fail(f"{where}: tail period {tail_period} outside "
                 f"[1, {horizon}]")
        if tail_increment < 0:
            fail(f"{where}: negative tail increment")
    elif tail_period != 1 or tail_increment != 0:
        fail(f"{where}: tailless curve carries tail fields")


def parse_curves(payload, where):
    c = Cursor(payload, where)
    count = c.u64()
    fps = {}
    for i in range(count):
        fp = c.u64()
        horizon = c.i64()
        has_tail = c.u8()
        tail_period = c.i64()
        tail_increment = c.i64()
        n = c.u64()
        times = [c.i64() for _ in range(n)]
        values = [c.i64() for _ in range(n)]
        check_curve(i, fp, horizon, has_tail, tail_period, tail_increment,
                    times, values, where)
        if fp in fps:
            fail(f"{where}: duplicate curve fingerprint {fp:#x}")
        fps[fp] = horizon
    c.done()
    return fps, count


def parse_workload(payload, where):
    c = Cursor(payload, where)
    count = c.u64()
    refs = []
    entries = 0
    for i in range(count):
        task_fp = c.u64()
        horizons = c.u64()
        if horizons == 0:
            fail(f"{where}: record {i} (task {task_fp:#x}) has no "
                 f"horizons")
        last = None
        for _ in range(horizons):
            horizon = c.i64()
            if last is not None and horizon <= last:
                fail(f"{where}: record {i} horizons not strictly "
                     f"increasing")
            last = horizon
            refs.append((c.u64(), horizon))
            entries += 1
    c.done()
    return refs, entries


def parse_sbf(payload, where):
    c = Cursor(payload, where)
    count = c.u64()
    refs = []
    for _ in range(count):
        key_len = c.u64()
        c.take_bytes(key_len)
        c.i64()  # horizon of the memo key, not of the cached curve
        refs.append((c.u64(), None))
    c.done()
    return refs, count


def parse_derived(payload, where):
    c = Cursor(payload, where)
    count = c.u64()
    refs = []
    for i in range(count):
        op = c.u8()
        if op > 3:  # kAdd, kConv, kLeftover, kHull
            fail(f"{where}: record {i} has unknown derived op {op}")
        c.u64()  # operand a -- opaque input fingerprint
        c.u64()  # operand b (0 for unary ops)
        refs.append((c.u64(), None))  # cached result curve
    c.done()
    return refs, count


def check_snapshot(path, min_entries=0):
    data = path.read_bytes()
    if len(data) < len(MAGIC) + 16:
        fail(f"{path}: too short to hold a header ({len(data)} bytes)")
    if data[:len(MAGIC)] != MAGIC:
        fail(f"{path}: bad magic {data[:len(MAGIC)]!r}")
    version, endian, section_count, reserved = struct.unpack_from(
        "<IIII", data, len(MAGIC))
    if version != VERSION:
        fail(f"{path}: version {version}, expected {VERSION}")
    if endian != ENDIAN_TAG:
        fail(f"{path}: endianness tag {endian:#010x}, expected "
             f"{ENDIAN_TAG:#010x} (byte-swapped writer?)")
    if section_count > len(SECTION_NAMES):
        fail(f"{path}: section count {section_count} > "
             f"{len(SECTION_NAMES)}")
    if reserved != 0:
        fail(f"{path}: header reserved field is {reserved}, expected 0")

    pos = len(MAGIC) + 16
    payloads = {}
    for _ in range(section_count):
        if pos + 16 > len(data):
            fail(f"{path}: truncated section header at byte {pos}")
        sec_id, sec_reserved, length = struct.unpack_from("<IIQ", data, pos)
        pos += 16
        if sec_id not in SECTION_NAMES:
            fail(f"{path}: unknown section id {sec_id}")
        if sec_id in payloads:
            fail(f"{path}: duplicate section {SECTION_NAMES[sec_id]!r}")
        if sec_reserved != 0:
            fail(f"{path}: section {SECTION_NAMES[sec_id]!r} reserved "
                 f"field is {sec_reserved}, expected 0")
        if pos + length + 8 > len(data):
            fail(f"{path}: section {SECTION_NAMES[sec_id]!r} payload "
                 f"overruns the file")
        payload = data[pos:pos + length]
        pos += length
        (checksum,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        if fnv1a64(payload) != checksum:
            fail(f"{path}: section {SECTION_NAMES[sec_id]!r} checksum "
                 f"mismatch")
        payloads[sec_id] = payload
    if pos != len(data):
        fail(f"{path}: {len(data) - pos} trailing byte(s) after the "
             f"last section")

    curve_fps, n_curves = parse_curves(
        payloads.get(1, b"\0" * 8), f"{path}: curves")
    refs = []
    entries = n_curves
    for sec_id, parser in ((2, parse_workload), (3, parse_workload),
                           (4, parse_sbf), (5, parse_derived)):
        sec_refs, sec_entries = parser(
            payloads.get(sec_id, b"\0" * 8),
            f"{path}: {SECTION_NAMES[sec_id]}")
        refs.extend(sec_refs)
        entries += sec_entries
    for fp, want_horizon in refs:
        if fp not in curve_fps:
            fail(f"{path}: memo record references curve {fp:#x} absent "
                 f"from the curves section")
        if want_horizon is not None and curve_fps[fp] != want_horizon:
            fail(f"{path}: workload entry at horizon {want_horizon} "
                 f"resolves to curve {fp:#x} with horizon "
                 f"{curve_fps[fp]}")

    if entries < min_entries:
        fail(f"{path}: {entries} entries, expected at least "
             f"{min_entries}")
    print(f"  {path.name}: {n_curves} curve(s), {entries} entries, "
          f"{len(payloads)} section(s), {len(data)} bytes -- ok")


def main():
    args = sys.argv[1:]
    min_entries = 0
    if "--min-entries" in args:
        i = args.index("--min-entries")
        if i + 1 >= len(args) or not args[i + 1].isdigit():
            fail("--min-entries requires a count")
        min_entries = int(args[i + 1])
        del args[i:i + 2]
    if len(args) != 1:
        fail(f"usage: {sys.argv[0]} SNAPSHOT_FILE [--min-entries N]")
    path = Path(args[0])
    if not path.is_file():
        fail(f"{path} is not a file")
    print(f"checking snapshot {path}")
    check_snapshot(path, min_entries=min_entries)
    print("snapshot ok")


if __name__ == "__main__":
    main()

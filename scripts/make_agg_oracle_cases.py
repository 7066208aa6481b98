#!/usr/bin/env python3
"""Write the hand-built aggregate cases of the dra_oracle corpus.

    python3 scripts/make_agg_oracle_cases.py [fuzz/corpus/dra_oracle]

A dra_oracle input is a byte script that tests/testing/dra_script.cpp
decodes choice by choice through testing::ByteReader. Random bytes rarely
build a grouped aggregate whose groups appear and vanish, or a HAVING
threshold crossed in both directions, so this script encodes those shapes
byte for byte, in the order the interpreter reads them. Each case is an
aggregate CQ over S(id, category, price, qty), so every commit also runs
the interpreter's payload oracle (the delivered aggregate payload against
its accumulators). The output is deterministic; re-run it after a change
to the interpreter's decoding and commit the files.
"""

import os
import struct
import sys

CATEGORIES = ("red", "green", "blue", "gold")
COUNT, SUM, AVG, MIN, MAX = range(5)
INS_ONLY, DEL_ONLY, DIFFERENTIAL, COMPLETE = range(4)


class Script:
    def __init__(self):
        self.out = bytearray()

    def byte(self, b):
        self.out.append(b)

    def u32(self, v):
        self.out += struct.pack("<I", v)

    def s_row(self, row_id, category, price, qty):
        """random_s_row: id, category, price (None = NULL), qty."""
        self.u32(row_id)
        self.byte(CATEGORIES.index(category))
        if price is None:
            self.byte(0)  # index(8) == 0: NULL price
        else:
            self.byte(1)
            self.u32(price)
        self.u32(qty)


def encode(group_by, aggs, having, rows, mode, commits):
    """One script. `aggs` is [(kind, column)] with column "" (COUNT(*)),
    "price" or "qty"; `having` is None or (">=" | "<", k) on a0; `rows` are
    the seed rows; each commit is a list of ("insert", row),
    ("erase", live_index) or ("modify", live_index, row)."""
    s = Script()
    s.byte(1)  # uses_t: no (S only)
    s.byte(0)  # no WHERE
    s.byte(0)  # aggregate query
    s.byte(1 if group_by else 0)  # GROUP BY category
    s.byte(len(aggs) - 1)
    for kind, column in aggs:
        s.byte(kind)
        if kind == COUNT:
            s.byte(1 if column == "" else 0)
            if column == "":
                continue
        s.byte(1 if column == "price" else 0)
    if having is None:
        s.byte(1)
    else:
        s.byte(0)
        s.byte(1 if having[0] == ">=" else 0)
        s.u32(having[1])
    if group_by:
        s.byte(0)  # no ORDER BY
    s.byte(0)  # no index on category
    s.byte(0)  # no index on price
    s.byte(len(rows))
    for row in rows:
        s.s_row(*row)
    s.byte(0)  # trigger: on_change
    s.byte(1)  # no stop condition
    s.byte(mode)
    s.byte(0)
    s.byte(0)
    s.byte(0)  # three unused bytes
    s.byte(1)  # eager dispatch
    for ops in commits:
        s.byte(1)  # no clock jump
        s.byte(len(ops) - 1)
        for op in ops:
            if op[0] == "erase":
                s.byte(7)
                s.byte(op[1])
            elif op[0] == "modify":
                s.byte(5)
                s.byte(op[1])
                s.s_row(*op[2])
            else:
                s.byte(0)
                s.s_row(*op[1])
    return bytes(s.out)


def cases():
    # Live rows are addressed by their index in the interpreter's list of
    # live rows: seed rows first, then inserts, with erased rows removed.
    yield "agg_groups_appear_vanish.bin", encode(
        group_by=True,
        aggs=[(COUNT, ""), (SUM, "price")],
        having=None,
        rows=[(1, "red", 10, 1), (2, "red", 20, 2), (3, "blue", 30, 3)],
        mode=COMPLETE,
        commits=[
            [("insert", (4, "gold", 40, 4))],                 # gold appears
            [("insert", (5, "green", 50, 5))],                # green appears
            [("erase", 2)],                                   # blue vanishes
            [("erase", 2), ("insert", (6, "blue", 60, 6))],   # gold vanishes, blue back
            [("modify", 0, (1, "gold", 15, 1))],              # red shrinks, gold back
            [("erase", 1), ("erase", 0)],                     # red, gold vanish
            [("erase", 0), ("erase", 0)],                     # all groups gone
            [("insert", (7, "red", 70, 7))],                  # from empty to one
        ],
    )
    yield "agg_having_flips.bin", encode(
        group_by=True,
        aggs=[(SUM, "qty"), (COUNT, "")],
        having=(">=", 10),
        rows=[(1, "red", 10, 4), (2, "red", 10, 4), (3, "blue", 10, 12)],
        mode=DIFFERENTIAL,
        commits=[
            [("insert", (4, "red", 10, 3))],     # red 8 -> 11: enters
            [("erase", 2)],                      # blue 12 -> gone: leaves
            [("modify", 0, (1, "red", 10, 0))],  # red 11 -> 7: leaves
            [("insert", (5, "red", 10, 3))],     # red 7 -> 10: enters
            [("insert", (6, "blue", 10, 9))],    # blue appears below: nothing
            [("insert", (7, "blue", 10, 1))],    # blue 9 -> 10: enters
            [("erase", 1), ("erase", 3)],        # red 10 -> 6, blue 10 -> 1: leave
        ],
    )
    yield "agg_min_max_deletions.bin", encode(
        group_by=True,
        aggs=[(MIN, "price"), (MAX, "price")],
        having=None,
        rows=[(1, "red", 5, 1), (2, "red", 9, 1), (3, "red", 7, 1),
              (4, "red", 5, 1), (5, "gold", None, 1), (6, "gold", 3, 1)],
        mode=COMPLETE,
        commits=[
            [("erase", 1)],                      # red MAX 9 -> 7
            [("erase", 0)],                      # one of two red MIN 5s: MIN stays
            [("erase", 1)],                      # last red 5: MIN -> 7
            [("erase", 2)],                      # gold's 3 gone: only NULL left
            [("modify", 0, (3, "red", 1, 1))],   # red's lone row changes value
            [("erase", 1), ("erase", 0)],        # both groups vanish
        ],
    )
    yield "agg_ungrouped.bin", encode(
        group_by=False,
        aggs=[(SUM, "price"), (MIN, "qty")],
        having=None,
        rows=[(1, "red", 10, 3), (2, "blue", 20, 1)],
        mode=DIFFERENTIAL,
        commits=[
            [("insert", (3, "gold", 30, 0))],    # SUM and MIN change
            [("erase", 2)],                      # MIN back to 1
            [("erase", 0), ("erase", 0)],        # input empty
            [("insert", (4, "green", None, 5))],  # one row, NULL price
        ],
    )


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "fuzz", "corpus", "dra_oracle")
    for name, data in cases():
        path = os.path.join(out_dir, name)
        with open(path, "wb") as f:
            f.write(data)
        print(f"wrote {path} ({len(data)} bytes)")


if __name__ == "__main__":
    main()

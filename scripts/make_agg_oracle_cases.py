#!/usr/bin/env python3
"""Write the hand-built aggregate and DISTINCT cases of the dra_oracle corpus.

    python3 scripts/make_agg_oracle_cases.py [fuzz/corpus/dra_oracle]
    python3 scripts/make_agg_oracle_cases.py --self-test

A dra_oracle input is a byte script that tests/testing/dra_script.cpp
decodes choice by choice through testing::ByteReader. Random bytes rarely
build a grouped aggregate whose groups appear and vanish, a HAVING
threshold crossed in both directions, or a DISTINCT value whose
multiplicity crosses zero, so this script encodes those shapes byte for
byte, in the order the interpreter reads them. Each case is an aggregate
or DISTINCT CQ over S(id, category, price, qty), or DISTINCT over
S ⋈ T(category, bonus), so every commit also runs the interpreter's
payload oracle. The output is deterministic; re-run it after a change to
the interpreter's decoding and commit the files. --self-test writes the
cases into a temporary directory and exits 1 unless every file equals,
byte for byte, the one in fuzz/corpus/dra_oracle (ctest -L scripts).
"""

import os
import struct
import sys
import tempfile

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

    def t_row(self, category, bonus):
        """random_t_row: category, bonus."""
        self.byte(CATEGORIES.index(category))
        self.u32(bonus)

    def row(self, row):
        """An S row (id, category, price, qty) or a T row (category, bonus)."""
        if len(row) == 2:
            self.t_row(*row)
        else:
            self.s_row(*row)


def encode(group_by, aggs, having, rows, mode, commits):
    """One aggregate script over S. `aggs` is [(kind, column)] with column
    "" (COUNT(*)), "price" or "qty"; `having` is None or (">=" | "<", k) on
    a0; `rows` are the seed rows; each commit is a list of ("insert", row),
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
    return encode_script(s, False, rows, mode, commits)


def encode_distinct(join, rows, mode, commits):
    """One DISTINCT script: SELECT DISTINCT category, price FROM S, or with
    `join` SELECT DISTINCT s.id, s.category, t.bonus FROM S s, T t WHERE
    s.category = t.category. Seed rows and inserts are S rows (id,
    category, price, qty) or T rows (category, bonus); the interpreter
    adds one more T row, decoded from `rows[-1]`, after the seeds of a join
    script. Commits are as for encode()."""
    s = Script()
    if join:
        s.byte(0)  # uses_t: S s, T t on category
        s.byte(0)  # no extra WHERE conjunct
        s.byte(1)  # projection s.id, s.category, t.bonus
    else:
        s.byte(1)  # uses_t: no (S only)
        s.byte(0)  # no WHERE
        s.byte(1)  # not an aggregate
        s.byte(1)  # projection category, price
    s.byte(0)  # DISTINCT
    return encode_script(s, join, rows, mode, commits)


def encode_script(s, uses_t, rows, mode, commits):
    """The script after its query: indexes, seed rows, trigger, mode and
    the commits."""
    s.byte(0)  # no index on category
    s.byte(0)  # no index on price
    seeds = rows[:-1] if uses_t else rows
    s.byte(len(seeds))
    for row in seeds:
        if uses_t:
            s.byte(0 if len(row) == 2 else 1)  # index(3) == 0: a T row
        s.row(row)
    if uses_t:
        s.row(rows[-1])  # the T row every join script gets
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
                s.row(op[2])
            else:
                s.byte(0)
                if uses_t:
                    s.byte(0 if len(op[1]) == 2 else 1)  # index(4) == 0: into T
                s.row(op[1])
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
    # SELECT DISTINCT category, price FROM S: a value is delivered when its
    # multiplicity rises from zero and retracted when it falls back.
    yield "distinct_values_appear_vanish.bin", encode_distinct(
        join=False,
        rows=[(1, "red", 10, 1), (2, "red", 10, 2), (3, "blue", 20, 3)],
        mode=COMPLETE,
        commits=[
            [("insert", (4, "gold", 30, 4))],                  # (gold, 30) appears
            [("erase", 2)],                                    # (blue, 20) vanishes
            [("insert", (5, "green", None, 5))],               # (green, NULL) appears
            [("insert", (6, "green", None, 6))],               # (green, NULL) 1 -> 2
            [("modify", 2, (4, "blue", 20, 4))],               # gold gone, blue back
            [("erase", 0), ("erase", 0)],                      # (red, 10) 2 -> 0
            [("erase", 0), ("erase", 0), ("erase", 0)],        # every value gone
            [("insert", (7, "red", 70, 7))],                   # from empty to one
        ],
    )
    yield "distinct_multiplicity_swap.bin", encode_distinct(
        join=False,
        rows=[(1, "red", 10, 1), (2, "red", 10, 2), (3, "blue", 5, 3)],
        mode=COMPLETE,
        commits=[
            [("erase", 0), ("erase", 0),                       # (red, 10) 2 -> 0,
             ("insert", (4, "gold", 40, 1)), ("insert", (5, "gold", 40, 2))],  # gold 0 -> 2
            [("erase", 1), ("insert", (6, "blue", 5, 9))],     # gold 2 -> 1, blue 1 -> 2
            [("modify", 0, (3, "red", 10, 1)),                 # (blue, 5) 2 -> 0,
             ("modify", 2, (6, "red", 10, 2))],                # (red, 10) 0 -> 2
            [("erase", 1)],                                    # (gold, 40) 1 -> 0
        ],
    )
    # SELECT DISTINCT s.id, s.category, t.bonus FROM S s, T t ON category:
    # two equal T rows make every matching join row a duplicate.
    yield "distinct_join.bin", encode_distinct(
        join=True,
        rows=[(1, "red", 10, 1), (2, "blue", 20, 2), ("red", 5), ("red", 5),
              ("blue", 7)],
        mode=COMPLETE,
        commits=[
            [("insert", (3, "red", 30, 3))],          # (3, red, 5) appears twice
            [("erase", 2)],                           # red 5s: 2 -> 1, nothing
            [("insert", ("red", 6))],                 # (1|3, red, 6) appear
            [("erase", 2)],                           # (1|3, red, 5) vanish
            [("modify", 1, (1, "blue", 20, 2))],      # (2, blue, 7) -> (1, blue, 7)
            [("insert", (1, "red", 99, 0))],          # (1, red, 6) 1 -> 2
            [("erase", 2)],                           # (1, blue, 7) vanishes
            [("erase", 3), ("insert", ("red", 6))],   # T (red, 6) out and back
        ],
    )


def write(out_dir):
    """Write every case into `out_dir`; returns the file names."""
    names = []
    for name, data in cases():
        path = os.path.join(out_dir, name)
        with open(path, "wb") as f:
            f.write(data)
        names.append(name)
    return names


def self_test(corpus_dir):
    """Exit status 0 when the generator reproduces the checked-in cases."""
    stale = []
    with tempfile.TemporaryDirectory() as tmp:
        names = write(tmp)
        for name in names:
            with open(os.path.join(tmp, name), "rb") as f:
                fresh = f.read()
            path = os.path.join(corpus_dir, name)
            try:
                with open(path, "rb") as f:
                    kept = f.read()
            except FileNotFoundError:
                kept = None
            if kept != fresh:
                stale.append(name)
    for name in stale:
        print(f"{name}: fuzz/corpus/dra_oracle differs from the generator; "
              f"re-run scripts/make_agg_oracle_cases.py and commit the files")
    print(f"make_agg_oracle_cases self-test: {len(names) - len(stale)}/{len(names)} "
          f"cases match")
    return 1 if stale else 0


def main():
    corpus_dir = os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "fuzz", "corpus", "dra_oracle"))
    if sys.argv[1:] == ["--self-test"]:
        return self_test(corpus_dir)
    out_dir = sys.argv[1] if len(sys.argv) > 1 else corpus_dir
    for name in write(out_dir):
        print(f"wrote {os.path.join(out_dir, name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

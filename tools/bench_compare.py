#!/usr/bin/env python3
"""Compare two bench/ JSON reports row by row.

    tools/bench_compare.py OLD.json NEW.json
    tools/bench_compare.py --self-test

For every row name both reports share, prints the median fps of each, their
ratio (new / old) and the noise band, and flags the row only when the delta
falls outside that band. The band is the two rows' fps_iqr_rel (interquartile
range over median) added: a row is flagged "faster" or "slower" only when
|new / old - 1| exceeds it. Rows with no fps, and names found in one report
only, are listed but not compared. The exit code is 0 whether or not
a row is flagged; it is 1 only for unreadable input or a failed self-test.

The host's slow spells last minutes, so compare reports taken in turn (old,
new, old, new), not one taken long after the other.
"""
import argparse
import json
import sys


def index(rows):
    return {row["name"]: row for row in rows if "name" in row}


def iqr_rel(row):
    return row.get("fps_iqr_rel") or 0.0


def compare(old_rows, new_rows):
    """Returns (compared, skipped, only_old, only_new).

    compared: (name, old_fps, new_fps, ratio, band, flag) per shared row with
    fps on both sides; flag is "faster", "slower" or "" (within the band).
    """
    old, new = index(old_rows), index(new_rows)
    compared, skipped = [], []
    for name in (n for n in old if n in new):
        a, b = old[name].get("fps"), new[name].get("fps")
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)) or a <= 0:
            skipped.append(name)
            continue
        band = iqr_rel(old[name]) + iqr_rel(new[name])
        ratio = b / a
        flag = ""
        if ratio - 1.0 > band:
            flag = "faster"
        elif 1.0 - ratio > band:
            flag = "slower"
        compared.append((name, a, b, ratio, band, flag))
    only_old = [n for n in old if n not in new]
    only_new = [n for n in new if n not in old]
    return compared, skipped, only_old, only_new


def report(old_rows, new_rows, out=sys.stdout):
    compared, skipped, only_old, only_new = compare(old_rows, new_rows)
    width = max([len(c[0]) for c in compared] + [3])
    print("%-*s %12s %12s %8s %8s  %s"
          % (width, "row", "old fps", "new fps", "ratio", "band", "flag"), file=out)
    for name, a, b, ratio, band, flag in compared:
        print("%-*s %12.6g %12.6g %7.3fx %7.1f%%  %s"
              % (width, name, a, b, ratio, 100.0 * band, flag), file=out)
    flagged = sum(1 for c in compared if c[5])
    print("%d rows compared, %d outside the band" % (len(compared), flagged), file=out)
    for label, names in (("no fps", skipped), ("only in old", only_old),
                         ("only in new", only_new)):
        if names:
            print("%s: %s" % (label, ", ".join(names)), file=out)


def self_test():
    old = [
        {"name": "steady", "fps": 1000.0, "fps_iqr_rel": 0.04},
        {"name": "sped_up", "fps": 1000.0, "fps_iqr_rel": 0.02},
        {"name": "slowed", "fps": 1000.0, "fps_iqr_rel": 0.02},
        {"name": "noisy", "fps": 1000.0, "fps_iqr_rel": 0.50},
        {"name": "no_fps", "fps": None, "fps_iqr_rel": None},
        {"name": "dropped", "fps": 5.0, "fps_iqr_rel": 0.0},
    ]
    new = [
        {"name": "steady", "fps": 1030.0, "fps_iqr_rel": 0.04},
        {"name": "sped_up", "fps": 1100.0, "fps_iqr_rel": 0.02},
        {"name": "slowed", "fps": 900.0, "fps_iqr_rel": 0.02},
        {"name": "noisy", "fps": 700.0, "fps_iqr_rel": 0.20},
        {"name": "no_fps", "fps": 10.0, "fps_iqr_rel": 0.0},
        {"name": "added", "fps": 7.0, "fps_iqr_rel": 0.0},
    ]
    compared, skipped, only_old, only_new = compare(old, new)
    flags = {c[0]: c[5] for c in compared}
    checks = [
        # 3% apart, 4% + 4% noise: inside the band.
        (flags.get("steady") == "", "steady row flagged"),
        (flags.get("sped_up") == "faster", "10% gain outside a 4% band not flagged"),
        (flags.get("slowed") == "slower", "10% loss outside a 4% band not flagged"),
        # A 30% loss inside a 50% + 20% band stays unflagged.
        (flags.get("noisy") == "", "loss within a wide band flagged"),
        (abs(dict((c[0], c[3]) for c in compared)["sped_up"] - 1.1) < 1e-12,
         "ratio is not new / old"),
        (skipped == ["no_fps"], "row without fps compared"),
        (only_old == ["dropped"] and only_new == ["added"], "unmatched rows lost"),
    ]
    failures = [msg for ok, msg in checks if not ok]
    for msg in failures:
        print("bench_compare self-test:", msg, file=sys.stderr)
    if not failures:
        report(old, new)
        print("bench_compare self-test: OK")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.old or not args.new:
        parser.error("give OLD.json and NEW.json, or --self-test")
    try:
        with open(args.old) as f:
            old_rows = json.load(f)
        with open(args.new) as f:
            new_rows = json.load(f)
    except (OSError, ValueError) as e:
        print("bench_compare:", e, file=sys.stderr)
        return 1
    report(old_rows, new_rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare bench/ JSON reports row by row.

    tools/bench_compare.py OLD.json NEW.json
    tools/bench_compare.py --old A1.json A2.json A3.json --new B1.json B2.json B3.json
    tools/bench_compare.py --self-test

For every row name both sides share, prints the median fps of each side, their
ratio (new / old) and the noise band, and flags the row only when the delta
falls outside that band. A side is one report or several reports of one binary
from separate processes. A side's fps is the median of its reports' medians;
its noise is the median of their fps_iqr_rel (interquartile range over median,
from rounds inside one process) plus the spread of the medians across its
reports (their median distance from the side's fps, over that fps; 0 for one
report), since one process's rounds understate how far runs in separate
processes land apart. A median distance, not the range, so one report taken
in a slow spell does not open the band. The band is the two sides' noise
added: a row is flagged "faster" or "slower" only when
|new / old - 1| exceeds it. Rows with no fps, and names found on one side only,
are listed but not compared. The exit code is 0 whether or not a row is
flagged; it is 1 only for unreadable input or a failed self-test.

The host's slow spells last minutes, so take the reports in turn (old, new,
old, new, ...), not one side long after the other.
"""
import argparse
import json
import statistics
import sys


def side(reports):
    """Folds a side's reports into {name: (fps, noise) or None}, in row order.

    None marks a row that some report of the side has without a positive fps.
    """
    fps, iqr = {}, {}
    for rows in reports:
        for row in rows:
            name = row.get("name")
            if name is None:
                continue
            value = row.get("fps")
            ok = isinstance(value, (int, float)) and value > 0
            fps.setdefault(name, []).append(value if ok else None)
            iqr.setdefault(name, []).append(row.get("fps_iqr_rel") or 0.0)
    folded = {}
    for name, values in fps.items():
        if None in values:
            folded[name] = None
            continue
        mid = statistics.median(values)
        spread = statistics.median(abs(v - mid) for v in values) / mid
        folded[name] = (mid, statistics.median(iqr[name]) + spread)
    return folded


def compare(old_reports, new_reports):
    """Returns (compared, skipped, only_old, only_new).

    Each argument is a list of reports (lists of rows) from one side.
    compared: (name, old_fps, new_fps, ratio, band, flag) per shared row with
    fps on both sides; flag is "faster", "slower" or "" (within the band).
    """
    old, new = side(old_reports), side(new_reports)
    compared, skipped = [], []
    for name in (n for n in old if n in new):
        if old[name] is None or new[name] is None:
            skipped.append(name)
            continue
        (a, old_noise), (b, new_noise) = old[name], new[name]
        band = old_noise + new_noise
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


def report(old_reports, new_reports, out=sys.stdout):
    compared, skipped, only_old, only_new = compare(old_reports, new_reports)
    print("old: %d report(s), new: %d report(s)"
          % (len(old_reports), len(new_reports)), file=out)
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
    compared, skipped, only_old, only_new = compare([old], [new])
    flags = {c[0]: c[5] for c in compared}

    # Three reports per side of one binary: "drift" moves 8% between
    # processes while each process reads 2% IQR. One report against one
    # flags it; the spread across reports widens the band so all six do not.
    # "gain" is a real 1.5x that stays flagged through the wider band.
    def rows(drift, gain):
        return [{"name": "drift", "fps": drift, "fps_iqr_rel": 0.02},
                {"name": "gain", "fps": gain, "fps_iqr_rel": 0.02}]
    olds = [rows(1000.0, 100.0), rows(1080.0, 104.0), rows(1040.0, 102.0)]
    news = [rows(1075.0, 150.0), rows(995.0, 155.0), rows(1030.0, 152.0)]
    single = {c[0]: c[5] for c in compare(olds[:1], news[:1])[0]}
    multi = {c[0]: c for c in compare(olds, news)[0]}

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
        (single.get("drift") == "faster", "fixture: one-report drift not outside IQR"),
        (multi["drift"][5] == "", "drift across processes flagged"),
        (multi["drift"][1] == 1040.0 and multi["drift"][2] == 1030.0,
         "side fps is not the median of its reports"),
        (multi["gain"][5] == "faster", "1.5x gain lost in the widened band"),
    ]
    failures = [msg for ok, msg in checks if not ok]
    for msg in failures:
        print("bench_compare self-test:", msg, file=sys.stderr)
    if not failures:
        report(olds, news)
        print("bench_compare self-test: OK")
    return 1 if failures else 0


def load(paths):
    reports = []
    for path in paths:
        with open(path) as f:
            reports.append(json.load(f))
    return reports


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pair", nargs="*", metavar="OLD NEW")
    parser.add_argument("--old", nargs="+", default=[], metavar="OLD")
    parser.add_argument("--new", nargs="+", default=[], metavar="NEW")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    old, new = args.old, args.new
    if args.pair:
        if len(args.pair) != 2 or old or new:
            parser.error("give OLD.json NEW.json, or --old ... --new ...")
        old, new = args.pair[:1], args.pair[1:]
    if not old or not new:
        parser.error("give OLD.json NEW.json, --old ... --new ..., or --self-test")
    try:
        old_reports, new_reports = load(old), load(new)
    except (OSError, ValueError) as e:
        print("bench_compare:", e, file=sys.stderr)
        return 1
    report(old_reports, new_reports)
    return 0


if __name__ == "__main__":
    sys.exit(main())

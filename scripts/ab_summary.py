#!/usr/bin/env python3
"""Summarises a scripts/ab.sh run directory into one BENCH_ab JSON.

    scripts/ab_summary.py DIR OUT --parent SHA --change SHA [--claim TEXT]
                          [--benchmark BENCHMARK.json]

Reads DIR/runs/<set>/<workload>/<seed>/<side>/ (the benchmark's
<workload>.json, its stdout, exit status, the /proc/stat cpu line before
and after the run, and its user and system CPU seconds) and writes, per workload and end-to-end metric, both
sides' values in seed order, medians and quartiles, pairwise wins and the
BENCHMARK.json bound check, and the quartiles of every timed build
pooled across runs (`setup_s_pooled`: each run times three builds and
reports their median as `setup_s`). Each run's CPU seconds (`cpu_s`, user + system, cargo's own check
included) sit beside its steal fraction, with per-side quartiles and pair
wins. Held-out seeds are reported per seed, apart from the medians. Every
run made is listed in `runs_made` with its steal fraction and `cpu_s`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess

SIDES = ("parent", "change")


def seed_key(seed):
    return int(seed, 0)


def steal_frac(path):
    """Steal ticks over all ticks between the two /proc/stat cpu lines."""
    with open(path) as f:
        lines = [line.split()[1:] for line in f if line.startswith("cpu ")]
    if len(lines) != 2:
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user and nice.
    before, after = ([int(x) for x in line[:8]] for line in lines)
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta)
    return delta[7] / total if total > 0 and len(delta) == 8 else None


def cpu_s(path):
    """User + system seconds from a `cpu_times` line "U S"; None if absent."""
    try:
        with open(path) as f:
            user, system = (float(x) for x in f.read().split())
    except (OSError, ValueError):
        return None
    return user + system


def load_run(path, workload):
    with open(os.path.join(path, "status")) as f:
        status = int(f.read())
    doc = None
    out = os.path.join(path, workload + ".json")
    if os.path.exists(out):
        with open(out) as f:
            doc = json.load(f)
    result = None
    with open(os.path.join(path, "stdout.log")) as f:
        for line in f:
            if line.startswith("{"):
                result = json.loads(line)
    return {
        "status": status,
        "doc": doc,
        "result": result,
        "steal_frac": steal_frac(os.path.join(path, "proc_stat")),
        "cpu_s": cpu_s(os.path.join(path, "cpu_times")),
        "mtime": os.path.getmtime(os.path.join(path, "status")),
    }


def value(run, metric):
    if run["result"] is None:
        return None
    entry = run["result"]["metrics"].get(metric)
    return None if entry is None else entry["value"]


def quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(decl, parent, change):
    """One metric over same-seed pairs, in BENCH_ab_pr25.json's fields."""
    lower = decl["better"] == "lower"

    def better(c, p):
        return c < p if lower else c > p

    pq, cq = quartiles(parent), quartiles(change)
    iqr = pq["q3"] - pq["q1"]
    pm, cm = pq["median"], cq["median"]
    worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    wins = sum(better(c, p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    every = all(better(c, p) for c in change for p in parent)
    spread = iqr / pm if pm else 0.0
    differ = abs(cm - pm) > iqr
    if wins * 10 >= 9 * len(parent) and differ and better(cm, pm):
        verdict = "gain"
    elif worse > decl["bound"]:
        verdict = "regression"
    elif spread > decl["bound"] and not every:
        verdict = "unresolved"
    else:
        verdict = "within_bound"
    return {
        "unit": decl["unit"],
        "better": decl["better"],
        "bound": decl["bound"],
        "parent": parent,
        "change": change,
        "parent_quartiles": pq,
        "change_quartiles": cq,
        "parent_iqr": iqr,
        "parent_spread_iqr_over_median": spread,
        "change_wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "median_change_over_parent": cm / pm if pm else None,
        "worse_by_frac_of_parent": worse,
        "within_bound": worse <= decl["bound"],
        "change_median_inside_parent_iqr": pq["q1"] <= cm <= pq["q3"],
        "medians_differ_by_more_than_parent_iqr": differ,
        "every_change_run_better_than_every_parent_run": every,
        "verdict": verdict,
    }


def fingerprint(run):
    doc = run["doc"]
    return None if doc is None else doc["fingerprint"]["sim_fingerprint"]


def summarise_workload(decls, runs, seeds):
    pairs = [runs[s] for s in seeds]
    block = {
        "seeds": [seed_key(s) for s in seeds],
        "first_of_pair": {
            s: min(SIDES, key=lambda side: runs[s][side]["mtime"]) for s in seeds
        },
        "correct": {
            side: all(p[side]["result"] is not None and p[side]["result"]["correct"] for p in pairs)
            for side in SIDES
        },
        "exit_status_nonzero": {
            side: sum(p[side]["status"] != 0 for p in pairs) for side in SIDES
        },
        "failed_rounds": {
            side: sum(p[side]["result"]["failed"] for p in pairs if p[side]["result"])
            for side in SIDES
        },
        "attempted_rounds": {
            side: sum(p[side]["result"]["attempted"] for p in pairs if p[side]["result"])
            for side in SIDES
        },
        "fingerprints_equal_per_seed": all(
            fingerprint(p["parent"]) is not None
            and fingerprint(p["parent"]) == fingerprint(p["change"])
            for p in pairs
        ),
        "steal_frac": {side: [p[side]["steal_frac"] for p in pairs] for side in SIDES},
        "cpu_s": cpu_summary(pairs),
        "metrics": {},
    }
    for decl in decls:
        name = decl["name"]
        vals = {side: [value(p[side], name) for p in pairs] for side in SIDES}
        if any(v is None for side in SIDES for v in vals[side]):
            block["metrics"][name] = {"missing": True, **vals}
            continue
        block["metrics"][name] = compare(decl, vals["parent"], vals["change"])
    block["setup_s_pooled"] = pooled_setup(pairs)
    block["sim_metrics_bit_identical_per_seed"] = all(
        value(p["parent"], m) == value(p["change"], m)
        for p in pairs
        for m in ("answered_frac", "sim_msgs_per_query")
    )
    return block


def cpu_summary(pairs):
    """Each side's run CPU seconds in seed order, their quartiles and IQR,
    and the pairs where the change used less CPU."""
    out = {side: [p[side]["cpu_s"] for p in pairs] for side in SIDES}
    if any(x is None for side in SIDES for x in out[side]) or len(pairs) < 2:
        return out
    for side in SIDES:
        q = quartiles(out[side])
        out[side + "_quartiles"] = q
        out[side + "_iqr"] = q["q3"] - q["q1"]
    out["change_wins"] = sum(c < p for p, c in zip(out["parent"], out["change"]))
    out["pairs"] = len(pairs)
    return out


def pooled_setup(pairs):
    """Every timed build of every run per side (`setup_s_samples`; each
    run's `setup_s` is the median of its own), pooled into quartiles."""
    out = {}
    for side in SIDES:
        samples = [
            x for p in pairs if p[side]["doc"] is not None for x in p[side]["doc"]["setup_s_samples"]
        ]
        out[side] = {
            "builds": len(samples),
            "quartiles": quartiles(samples) if len(samples) >= 2 else None,
            "min": min(samples, default=None),
            "max": max(samples, default=None),
        }
    p, c = (out[side]["quartiles"] for side in SIDES)
    if p and c:
        out["change_median_over_parent"] = c["median"] / p["median"] if p["median"] else None
        out["change_q3_below_parent_q1"] = c["q3"] < p["q1"]
    return out


def summarise_holdout(decls, runs, seeds):
    out = {}
    for s in seeds:
        pair = runs[s]
        row = {
            "correct": {
                side: pair[side]["result"] is not None and pair[side]["result"]["correct"]
                for side in SIDES
            },
            "fingerprints_equal": fingerprint(pair["parent"]) == fingerprint(pair["change"]),
            "steal_frac": {side: pair[side]["steal_frac"] for side in SIDES},
            "cpu_s": {side: pair[side]["cpu_s"] for side in SIDES},
        }
        for decl in decls:
            p, c = (value(pair[side], decl["name"]) for side in SIDES)
            lower = decl["better"] == "lower"
            row[decl["name"]] = {
                "parent": p,
                "change": c,
                "change_better": None if None in (p, c) else (c < p if lower else c > p),
            }
        out[s] = row
    return out


def read_set(root):
    """{workload: {seed: {side: run}}} for one run set."""
    sets = {}
    if not os.path.isdir(root):
        return sets
    for workload in sorted(os.listdir(root)):
        for seed in os.listdir(os.path.join(root, workload)):
            base = os.path.join(root, workload, seed)
            sides = {side: load_run(os.path.join(base, side), workload) for side in SIDES}
            sets.setdefault(workload, {})[seed] = sides
    return sets


def host():
    cpu = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(), "rustc": rustc}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir")
    ap.add_argument("out")
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--claim", default="none")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    decls = bench["end_to_end"]
    main_runs = read_set(os.path.join(args.dir, "runs", "main"))
    held = read_set(os.path.join(args.dir, "runs", "holdout"))

    runs_made = []
    for set_name, sets in (("main", main_runs), ("holdout", held)):
        for workload, by_seed in sets.items():
            for seed, sides in by_seed.items():
                for side, run in sides.items():
                    runs_made.append(
                        {
                            "set": set_name,
                            "workload": workload,
                            "seed": seed_key(seed),
                            "side": side,
                            "exit_status": run["status"],
                            "correct": run["result"] is not None and run["result"]["correct"],
                            "steal_frac": run["steal_frac"],
                            "cpu_s": run["cpu_s"],
                            "finished_at": run["mtime"],
                        }
                    )
    runs_made.sort(key=lambda r: r["finished_at"])
    for r in runs_made:
        del r["finished_at"]

    doc = {
        "command": " ".join(bench["command"])
        + " --workload W --seed N --seconds %d --trace 0 --out DIR" % bench["run_seconds"],
        "parent_commit": args.parent,
        "change_commit": args.change,
        "host": host(),
        "claim": args.claim,
        "workloads": {
            w["name"]: summarise_workload(decls, main_runs[w["name"]], sorted(main_runs[w["name"]], key=seed_key))
            for w in bench["workloads"]
            if w["name"] in main_runs
        },
    }
    if held:
        doc["held_out"] = {
            w: summarise_holdout(decls, by_seed, sorted(by_seed, key=seed_key))
            for w, by_seed in held.items()
        }
    doc["runs_made"] = runs_made
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("wrote", args.out)


if __name__ == "__main__":
    main()

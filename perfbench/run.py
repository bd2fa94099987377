#!/usr/bin/env python3
"""Build and run the higpu benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record

Run from the root of a checkout. The benchmark is a CMake package of its own
(perfbench/CMakeLists.txt) that builds the higpu library from the checkout's
sources into $CARGO_TARGET_DIR (default .bench_build). Build output goes to
stderr. The benchmark's report goes to stdout; its last line is one JSON
object with the keys correct, attempted, failed and metrics.

--self-test runs the benchmark's self-tests and checks that the metrics the
program reports are exactly those BENCHMARK.json declares. --record measures
the seeds listed in perfbench/record.json and stores their digests and
metrics there (the committed trajectory point).
"""
import json
import os
import platform
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "record.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure (once) and build; returns the build directory or exits."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        rc, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(3)
    return out


def run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE):
    """Run `cmd` in its own process group and wait for it; returns
    (returncode, captured stdout). On timeout the whole group (a build's
    compilers too) is killed and reaped, and the script exits."""
    try:
        p = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                             start_new_session=True)
    except OSError as e:
        print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
        sys.exit(3)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        sys.exit(4)
    return p.returncode, out


def out_dir():
    return os.path.join(os.path.dirname(build_dir()), "perfbench-out")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_benchmark():
    return load_json(os.path.join(HERE, "..", "BENCHMARK.json"))


def digest_lines(lines, seed):
    """`# digest_match` lines comparing printed digests with the record."""
    recorded = load_json(RECORD).get("digests", {})
    out = []
    for line in lines:
        m = re.match(r"# sim_digest (\S+) ([0-9a-f]+)$", line)
        if not m:
            continue
        want = recorded.get(m.group(1), {}).get(str(seed))
        verdict = ("unrecorded seed" if want is None
                   else "yes" if want == m.group(2) else f"no (recorded {want})")
        out.append(f"# digest_match {m.group(1)} seed={seed}: {verdict}")
    return out


def bench(args):
    exe = os.path.join(build(), "perfbench")
    rc, stdout = run([exe, *args, "--out-dir", out_dir()])
    lines = stdout.splitlines()
    if rc != 0 or not lines:
        print(stdout, end="")
        print(f"perfbench: benchmark exited with {rc}", file=sys.stderr)
        sys.exit(rc or 1)
    seed = args[args.index("--seed") + 1] if "--seed" in args else "2019"
    # The digest verdict goes before the result, which stays the last line.
    print("\n".join(lines[:-1] + digest_lines(lines, seed) + lines[-1:]))
    return 0


def self_test():
    exe_dir = build()
    rc, listing = run([os.path.join(exe_dir, "perfbench"), "--list-metrics"])
    declared = load_benchmark()
    want = [("end_to_end", m["name"], m["unit"]) for m in declared["end_to_end"]]
    want += [("per_layer", m["name"], m["unit"]) for m in declared["per_layer"]]
    have = [tuple(l.split()) for l in listing.splitlines()]
    ok = rc == 0 and have == want
    print(f"{'ok  ' if ok else 'FAIL'} reported metrics match BENCHMARK.json")
    rc, out = run([os.path.join(exe_dir, "perfbench_selftest")])
    print(out, end="")
    return 0 if ok and rc == 0 else 1


def record():
    """Measure the recorded seeds and store digests and metrics."""
    exe = os.path.join(build(), "perfbench")
    rec = load_json(RECORD)
    declared = load_benchmark()
    seconds = str(declared["run_seconds"])
    digests, points = {}, {}
    for seed in rec["seeds"]:
        for wl in (w["name"] for w in declared["workloads"]):
            for trace in ("0", "1"):
                rc, stdout = run([exe, "--workload", wl, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", trace,
                                  "--out-dir", out_dir()])
                lines = stdout.splitlines()
                if rc != 0 or not lines:
                    sys.exit(f"perfbench: {wl} seed {seed} failed")
                res = json.loads(lines[-1])
                for line in lines:
                    m = re.match(r"# sim_digest (\S+) ([0-9a-f]+)$", line)
                    if m:
                        digests.setdefault(wl, {})[str(seed)] = m.group(2)
                p = points.setdefault(str(seed), {}).setdefault(wl, {
                    "correct": True, "attempted": 0, "failed": 0, "metrics": {}})
                p["correct"] = p["correct"] and res["correct"]
                p["attempted"] += res["attempted"]
                p["failed"] += res["failed"]
                p["metrics"].update({k: v["value"]
                                     for k, v in res["metrics"].items()})
                print(f"{wl} seed={seed} trace={trace}: correct="
                      f"{res['correct']}", file=sys.stderr)
    rec["digests"] = digests
    rec["trajectory"] = [{"point": "baseline",
                          "host": f"{os.cpu_count()}-core {platform.machine()} "
                                  "container, Release build",
                          "seeds": points}]
    with open(RECORD, "w") as f:
        json.dump(rec, f, indent=2)
        f.write("\n")
    return 0


def main():
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        return self_test()
    if argv == ["--record"]:
        return record()
    if "--workload" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    return bench(argv)


if __name__ == "__main__":
    sys.exit(main())

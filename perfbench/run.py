#!/usr/bin/env python3
"""PairwiseHist pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload build-power-gd --seed 1 --seconds 10 --trace 0

Builds the repository's main sources together with the harness in
perfbench/src (sbt, cached by a hash of the sources), runs one workload in a
fresh JVM and prints the harness's JSON result as the last stdout line.
Everything it writes stays under perfbench/: the build in perfbench/target,
span traces in perfbench/work, and a per-run temporary directory (Spark
scratch space, DuckDB Parquet copies) that is deleted on exit.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["build-power-gd", "build-flights-wide"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JAVA_HEAP = "3g"
YOUNG_GEN = "1g"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH_FILE = os.path.join(TARGET, "perfbench-classpath.txt")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_files():
    """Every input of the build, as paths relative to the repository root."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in (os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src")):
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(os.path.relpath(f, ROOT) for f in files)


def stamp():
    h = hashlib.sha256()
    for rel in source_files():
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def build():
    """Compile with sbt unless the sources are unchanged; returns the classpath."""
    want = stamp()
    if os.path.exists(CLASSPATH_FILE):
        with open(CLASSPATH_FILE) as f:
            have, cp = (f.read().split("\n", 1) + [""])[:2]
        if have == want and cp.strip():
            return cp.strip()
    log("building (sbt compile)")
    env = dict(os.environ)
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    t0 = time.time()
    out = run_child(cmd, cwd=HERE, env=env, timeout=BUILD_TIMEOUT_S)
    if out is None or out[0] != 0:
        if out is not None:
            sys.stderr.write(out[1])
        log("build failed")
        sys.exit(3)
    lines = [l for l in out[1].splitlines() if l.strip() and not l.startswith("[")]
    if not lines:
        log("build printed no classpath")
        sys.exit(3)
    cp = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as f:
        f.write(want + "\n" + cp)
    log(f"built in {time.time() - t0:.0f} s")
    return cp


def child_env(tmp):
    # SPARK_LOCAL_DIRS would override spark.local.dir; keep Spark's scratch
    # space in the per-run directory.
    return dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(tmp, "spark"))


def java_cmd(cp, tmp, work, args):
    # A fixed heap and young generation with the parallel collector: with
    # G1's adaptive sizing, reload and query times of one seed moved by up
    # to 40 % between runs. -XX:-UsePerfData: no hsperfdata file outside
    # the checkout.
    return (["java", f"-Xms{JAVA_HEAP}", f"-Xmx{JAVA_HEAP}", f"-Xmn{YOUNG_GEN}", "-XX:+UseParallelGC",
             "-XX:-UsePerfData", "-Xlog:disable", "-Xlog:all=warning:stderr",
             f"-Djava.io.tmpdir={tmp}",
             f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
             "-cp", cp, "perfbench.Main", "--work", work] + args)


def run_child(cmd, cwd, env, timeout, stdout_only=False):
    """Runs a child to completion; returns (code, stdout) or None on timeout.
    The child is killed and reaped on timeout or interruption."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=None if stdout_only else subprocess.STDOUT,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {cmd[0]}")
        return None
    finally:
        if p.poll() is None:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            p.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    # SIGTERM unwinds through the finally blocks, so children are killed and
    # temporary directories removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        log(f"no repository sources under {os.path.join(ROOT, 'src', 'main', 'scala')}; "
            "run from a checkout of the repository")
        sys.exit(2)
    if not os.environ.get("SPARK_HOME"):
        log("SPARK_HOME is not set")
        sys.exit(2)

    cp = build()
    work = os.path.join(HERE, "work")
    tmp = os.path.join(work, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        cmd = java_cmd(cp, tmp, work, ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                                       "--trace", a.trace])
        out = run_child(cmd, cwd=ROOT, env=child_env(tmp), timeout=RUN_TIMEOUT_S, stdout_only=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if out is None:
        sys.exit(4)
    code, stdout = out
    lines = [l for l in stdout.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        if lines:
            print(lines[-1])
        log(f"harness exited {code} without a result")
        sys.exit(code or 5)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()

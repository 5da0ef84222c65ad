#!/usr/bin/env python3
"""Outside-in benchmark for the GraLMatch reproduction.

    python3 perfbench/run.py --workload companies|securities|cleanup \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the program and the
benchmark from source with sbt (perfbench/build.sbt) and caches the class
path; later calls reuse it until a source or build file changes. The
benchmark itself runs in one JVM (repro.perfbench.Main); this script bounds
its time, relays its report and checks that the last line names exactly the
metrics BENCHMARK.json declares. The last stdout line is the result object.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TARGET = BENCH / "target"
CLASSPATH = TARGET / "classpath.txt"
RUN_DIR = TARGET / "run"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # at SCALE; grows with REPRO_SCALE for runs by hand
SCALE = 0.1
HEAP = "2g"

# JDK 17 module opens Spark needs; the same list build.sbt gives forked
# test JVMs, plus their Spark settings, so the session matches the tests'.
JVM_OPTS = [f"--add-opens={p}=ALL-UNNAMED" for p in (
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
)] + ["-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false"]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file whose change requires a rebuild."""
    files = [ROOT / "build.sbt", BENCH / "build.sbt"]
    for d in (ROOT / "project", BENCH / "project"):
        files += d.glob("*.sbt")
        files += d.glob("*.properties")
    for d in (ROOT / "src", BENCH / "src"):
        files += [p for p in d.rglob("*") if p.is_file()]
    return [f for f in files if f.is_file()]


def run_bounded(cmd, cwd, timeout, env=None, stdout=subprocess.PIPE, stderr=None):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{cmd[0]} exceeded {timeout} s", 3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def classpath():
    """Builds with sbt if any source is newer than the cached class path."""
    if CLASSPATH.exists():
        built = CLASSPATH.stat().st_mtime
        if all(f.stat().st_mtime <= built for f in sources()):
            return CLASSPATH.read_text().strip()
    TARGET.mkdir(parents=True, exist_ok=True)
    log = TARGET / "build.log"
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export perfbench/Runtime/fullClasspath"]
    with open(log, "w") as err:
        code, out = run_bounded(cmd, BENCH, BUILD_TIMEOUT_S, stderr=err)
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        die(f"build failed (exit {code}); see {log}", 4)
    CLASSPATH.write_text(lines[-1])
    return lines[-1]


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git work tree of its own."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = r.stdout.split()
    if r.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return "unknown"
    return out[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        die("BENCHMARK.json not found")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        die("the program's sources (build.sbt, src/main/scala) are not in this checkout")

    cp = classpath()
    tmp = RUN_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # the program's own session defaults are what is measured
    for k in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS"):
        env.pop(k, None)
    env["SPARK_LOCAL_DIRS"] = str(RUN_DIR / "spark-local")
    env.setdefault("REPRO_SCALE", str(SCALE))
    # no hsperfdata file in the system temp directory: the run writes only
    # inside the checkout
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.gitSha={git_sha()}", *JVM_OPTS, "-cp", cp,
           "repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    log = RUN_DIR / f"{a.workload}-{a.seed}-{a.trace}.log"
    t0 = time.time()
    with open(log, "w") as err:
        timeout = RUN_TIMEOUT_S * max(1.0, float(env["REPRO_SCALE"]) / SCALE)
        code, out = run_bounded(cmd, ROOT, timeout, env=env, stderr=err)
    lines = out.splitlines()
    if not lines:
        sys.stderr.write(log.read_text()[-4000:])
        die(f"benchmark printed nothing (exit {code}); see {log}", 5)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(log.read_text()[-4000:])
        die(f"benchmark's last line is not a result (exit {code}); see {log}", 5)

    want = spec["per_layer"] if a.trace else spec["end_to_end"]
    got = result.get("metrics", {})
    declared = {m["name"]: m["unit"] for m in want}
    emitted = {k: v.get("unit") for k, v in got.items()}
    if declared != emitted:
        die(f"emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(emitted))}, "
            f"extra {sorted(set(emitted) - set(declared))}, "
            f"unit mismatch {sorted(k for k in declared if k in emitted and declared[k] != emitted[k])}", 6)

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"wall_s": round(time.time() - t0, 3)}))
    print(json.dumps(result))
    sys.exit(code if code != 0 else (0 if result.get("correct") else 1))


if __name__ == "__main__":
    main()

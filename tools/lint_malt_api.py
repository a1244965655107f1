#!/usr/bin/env python3
"""MALT API lint (tools/check.sh stage): repo-specific invariants that the
compiler cannot enforce.

Rules:
  segment-write   Raw stores into transport/segment memory (memcpy/memset with
                  a region/segment destination, AtomicStoreBytes or
                  GuardedStoreBytes, or the raw Transport::Data() span) are
                  only legal inside the transport implementations
                  (src/shmem/, src/simnet/). Everything else
                  must go through Transport::Write / PostWrite so the seqlock
                  guards and the protocol checker see every store.
  check-determinism
                  src/check/ must stay deterministic and replayable: no wall
                  clocks, no randomness, no environment reads. Timestamps
                  reach the checker through its hook arguments.
  counter-name    Telemetry metric names are lowercase dotted identifiers
                  (e.g. "fabric.writes_posted"): segments of [a-z0-9_-],
                  joined by dots. Mixed case or spaces break the exported
                  JSON conventions and the check.violations.<kind> scheme.
  edge-name       The per-edge comm metric namespace ("comm.edge.<src>-<dst>.*")
                  is minted only by EdgeMetricName() in src/telemetry/; a
                  literal "comm.edge." prefix anywhere else means a caller is
                  hand-rolling the name and will drift from the convention
                  tools/report.py and the Merge() fold rely on.
  health-name     The rank-health metric namespace ("health.rank.<r>.*" and
                  "health.cluster.*") is minted only by HealthMetricName() in
                  src/telemetry/; a literal "health." metric prefix anywhere
                  else hand-rolls the name and drifts from the watermark
                  conventions tools/report.py relies on.
  raw-mutex       std::mutex / std::lock_guard / bare pthread_mutex (and their
                  shared/recursive/unique/scoped kin) outside src/base/ are a
                  violation: concurrent code uses the annotated wrappers in
                  src/base/mutex.h (malt::Mutex, MutexLock, ...) so the clang
                  thread-safety analysis (-Werror=thread-safety) sees every
                  lock.
  raw-atomic      In the model-checked protocol code (src/base/seqlock.h,
                  src/shmem/), direct std::atomic / std::atomic_ref /
                  std::atomic_flag / std::atomic_thread_fence use bypasses
                  the mc:: shim (src/base/mc.h), so the interleaving checker
                  would not see those sync points and its exhaustive runs
                  would silently under-approximate. Use
                  mc::atomic<T>, mc::Fence, and the mc::
                  word-atomic helpers. std::memory_order tokens are fine —
                  they parameterize the shim, they do not bypass it.
  engine-include  dstorm, VOL, the fault monitor, the apps and the baselines
                  (src/dstorm/, src/vol/, src/fault/, src/apps/,
                  src/baselines/) run unchanged on every backend, so they
                  reach time, blocking and death only through
                  Transport/RankCtx. Including the simulator engine
                  (src/sim/engine.h) there reopens a sim-only path.

A line containing NOLINT(malt-api) is skipped. Exit status: 0 clean,
1 findings, 2 usage error.

--selftest lints the fixture files under tests/lint_fixtures/ instead of the
repo. Each fixture starts with a `// LINT-AS: <pretend-path>` directive (the
path prefix selects which rules apply) and marks every line that must be
flagged with `// EXPECT-LINT(<rule>)`. The self-test fails on any missed or
spurious finding, so it pins both directions: the rules fire on planted
violations and stay quiet on the clean fixture.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories (and the primitive's own home) whose job is to implement raw
# segment stores.
SEGMENT_WRITERS = ("src/shmem/", "src/simnet/", "src/base/seqlock.h")

SOURCE_GLOBS = ("src/**/*.cc", "src/**/*.h", "tools/**/*.cc", "tools/**/*.cpp")

FIXTURE_DIR = "tests/lint_fixtures"

COUNTER_NAME = re.compile(r"^[a-z0-9][a-z0-9_-]*(\.[a-z0-9][a-z0-9_-]*)*$")
GETTER = re.compile(r'\bGet(?:Counter|Gauge|Histogram)\s*\(\s*"([^"]*)"')
RAW_STORE = re.compile(r"\b(?:Atomic|Guarded)StoreBytes\b")
MEM_WRITE = re.compile(r"\bmem(?:cpy|set|move)\s*\(\s*([^,;]*)")
SEGMENT_DEST = re.compile(r"Data\s*\(|\bregion|->bytes|\bsegment\b")
RAW_SPAN = re.compile(r"(?:->|\.)Data\s*\(")
EDGE_LITERAL = re.compile(r'"comm\.edge\.')
HEALTH_LITERAL = re.compile(r'"health\.(?:rank|cluster)\.')
NONDETERMINISM = re.compile(
    r"std::chrono|steady_clock|system_clock|\btime\s*\(|\brand\s*\(|"
    r"\bsrand\s*\(|random_device|\bgetenv\b"
)
RAW_MUTEX = re.compile(
    r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b|"
    r"std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"\bpthread_mutex(?:_t)?\b"
)

# Model-checked protocol code: every atomic op must route through the mc::
# shim so the interleaving checker sees it as a sync point. memory_order
# tokens are deliberately NOT matched (they parameterize the shim).
MC_SHIM_SCOPE = ("src/base/seqlock.h", "src/shmem/")
RAW_ATOMIC = re.compile(
    r"std::atomic(?:_ref|_flag|_thread_fence|_signal_fence)?\b|"
    r"\bATOMIC_FLAG_INIT\b|"
    # The bare include is flagged too: including <atomic> for memory_order
    # tokens is legitimate but must say so via NOLINT(malt-api) + reason.
    r"#\s*include\s*<atomic>"
)

# Backend-agnostic layers: they program against Transport/RankCtx only.
ENGINE_FREE = ("src/dstorm/", "src/vol/", "src/fault/", "src/apps/", "src/baselines/")
ENGINE_INCLUDE = re.compile(r'#\s*include\s*"src/sim/engine\.h"')


def lint_file(path: Path, findings: list) -> None:
    rel = path.relative_to(REPO).as_posix()
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as err:
        findings.append((rel, 0, "io", f"unreadable: {err}"))
        return
    lint_lines(rel, lines, findings)


def lint_lines(rel: str, lines: list, findings: list) -> None:
    """Lints `lines` as if they lived at repo path `rel` (which selects the
    per-directory rule exemptions)."""
    in_segment_writer = rel.startswith(SEGMENT_WRITERS)
    in_check = rel.startswith("src/check/")
    in_base = rel.startswith("src/base/")
    in_mc_scope = rel.startswith(MC_SHIM_SCOPE)
    in_engine_free = rel.startswith(ENGINE_FREE)

    for lineno, line in enumerate(lines, start=1):
        if "NOLINT(malt-api)" in line:
            continue
        stripped = line.split("//", 1)[0]

        if not in_segment_writer:
            m = RAW_STORE.search(stripped)
            if m:
                findings.append((rel, lineno, "segment-write",
                                 "%s outside the transport implementations; "
                                 "use Transport::Write/PostWrite" % m.group(0)))
            m = MEM_WRITE.search(stripped)
            if m and SEGMENT_DEST.search(m.group(1)):
                findings.append((rel, lineno, "segment-write",
                                 "raw memcpy/memset into segment memory; use "
                                 "Transport::Write/PostWrite so the seqlock and "
                                 "the checker see the store"))
            if RAW_SPAN.search(stripped) and "TrafficStats" not in stripped:
                findings.append((rel, lineno, "segment-write",
                                 "raw Transport::Data() span outside the "
                                 "transport implementations; use Read/Write"))

        if not rel.startswith("src/telemetry/") and EDGE_LITERAL.search(stripped):
            findings.append((rel, lineno, "edge-name",
                             'literal "comm.edge." outside src/telemetry/; '
                             "mint edge metric names with EdgeMetricName()"))

        if not rel.startswith("src/telemetry/") and HEALTH_LITERAL.search(stripped):
            findings.append((rel, lineno, "health-name",
                             'literal "health." metric name outside '
                             "src/telemetry/; mint health metric names with "
                             "HealthMetricName()"))

        if in_check and NONDETERMINISM.search(stripped):
            findings.append((rel, lineno, "check-determinism",
                             "nondeterminism in src/check/; the checker must "
                             "replay identically (take times via hook args)"))

        if in_mc_scope and RAW_ATOMIC.search(stripped):
            findings.append((rel, lineno, "raw-atomic",
                             "direct std::atomic use in model-checked protocol "
                             "code; route it through the mc:: shim "
                             "(src/base/mc.h) so the interleaving checker sees "
                             "the sync point"))

        if in_engine_free and ENGINE_INCLUDE.search(stripped):
            findings.append((rel, lineno, "engine-include",
                             "simulator engine included in a backend-agnostic "
                             "layer; use RankCtx (src/comm/transport.h) and "
                             "src/base/process_killed.h"))

        if not in_base and RAW_MUTEX.search(stripped):
            findings.append((rel, lineno, "raw-mutex",
                             "raw std/pthread mutex outside src/base/; use the "
                             "annotated wrappers in src/base/mutex.h so the "
                             "thread-safety analysis sees the lock"))

        for name in GETTER.findall(stripped):
            if not COUNTER_NAME.match(name):
                findings.append((rel, lineno, "counter-name",
                                 f'metric name "{name}" is not a lowercase '
                                 "dotted identifier"))


EXPECT = re.compile(r"EXPECT-LINT\(([a-z-]+)\)")
LINT_AS = re.compile(r"^//\s*LINT-AS:\s*(\S+)")


def selftest() -> int:
    """Runs the rules over tests/lint_fixtures/ and checks that exactly the
    EXPECT-LINT-marked lines are flagged."""
    fixtures = sorted((REPO / FIXTURE_DIR).glob("*.cc*"))
    if not fixtures:
        print(f"lint_malt_api --selftest: no fixtures in {FIXTURE_DIR}/",
              file=sys.stderr)
        return 1
    errors = []
    for path in fixtures:
        name = path.relative_to(REPO).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        m = LINT_AS.match(lines[0]) if lines else None
        if not m:
            errors.append(f"{name}:1: missing '// LINT-AS: <path>' directive")
            continue
        expected = set()
        for lineno, line in enumerate(lines, start=1):
            for rule in EXPECT.findall(line):
                expected.add((lineno, rule))
        findings = []
        lint_lines(m.group(1), lines, findings)
        actual = {(lineno, rule) for _, lineno, rule, _ in findings}
        for lineno, rule in sorted(expected - actual):
            errors.append(f"{name}:{lineno}: expected [{rule}] finding, got none")
        for lineno, rule in sorted(actual - expected):
            errors.append(f"{name}:{lineno}: spurious [{rule}] finding")
    for err in errors:
        print(err)
    if errors:
        print(f"lint_malt_api --selftest: FAIL "
              f"({len(errors)} mismatch(es) across {len(fixtures)} fixtures)")
        return 1
    print(f"lint_malt_api --selftest: OK ({len(fixtures)} fixtures)")
    return 0


def main() -> int:
    if len(sys.argv) == 2 and sys.argv[1] == "--selftest":
        return selftest()
    if len(sys.argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    findings = []
    seen = set()
    for glob in SOURCE_GLOBS:
        for path in sorted(REPO.glob(glob)):
            if path in seen:
                continue
            seen.add(path)
            lint_file(path, findings)
    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint_malt_api: {len(findings)} finding(s) in {len(seen)} files")
        return 1
    print(f"lint_malt_api: OK ({len(seen)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

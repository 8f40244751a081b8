#!/bin/sh
# Source lint: keep the simulation's instrumentation boundary tight.
#
# Three rules, all enforced by grep so they run anywhere dune does:
#
#   1. No raw Stdlib.Mutex / Stdlib.Atomic outside lib/nvm.  Every piece
#      of synchronization must go through Sim_mutex / Sim_atomic so that
#      (a) it is charged simulated time and (b) the race detector sees
#      the acquire/release/RMW edge.  A raw primitive is invisible to
#      both -- the happens-before checker would report false races (or
#      worse, the timing model would silently stop covering it).
#
#   2. No Clock.now outside lib/nvm and lib/benchlib.  Core code must
#      not make decisions from the simulated wall clock; timing belongs
#      to the memory/device models and the benchmark harness.
#
#   3. No Arena.arm_crash outside lib/nvm and the crash harness
#      (lib/analysis/crash_harness.ml).  Every crash sweep goes through
#      the harness, which checks that each armed trial really crashed
#      and sanitizes every recovery; a hand-rolled arm/run/recover loop
#      gets neither.
#
# Allowlist: one file per line, repo-relative.  Seeded with the current
# legitimate sites; add to it deliberately, with a comment here saying
# why the exception is sound.
set -eu

cd "$(dirname "$0")/.."

# Clock.now in tests is assertion, not policy: these suites pin the
# simulated-time cost model itself, so reading the clock is the point.
ALLOW_CLOCK='
test/test_log.ml
test/test_nvm.ml
test/test_baselines.ml
'

# No current exceptions: all synchronization goes through the wrappers.
ALLOW_SYNC='
'

# test/test_nvm.ml: tests the arming primitive itself.
# examples/*: user-facing demos that show the raw API.
ALLOW_CRASH='
test/test_nvm.ml
examples/kv_store.ml
examples/linked_list_crash.ml
examples/task_queue.ml
examples/tpcc_demo.ml
'

allowed() {
    # $1 = allowlist, $2 = file
    printf '%s\n' "$1" | grep -qxF "$2"
}

fail=0

report() {
    # $1 = rule name, $2 = grep output (file:line:text)
    if [ -n "$2" ]; then
        echo "lint: $1" >&2
        printf '%s\n' "$2" | sed 's/^/  /' >&2
        fail=1
    fi
}

# --- rule 1: raw Mutex./Atomic. outside lib/nvm ------------------------
# Strip the wrapper tokens first, then re-match: a line mentioning
# Sim_atomic must not whitelist a raw Atomic. use sitting next to it on
# the same line (the old `grep -v` skipped the whole line).
sync_hits=$(
    grep -rn --include='*.ml' --include='*.mli' \
         -e '\bMutex\.' -e '\bAtomic\.' \
         lib bin bench examples test 2>/dev/null |
    grep -v '^lib/nvm/' |
    sed 's/Sim_mutex\.//g; s/Sim_atomic\.//g' |
    grep -e '\bMutex\.' -e '\bAtomic\.' |
    while IFS=: read -r file rest; do
        allowed "$ALLOW_SYNC" "$file" || printf '%s:%s\n' "$file" "$rest"
    done
)
report "raw Stdlib.Mutex/Stdlib.Atomic outside lib/nvm (use Sim_mutex / Sim_atomic so the clock and the race detector see it)" "$sync_hits"

# --- rule 2: Clock.now outside lib/nvm + lib/benchlib ------------------
clock_hits=$(
    grep -rn --include='*.ml' --include='*.mli' \
         -e '\bClock\.now\b' \
         lib bin bench examples test 2>/dev/null |
    grep -v '^lib/nvm/\|^lib/benchlib/' |
    while IFS=: read -r file rest; do
        allowed "$ALLOW_CLOCK" "$file" || printf '%s:%s\n' "$file" "$rest"
    done
)
report "Clock.now outside lib/nvm + lib/benchlib (core code must not branch on simulated time)" "$clock_hits"

# --- rule 3: Arena.arm_crash outside lib/nvm + the crash harness -------
crash_hits=$(
    grep -rn --include='*.ml' --include='*.mli' \
         -e '\bArena\.arm_crash\b' \
         lib bin bench examples test 2>/dev/null |
    grep -v '^lib/nvm/\|^lib/analysis/crash_harness\.ml:' |
    while IFS=: read -r file rest; do
        allowed "$ALLOW_CRASH" "$file" || printf '%s:%s\n' "$file" "$rest"
    done
)
report "Arena.arm_crash outside lib/nvm + lib/analysis/crash_harness.ml (sweep through Crash_harness so every armed trial must crash)" "$crash_hits"

if [ "$fail" -ne 0 ]; then
    echo "lint: failed" >&2
    exit 1
fi
echo "lint: ok"

#!/bin/sh
# Source lint: keep the simulation's instrumentation boundary tight.
#
# Seven rules, all enforced by grep so they run anywhere dune does:
#
#   1. No Domain, Thread or raw Stdlib.Mutex anywhere, lib/nvm
#      included, and no raw Stdlib.Atomic outside lib/nvm.  The simulator
#      runs on one domain: Sim_threads fibers are its only threads, one
#      Clock counter its only time, and Sim_mutex's holder bookkeeping its
#      only exclusion.  Every piece of synchronization must go through
#      Sim_mutex / Sim_atomic so that (a) it is charged simulated time and
#      (b) the race detector sees the acquire/release/RMW edge.  A raw
#      primitive is invisible to both -- the happens-before checker would
#      report false races (or worse, the timing model would silently stop
#      covering it).
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
#   4. No test/test_*.ml defines check_bool, check_int, check_i64,
#      root_slot or contains, and no test/test_*.ml, bin/*.ml or
#      lib/benchlib/*.ml pairs a name with an unchanged named
#      configuration ("batch", Rewind.config_batch ()).  test/support.ml
#      owns the former; Rewind.named_configs, Crash_scenarios.wal_configs
#      / matrix (the CLI's names) and Support.configs own the
#      configuration lists, so "every configuration" means the same list
#      in every test, subcommand and bench.  A deliberate variant outside
#      the matrix (Batch 4, force + Batch) is not a named configuration
#      unchanged and stays allowed.
#
#   5. No Record.inline_encode / Record.word_encode call outside
#      lib/core/log.ml.  Log.form alone decides whether a record is an
#      END word, an inline pair or a full record; every other appender
#      hands it the fields.
#
#   6. The protocol table's crash worlds (Crash_scenarios.mixed, .lfset,
#      wal_world, epoch_world, incll_epochs) are named only in
#      lib/benchlib and test/test_protocols.ml.  The table sweeps each
#      protocol's world with every crash-harness driver at 1, 2 and 4
#      partitions; a test that crashes one of them itself restates a
#      claim the table already checks.
#
#   7. No Hashtbl in lib/core/tm.ml or lib/core/tm_state.ml.  Everything
#      the WAL manager knows about a transaction -- status, first LSN,
#      last record, END LSN, deferred de-allocations -- lives in its
#      entry of the home partition's Txn_table, so "which transactions
#      are open" has one answer; a side table keyed by transaction id
#      would bring back a second one.
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

# lib/benchlib/figures.ml: its "2L-FP"/"1L-FP" pairs are the legends of
# the paper's figures, not configuration names.
ALLOW_MATRIX='
lib/benchlib/figures.ml
'

# test/test_inline.ml: pins the compact bit formats themselves.
ALLOW_ENCODE='
test/test_inline.ml
'

# test/test_protocols.ml: the module that sweeps the table.
ALLOW_WORLDS='
test/test_protocols.ml
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

# --- rule 1: Domain./Thread./raw Mutex. anywhere, raw Atomic. outside
# lib/nvm -------------------------------------------------------------
# Strip the wrapper tokens (and Atomic. in lib/nvm, where Sim_atomic is
# built) first, then re-match: a line mentioning Sim_atomic must not
# whitelist a raw Atomic. use sitting next to it on the same line (the
# old `grep -v` skipped the whole line).
sync_pat='-e \bMutex\. -e \bAtomic\. -e \bDomain\. -e \bThread\.'
sync_hits=$(
    # shellcheck disable=SC2086
    grep -rn --include='*.ml' --include='*.mli' $sync_pat \
         lib bin bench examples test 2>/dev/null |
    sed 's/Sim_mutex\.//g; s/Sim_atomic\.//g; /^lib\/nvm\//s/\bAtomic\.//g' |
    grep $sync_pat |
    while IFS=: read -r file rest; do
        allowed "$ALLOW_SYNC" "$file" || printf '%s:%s\n' "$file" "$rest"
    done
)
report "Domain/Thread/raw Stdlib.Mutex anywhere, or raw Stdlib.Atomic outside lib/nvm (the simulator runs on one domain: use Sim_threads, Sim_mutex / Sim_atomic so the clock and the race detector see it)" "$sync_hits"

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

# --- rule 4: shared test support and one configuration matrix --------
support_hits=$(
    grep -nE '^let (check_bool|check_int|check_i64|root_slot|contains)\b' \
         test/test_*.ml 2>/dev/null || true
)
report "test-local check_bool/check_int/check_i64/root_slot/contains (use test/support.ml)" "$support_hits"

matrix_hits=$(
    grep -nE '\("[^"]*", *Rewind\.config_[a-z0-9_]+( \(\))? *\)' \
         test/test_*.ml bin/*.ml lib/benchlib/*.ml 2>/dev/null |
    while IFS=: read -r file rest; do
        allowed "$ALLOW_MATRIX" "$file" || printf '%s:%s\n' "$file" "$rest"
    done
)
report "local list of named configurations (use Rewind.named_configs, Crash_scenarios.wal_configs / matrix or Support.configs)" "$matrix_hits"

# --- rule 5: the record-form decision stays behind Log --------------
encode_hits=$(
    grep -rn --include='*.ml' \
         -e '\bRecord\.inline_encode\b' -e '\bRecord\.word_encode\b' \
         lib bin bench examples test 2>/dev/null |
    grep -v '^lib/core/log\.ml:' |
    while IFS=: read -r file rest; do
        allowed "$ALLOW_ENCODE" "$file" || printf '%s:%s\n' "$file" "$rest"
    done
)
report "Record.inline_encode/word_encode outside lib/core/log.ml (hand the fields to Log.form, which decides a record's form)" "$encode_hits"

# --- rule 6: the table's crash worlds stay in the table ---------------
world_hits=$(
    grep -rnE --include='*.ml' --include='*.mli' \
         -e '\.(mixed|lfset)\b' -e '\b(wal_world|epoch_world|incll_epochs)\b' \
         lib bin bench examples test 2>/dev/null |
    grep -v '^lib/benchlib/' |
    while IFS=: read -r file rest; do
        allowed "$ALLOW_WORLDS" "$file" || printf '%s:%s\n' "$file" "$rest"
    done
)
report "a crash world of the protocol table outside lib/benchlib + test/test_protocols.ml (add a driver to the table instead)" "$world_hits"

# --- rule 7: per-transaction state lives in Txn_table ----------------
table_hits=$(
    grep -n -e '\bHashtbl\b' lib/core/tm.ml lib/core/tm_state.ml 2>/dev/null ||
    true
)
report "Hashtbl in lib/core/tm.ml or lib/core/tm_state.ml (keep per-transaction state in the partition's Txn_table entry)" "$table_hits"

if [ "$fail" -ne 0 ]; then
    echo "lint: failed" >&2
    exit 1
fi
echo "lint: ok"

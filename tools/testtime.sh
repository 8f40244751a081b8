#!/usr/bin/env bash
# Serial test time: run each built test binary under test/ one at a time
# and print real/user/sys seconds per binary and the total.
#
#   dune build
#   tools/testtime.sh [BUILD_DIR]
#
# BUILD_DIR defaults to _build/default.  Each binary runs from its own
# build directory, as `dune runtest` runs it, with its output discarded.
# A failing binary is marked FAIL and makes the script exit 1.
set -uo pipefail

cd "$(dirname "$0")/.."
dir=${1:-_build/default}/test
if ! compgen -G "$dir/test_*.exe" >/dev/null; then
    echo "testtime: no test binaries in $dir; run 'dune build' first" >&2
    exit 2
fi

TIMEFORMAT='%R %U %S'
status=0
sums=""
printf '%-20s %8s %8s %8s\n' binary real_s user_s sys_s
for exe in "$dir"/test_*.exe; do
    name=$(basename "$exe" .exe)
    # `time` reports on the shell's stderr; the binary's own is discarded.
    t=$( { time (cd "$dir" && "./$name.exe" >/dev/null 2>&1); } 2>&1 )
    rc=$?
    read -r r u s <<<"$t"
    mark=""
    if [ "$rc" -ne 0 ]; then mark=" FAIL"; status=1; fi
    printf '%-20s %8.1f %8.1f %8.1f%s\n' "$name" "$r" "$u" "$s" "$mark"
    sums+="$r $u $s"$'\n'
done
awk '{ r += $1; u += $2; s += $3 }
     END { printf "%-20s %8.1f %8.1f %8.1f\n", "total", r, u, s }' <<<"$sums"
exit $status

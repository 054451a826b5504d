#!/bin/sh
# Reachability: which functions in src/ does no program run?
#
# Builds the 28 programs (gables, the 21 benches, the 5 examples and
# gables_e2e) at -O0 with one section per function and data object,
# links them with --gc-sections, and prints every gables:: function
# (nm type T, t, W or w, demangled) that an object under src/ defines
# and none of the binaries contains. A printed name is a function that
# no program runs: delete it with its tests, or say which test needs it
# (an oracle, a generator, an inspection helper, a test seam).
#
# Demangled names (ABI tags, lambda numbering) differ between
# compilers, so compare two listings only when one compiler made both.
#
# Usage: tests/reachability.sh [BUILD_DIR]
#   BUILD_DIR defaults to build-reach/ at the repository root; the
#   script configures and builds it, and owns it.

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$root/build-reach"}

# gables_e2e's project adds the repository as its "gables"
# subdirectory, so one configure reaches all 28 programs.
cmake -S "$root/e2ebench" -B "$build" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null

benches=$(cd "$root/bench" && ls bench_*.cc | sed 's/\.cc$//')
examples=$(cd "$root/examples" && ls *.cpp | sed 's/\.cpp$//')
# shellcheck disable=SC2086 # the lists split into target names
cmake --build "$build" -j "$(nproc)" \
    --target gables gables_e2e $benches $examples >/dev/null

# The demangled gables:: functions nm lists as defined in the files.
functions() {
    nm -C --defined-only "$@" 2>/dev/null |
        awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
        grep '^gables::' | sort -u
}

programs="$build/gables/src/cli/gables $build/gables_e2e"
for b in $benches; do programs="$programs $build/bench/$b"; done
for e in $examples; do programs="$programs $build/gables/examples/$e"; done
for p in $programs; do
    [ -x "$p" ] || { echo "reachability: missing program $p" >&2; exit 1; }
done

defined=$(mktemp)
reached=$(mktemp)
trap 'rm -f "$defined" "$reached"' EXIT
# shellcheck disable=SC2046 # one argument per object file
functions $(find "$build/gables/src" -name '*.o') >"$defined"
# shellcheck disable=SC2086 # one argument per program
functions $programs >"$reached"
comm -23 "$defined" "$reached"

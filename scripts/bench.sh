#!/bin/sh
# scripts/bench.sh — run the performance benchmarks tracked by this repo
# (block-kernel micro-bench, list construction, charge pass, cluster-grid
# layout, tree/batch build, end-to-end CPU and simulated-device treecode,
# compute-phase-only evaluation — serial and the multi-core scaling
# curve — amortized-plan solve, served solve, the
# 100k leapfrog stepping pair: Plan.Update vs rebuild-every-step, and the
# 4-rank distributed solve on both LET-exchange schedules: serial vs
# pipelined OverlapComm) and record the results.
#
# Usage:
#   scripts/bench.sh               # record current tree -> BENCH_PR10.current.txt
#   scripts/bench.sh -baseline     # record a baseline   -> BENCH_PR10.baseline.txt
#   scripts/bench.sh -count 5      # more repetitions (default 3)
#   scripts/bench.sh -regen        # only rebuild BENCH_PR10.json from the
#                                  # existing text files (e.g. after appending
#                                  # extra repetitions recorded by hand)
#   scripts/bench.sh -serving      # also run the bltcd load harness and merge
#                                  # its latency/throughput record into
#                                  # BENCH_PR10.json (see scripts/load.sh)
#   scripts/bench.sh -fig6         # also run the Fig. 6 phase sweep at the
#                                  # paper's rank counts (up to 32 ranks,
#                                  # 62.5k and 250k particles, Coulomb +
#                                  # Yukawa, both schedules; modeled time
#                                  # only) and merge the record under the
#                                  # "fig6" key: per-point setup shares and
#                                  # the setup-share crossover under the
#                                  # serial and pipelined schedules
#
# Both text files are benchstat-compatible; compare with
#   benchstat BENCH_PR10.baseline.txt BENCH_PR10.current.txt
# After every run the JSON summary BENCH_PR10.json is regenerated from
# whichever text files exist: per-benchmark best-of-count ns/op, B/op and
# allocs/op for baseline and current, plus speedup ratios where both sides
# have the benchmark. Every repetition's ns/op is recorded in the text
# file; the JSON keeps the per-bench minimum across the -count runs, which
# suppresses scheduler noise that otherwise reads as phantom regressions.
# With -serving the load harness's record rides along under the "serving"
# key and with -fig6 the phase sweep under the "fig6" key (benchjson
# read-merges, so all three writers coexist). See docs/performance.md.
# The PR3-PR9 records (BENCH_PR{3,4,5,6,8,9}.*) are kept as history and no
# longer regenerated.
#
# Baseline and current MUST be recorded in the same boot/session on the
# same machine: the compute-phase numbers are dominated by SIMD tiles
# whose throughput moves with the core's frequency license and with
# neighbor load on shared (cloud) cores, so text files recorded at
# different times compare apples to oranges. To evaluate a change, record
# -baseline from the pre-change tree and the current tree back to back,
# then read speedup_ns.
set -e

cd "$(dirname "$0")/.."

COUNT=3
SECTION=current
REGEN=0
SERVING=0
FIG6=0
while [ $# -gt 0 ]; do
    case "$1" in
    -count)
        COUNT=$2
        shift 2
        ;;
    -baseline)
        SECTION=baseline
        shift
        ;;
    -regen)
        REGEN=1
        shift
        ;;
    -serving)
        SERVING=1
        shift
        ;;
    -fig6)
        FIG6=1
        shift
        ;;
    *)
        echo "usage: scripts/bench.sh [-count N] [-baseline] [-regen] [-serving] [-fig6]" >&2
        exit 2
        ;;
    esac
done

BENCH='^(BenchmarkEvalDirectBlock|BenchmarkBuildLists100k|BenchmarkModifiedCharges|BenchmarkClusterData50k|BenchmarkTreeBuild100k|BenchmarkBatchBuild100k|BenchmarkTreecodeCPU50k|BenchmarkTreecodeDevice50k|BenchmarkComputePhase50k|BenchmarkComputePhase50kParallel|BenchmarkPlanSolve50k|BenchmarkServeSolve20k|BenchmarkSolveWithField10k|BenchmarkLeapfrogStep100k|BenchmarkLeapfrogStep100kRebuild|BenchmarkDistributed4Ranks|BenchmarkDistributedOverlap4Ranks)$'

SECTIONS=$(mktemp)
trap 'rm -f "$SECTIONS"' EXIT

if [ "$REGEN" = 0 ]; then
    go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" . | tee "BENCH_PR10.$SECTION.txt"
fi

# Regenerate the JSON summary from the recorded text files. For each
# benchmark the best (minimum) ns/op across repetitions is kept, the
# standard way to suppress scheduling noise; B/op and allocs/op are exact
# and constant across repetitions.
awk '
function emit_section(section, n, i, name, comma) {
    printf "  \"%s\": ", section
    if (!have[section]) {
        printf "null"
        return
    }
    printf "{\n"
    comma = ""
    for (i = 0; i < norder; i++) {
        name = order[i]
        if (!((section SUBSEP name) in ns)) continue
        printf "%s    \"%s\": {\"ns_per_op\": %s", comma, name, ns[section, name]
        if ((section SUBSEP name) in bytes) printf ", \"b_per_op\": %s", bytes[section, name]
        if ((section SUBSEP name) in allocs) printf ", \"allocs_per_op\": %s", allocs[section, name]
        printf "}"
        comma = ",\n"
    }
    printf "\n  }"
}
FNR == 1 {
    section = (FILENAME ~ /baseline/) ? "baseline" : "current"
}
/^Benchmark/ {
    have[section] = 1
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!((SUBSEP name) in seen)) {
        seen[SUBSEP name] = 1
        order[norder++] = name
    }
    for (i = 2; i < NF; i++) {
        v = $i + 0
        if ($(i + 1) == "ns/op" && (!((section SUBSEP name) in ns) || v < ns[section, name]))
            ns[section, name] = v
        if ($(i + 1) == "B/op") bytes[section, name] = v
        if ($(i + 1) == "allocs/op") allocs[section, name] = v
    }
}
END {
    printf "{\n"
    emit_section("baseline")
    printf ",\n"
    emit_section("current")
    printf ",\n  \"speedup_ns\": {"
    comma = ""
    for (i = 0; i < norder; i++) {
        name = order[i]
        if ((("baseline" SUBSEP name) in ns) && (("current" SUBSEP name) in ns)) {
            printf "%s\n    \"%s\": %.2f", comma, name, ns["baseline", name] / ns["current", name]
            comma = ","
        }
    }
    printf "\n  }\n}\n"
}
' $(ls BENCH_PR10.baseline.txt BENCH_PR10.current.txt 2>/dev/null) >"$SECTIONS"

# Merge the fresh sections into BENCH_PR10.json, preserving the records
# other harnesses wrote there ("serving", "fig6" — scripts/benchjson).
go run ./scripts/benchjson BENCH_PR10.json "$SECTIONS"

if [ "$SERVING" = 1 ]; then
    go run ./cmd/bltcd -loadtest -out BENCH_PR10.json
fi

if [ "$FIG6" = 1 ]; then
    # The paper's full rank range (1-32) at paper-scale/256 sizes: the
    # strong-scaling limit (~2k particles per rank at 32 ranks on the
    # smaller size) is where the Fig. 6(c,d) setup-share crossover
    # actually appears in the model, which is the phenomenon the record
    # exists to track. At larger sizes per rank the sweep stays
    # compute-dominated throughout and the crossover is degenerate.
    FIG6OUT=$(mktemp)
    go run ./cmd/fig6 -scale 256 -maxgpus 32 -quiet -json "$FIG6OUT"
    go run ./scripts/benchjson BENCH_PR10.json "$FIG6OUT"
    rm -f "$FIG6OUT"
fi

if [ "$REGEN" = 1 ]; then
    echo "regenerated BENCH_PR10.json"
else
    echo "wrote BENCH_PR10.$SECTION.txt and BENCH_PR10.json"
fi

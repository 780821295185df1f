#!/bin/sh
# Regenerates every table and figure (T1..T6, F1..F6, A1..A8, A10),
# T5 being the capture phase sheet. Run from the repository root after
# building into ./build. Output mirrors EXPERIMENTS.md.
#
# Each harness also writes a machine-readable BENCH_<name>.json into
# $ATUM_BENCH_DIR (default: ./results); the collected files are listed at
# the end for downstream regression tooling. See docs/METRICS.md.
set -e
BUILD=${1:-build}
ATUM_BENCH_DIR=${ATUM_BENCH_DIR:-results}
export ATUM_BENCH_DIR
mkdir -p "$ATUM_BENCH_DIR"
for b in \
    bench_t1_trace_characteristics bench_t2_slowdown \
    bench_t3_buffer_extraction bench_t4_tlb bench_t6_opcode_mix \
    bench_f1_miss_vs_cachesize bench_f2_miss_vs_blocksize \
    bench_f3_miss_vs_assoc bench_f4_multiprogramming \
    bench_f5_working_sets bench_f6_paging \
    bench_a1_compression bench_a2_stack_distance bench_a3_hierarchy \
    bench_a4_sampling bench_a5_write_policy bench_a6_machine_tb \
    bench_a7_set_sampling bench_a8_prefetch bench_a10_fault_recovery \
    bench_t5_phase_breakdown; do
    echo "===================================================== $b"
    "$BUILD/bench/$b"
    echo
done
echo "===================================================== BENCH JSON"
ls -l "$ATUM_BENCH_DIR"/BENCH_*.json

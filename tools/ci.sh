#!/usr/bin/env bash
# Tier-1 CI gate: RelWithDebInfo build + full test suite, then the ASan
# preset (build + the fast chaos/FGM teardown subset). The TSan preset
# (`--tsan`) is opt-in and build-only — the simulator is single-threaded
# until the parallel engine lands, so there are no races to run down yet.
#
# A lint gate runs right after the default-preset tests:
#   * rill_lint (tools/lint) enforces the determinism rules R1–R4, the
#     metric-name grammar R5, the callback-lifetime rule R6 and the
#     VM-island affinity rule R7 over src/ bench/ tools/ and must report
#     zero findings — any new R6/R7 violation fails the gate (there is no
#     committed baseline; the tree is clean).  The gate also emits the
#     island map (build/islands.json) consumed by the parallel-engine
#     work and fails if it comes out empty;
#   * clang-tidy runs the checked-in .clang-tidy profile over src/ when
#     the binary is available (skipped with a notice otherwise — the
#     profile needs no network, just an installed clang-tidy).
# `--skip-lint` opts out of both.
#
# A determinism gate follows: each migration strategy's reference config
# (see tests/determinism/README.md) runs twice in each of three modes —
# full blobs, --ckpt-delta 1, and --ckpt-adaptive 1 (delta on, RTO 45 s) —
# the two JSONL traces of each pair must be byte-identical, and the first
# run's artifacts must match the committed sha256 manifests
# (baseline.sha256 for full blobs, baseline-delta.sha256 for delta mode,
# baseline-adaptive.sha256 for the adaptive checkpoint policy).  The FGM
# strategy runs its own full-blob double-run against baseline-fgm.sha256 —
# the three FGM-off manifests above must stay byte-identical regardless.
# A fifth arm pins the closed loop: the Keyed dag under the bench traffic
# (diurnal + flash crowd + Zipf keys + CPU steal) with --autoscale 1 runs
# twice and checks baseline-autoscale.sha256; the four autoscale-off
# manifests above must stay byte-identical regardless.
# `--regen-determinism` rewrites all five manifests instead of checking
# them (for PRs that sanction a behavioral change).
#
# An attribution gate follows: each strategy's reference config reruns
# with 1-in-4 tuple sampling and rill_trace --check asserts the sampled
# per-cause components sum to each tuple's end-to-end latency and that
# the post-request slow tail is pause-dominated. The committed golden
# trace (tests/obs/data/small_trace.jsonl) is checked too. Sampling runs
# write into separate files, so the determinism manifests above never see
# an attribution record.
#
# A bench gate follows the attribution gate: the checkpoint-store and
# restore benches run their shard sweeps (shards 1 and 4) in --check mode,
# which fails on a >20% regression of the single-shard baseline or a lost
# sharding win, bench_ckpt_policy --check asserts the adaptive policy
# meets its RTO at p95 without writing more checkpoint bytes than the
# static RTO-tuned baseline, bench_autoscale --check asserts the
# closed-loop controller holds the SLO through a 10-100x load swing while
# beating the static packed baseline's burn and choosing FGM for the keyed
# hot shard, bench_micro --check asserts the
# observability layer's zero-cost-when-disabled and <5%-when-sampling
# overhead contracts, and bench_fig9_latency --check asserts the fluid
# strategy's whole-run p99 stays strictly below CCR's pause-bounded p99
# under the 420 s seed-1 Grid scale-in. The stage ends with the repository
# benchmark's self-test (perfbench/run.py --self-test: its silence metric,
# seed plumbing and correctness gate), built in .bench_build/.
# `--skip-bench` opts out.
#
# Usage: tools/ci.sh [--tsan] [--skip-asan] [--skip-bench] [--skip-lint]
#                    [--regen-determinism]
set -euo pipefail

cd "$(dirname "$0")/.."

run_tsan=0
run_asan=1
run_bench=1
run_lint=1
regen_determinism=0
for arg in "$@"; do
  case "$arg" in
    --tsan) run_tsan=1 ;;
    --skip-asan) run_asan=0 ;;
    --skip-bench) run_bench=0 ;;
    --skip-lint) run_lint=0 ;;
    --regen-determinism) regen_determinism=1 ;;
    *)
      echo "ci.sh: unknown option: $arg" >&2
      echo "usage: tools/ci.sh [--tsan] [--skip-asan] [--skip-bench]" \
           "[--skip-lint] [--regen-determinism]" >&2
      exit 2
      ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 4)"

echo "==> tier-1: configure + build (default preset)"
cmake --preset default
cmake --build --preset default -j "$jobs"

echo "==> tier-1: ctest (default preset)"
ctest --preset default -j "$jobs"

if [ "$run_lint" = 1 ]; then
  echo "==> lint gate: rill_lint (rules R1-R7) + island map"
  ./build/tools/lint/rill_lint --root . --jobs "$jobs" \
    --islands-out build/islands.json
  [ -s build/islands.json ] && grep -q '"islands"' build/islands.json \
    || { echo "ci.sh: build/islands.json is empty — island annotations" \
              "(RILL_ISLAND/RILL_SHARED) went missing" >&2
         exit 1; }

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> lint gate: clang-tidy (.clang-tidy profile)"
    # shellcheck disable=SC2046
    clang-tidy -p build --quiet $(find src -name '*.cpp' | sort)
  else
    echo "==> lint gate: clang-tidy not installed; skipping (profile: .clang-tidy)"
  fi
fi

echo "==> determinism gate: double-run + committed manifests (seed 1, grid)"
det_dir="build/determinism"
rm -rf "$det_dir" && mkdir -p "$det_dir"
for mode in full delta adaptive; do
  case "$mode" in
    delta)    extra_flags="--ckpt-delta 1"; tag=".delta" ;;
    adaptive) extra_flags="--ckpt-delta 1 --ckpt-adaptive 1 --ckpt-rto-ms 45000"
              tag=".adaptive" ;;
    *)        extra_flags="--ckpt-delta 0"; tag="" ;;
  esac
  for s in dsm dcr ccr; do
    for pass in 1 2; do
      # shellcheck disable=SC2086
      ./build/tools/rill_run --strategy "$s" --dag grid --scale in \
        --seed 1 --duration 420 --migrate-at 60 \
        $extra_flags \
        --trace-jsonl "$det_dir/$s$tag.run$pass.jsonl" --json \
        > "$det_dir/$s$tag.run$pass.json"
    done
    cmp "$det_dir/$s$tag.run1.jsonl" "$det_dir/$s$tag.run2.jsonl" \
      || { echo "ci.sh: $s ($mode) trace differs between identical runs" >&2
           exit 1; }
    cmp "$det_dir/$s$tag.run1.json" "$det_dir/$s$tag.run2.json" \
      || { echo "ci.sh: $s ($mode) report differs between identical runs" >&2
           exit 1; }
    cp "$det_dir/$s$tag.run1.jsonl" "$det_dir/$s$tag.jsonl"
    cp "$det_dir/$s$tag.run1.json" "$det_dir/$s$tag.json"
  done
done
# FGM arm (full blobs only): a fourth manifest for the fluid strategy.  It
# runs after — and fully apart from — the three FGM-off strategies above,
# so their manifests cannot be perturbed by the new code path.
for pass in 1 2; do
  ./build/tools/rill_run --strategy fgm --dag grid --scale in \
    --seed 1 --duration 420 --migrate-at 60 --ckpt-delta 0 \
    --trace-jsonl "$det_dir/fgm.run$pass.jsonl" --json \
    > "$det_dir/fgm.run$pass.json"
done
cmp "$det_dir/fgm.run1.jsonl" "$det_dir/fgm.run2.jsonl" \
  || { echo "ci.sh: fgm trace differs between identical runs" >&2; exit 1; }
cmp "$det_dir/fgm.run1.json" "$det_dir/fgm.run2.json" \
  || { echo "ci.sh: fgm report differs between identical runs" >&2; exit 1; }
cp "$det_dir/fgm.run1.jsonl" "$det_dir/fgm.jsonl"
cp "$det_dir/fgm.run1.json" "$det_dir/fgm.json"
# Autoscale arm: the closed loop on the Keyed dag under the bench traffic
# (tests/determinism/README.md).  Runs after — and fully apart from — the
# autoscale-off arms above, so their manifests cannot be perturbed by the
# controller code path.
for pass in 1 2; do
  ./build/tools/rill_run --dag keyed --autoscale 1 \
    --autoscale-slo-p99-ms 1500 \
    --traffic-base 2 --traffic-diurnal 0.5 --traffic-diurnal-period-s 600 \
    --traffic-crowd 200,15,120,30,18 --traffic-zipf 0.6 \
    --interference-permille 600 \
    --seed 1 --duration 900 --ckpt-delta 0 \
    --trace-jsonl "$det_dir/autoscale.run$pass.jsonl" --json \
    > "$det_dir/autoscale.run$pass.json"
done
cmp "$det_dir/autoscale.run1.jsonl" "$det_dir/autoscale.run2.jsonl" \
  || { echo "ci.sh: autoscale trace differs between identical runs" >&2
       exit 1; }
cmp "$det_dir/autoscale.run1.json" "$det_dir/autoscale.run2.json" \
  || { echo "ci.sh: autoscale report differs between identical runs" >&2
       exit 1; }
cp "$det_dir/autoscale.run1.jsonl" "$det_dir/autoscale.jsonl"
cp "$det_dir/autoscale.run1.json" "$det_dir/autoscale.json"
if [ "$regen_determinism" = 1 ]; then
  ( cd "$det_dir" &&
    sha256sum dsm.jsonl dsm.json dcr.jsonl dcr.json ccr.jsonl ccr.json ) \
    > tests/determinism/baseline.sha256
  ( cd "$det_dir" &&
    sha256sum dsm.delta.jsonl dsm.delta.json dcr.delta.jsonl dcr.delta.json \
              ccr.delta.jsonl ccr.delta.json ) \
    > tests/determinism/baseline-delta.sha256
  ( cd "$det_dir" &&
    sha256sum dsm.adaptive.jsonl dsm.adaptive.json \
              dcr.adaptive.jsonl dcr.adaptive.json \
              ccr.adaptive.jsonl ccr.adaptive.json ) \
    > tests/determinism/baseline-adaptive.sha256
  ( cd "$det_dir" && sha256sum fgm.jsonl fgm.json ) \
    > tests/determinism/baseline-fgm.sha256
  ( cd "$det_dir" && sha256sum autoscale.jsonl autoscale.json ) \
    > tests/determinism/baseline-autoscale.sha256
  echo "==> determinism gate: manifests regenerated" \
       "(tests/determinism/baseline.sha256, baseline-delta.sha256," \
       "baseline-adaptive.sha256, baseline-fgm.sha256," \
       "baseline-autoscale.sha256) — commit them with the PR"
else
  ( cd "$det_dir" && sha256sum -c ../../tests/determinism/baseline.sha256 ) \
    || { echo "ci.sh: artifacts drifted from tests/determinism/baseline.sha256;" \
              "if the change is sanctioned, rerun with --regen-determinism" >&2
         exit 1; }
  ( cd "$det_dir" &&
    sha256sum -c ../../tests/determinism/baseline-delta.sha256 ) \
    || { echo "ci.sh: artifacts drifted from" \
              "tests/determinism/baseline-delta.sha256;" \
              "if the change is sanctioned, rerun with --regen-determinism" >&2
         exit 1; }
  ( cd "$det_dir" &&
    sha256sum -c ../../tests/determinism/baseline-adaptive.sha256 ) \
    || { echo "ci.sh: artifacts drifted from" \
              "tests/determinism/baseline-adaptive.sha256;" \
              "if the change is sanctioned, rerun with --regen-determinism" >&2
         exit 1; }
  ( cd "$det_dir" &&
    sha256sum -c ../../tests/determinism/baseline-fgm.sha256 ) \
    || { echo "ci.sh: artifacts drifted from" \
              "tests/determinism/baseline-fgm.sha256;" \
              "if the change is sanctioned, rerun with --regen-determinism" >&2
         exit 1; }
  ( cd "$det_dir" &&
    sha256sum -c ../../tests/determinism/baseline-autoscale.sha256 ) \
    || { echo "ci.sh: artifacts drifted from" \
              "tests/determinism/baseline-autoscale.sha256;" \
              "if the change is sanctioned, rerun with --regen-determinism" >&2
         exit 1; }
fi

echo "==> attribution gate: 1-in-4 sampled runs + rill_trace --check"
for s in dsm dcr ccr; do
  ./build/tools/rill_run --strategy "$s" --dag grid --scale in \
    --seed 1 --duration 420 --migrate-at 60 --ckpt-delta 0 \
    --attr-sample 4 --slo-p99-ms 1000 \
    --trace-jsonl "$det_dir/$s.attr.jsonl" --json \
    > "$det_dir/$s.attr.json"
  ./build/tools/rill_trace "$det_dir/$s.attr.jsonl" --check \
    || { echo "ci.sh: rill_trace --check failed for $s" >&2; exit 1; }
done
./build/tools/rill_trace tests/obs/data/small_trace.jsonl --check \
  || { echo "ci.sh: rill_trace --check failed on the golden trace" >&2
       exit 1; }

if [ "$run_bench" = 1 ]; then
  echo "==> bench gate: checkpoint + restore shard sweeps (shards 1 and 4)"
  ( cd build/bench &&
    ./bench_redis_checkpoint --check &&
    ./bench_fig5_scale_out --check &&
    ./bench_fig5_scale_in --check &&
    ./bench_ckpt_policy --check &&
    ./bench_autoscale --check &&
    ./bench_micro --check &&
    ./bench_fig9_latency --check )
  echo "==> bench gate: perfbench self-test"
  python3 perfbench/run.py --self-test
fi

if [ "$run_asan" = 1 ]; then
  # The fast sanitizer subset covers the suites that exercise teardown
  # while callbacks are still scheduled (chaos crash/respawn, FGM fluid
  # migration, capture-window retries) — the lifetimes rill_lint's R6
  # reasons about statically get checked dynamically here without paying
  # for the full suite under instrumentation.
  echo "==> asan: configure + build + fast chaos/FGM subset"
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  ctest --preset asan -j "$jobs" \
    -R 'Chaos|CaptureWindow|Fgm|StatePartition|ExtractPartition|Checkpoint'
fi

if [ "$run_tsan" = 1 ]; then
  # Build-only until the parallel engine lands: the simulator is
  # single-threaded today, so running tests under TSan buys nothing, but
  # the build keeps the instrumentation-clean property from rotting.
  echo "==> tsan: configure + build (build-only; no threads to race yet)"
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
fi

echo "==> ci.sh: all requested suites passed"

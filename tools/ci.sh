#!/usr/bin/env bash
# Tier-1 CI gate: RelWithDebInfo build + full test suite, then the ASan
# preset (build + the fast chaos/FGM teardown, codec and control-plane
# subset).  The TSan preset (`--tsan`) is opt-in and only builds the
# tree: nothing starts a thread yet, so no test has one to check.
#
# The default-preset build itself rejects a discarded [[nodiscard]]
# result (-Werror=unused-result).  A lint gate runs right after the
# default-preset tests:
#   * rill_lint (tools/lint) enforces the determinism rules R1–R3, the
#     metric-name grammar R5 and the callback-lifetime rule R6 over src/
#     bench/ tools/ and must report zero findings — any new violation
#     fails the gate (there is no committed baseline; the tree is clean);
#   * clang-tidy runs the checked-in .clang-tidy profile over src/ when
#     the binary is available (skipped with a notice otherwise — the
#     profile needs no network, just an installed clang-tidy).
# `--skip-lint` opts out of both.
#
# A determinism gate follows, driven by one table of arms (see
# tests/determinism/README.md): DSM, DCR and CCR on the seed-1 Grid
# scale-in with full blobs (baseline.sha256), --ckpt-delta 1
# (baseline-delta.sha256) and the adaptive checkpoint policy
# (baseline-adaptive.sha256); FGM with full blobs (baseline-fgm.sha256);
# the closed loop — the Keyed dag under the bench traffic with
# --autoscale 1 (baseline-autoscale.sha256); and the keyed delta path —
# DSM on the Keyed dag with 4096 keys, delta blobs on 4 store shards, the
# adaptive policy and three worker crashes (baseline-keyed-delta.sha256).
# Each arm runs twice, the two traces and reports must be byte-identical,
# and the first run's artifacts must match the committed manifest.
# `--regen-determinism` rewrites all six manifests instead of checking
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
  echo "==> lint gate: rill_lint (rules R1-R3, R5, R6)"
  ./build/tools/lint/rill_lint --root .

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> lint gate: clang-tidy (.clang-tidy profile)"
    # shellcheck disable=SC2046
    clang-tidy -p build --quiet $(find src -name '*.cpp' | sort)
  else
    echo "==> lint gate: clang-tidy not installed; skipping (profile: .clang-tidy)"
  fi
fi

echo "==> determinism gate: double-run + committed manifests (seed 1)"
det_dir="build/determinism"
rm -rf "$det_dir" && mkdir -p "$det_dir"
grid="--dag grid --scale in --seed 1 --duration 420 --migrate-at 60"
adaptive="--ckpt-delta 1 --ckpt-adaptive 1 --ckpt-rto-ms 45000"
traffic="--traffic-base 2 --traffic-diurnal 0.5 --traffic-diurnal-period-s 600 \
  --traffic-crowd 200,15,120,30,18 --traffic-zipf 0.6 \
  --interference-permille 600"
keyed_delta="--dag keyed --scale in --seed 1 --duration 600 --migrate-at 60 \
  --rate 20 --key-cardinality 4096 --kv-shards 4 $adaptive \
  --ckpt-retune-ms 20000 --ckpt-respawn-restore 1 \
  --chaos-crash 182 --chaos-crash 244 --chaos-crash 306"
# One row per arm: manifest, artifact stem, rill_run flags.  The manifests
# list the artifacts by stem, in row order.  A row must stay on one line
# (`read` stops at a newline), so long flag strings continue with `\`.
det_arms="\
baseline             dsm          --strategy dsm $grid --ckpt-delta 0
baseline             dcr          --strategy dcr $grid --ckpt-delta 0
baseline             ccr          --strategy ccr $grid --ckpt-delta 0
baseline-delta       dsm.delta    --strategy dsm $grid --ckpt-delta 1
baseline-delta       dcr.delta    --strategy dcr $grid --ckpt-delta 1
baseline-delta       ccr.delta    --strategy ccr $grid --ckpt-delta 1
baseline-adaptive    dsm.adaptive --strategy dsm $grid $adaptive
baseline-adaptive    dcr.adaptive --strategy dcr $grid $adaptive
baseline-adaptive    ccr.adaptive --strategy ccr $grid $adaptive
baseline-fgm         fgm          --strategy fgm $grid --ckpt-delta 0
baseline-autoscale   autoscale    --dag keyed --autoscale 1 \
  --autoscale-slo-p99-ms 1500 $traffic --seed 1 --duration 900 --ckpt-delta 0
baseline-keyed-delta keyed.delta  --strategy dsm $keyed_delta"
while read -r manifest stem flags; do
  for pass in 1 2; do
    # shellcheck disable=SC2086
    ./build/tools/rill_run $flags --trace-jsonl "$det_dir/$stem.run$pass.jsonl" \
      --json > "$det_dir/$stem.run$pass.json" < /dev/null
  done
  for ext in jsonl json; do
    cmp "$det_dir/$stem.run1.$ext" "$det_dir/$stem.run2.$ext" \
      || { echo "ci.sh: $stem.$ext ($manifest) differs between identical" \
                "runs" >&2
           exit 1; }
    cp "$det_dir/$stem.run1.$ext" "$det_dir/$stem.$ext"
  done
done <<< "$det_arms"
for manifest in $(awk '{ print $1 }' <<< "$det_arms" | uniq); do
  sums="tests/determinism/$manifest.sha256"
  if [ "$regen_determinism" = 1 ]; then
    # shellcheck disable=SC2046
    ( cd "$det_dir" && sha256sum $(awk -v m="$manifest" \
        '$1 == m { print $2 ".jsonl"; print $2 ".json" }' <<< "$det_arms") ) \
      > "$sums"
    echo "==> determinism gate: regenerated $sums — commit it with the PR"
  else
    ( cd "$det_dir" && sha256sum -c "../../$sums" ) \
      || { echo "ci.sh: artifacts drifted from $sums; if the change is" \
                "sanctioned, rerun with --regen-determinism" >&2
           exit 1; }
  fi
done

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
  # for the full suite under instrumentation.  It also runs the blob codec
  # suites (TaskState, EventSerde, Bytes): the codec writes and reads
  # through raw pointers (patched counts, nested readers that borrow the
  # outer buffer), so an off-by-one there is an ASan report, not a misread.
  # The control-plane suites (rebalance, abort re-pin, restore and commit
  # outages, DSM-T, logic updates, shard outages, cluster release, DSM
  # fallback, controller overlap) drive the worker start-up callbacks that
  # capture an executor by reference, the re-pin path and the INIT-session
  # teardown.  The engine suites (Engine, the EngineReference differential
  # test, PeriodicTimer) check that callbacks running in place in their
  # slots never touch a freed or reused slot, also when one throws.  The
  # queue moves entries with memmove inside one buffer, toward either end
  # and back to the middle, so a move one entry too long is an ASan
  # report; NetFixture's FIFO sends enter the queue through both shift
  # directions.
  # Slot handles index a state's slots directly: `TaskState` also selects
  # TaskStateDifferential, whose handles outlive every copy, compaction
  # and reset, so a stale one shows as an out-of-bounds access.
  # NoisyNeighbour checks the per-VM busy count, indexed by VM id, after
  # every event of a closed-loop run.  RootTable and RingQueue are the
  # differential tests of the flat root table (backward-shift erase moves
  # entries that own heap values) and the executor's ring queues (indices
  # wrap at both ends); Acker, Spout and Collector drive them through the
  # acker's callbacks, the spout's replay cache and the root ledger.
  # AutoscaleSweep runs the runner's closed loop, whose controller reads
  # the run's collector by reference from its first tick to stop().
  echo "==> asan: configure + build + fast chaos/FGM/codec/control/engine subset"
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  asan_subset='Chaos|CaptureWindow|Fgm|StatePartition|ExtractPartition'
  asan_subset+='|Checkpoint|TaskState|EventSerde|^Bytes\.'
  asan_subset+='|RebalanceFixture|ScopedRepin|RestoreOutage|CommitOutage'
  asan_subset+='|DsmTimeout|LogicUpdate|ShardOutage|ClusterFixture|DsmFallback'
  asan_subset+='|ControllerQueue|^Engine|EngineReference|PeriodicTimer|NetFixture'
  asan_subset+='|NoisyNeighbour|AutoscaleSweep|RootTable|RingQueue|Acker'
  asan_subset+='|Spout|Collector'
  ctest --preset asan -j "$jobs" -R "$asan_subset"
fi

if [ "$run_tsan" = 1 ]; then
  # Build only: the simulator and rill_lint are single-threaded.  ROADMAP
  # item 3's campaign runner will start the first threads; its tests run
  # here then.
  echo "==> tsan: configure + build"
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
fi

echo "==> ci.sh: all requested suites passed"

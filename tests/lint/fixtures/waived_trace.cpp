// Fixture: one would-be violation per rule, each carrying a waiver.  The
// filename contains "trace", putting the double field on the report
// surface so the R3 waiver is actually exercised.
#include <chrono>
#include <unordered_map>

namespace fixture {

struct TraceStats {
  std::unordered_map<int, long> per_task_;
  double skew_estimate_{0.0};

  void tick() {
    // lint: wallclock-ok(diagnostic only; value never reaches the trace)
    auto wall = std::chrono::steady_clock::now();
    (void)wall;
    // lint: unordered-iter-ok(accumulating a commutative sum; order-free)
    for (const auto& [task, n] : per_task_) {
      // lint: float-accum-ok(estimate is advisory and never serialized)
      skew_estimate_ += static_cast<double>(n);
    }
  }
};

}  // namespace fixture

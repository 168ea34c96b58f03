#include "obs/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/time.hpp"
#include "metrics/report.hpp"
#include "obs/trace.hpp"

namespace rill::obs {

namespace {

bool is(const Tracer::Record& r, Tracer::Phase ph, const char* cat,
        const char* name) {
  return r.ph == ph && std::strcmp(r.cat, cat) == 0 && r.name == name;
}

std::string line(const char* metric, double trace_v, double report_v) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: trace=%.3f s vs report=%.3f s", metric, trace_v,
                report_v);
  return buf;
}

}  // namespace

ReconstructedTimes TraceValidator::reconstruct() const {
  ReconstructedTimes out;
  const auto& recs = tracer_.records();

  // Last stamps win: phases are re-recorded per migration attempt.
  std::optional<SimTime> request_at;
  std::optional<SimTime> controller_request_at;
  std::optional<SimTime> killed_at;
  const Tracer::Record* rebalance = nullptr;
  for (const auto& r : recs) {
    if (is(r, Tracer::Phase::Instant, "strategy", "request")) {
      request_at = r.ts;
    } else if (is(r, Tracer::Phase::Instant, "controller", "request")) {
      controller_request_at = r.ts;
    } else if (is(r, Tracer::Phase::Instant, "rebalance", "kill")) {
      killed_at = r.ts;
    } else if (is(r, Tracer::Phase::Span, "rebalance", "rebalance") &&
               !r.open) {
      rebalance = &r;
    }
  }
  if (!request_at.has_value()) request_at = controller_request_at;
  if (!request_at.has_value()) return out;

  out.request_at_sec = time::to_sec(static_cast<SimDuration>(*request_at));
  if (rebalance != nullptr) {
    out.rebalance_sec = time::to_sec(rebalance->dur);
    out.drain_sec =
        time::to_sec(static_cast<SimDuration>(rebalance->ts - *request_at));
  }

  // Restore: first sink arrival STRICTLY after the kill (or, when nothing
  // was killed, after the original controller request), relative to the
  // final request stamp — the same rule run_experiment applies.
  const auto& arrivals = tracer_.sink_arrivals();
  const SimTime cut = killed_at.has_value()
                          ? *killed_at
                          : controller_request_at.value_or(*request_at);
  const auto it = std::upper_bound(arrivals.begin(), arrivals.end(), cut);
  if (it != arrivals.end()) {
    out.restore_sec =
        time::to_sec(static_cast<SimDuration>(*it - *request_at));
  }
  return out;
}

std::vector<double> TraceValidator::recovery_spans_sec() const {
  std::vector<double> out;
  for (const auto& r : tracer_.records()) {
    if (is(r, Tracer::Phase::Span, "checkpoint", "recovery") && !r.open) {
      out.push_back(time::to_sec(r.dur));
    }
  }
  return out;
}

std::vector<std::string> TraceValidator::check(
    const metrics::MigrationReport& report) const {
  const ReconstructedTimes t = reconstruct();
  std::vector<std::string> diverged;

  auto cmp = [&](const char* metric, std::optional<double> trace_v,
                 std::optional<double> report_v) {
    if (trace_v.has_value() != report_v.has_value()) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s: trace %s a value but report %s",
                    metric, trace_v.has_value() ? "has" : "lacks",
                    report_v.has_value() ? "has one" : "lacks one");
      diverged.emplace_back(buf);
      return;
    }
    if (trace_v.has_value() &&
        std::fabs(*trace_v - *report_v) > kToleranceSec) {
      diverged.push_back(line(metric, *trace_v, *report_v));
    }
  };

  // drain/rebalance are plain doubles in the report (0.0 when absent);
  // run_experiment applies value_or(0.0), so mirror that here.
  cmp("drain_sec", t.drain_sec.value_or(0.0), report.drain_sec);
  cmp("rebalance_sec", t.rebalance_sec.value_or(0.0), report.rebalance_sec);
  cmp("restore_sec", t.restore_sec, report.restore_sec);
  return diverged;
}

}  // namespace rill::obs

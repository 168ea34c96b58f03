// Minimal JSON rendering for reports and series — machine-readable output
// for the rill_run CLI (no external JSON dependency needed for writing).
#pragma once

#include <string>

#include "metrics/collector.hpp"
#include "metrics/report.hpp"

namespace rill::metrics {

/// One-object JSON rendering of a MigrationReport.
[[nodiscard]] std::string to_json(const MigrationReport& report,
                                  int indent = 2);

/// JSON rendering of the per-second input/output series and the 10 s
/// windowed latency rows (LatencySeries::windowed_avg_ms), suitable for
/// plotting Fig 7/9-style timelines.
[[nodiscard]] std::string series_json(const Collector& collector);

/// Escape a string for embedding in JSON.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace rill::metrics

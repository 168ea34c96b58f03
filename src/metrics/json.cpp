#include "metrics/json.hpp"

#include <sstream>

namespace rill::metrics {

namespace {

std::string opt_num(std::optional<double> v) {
  return v.has_value() ? fmt(*v, 3) : "null";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_json(const MigrationReport& r, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << "{\n";
  os << pad << "\"dag\": \"" << json_escape(r.dag) << "\",\n";
  os << pad << "\"strategy\": \"" << json_escape(r.strategy) << "\",\n";
  os << pad << "\"scale\": \"" << json_escape(r.scale) << "\",\n";
  os << pad << "\"restore_sec\": " << opt_num(r.restore_sec) << ",\n";
  os << pad << "\"drain_sec\": " << fmt(r.drain_sec, 3) << ",\n";
  os << pad << "\"rebalance_sec\": " << fmt(r.rebalance_sec, 3) << ",\n";
  os << pad << "\"catchup_sec\": " << opt_num(r.catchup_sec) << ",\n";
  os << pad << "\"recovery_sec\": " << opt_num(r.recovery_sec) << ",\n";
  os << pad << "\"stabilization_sec\": " << opt_num(r.stabilization_sec)
     << ",\n";
  os << pad << "\"first_init_sec\": " << opt_num(r.first_init_sec) << ",\n";
  os << pad << "\"latency_p50_ms\": " << opt_num(r.latency_p50_ms) << ",\n";
  os << pad << "\"latency_p95_ms\": " << opt_num(r.latency_p95_ms) << ",\n";
  os << pad << "\"latency_p99_ms\": " << opt_num(r.latency_p99_ms) << ",\n";
  os << pad << "\"replayed_messages\": " << r.replayed_messages << ",\n";
  os << pad << "\"lost_events\": " << r.lost_events << ",\n";
  os << pad << "\"expected_output_rate\": " << fmt(r.expected_output_rate, 2)
     << ",\n";
  os << pad << "\"migration_attempts\": " << r.migration_attempts << ",\n";
  os << pad << "\"aborted_attempts\": " << r.aborted_attempts << ",\n";
  os << pad << "\"fell_back_to_dsm\": "
     << (r.fell_back_to_dsm ? "true" : "false") << ",\n";
  os << pad << "\"abort_latency_sec\": " << opt_num(r.abort_latency_sec)
     << ",\n";
  os << pad << "\"faults_injected\": " << r.faults_injected << ",\n";
  os << pad << "\"fault_hits\": " << r.fault_hits << ",\n";
  os << pad << "\"kv_retries\": " << r.kv_retries << ",\n";
  os << pad << "\"wave_retries\": " << r.wave_retries;
  // Attribution block only when an attributor ran: reports from unsampled
  // runs (the determinism gate) must stay byte-identical.
  if (!r.attribution.empty()) {
    os << ",\n";
    os << pad << "\"sampled_tuples\": " << r.sampled_tuples << ",\n";
    os << pad << "\"attribution\": {";
    for (std::size_t i = 0; i < r.attribution.size(); ++i) {
      const MigrationReport::CauseBreakdown& cb = r.attribution[i];
      if (i != 0) os << ",";
      os << "\n" << pad << "  \"" << json_escape(cb.cause)
         << "\": {\"p50_us\": " << cb.p50_us << ", \"p95_us\": " << cb.p95_us
         << ", \"p99_us\": " << cb.p99_us << ", \"total_us\": " << cb.total_us
         << "}";
    }
    os << "\n" << pad << "}";
  }
  // Autoscale block only when the controller ran, for the same reason.
  if (r.autoscale.has_value()) {
    const MigrationReport::AutoscaleSummary& a = *r.autoscale;
    os << ",\n";
    os << pad << "\"autoscale\": {\n";
    os << pad << "  \"decisions\": " << a.decisions << ",\n";
    os << pad << "  \"scale_outs\": " << a.scale_outs << ",\n";
    os << pad << "  \"scale_ins\": " << a.scale_ins << ",\n";
    os << pad << "  \"fgm_chosen\": " << a.fgm_chosen << ",\n";
    os << pad << "  \"ccr_chosen\": " << a.ccr_chosen << ",\n";
    os << pad << "  \"dcr_chosen\": " << a.dcr_chosen << ",\n";
    os << pad << "  \"suppressed\": " << a.suppressed << ",\n";
    os << pad << "  \"failed\": " << a.failed << ",\n";
    os << pad << "  \"slo_windows\": " << a.slo_windows << ",\n";
    os << pad << "  \"slo_burn_per_mille\": " << a.slo_burn_per_mille << "\n";
    os << pad << "}";
  }
  os << "\n}";
  return os.str();
}

std::string series_json(const Collector& collector) {
  std::ostringstream os;
  os << "{\n  \"input_per_sec\": [";
  const auto& in = collector.input().buckets();
  for (std::size_t i = 0; i < in.size(); ++i) {
    os << (i ? "," : "") << in[i];
  }
  os << "],\n  \"output_per_sec\": [";
  const auto& out = collector.output().buckets();
  for (std::size_t i = 0; i < out.size(); ++i) {
    os << (i ? "," : "") << out[i];
  }
  os << "],\n  \"latency_windows\": [";
  const auto rows = collector.latency().windowed_avg_ms();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i ? "," : "") << "[" << rows[i].first << ","
       << fmt(rows[i].second, 1) << "]";
  }
  os << "]\n}";
  return os.str();
}

}  // namespace rill::metrics

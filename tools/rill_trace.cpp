// rill_trace — offline analysis of a rill_run --trace-jsonl export.
//
// Default mode prints three reports: the migration phase breakdown
// (paper Fig 7), the top-K slowest sampled tuples with per-hop latency
// attribution, and a windowed SLO report over the sampled tuples.
//
// --check runs the CI assertions instead (per-cause components sum to the
// end-to-end latency within 1%; the post-request slow tail is dominated by
// migration pause) and exits 0/1; IO or parse failures exit 2.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "obs/analysis.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"

using namespace rill;
namespace analysis = obs::analysis;

namespace {

void print_help(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s TRACE.jsonl [options]\n"
               "\n"
               "Analyze a rill_run --trace-jsonl export.\n"
               "\n"
               "  --top K         slowest sampled tuples to detail "
               "(default 10)\n"
               "  --slo-p99-ms N  flag windows whose p99 exceeds N ms\n"
               "                  (default 0 = report percentiles only)\n"
               "  --slo-window-s W  SLO window width, seconds (default 10)\n"
               "  --check         run the CI assertions (components sum to\n"
               "                  end-to-end within 1%%; post-request slow\n"
               "                  tail is pause-dominated); exit 1 on\n"
               "                  failure, 2 on IO/parse errors\n"
               "  --help, -h      this text\n",
               argv0);
}

[[noreturn]] void die(const char* argv0, const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", argv0, msg.c_str());
  std::fprintf(stderr, "run '%s --help' for the flag reference\n", argv0);
  std::exit(2);
}

double sec(SimTime t) { return static_cast<double>(t) / 1e6; }

void print_phases(const analysis::MigrationPhases& p) {
  std::printf("migration phases\n");
  if (!p.request.has_value()) {
    std::printf("  (no migration request in this trace)\n");
    return;
  }
  const SimTime req = *p.request;
  std::printf("  request              at %10.3f s\n", sec(req));
  auto rel = [req](SimTime t, const char* label) {
    std::printf("  %-20s +%9.3f s\n", label,
                static_cast<double>(t - req) / 1e6);
  };
  if (p.checkpoint_done.has_value()) {
    rel(*p.checkpoint_done, "capture/checkpoint");
  }
  if (p.rebalance_start.has_value()) {
    std::printf("  %-20s +%9.3f s  (took %.3f s)\n", "rebalance",
                static_cast<double>(*p.rebalance_start - req) / 1e6,
                static_cast<double>(p.rebalance_dur_us.value_or(0)) / 1e6);
  }
  if (p.killed_at.has_value()) rel(*p.killed_at, "workers killed");
  if (p.first_restored.has_value()) {
    rel(*p.first_restored, "first state restore");
  }
  if (p.init_complete.has_value()) rel(*p.init_complete, "init complete");
  if (p.unpause.has_value()) rel(*p.unpause, "sources unpaused");
}

void print_slowest(const analysis::Analysis& a, std::size_t top_k) {
  std::printf("\nslowest sampled tuples (%zu of %zu)\n",
              std::min(top_k, a.tuples.size()), a.tuples.size());
  if (a.tuples.empty()) {
    std::printf("  (no sampled tuples — run rill_run with --attr-sample)\n");
    return;
  }
  std::printf("  %18s %10s %10s  %9s %9s %9s %9s %9s\n", "root", "born s",
              "e2e ms", "queue", "service", "network", "pause", "chaos");
  for (const std::size_t i : analysis::slowest_tuples(a, top_k)) {
    const analysis::TupleView& t = a.tuples[i];
    std::printf("  %18llu %10.3f %10.3f  %9llu %9llu %9llu %9llu %9llu\n",
                static_cast<unsigned long long>(t.root), sec(t.born),
                static_cast<double>(t.latency_us) / 1e3,
                static_cast<unsigned long long>(t.cause_us[0]),
                static_cast<unsigned long long>(t.cause_us[1]),
                static_cast<unsigned long long>(t.cause_us[2]),
                static_cast<unsigned long long>(t.cause_us[3]),
                static_cast<unsigned long long>(t.cause_us[4]));
    for (const analysis::HopView* h : analysis::hops_of(a, t.root)) {
      std::printf("  %18s %10.3f %10.3f  %9llu %9llu %9llu %9llu %9llu  %s\n",
                  "hop", sec(h->start),
                  static_cast<double>(h->dur_us) / 1e3,
                  static_cast<unsigned long long>(h->cause_us[0]),
                  static_cast<unsigned long long>(h->cause_us[1]),
                  static_cast<unsigned long long>(h->cause_us[2]),
                  static_cast<unsigned long long>(h->cause_us[3]),
                  static_cast<unsigned long long>(h->cause_us[4]),
                  h->task.c_str());
    }
  }
}

void print_slo(const analysis::Analysis& a, const obs::SloConfig& cfg) {
  std::printf("\nSLO report (%llu s windows over sampled tuples",
              static_cast<unsigned long long>(cfg.window_sec));
  if (cfg.target_p99_us > 0) {
    std::printf(", target p99 %.1f ms", static_cast<double>(cfg.target_p99_us) / 1e3);
  }
  std::printf(")\n");
  if (a.tuples.empty()) {
    std::printf("  (no sampled tuples)\n");
    return;
  }
  // The monitor takes arrivals in order, which trace order need not be.
  std::vector<std::pair<SimTime, std::uint64_t>> done;
  std::vector<std::uint64_t> lat;
  done.reserve(a.tuples.size());
  lat.reserve(a.tuples.size());
  for (const analysis::TupleView& t : a.tuples) {
    done.emplace_back(t.done(), t.latency_us);
    lat.push_back(t.latency_us);
  }
  std::sort(done.begin(), done.end());
  obs::OnlineSloMonitor slo(cfg);
  for (const auto& [at, latency_us] : done) slo.record(at, latency_us);
  // Close the window holding the last arrival.
  slo.advance_to(done.back().first + slo.config().window_sec * 1'000'000ull);
  slo.finalize();
  std::sort(lat.begin(), lat.end());
  std::printf("  overall      p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
              static_cast<double>(obs::nearest_rank(lat, 0.50)) / 1e3,
              static_cast<double>(obs::nearest_rank(lat, 0.95)) / 1e3,
              static_cast<double>(obs::nearest_rank(lat, 0.99)) / 1e3);
  std::printf("  windows      %zu (%llu violated, burn %llu/1000)\n",
              slo.windows().size(),
              static_cast<unsigned long long>(slo.violated_windows()),
              static_cast<unsigned long long>(slo.burn_per_mille()));
  const std::vector<obs::SloViolation> violations = slo.violations();
  for (const obs::SloViolation& v : violations) {
    std::printf("  violation    [%llu s, %llu s)\n",
                static_cast<unsigned long long>(v.start_sec),
                static_cast<unsigned long long>(v.end_sec));
  }
  if (cfg.target_p99_us > 0 && violations.empty()) {
    std::printf("  no violation windows\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t top_k = 10;
  bool run_check = false;
  obs::SloConfig slo_cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    // Digits only: unlike strtoull, from_chars takes no sign or space and
    // reports overflow instead of wrapping.
    auto u64 = [&](const std::string& s) -> std::uint64_t {
      std::uint64_t v = 0;
      const char* last = s.data() + s.size();
      const auto [end, ec] = std::from_chars(s.data(), last, v);
      if (ec != std::errc{} || end != last) {
        die(argv[0], "bad value for " + arg + ": '" + s + "'");
      }
      return v;
    };
    // A time in `unit_us` units, held to rill_run's bound on flag times.
    auto time_flag = [&](std::uint64_t unit_us) -> std::uint64_t {
      const std::uint64_t v = u64(next());
      if (v > static_cast<std::uint64_t>(kMaxFlagTime) / unit_us) {
        char bound[32];
        std::snprintf(bound, sizeof bound, "%g", time::to_sec(kMaxFlagTime));
        die(argv[0], arg + " times must be in [0, " + bound + "] seconds");
      }
      return v;
    };
    if (arg == "--top") {
      top_k = static_cast<std::size_t>(u64(next()));
    } else if (arg == "--slo-p99-ms") {
      slo_cfg.target_p99_us = time_flag(1000) * 1000;
    } else if (arg == "--slo-window-s") {
      slo_cfg.window_sec = time_flag(1'000'000);
      if (slo_cfg.window_sec == 0) die(argv[0], "--slo-window-s must be > 0");
    } else if (arg == "--check") {
      run_check = true;
    } else if (arg == "--help" || arg == "-h") {
      print_help(stdout, argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      die(argv[0], "unknown flag: " + arg);
    } else if (path.empty()) {
      path = arg;
    } else {
      die(argv[0], "more than one input file: " + arg);
    }
  }
  if (path.empty()) {
    print_help(stderr, argv[0]);
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) die(argv[0], "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();

  analysis::ParseStats stats;
  const std::vector<analysis::TraceEvent> events =
      analysis::parse_jsonl(buf.str(), &stats);
  if (!stats.errors.empty()) {
    for (const std::string& e : stats.errors) {
      std::fprintf(stderr, "%s: %s: %s\n", argv[0], path.c_str(), e.c_str());
    }
    return 2;
  }
  const analysis::Analysis a = analysis::analyze(events);

  if (run_check) {
    const analysis::CheckResult res = analysis::check(a);
    if (!res.ok) {
      for (const std::string& f : res.failures) {
        std::fprintf(stderr, "%s: CHECK FAILED: %s\n", argv[0], f.c_str());
      }
      return 1;
    }
    std::printf("%s: OK — %zu tuples checked, %zu events, %zu hops\n",
                argv[0], res.tuples_checked, a.events, a.hops.size());
    return 0;
  }

  std::printf("%s: %zu events, %zu sampled tuples, %zu hops\n\n",
              path.c_str(), a.events, a.tuples.size(), a.hops.size());
  print_phases(a.phases);
  print_slowest(a, top_k);
  print_slo(a, slo_cfg);
  return 0;
}

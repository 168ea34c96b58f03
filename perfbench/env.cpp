// Environment stamp and the refusal to time unoptimised or instrumented
// builds.  The stamp is what makes two results comparable: the same
// benchmark on another compiler, build type or core count is another
// measurement.
#include <unistd.h>

#include <chrono>

#include "bench.hpp"

namespace rill::perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string env_json(const std::string& commit) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  return "{\"compiler\":" + json_string(PERFBENCH_COMPILER) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"nproc\":" + std::to_string(cpus) +
         ",\"commit\":" + json_string(commit) + "}";
}

std::optional<std::string> untimeable_build() {
#ifndef NDEBUG
  return std::string("built without NDEBUG (use CMAKE_BUILD_TYPE=Release)");
#endif
#if PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return std::string("built with a sanitizer");
#endif
  return std::nullopt;
}

double wall_now() {
  // lint: wallclock-ok(the benchmark times the simulator; the simulation
  // itself never reads this clock)
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace rill::perfbench

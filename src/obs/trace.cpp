#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "metrics/json.hpp"
#include "sim/engine.hpp"

namespace rill::obs {

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

Arg arg(std::string key, const std::string& value) {
  return Arg{std::move(key), "\"" + metrics::json_escape(value) + "\""};
}
Arg arg(std::string key, const char* value) {
  return arg(std::move(key), std::string(value));
}
Arg arg(std::string key, std::uint64_t value) {
  return Arg{std::move(key), std::to_string(value)};
}
Arg arg(std::string key, std::int64_t value) {
  return Arg{std::move(key), std::to_string(value)};
}
Arg arg(std::string key, int value) {
  return Arg{std::move(key), std::to_string(value)};
}
Arg arg(std::string key, double value) {
  return Arg{std::move(key), num(value)};
}
Arg arg(std::string key, bool value) {
  return Arg{std::move(key), value ? "true" : "false"};
}

SimTime Tracer::now() const noexcept {
  return engine_ != nullptr ? engine_->now() : 0;
}

SpanId Tracer::begin(Track track, const char* cat, std::string name,
                     std::vector<Arg> args) {
  Record r;
  r.ph = Phase::Span;
  r.ts = now();
  r.track = track;
  r.cat = cat;
  r.name = std::move(name);
  r.args = std::move(args);
  r.open = true;
  records_.push_back(std::move(r));
  return records_.size() - 1;
}

void Tracer::end(SpanId id, std::vector<Arg> extra) {
  if (id >= records_.size()) return;  // kNoSpan (tracing off at begin time)
  Record& r = records_[id];
  if (!r.open) return;
  r.open = false;
  r.dur = static_cast<SimDuration>(now() - r.ts);
  for (Arg& a : extra) r.args.push_back(std::move(a));
}

void Tracer::instant(Track track, const char* cat, std::string name,
                     std::vector<Arg> args) {
  Record r;
  r.ph = Phase::Instant;
  r.ts = now();
  r.track = track;
  r.cat = cat;
  r.name = std::move(name);
  r.args = std::move(args);
  records_.push_back(std::move(r));
}

void Tracer::span_at(Track track, const char* cat, std::string name,
                     SimTime ts, SimDuration dur, std::vector<Arg> args) {
  Record r;
  r.ph = Phase::Span;
  r.ts = ts;
  r.dur = dur;
  r.track = track;
  r.cat = cat;
  r.name = std::move(name);
  r.args = std::move(args);
  records_.push_back(std::move(r));
}

void Tracer::counter(Track track, std::string name, double value) {
  Record r;
  r.ph = Phase::Counter;
  r.ts = now();
  r.track = track;
  r.cat = "counter";
  r.name = std::move(name);
  r.args.push_back(arg("value", value));
  records_.push_back(std::move(r));
}

void Tracer::set_process_name(std::int32_t pid, std::string name) {
  process_names_.emplace_back(pid, std::move(name));
}

void Tracer::set_thread_name(Track track, std::string name) {
  thread_names_.emplace_back(track, std::move(name));
}

void Tracer::render_record(const Record& r, std::string& out) const {
  char head[128];
  std::snprintf(head, sizeof head,
                "{\"ph\":\"%c\",\"ts\":%" PRIu64 ",\"pid\":%d,\"tid\":%d",
                static_cast<char>(r.ph), r.ts, r.track.pid, r.track.tid);
  out += head;
  if (r.ph == Phase::Span) {
    char dur[48];
    std::snprintf(dur, sizeof dur, ",\"dur\":%" PRId64,
                  r.dur > 0 ? r.dur : 0);
    out += dur;
  }
  if (r.ph == Phase::Instant) out += ",\"s\":\"t\"";
  out += ",\"cat\":\"";
  out += r.cat;
  out += "\",\"name\":\"";
  out += metrics::json_escape(r.name);
  out += '"';
  if (!r.args.empty() || r.open) {
    out += ",\"args\":{";
    bool first = true;
    for (const Arg& a : r.args) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += metrics::json_escape(a.key);
      out += "\":";
      out += a.json;
    }
    if (r.open) {
      if (!first) out += ',';
      out += "\"open\":true";
    }
    out += '}';
  }
  out += '}';
}

std::string Tracer::to_chrome_json() const {
  std::string out;
  out.reserve(records_.size() * 96 + 4096);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  for (const auto& [pid, name] : process_names_) {
    sep();
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                  "\"name\":\"process_name\",\"args\":{\"name\":\"",
                  pid);
    out += buf;
    out += metrics::json_escape(name);
    out += "\"}}";
  }
  for (const auto& [track, name] : thread_names_) {
    sep();
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"",
                  track.pid, track.tid);
    out += buf;
    out += metrics::json_escape(name);
    out += "\"}}";
  }

  for (const Record& r : records_) {
    sep();
    render_record(r, out);
  }

  // Per-second sink-arrival counter series, derived from the compact log.
  if (!sink_arrivals_.empty()) {
    const std::size_t last_sec =
        static_cast<std::size_t>(sink_arrivals_.back() / 1'000'000ull);
    std::vector<std::uint64_t> per_sec(last_sec + 1, 0);
    for (SimTime t : sink_arrivals_) {
      ++per_sec[static_cast<std::size_t>(t / 1'000'000ull)];
    }
    for (std::size_t s = 0; s < per_sec.size(); ++s) {
      sep();
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"C\",\"ts\":%" PRIu64 ",\"pid\":%d,\"tid\":%d,"
                    "\"cat\":\"counter\",\"name\":\"sink_arrivals\","
                    "\"args\":{\"value\":%" PRIu64 "}}",
                    static_cast<std::uint64_t>(s * 1'000'000ull),
                    kTrackSinks.pid, kTrackSinks.tid, per_sec[s]);
      out += buf;
    }
  }

  out += "]}";
  return out;
}

std::string Tracer::to_jsonl() const {
  std::string out;
  out.reserve(records_.size() * 96);
  for (const Record& r : records_) {
    render_record(r, out);
    out += '\n';
  }
  return out;
}

}  // namespace rill::obs

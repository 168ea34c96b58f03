#include "obs/analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace rill::obs::analysis {

namespace {

// ---- minimal flat-JSON line parser -------------------------------------
// Accepts exactly what Tracer::render_record emits: one object per line,
// string/number/boolean values, plus one level of nesting for "args".

struct Cursor {
  const std::string& s;
  std::size_t pos;
  std::size_t end;
};

void skip_ws(Cursor& c) {
  while (c.pos < c.end &&
         (c.s[c.pos] == ' ' || c.s[c.pos] == '\t' || c.s[c.pos] == '\r')) {
    ++c.pos;
  }
}

bool expect(Cursor& c, char ch) {
  skip_ws(c);
  if (c.pos >= c.end || c.s[c.pos] != ch) return false;
  ++c.pos;
  return true;
}

/// Quoted string with JSON escapes → unescaped text.
bool parse_string(Cursor& c, std::string& out) {
  if (!expect(c, '"')) return false;
  out.clear();
  while (c.pos < c.end) {
    const char ch = c.s[c.pos++];
    if (ch == '"') return true;
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.pos >= c.end) return false;
    const char esc = c.s[c.pos++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (c.pos + 4 > c.end) return false;
        const std::string hex = c.s.substr(c.pos, 4);
        c.pos += 4;
        char* endp = nullptr;
        const unsigned long code = std::strtoul(hex.c_str(), &endp, 16);
        if (endp != hex.c_str() + 4) return false;
        // The exporter only \u-escapes control characters, so one byte.
        out += static_cast<char>(code & 0xff);
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

/// Bare token (number / true / false / null), returned verbatim.
bool parse_raw(Cursor& c, std::string& out) {
  skip_ws(c);
  const std::size_t start = c.pos;
  while (c.pos < c.end) {
    const char ch = c.s[c.pos];
    if (ch == ',' || ch == '}' || ch == ' ' || ch == '\t') break;
    ++c.pos;
  }
  if (c.pos == start) return false;
  out = c.s.substr(start, c.pos - start);
  return true;
}

bool parse_u64_tok(const std::string& tok, std::uint64_t& out) {
  char* endp = nullptr;
  out = std::strtoull(tok.c_str(), &endp, 10);
  return endp != tok.c_str() && *endp == '\0';
}

bool parse_i64_tok(const std::string& tok, std::int64_t& out) {
  char* endp = nullptr;
  out = std::strtoll(tok.c_str(), &endp, 10);
  return endp != tok.c_str() && *endp == '\0';
}

/// The nested "args" object: flat (key, value) pairs.
bool parse_args(Cursor& c, std::vector<std::pair<std::string, std::string>>& out) {
  if (!expect(c, '{')) return false;
  skip_ws(c);
  if (c.pos < c.end && c.s[c.pos] == '}') {
    ++c.pos;
    return true;
  }
  while (true) {
    std::string key;
    if (!parse_string(c, key)) return false;
    if (!expect(c, ':')) return false;
    skip_ws(c);
    std::string value;
    if (c.pos < c.end && c.s[c.pos] == '"') {
      if (!parse_string(c, value)) return false;
    } else {
      if (!parse_raw(c, value)) return false;
    }
    out.emplace_back(std::move(key), std::move(value));
    skip_ws(c);
    if (c.pos < c.end && c.s[c.pos] == ',') {
      ++c.pos;
      continue;
    }
    return expect(c, '}');
  }
}

bool parse_line(const std::string& text, std::size_t begin, std::size_t end,
                TraceEvent& ev, std::string& why) {
  Cursor c{text, begin, end};
  if (!expect(c, '{')) {
    why = "expected '{'";
    return false;
  }
  bool have_ph = false;
  while (true) {
    std::string key;
    if (!parse_string(c, key)) {
      why = "expected key string";
      return false;
    }
    if (!expect(c, ':')) {
      why = "expected ':' after \"" + key + "\"";
      return false;
    }
    skip_ws(c);
    if (key == "args") {
      if (!parse_args(c, ev.args)) {
        why = "malformed args object";
        return false;
      }
    } else if (c.pos < c.end && c.s[c.pos] == '"') {
      std::string value;
      if (!parse_string(c, value)) {
        why = "malformed string for \"" + key + "\"";
        return false;
      }
      if (key == "ph") {
        ev.ph = value.empty() ? '?' : value[0];
        have_ph = true;
      } else if (key == "cat") {
        ev.cat = std::move(value);
      } else if (key == "name") {
        ev.name = std::move(value);
      }
      // "s" (instant scope) is recognized but unused.
    } else {
      std::string tok;
      if (!parse_raw(c, tok)) {
        why = "malformed value for \"" + key + "\"";
        return false;
      }
      bool num_ok = true;
      if (key == "ts") {
        num_ok = parse_u64_tok(tok, ev.ts);
      } else if (key == "dur") {
        num_ok = parse_i64_tok(tok, ev.dur);
      } else if (key == "pid" || key == "tid") {
        std::int64_t v = 0;
        num_ok = parse_i64_tok(tok, v);
        (key == "pid" ? ev.pid : ev.tid) = static_cast<int>(v);
      }
      if (!num_ok) {
        why = "bad number for \"" + key + "\": '" + tok + "'";
        return false;
      }
    }
    skip_ws(c);
    if (c.pos < c.end && c.s[c.pos] == ',') {
      ++c.pos;
      continue;
    }
    if (!expect(c, '}')) {
      why = "expected ',' or '}'";
      return false;
    }
    break;
  }
  skip_ws(c);
  if (c.pos != c.end) {
    why = "trailing garbage after object";
    return false;
  }
  if (!have_ph) {
    why = "missing \"ph\"";
    return false;
  }
  return true;
}

constexpr const char* kCauseArgKeys[kCauseCount] = {
    "queue_us",   "service_us", "network_us",
    "pause_us",   "chaos_us",   "migration_us"};

}  // namespace

const std::string* TraceEvent::arg_raw(const std::string& key) const {
  for (const auto& [k, v] : args) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::uint64_t> TraceEvent::arg_u64(const std::string& key) const {
  const std::string* raw = arg_raw(key);
  if (raw == nullptr) return std::nullopt;
  std::uint64_t v = 0;
  if (!parse_u64_tok(*raw, v)) return std::nullopt;
  return v;
}

std::vector<TraceEvent> parse_jsonl(const std::string& text,
                                    ParseStats* stats) {
  std::vector<TraceEvent> out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    ++line_no;
    // Skip blank lines (including the virtual one after a trailing '\n').
    std::size_t begin = pos;
    while (begin < end && (text[begin] == ' ' || text[begin] == '\t' ||
                           text[begin] == '\r')) {
      ++begin;
    }
    if (begin < end) {
      if (stats != nullptr) ++stats->lines;
      TraceEvent ev;
      std::string why;
      if (parse_line(text, begin, end, ev, why)) {
        out.push_back(std::move(ev));
        if (stats != nullptr) ++stats->parsed;
      } else if (stats != nullptr) {
        stats->errors.push_back("line " + std::to_string(line_no) + ": " + why);
      }
    }
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return out;
}

Analysis analyze(const std::vector<TraceEvent>& events) {
  Analysis a;
  a.events = events.size();
  for (const TraceEvent& ev : events) {
    if (ev.cat == "strategy" && ev.ph == 'i') {
      if (ev.name == "request") a.phases.request = ev.ts;
      else if (ev.name == "checkpoint_done") a.phases.checkpoint_done = ev.ts;
      else if (ev.name == "init_complete") a.phases.init_complete = ev.ts;
      else if (ev.name == "unpause") a.phases.unpause = ev.ts;
    } else if (ev.cat == "rebalance") {
      if (ev.ph == 'X' && ev.name == "rebalance") {
        a.phases.rebalance_start = ev.ts;
        a.phases.rebalance_dur_us = static_cast<std::uint64_t>(
            ev.dur > 0 ? ev.dur : 0);
      } else if (ev.ph == 'i' && ev.name == "kill") {
        a.phases.killed_at = ev.ts;
      }
    } else if (ev.cat == "task" && ev.ph == 'i' && ev.name == "restored") {
      if (!a.phases.first_restored.has_value() ||
          ev.ts < *a.phases.first_restored) {
        a.phases.first_restored = ev.ts;
      }
    } else if (ev.pid == kTuplesPid && ev.ph == 'X' && ev.cat == "tuple") {
      if (ev.name == "tuple") {
        TupleView t;
        t.root = ev.arg_u64("root").value_or(0);
        t.origin = ev.arg_u64("origin").value_or(0);
        t.born = ev.ts;
        t.latency_us = static_cast<std::uint64_t>(ev.dur > 0 ? ev.dur : 0);
        for (int c = 0; c < kCauseCount; ++c) {
          t.cause_us[c] = ev.arg_u64(kCauseArgKeys[c]).value_or(0);
        }
        t.hops = ev.arg_u64("hops").value_or(0);
        a.tuples.push_back(std::move(t));
      } else if (ev.name == "hop") {
        HopView h;
        h.root = ev.arg_u64("root").value_or(0);
        if (const std::string* task = ev.arg_raw("task")) h.task = *task;
        h.start = ev.ts;
        h.dur_us = static_cast<std::uint64_t>(ev.dur > 0 ? ev.dur : 0);
        for (int c = 0; c < kCauseCount; ++c) {
          h.cause_us[c] = ev.arg_u64(kCauseArgKeys[c]).value_or(0);
        }
        a.hops.push_back(std::move(h));
      }
    }
  }
  return a;
}

std::vector<std::size_t> slowest_tuples(const Analysis& a, std::size_t k) {
  std::vector<std::size_t> idx(a.tuples.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&a](std::size_t l, std::size_t r) {
    const TupleView& tl = a.tuples[l];
    const TupleView& tr = a.tuples[r];
    if (tl.latency_us != tr.latency_us) return tl.latency_us > tr.latency_us;
    if (tl.born != tr.born) return tl.born < tr.born;
    return tl.root < tr.root;
  });
  if (idx.size() > k) idx.resize(k);
  return idx;
}

std::vector<const HopView*> hops_of(const Analysis& a, std::uint64_t root) {
  std::vector<const HopView*> out;
  for (const HopView& h : a.hops) {
    if (h.root == root) out.push_back(&h);
  }
  return out;
}

CheckResult check(const Analysis& a) {
  CheckResult res;
  // 1. Components telescope: sum(cause_us) == latency within tolerance.
  for (const TupleView& t : a.tuples) {
    ++res.tuples_checked;
    const std::uint64_t sum = t.cause_sum();
    const std::uint64_t diff =
        sum > t.latency_us ? sum - t.latency_us : t.latency_us - sum;
    const auto allowed = static_cast<std::uint64_t>(
        kCheckTolerance * static_cast<double>(t.latency_us));
    if (diff > allowed && diff > 1) {
      res.ok = false;
      res.failures.push_back(
          "tuple root=" + std::to_string(t.root) + ": components sum to " +
          std::to_string(sum) + " us but end-to-end is " +
          std::to_string(t.latency_us) + " us (diff " + std::to_string(diff) +
          ")");
      if (res.failures.size() >= 20) {
        res.failures.push_back("... further sum mismatches suppressed");
        break;
      }
    }
  }
  // 2. Migration slow tail is pause-dominated.
  if (a.phases.request.has_value()) {
    std::vector<const TupleView*> after;
    for (const TupleView& t : a.tuples) {
      if (t.done() >= *a.phases.request) after.push_back(&t);
    }
    if (!after.empty()) {
      std::sort(after.begin(), after.end(),
                [](const TupleView* l, const TupleView* r) {
                  if (l->latency_us != r->latency_us) {
                    return l->latency_us > r->latency_us;
                  }
                  return l->born < r->born;
                });
      std::size_t tail = after.size() / 100;
      if (tail < 10) tail = std::min<std::size_t>(10, after.size());
      std::uint64_t totals[kCauseCount]{};
      for (std::size_t i = 0; i < tail; ++i) {
        for (int c = 0; c < kCauseCount; ++c) {
          totals[c] += after[i]->cause_us[c];
        }
      }
      int dominant = 0;
      for (int c = 1; c < kCauseCount; ++c) {
        if (totals[c] > totals[dominant]) dominant = c;
      }
      if (static_cast<Cause>(dominant) != Cause::Pause) {
        res.ok = false;
        std::string msg = "migration slow tail (top " + std::to_string(tail) +
                          " of " + std::to_string(after.size()) +
                          " post-request tuples) is dominated by '" +
                          std::string(to_string(static_cast<Cause>(dominant))) +
                          "', expected 'pause' (totals us:";
        for (int c = 0; c < kCauseCount; ++c) {
          msg += ' ';
          msg += to_string(static_cast<Cause>(c));
          msg += '=';
          msg += std::to_string(totals[c]);
        }
        msg += ')';
        res.failures.push_back(std::move(msg));
      }
    }
  }
  return res;
}

}  // namespace rill::obs::analysis

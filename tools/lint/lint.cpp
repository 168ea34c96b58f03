#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace rill::lint {
namespace {

bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || (c >= '0' && c <= '9'); }

void append_comment(LexedFile& out, int line, std::string_view text) {
  std::string& slot = out.comments[line];
  if (!slot.empty()) slot += ' ';
  slot.append(text);
}

}  // namespace

// ------------------------------------------------------------------ lexer

LexedFile lex(const std::string& source) {
  LexedFile out;
  const std::size_t n = source.size();
  std::size_t i = 0;
  int line = 1;
  int col = 1;

  auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k, ++i) {
      if (source[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };
  auto peek = [&](std::size_t off) -> char {
    return i + off < n ? source[i + off] : '\0';
  };

  // Multi-character punctuators, longest first.  "[[" / "]]" are kept
  // fused so attribute detection is a two-token match.
  static constexpr std::array<std::string_view, 27> kPuncts = {
      "<<=", ">>=", "->*", "...", "[[", "]]", "::", "->", "<<", ">>",
      "<=",  ">=",  "==",  "!=",  "&&", "||", "+=", "-=", "*=", "/=",
      "%=",  "&=",  "|=",  "^=",  "++", "--", "##"};

  while (i < n) {
    const char c = source[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      const std::size_t start = i;
      while (i < n && source[i] != '\n') advance(1);
      append_comment(out, line, std::string_view(source).substr(start, i - start));
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      advance(2);
      std::size_t chunk_start = i;
      int chunk_line = line;
      while (i < n && !(source[i] == '*' && peek(1) == '/')) {
        if (source[i] == '\n') {
          append_comment(out, chunk_line,
                         std::string_view(source).substr(chunk_start, i - chunk_start));
          advance(1);
          chunk_start = i;
          chunk_line = line;
        } else {
          advance(1);
        }
      }
      append_comment(out, chunk_line,
                     std::string_view(source).substr(chunk_start, i - chunk_start));
      advance(2);  // consume the closing */
      continue;
    }
    if (c == '#' && (col == 1 || out.tokens.empty() ||
                     out.tokens.back().line != line)) {
      // Preprocessor directive: consume the logical line (with backslash
      // continuations), emitting no tokens.  Quoted includes are recorded.
      std::size_t start = i;
      while (i < n) {
        if (source[i] == '\\' && peek(1) == '\n') {
          advance(2);
          continue;
        }
        if (source[i] == '\n') break;
        advance(1);
      }
      std::string_view directive = std::string_view(source).substr(start, i - start);
      const std::size_t inc = directive.find("include");
      if (inc != std::string_view::npos) {
        const std::size_t q1 = directive.find('"', inc);
        if (q1 != std::string_view::npos) {
          const std::size_t q2 = directive.find('"', q1 + 1);
          if (q2 != std::string_view::npos) {
            out.quoted_includes.emplace_back(directive.substr(q1 + 1, q2 - q1 - 1));
          }
        }
      }
      continue;
    }
    if (c == 'R' && peek(1) == '"') {
      // Raw string literal: R"delim( ... )delim"
      const int tline = line;
      const int tcol = col;
      std::size_t d = i + 2;
      while (d < n && source[d] != '(') ++d;
      const std::string closer =
          ")" + source.substr(i + 2, d - (i + 2)) + "\"";
      const std::size_t end = source.find(closer, d);
      const std::size_t stop = end == std::string::npos ? n : end + closer.size();
      out.tokens.push_back({TokKind::String, source.substr(i, stop - i), tline, tcol});
      advance(stop - i);
      continue;
    }
    if (c == '"' || c == '\'') {
      const int tline = line;
      const int tcol = col;
      const char quote = c;
      const std::size_t start = i;
      advance(1);
      while (i < n && source[i] != quote) {
        if (source[i] == '\\') advance(1);
        advance(1);
      }
      advance(1);  // closing quote
      out.tokens.push_back({quote == '"' ? TokKind::String : TokKind::Char,
                            source.substr(start, i - start), tline, tcol});
      continue;
    }
    if (ident_start(c)) {
      const int tline = line;
      const int tcol = col;
      const std::size_t start = i;
      while (i < n && ident_char(source[i])) advance(1);
      out.tokens.push_back({TokKind::Ident, source.substr(start, i - start), tline, tcol});
      continue;
    }
    if (c >= '0' && c <= '9') {
      const int tline = line;
      const int tcol = col;
      const std::size_t start = i;
      while (i < n) {
        const char d = source[i];
        if (ident_char(d) || d == '.' || d == '\'') {
          advance(1);
        } else if ((d == '+' || d == '-') && i > start &&
                   (source[i - 1] == 'e' || source[i - 1] == 'E' ||
                    source[i - 1] == 'p' || source[i - 1] == 'P')) {
          advance(1);
        } else {
          break;
        }
      }
      out.tokens.push_back({TokKind::Number, source.substr(start, i - start), tline, tcol});
      continue;
    }
    // Punctuator: longest match wins.
    std::string_view rest = std::string_view(source).substr(i);
    std::string_view matched;
    for (const std::string_view p : kPuncts) {
      if (rest.substr(0, p.size()) == p) {
        matched = p;
        break;
      }
    }
    const int tline = line;
    const int tcol = col;
    if (matched.empty()) matched = rest.substr(0, 1);
    out.tokens.push_back({TokKind::Punct, std::string(matched), tline, tcol});
    advance(matched.size());
  }
  return out;
}

// ------------------------------------------------------------- rule engine

namespace {

/// One method body parsed by the class scan: token range [begin, end) of
/// the body (braces excluded), the unqualified owning class name and the
/// method name ("~" for destructors).
struct ScanRegion {
  std::size_t begin{0};
  std::size_t end{0};
  std::string cls;
  std::string method;
};

/// One class/struct definition parsed by the class scan (per file, merged
/// across the whole input set into the ClassModel).
struct ScanClass {
  std::string name;
  bool pinned{false};  ///< declared `class RILL_PINNED Name`
  std::vector<std::string> members;
};

struct FileInfo {
  LexedFile lexed;
  bool report_surface{false};           ///< R3 applies to fields declared here
  // Pass-1 declarations, joined to use sites via the include closure.
  // Ordered sets: the closure union iterates these, and the linter holds
  // itself to its own R2.
  std::set<std::string> unordered_vars;
  std::set<std::string> unordered_accessors;
  std::set<std::string> float_fields;
  // Class model inputs for R6.
  std::vector<ScanClass> classes;
  std::vector<ScanRegion> regions;
};

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool is_report_surface(const std::string& path) {
  if (path.find("/obs/") != std::string::npos || path.rfind("obs/", 0) == 0)
    return true;
  if (path.find("/metrics/") != std::string::npos ||
      path.rfind("metrics/", 0) == 0)
    return true;
  const std::string base = basename_of(path);
  return base.find("report") != std::string::npos ||
         base.find("trace") != std::string::npos;
}

/// Does a `// lint: <tag>-ok(<reason>)` waiver cover `line`?  The marker
/// may sit on the statement line or up to three lines above it (waiver
/// reasons are allowed to wrap).  A marker with an empty reason — `(` is
/// immediately closed — does not count.
bool waived(const LexedFile& lexed, int line, std::string_view tag) {
  const std::string marker = std::string("lint: ") + std::string(tag) + "-ok";
  for (int l = line - 3; l <= line; ++l) {
    const auto it = lexed.comments.find(l);
    if (it == lexed.comments.end()) continue;
    const std::size_t pos = it->second.find(marker);
    if (pos == std::string::npos) continue;
    const std::size_t open = pos + marker.size();
    if (open < it->second.size() && it->second[open] == '(') {
      // Reject `()` — a reason is mandatory.  A reason continued on the
      // next comment line leaves `(` as the final character, which is fine.
      if (open + 1 < it->second.size() && it->second[open + 1] == ')') continue;
      return true;
    }
  }
  return false;
}

// Token-walk helpers.  All assume well-formed (balanced) input and clamp
// at the ends rather than throwing.

std::size_t match_paren_fwd(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")" && --depth == 0) return i;
  }
  return t.size() - 1;
}

std::size_t match_paren_back(const std::vector<Token>& t, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (t[i].text == ")") ++depth;
    if (t[i].text == "(" && --depth == 0) return i;
  }
  return 0;
}

std::size_t match_bracket_back(const std::vector<Token>& t, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (t[i].text == "]") ++depth;
    if (t[i].text == "[" && --depth == 0) return i;
  }
  return 0;
}

std::size_t match_bracket_fwd(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "[") ++depth;
    if (t[i].text == "]" && --depth == 0) return i;
  }
  return t.size() - 1;
}

std::size_t match_brace_fwd(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "{") ++depth;
    if (t[i].text == "}" && --depth == 0) return i;
  }
  return t.size() - 1;
}

/// From the `<` that opens a template argument list, return the index of
/// the matching `>`.  `>>` closes two levels (the C++11 rule).
std::size_t match_angle_fwd(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    const std::string& x = t[i].text;
    if (x == "<") ++depth;
    if (x == "<<") depth += 2;
    if (x == ">") --depth;
    if (x == ">>") depth -= 2;
    if (depth <= 0) return i;
  }
  return t.size() - 1;
}

/// Containers whose iteration order is not deterministic: the std hash
/// containers, and RootTable (common/root_table.hpp), whose slot order
/// follows the keys and the insert/erase history.
const std::unordered_set<std::string>& unordered_type_names() {
  static const std::unordered_set<std::string> kNames = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset", "RootTable"};
  return kNames;
}

// ------------------------------------------------------------ pass 1: index

void index_file(FileInfo& info) {
  const std::vector<Token>& t = info.lexed.tokens;
  std::unordered_set<std::string> aliases;  // using X = ...unordered_map<...>...;

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident) continue;
    const std::string& name = t[i].text;

    // `using Alias = ... unordered_map< ... > ... ;`
    if (name == "using" && i + 2 < t.size() && t[i + 1].kind == TokKind::Ident &&
        t[i + 2].text == "=") {
      for (std::size_t j = i + 3; j < t.size() && t[j].text != ";"; ++j) {
        if (unordered_type_names().contains(t[j].text)) {
          aliases.insert(t[i + 1].text);
          break;
        }
      }
      continue;
    }

    // Declarations: `std::unordered_map<K, V> name ...` — record the name.
    const bool direct = unordered_type_names().contains(name);
    const bool via_alias = aliases.contains(name);
    if (direct || via_alias) {
      std::size_t k;
      if (direct) {
        if (i + 1 >= t.size() || t[i + 1].text != "<") continue;
        k = match_angle_fwd(t, i + 1) + 1;
      } else {
        k = i + 1;
      }
      while (k < t.size() &&
             (t[k].text == "&" || t[k].text == "*" || t[k].text == "const"))
        ++k;
      if (k >= t.size() || t[k].kind != TokKind::Ident) continue;
      if (t[k].text == "iterator" || t[k].text == "const_iterator") continue;
      const std::string& decl = t[k].text;
      const std::string& after = k + 1 < t.size() ? t[k + 1].text : "";
      if (after == "(") {
        info.unordered_accessors.insert(decl);
      } else if (after == ";" || after == "=" || after == "{" || after == "," ||
                 after == ")") {
        info.unordered_vars.insert(decl);
      }
      continue;
    }

    // float/double field declarations on the report surface (for R3).
    if (info.report_surface && (name == "double" || name == "float") &&
        i + 2 < t.size() && t[i + 1].kind == TokKind::Ident) {
      const std::string& after = t[i + 2].text;
      if (after == ";" || after == "=" || after == "{" || after == ",") {
        info.float_fields.insert(t[i + 1].text);
      }
    }
  }
}

// ----------------------------------------------------------- pass 2: rules

struct Scope {
  // Union over the file's include closure (ordered: see FileInfo).
  std::set<std::string> unordered_vars;
  std::set<std::string> unordered_accessors;
  std::set<std::string> float_fields;
};

void emit(std::vector<Finding>& out, const std::string& path,
          const Token& at, std::string rule, std::string message,
          std::string hint) {
  Finding f;
  f.file = path;
  f.line = at.line;
  f.col = at.col;
  f.rule = std::move(rule);
  f.message = std::move(message);
  f.hint = std::move(hint);
  out.push_back(std::move(f));
}

void check_r1(const std::string& path, const FileInfo& info,
              const Options& opts, std::vector<Finding>& out) {
  for (const std::string& prefix : opts.wallclock_allowlist) {
    if (path.rfind(prefix, 0) == 0) return;
  }
  static const std::unordered_set<std::string> kTypes = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand",   "minstd_rand0", "default_random_engine"};
  static const std::unordered_set<std::string> kFuncs = {
      "time",       "clock",        "rand",         "srand",
      "rand_r",     "random",       "drand48",      "lrand48",
      "mrand48",    "srand48",      "gettimeofday", "clock_gettime",
      "timespec_get", "localtime",  "localtime_r",  "gmtime",
      "gmtime_r",   "mktime",       "ctime",        "asctime",
      "strftime",   "getrandom",    "getentropy"};
  const std::vector<Token>& t = info.lexed.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident) continue;
    const std::string& name = t[i].text;
    const bool type_hit = kTypes.contains(name);
    const bool func_hit = !type_hit && kFuncs.contains(name) &&
                          i + 1 < t.size() && t[i + 1].text == "(" &&
                          (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->"));
    if (!type_hit && !func_hit) continue;
    if (waived(info.lexed, t[i].line, "wallclock")) continue;
    emit(out, path, t[i], "R1/wallclock",
         "wall-clock/entropy source '" + name + "' outside the allowlisted shim",
         "use sim::Engine::now() for time and rill::Rng for randomness; or "
         "waive with // lint: wallclock-ok(reason)");
  }
}

void check_r2(const std::string& path, const FileInfo& info, const Scope& scope,
              std::vector<Finding>& out) {
  const std::vector<Token>& t = info.lexed.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for whose range expression names an unordered container (or an
    // accessor returning one).
    if (t[i].text == "for" && i + 1 < t.size() && t[i + 1].text == "(") {
      const std::size_t close = match_paren_fwd(t, i + 1);
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")") --depth;
        if (t[j].text == ":" && depth == 1 && t[j - 1].text != ":" &&
            (j + 1 >= t.size() || t[j + 1].text != ":")) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (t[j].kind != TokKind::Ident) continue;
        const bool var = scope.unordered_vars.contains(t[j].text);
        const bool acc = scope.unordered_accessors.contains(t[j].text) &&
                         j + 1 < close && t[j + 1].text == "(";
        if (!var && !acc) continue;
        if (waived(info.lexed, t[i].line, "unordered-iter")) break;
        emit(out, path, t[i], "R2/unordered-iter",
             "range-for over unordered container '" + t[j].text +
                 "' — bucket order is not deterministic",
             "collect and sort keys (or switch to std::map); or waive with "
             "// lint: unordered-iter-ok(reason)");
        break;
      }
      continue;
    }
    // Explicit iterator loops: container.begin() / cbegin() / rbegin().
    if (t[i].kind == TokKind::Ident && scope.unordered_vars.contains(t[i].text) &&
        i + 3 < t.size() && (t[i + 1].text == "." || t[i + 1].text == "->")) {
      const std::string& m = t[i + 2].text;
      if ((m == "begin" || m == "cbegin" || m == "rbegin" || m == "crbegin") &&
          t[i + 3].text == "(") {
        if (waived(info.lexed, t[i].line, "unordered-iter")) continue;
        emit(out, path, t[i], "R2/unordered-iter",
             "iterator over unordered container '" + t[i].text +
                 "' — bucket order is not deterministic",
             "collect and sort keys (or switch to std::map); or waive with "
             "// lint: unordered-iter-ok(reason)");
      }
    }
  }
}

/// Is this field name a size-like quantity that must stay integer-typed on
/// the report surface?  Byte totals, delta-size ratios and chain lengths are
/// exact counts — a float declaration invites lossy accumulation upstream of
/// the report boundary (the ratio belongs to the consumer, computed from its
/// integer numerator and denominator).
bool is_size_like_field(const std::string& name) {
  return name.find("bytes") != std::string::npos ||
         name.find("ratio") != std::string::npos ||
         name.find("chain") != std::string::npos;
}

void check_r3(const std::string& path, const FileInfo& info, const Scope& scope,
              std::vector<Finding>& out) {
  const std::vector<Token>& t = info.lexed.tokens;

  // Size-like fields (bytes / ratio / chain) declared float on the report
  // surface are flagged at the declaration, whether or not anything in the
  // include closure accumulates into them.
  if (info.report_surface) {
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      const std::string& name = t[i].text;
      if (name != "double" && name != "float") continue;
      if (t[i + 1].kind != TokKind::Ident) continue;
      const std::string& after = t[i + 2].text;
      if (after != ";" && after != "=" && after != "{" && after != ",")
        continue;
      if (!is_size_like_field(t[i + 1].text)) continue;
      if (waived(info.lexed, t[i].line, "float-size-field")) continue;
      emit(out, path, t[i + 1], "R3/float-size-field",
           "size-like report field '" + t[i + 1].text +
               "' declared " + name,
           "declare byte totals, delta-size ratios and chain lengths as "
           "integers; derive any ratio at the report boundary from its "
           "integer parts; or waive with // lint: float-size-field-ok(reason)");
    }
  }

  if (scope.float_fields.empty()) return;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident) continue;
    const std::string& op = t[i + 1].text;
    if (op != "+=" && op != "-=" && op != "*=" && op != "/=") continue;
    if (!scope.float_fields.contains(t[i].text)) continue;
    if (waived(info.lexed, t[i].line, "float-accum")) continue;
    emit(out, path, t[i], "R3/float-accum",
         "floating-point accumulation into report field '" + t[i].text + "'",
         "accumulate in integer units (e.g. microseconds / counts) and "
         "convert at the report boundary; or waive with "
         "// lint: float-accum-ok(reason)");
  }
}

/// R5: instrument names.  At a member call to one of the recording APIs
/// (counter / gauge / histogram / instant / begin / span_at), every string
/// literal at argument depth 1 must match [a-z0-9_.]+ and must not be an
/// operand of `+` — composed names go through the obs::names helper.
/// Depth-1-only keeps nested arg("key", ...) pairs out of scope.
bool clean_metric_name(std::string_view body) {
  if (body.empty()) return false;
  for (const char c : body) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

void check_r5(const std::string& path, const FileInfo& info,
              std::vector<Finding>& out) {
  // The one naming helper may concatenate name parts.
  if (path.starts_with("src/obs/names")) return;
  static const std::unordered_set<std::string> kInstruments = {
      "counter", "gauge", "histogram", "instant", "begin", "span_at"};
  const std::vector<Token>& t = info.lexed.tokens;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident || !kInstruments.contains(t[i].text))
      continue;
    if (t[i + 1].text != "(") continue;
    // Member calls only — `vec.begin()` never carries a depth-1 string
    // literal, but requiring a receiver keeps declarations out too.
    const std::string& recv = t[i - 1].text;
    if (recv != "." && recv != "->") continue;

    const std::size_t close = match_paren_fwd(t, i + 1);
    int depth = 0;
    for (std::size_t j = i + 1; j <= close; ++j) {
      if (t[j].text == "(") {
        ++depth;
        continue;
      }
      if (t[j].text == ")") {
        --depth;
        continue;
      }
      if (depth != 1 || t[j].kind != TokKind::String) continue;
      const std::string& lit = t[j].text;
      if (lit.size() < 2 || lit.front() != '"') continue;  // raw/char forms
      const bool concat = t[j - 1].text == "+" ||
                          (j + 1 <= close && t[j + 1].text == "+");
      if (concat) {
        if (waived(info.lexed, t[j].line, "name-concat")) continue;
        emit(out, path, t[j], "R5/name-concat",
             "instrument name assembled with '+' at the '" + t[i].text +
                 "' call site",
             "compose instrument names through the obs::names helper; or "
             "waive with // lint: name-concat-ok(reason)");
        continue;
      }
      const std::string body = lit.substr(1, lit.size() - 2);
      if (clean_metric_name(body)) continue;
      if (waived(info.lexed, t[j].line, "metric-name")) continue;
      emit(out, path, t[j], "R5/metric-name",
           "instrument name " + lit + " does not match [a-z0-9_.]+",
           "use lowercase dot/underscore-separated names (stable, grep-able, "
           "shell-safe); or waive with // lint: metric-name-ok(reason)");
    }
  }
}

// ------------------------------------------------------ class model (R6)

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Advance past one statement: everything up to and including the next
/// top-level `;`, skipping balanced (), {}, [].  Stops (without consuming)
/// at a stray `}` so a class body's end is never overrun.
std::size_t skip_statement(const std::vector<Token>& t, std::size_t i) {
  while (i < t.size()) {
    const std::string& x = t[i].text;
    if (x == "(") { i = match_paren_fwd(t, i) + 1; continue; }
    if (x == "{") { i = match_brace_fwd(t, i) + 1; continue; }
    if (x == "[") { i = match_bracket_fwd(t, i) + 1; continue; }
    if (x == ";") return i + 1;
    if (x == "}") return i;
    ++i;
  }
  return i;
}

/// After a parameter list's closing `)`, decide whether a function body
/// follows (skipping cv-qualifiers, noexcept, trailing returns and a
/// constructor init list) or the construct is a mere declaration — or not a
/// function definition at all (we hit `,` / `)` / `]` / `}` first, e.g. the
/// "call expression followed by more arguments" false pattern).
struct BodyScan {
  enum Result : std::uint8_t { Body, Decl, NotADef } result{NotADef};
  std::size_t body_open{0};  ///< index of the body `{` (Result::Body only)
  std::size_t resume{0};     ///< first token after the construct
};

BodyScan scan_after_params(const std::vector<Token>& t, std::size_t close) {
  BodyScan r;
  bool in_init = false;  // a `:` introduced a constructor init list
  std::size_t k = close + 1;
  for (int steps = 0; k < t.size() && steps < 512; ++steps) {
    const std::string& x = t[k].text;
    if (x == ")" || x == "]" || x == "}") {
      r.resume = k;
      return r;  // NotADef
    }
    if (x == ",") {
      if (!in_init) {
        r.resume = k;
        return r;  // NotADef: argument-list context
      }
      ++k;  // separator between member initializers
      continue;
    }
    if (x == "(") { k = match_paren_fwd(t, k) + 1; continue; }
    if (x == ":") { in_init = true; ++k; continue; }
    if (x == "{") {
      if (in_init && k > 0 && t[k - 1].kind == TokKind::Ident) {
        k = match_brace_fwd(t, k) + 1;  // member brace-init in the init list
        continue;
      }
      r.result = BodyScan::Body;
      r.body_open = k;
      r.resume = match_brace_fwd(t, k) + 1;
      return r;
    }
    if (x == ";") {
      r.result = BodyScan::Decl;
      r.resume = k + 1;
      return r;
    }
    if (x == "=") {  // = default / = delete / = 0 — runs to the `;`
      while (k < t.size() && t[k].text != ";") ++k;
      r.result = BodyScan::Decl;
      r.resume = k + 1;
      return r;
    }
    ++k;
  }
  r.resume = k;
  return r;
}

/// Parse one member declaration at class-body top level starting at `i`;
/// records member variables and inline method body regions on `info`.
/// Returns the index to resume at.
std::size_t parse_member(FileInfo& info, std::size_t i, std::size_t cls_idx) {
  const std::vector<Token>& t = info.lexed.tokens;
  ScanClass& cls = info.classes[cls_idx];
  const std::string& x = t[i].text;
  if ((x == "public" || x == "private" || x == "protected") &&
      i + 1 < t.size() && t[i + 1].text == ":") {
    return i + 2;
  }
  if (x == "friend" || x == "using" || x == "typedef" || x == "enum" ||
      x == "static_assert") {
    return skip_statement(t, i + 1);
  }
  if (x == "template") {
    std::size_t j = i + 1;
    if (j < t.size() && t[j].text == "<") j = match_angle_fwd(t, j) + 1;
    return j < t.size() ? parse_member(info, j, cls_idx) : j;
  }

  std::size_t j = i;
  auto record_method = [&](std::size_t paren,
                           const std::string& method) -> std::size_t {
    const std::size_t close = match_paren_fwd(t, paren);
    const BodyScan bs = scan_after_params(t, close);
    if (bs.result == BodyScan::Body) {
      info.regions.push_back({bs.body_open + 1, match_brace_fwd(t, bs.body_open),
                              cls.name, method});
      return bs.resume;
    }
    if (bs.result == BodyScan::Decl) return bs.resume;
    return close + 1;  // defensive: resume after the parens
  };

  std::ptrdiff_t last_ident = -1;
  int angle = 0;
  while (j < t.size()) {
    const std::string& y = t[j].text;
    if (y == "}") return j;  // class body end — caller pops the scope
    if (y == "[[") {
      while (j < t.size() && t[j].text != "]]") ++j;
      ++j;
      continue;
    }
    if (y == "<") { ++angle; ++j; continue; }
    if (y == "<<") { angle += 2; ++j; continue; }
    if (y == ">") { if (angle > 0) --angle; ++j; continue; }
    if (y == ">>") { angle = angle >= 2 ? angle - 2 : 0; ++j; continue; }
    if (angle > 0) { ++j; continue; }
    if (y == "operator") {
      std::size_t k = j + 1;
      for (int steps = 0; k < t.size() && t[k].text != "(" && steps < 8; ++steps)
        ++k;
      if (k + 2 < t.size() && t[k].text == "(" && t[k + 1].text == ")" &&
          t[k + 2].text == "(")
        k += 2;  // operator()
      if (k < t.size() && t[k].text == "(") return record_method(k, "operator");
      return k < t.size() ? k + 1 : k;
    }
    if (y == "(") {
      std::string method = last_ident >= 0 ? t[last_ident].text : "?";
      if (last_ident >= 1 && t[last_ident - 1].text == "~") method = "~";
      return record_method(j, method);
    }
    if (y == "=" || y == "{" || y == "[" || y == ";") {
      if (last_ident >= 0) cls.members.push_back(t[last_ident].text);
      if (y == ";") return j + 1;
      return skip_statement(t, j);
    }
    if (t[j].kind == TokKind::Ident) last_ident = static_cast<std::ptrdiff_t>(j);
    ++j;
  }
  return j;
}

/// The class scan: one linear token walk that records class/struct
/// definitions (with RILL_PINNED and members), inline method bodies, and
/// out-of-line `A::b(...) { ... }` / `A::~A() { ... }` definitions.
/// Recognized method bodies are skipped wholesale, so local structs inside
/// functions are invisible and regions never nest.
void scan_classes(FileInfo& info) {
  const std::vector<Token>& t = info.lexed.tokens;
  struct Open {
    bool is_class{false};
    std::size_t cls{0};  // index into info.classes when is_class
  };
  std::vector<Open> stack;
  std::map<std::size_t, std::size_t> class_opens;  // body "{" index → class

  std::size_t i = 0;
  while (i < t.size()) {
    const std::string& x = t[i].text;
    if (x == "{") {
      const auto it = class_opens.find(i);
      stack.push_back(it != class_opens.end() ? Open{true, it->second} : Open{});
      ++i;
      continue;
    }
    if (x == "}") {
      if (!stack.empty()) stack.pop_back();
      ++i;
      continue;
    }
    if ((x == "class" || x == "struct") && (i == 0 || t[i - 1].text != "enum")) {
      std::size_t j = i + 1;
      ScanClass c;
      if (j < t.size() && t[j].text == "RILL_PINNED") {
        c.pinned = true;
        ++j;
      }
      if (j >= t.size() || t[j].kind != TokKind::Ident) {
        ++i;
        continue;
      }
      c.name = t[j].text;
      ++j;
      if (j < t.size() && t[j].text == "final") ++j;
      if (j < t.size() && t[j].text == ":") {
        int angle = 0;
        ++j;
        while (j < t.size()) {
          const std::string& y = t[j].text;
          if (y == "<") ++angle;
          else if (y == "<<") angle += 2;
          else if (y == ">") --angle;
          else if (y == ">>") angle -= 2;
          else if (y == "{" && angle <= 0) break;
          else if (y == ";") break;  // defensive
          ++j;
        }
      }
      if (j < t.size() && t[j].text == "{") {
        class_opens.emplace(j, info.classes.size());
        info.classes.push_back(std::move(c));
        i = j;  // the "{" handler above pushes the class scope
      } else {
        i = j;  // forward declaration / template parameter — no body
      }
      continue;
    }
    if (!stack.empty() && stack.back().is_class) {
      i = parse_member(info, i, stack.back().cls);
      continue;
    }
    // Namespace/function scope: out-of-line definition `A::b(` / `A::~A(`.
    if (t[i].kind == TokKind::Ident && i + 3 < t.size() &&
        t[i + 1].text == "::") {
      std::string method;
      std::size_t paren = 0;
      if (t[i + 2].kind == TokKind::Ident && t[i + 3].text == "(") {
        method = t[i + 2].text;
        paren = i + 3;
      } else if (t[i + 2].text == "~" && i + 4 < t.size() &&
                 t[i + 3].kind == TokKind::Ident && t[i + 4].text == "(") {
        method = "~";
        paren = i + 4;
      }
      if (paren != 0) {
        const std::size_t close = match_paren_fwd(t, paren);
        const BodyScan bs = scan_after_params(t, close);
        if (bs.result == BodyScan::Body) {
          info.regions.push_back({bs.body_open + 1,
                                  match_brace_fwd(t, bs.body_open), t[i].text,
                                  method});
          i = bs.resume;  // skip the body (call sites are scanned by rules)
          continue;
        }
      }
    }
    ++i;
  }
}

/// Merged cross-TU class model, keyed by unqualified class name.
struct ClassInfo {
  bool pinned{false};
  std::set<std::string> members;
  /// Idents appearing in each method body ("~" = destructor) — the
  /// one-level call graph used for the destructor-cancels check.
  std::map<std::string, std::set<std::string>> method_idents;
};
using ClassModel = std::map<std::string, ClassInfo>;

ClassModel build_model(const std::map<std::string, FileInfo>& infos) {
  ClassModel model;
  for (const auto& [path, info] : infos) {
    for (const ScanClass& c : info.classes) {
      ClassInfo& ci = model[c.name];
      ci.pinned = ci.pinned || c.pinned;
      ci.members.insert(c.members.begin(), c.members.end());
    }
    const std::vector<Token>& t = info.lexed.tokens;
    for (const ScanRegion& r : info.regions) {
      std::set<std::string>& ids = model[r.cls].method_idents[r.method];
      for (std::size_t j = r.begin; j < r.end && j < t.size(); ++j) {
        if (t[j].kind == TokKind::Ident) ids.insert(t[j].text);
      }
    }
  }
  return model;
}

/// Does the class's destructor (directly, or through a same-class method it
/// names) both mention `member` and call something named `cancel`?  This is
/// R6's "handle held and cancelled" legality route, checked per member so a
/// destructor that cancels one timer does not launder the others.
bool dtor_cancels_member(const ClassInfo& ci, const std::string& member) {
  const auto d = ci.method_idents.find("~");
  if (d == ci.method_idents.end()) return false;
  std::set<std::string> reach = d->second;
  for (const std::string& callee : d->second) {
    const auto m = ci.method_idents.find(callee);
    if (m != ci.method_idents.end())
      reach.insert(m->second.begin(), m->second.end());
  }
  return reach.contains("cancel") && reach.contains(member);
}

/// Innermost method-body region containing token index `idx`, or nullptr.
const ScanRegion* enclosing_region(const FileInfo& info, std::size_t idx) {
  const ScanRegion* best = nullptr;
  for (const ScanRegion& r : info.regions) {
    if (idx < r.begin || idx >= r.end) continue;
    if (best == nullptr || (r.end - r.begin) < (best->end - best->begin))
      best = &r;
  }
  return best;
}

/// From the called ident at `i` (t[i-1] is "." or "->"), walk back across
/// the receiver chain (`a.b().c[k].f`) and return the index of the token
/// just before it, or kNpos at beginning of input.
std::size_t prev_before_receiver(const std::vector<Token>& t, std::size_t i) {
  std::size_t j = i - 1;
  while (t[j].text == "." || t[j].text == "->") {
    if (j == 0) return kNpos;
    --j;
    if (t[j].text == ")") {
      j = match_paren_back(t, j);
      if (j == 0) return kNpos;
      --j;
      if (t[j].kind == TokKind::Ident) {
        if (j == 0) return kNpos;
        --j;
      }
    } else if (t[j].text == "]") {
      j = match_bracket_back(t, j);
      if (j == 0) return kNpos;
      --j;
      if (t[j].kind == TokKind::Ident) {
        if (j == 0) return kNpos;
        --j;
      }
    } else if (t[j].kind == TokKind::Ident) {
      if (j == 0) return kNpos;
      --j;
    } else {
      break;
    }
  }
  return j;
}

void check_r6(const std::string& path, const FileInfo& info,
              const ClassModel& model, std::vector<Finding>& out) {
  // Handle-returning schedulers: the "member handle + destructor cancel"
  // legality route applies only to these.
  static const std::unordered_set<std::string> kHandleSchedulers = {
      "schedule", "schedule_at"};
  // Every API whose lambda arguments R6 checks: the handle schedulers, the
  // fire-and-forget ones (no handle to cancel, so a raw-`this`/by-ref
  // capture needs RILL_PINNED or a waiver) and the net/kvstore
  // completion-callback APIs.
  static const std::unordered_set<std::string> kCallbackApis = {
      "schedule", "schedule_at", "schedule_detached", "schedule_at_detached",
      "send", "send_between_slots", "put", "get", "put_batch", "get_batch",
      "del_batch", "put_pipelined"};
  const std::vector<Token>& t = info.lexed.tokens;

  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::Ident || !kCallbackApis.contains(t[i].text))
      continue;
    if (t[i + 1].text != "(") continue;
    const std::string& recv = t[i - 1].text;
    if (recv != "." && recv != "->") continue;
    const std::size_t close = match_paren_fwd(t, i + 1);

    const ScanRegion* reg = enclosing_region(info, i);
    const ClassInfo* encl = nullptr;
    if (reg != nullptr) {
      const auto it = model.find(reg->cls);
      if (it != model.end()) encl = &it->second;
    }

    // Legality route (a): the returned handle is stored into a member of
    // the enclosing class whose destructor cancels that member.
    bool handle_held = false;
    if (kHandleSchedulers.contains(t[i].text) && encl != nullptr) {
      const std::size_t p = prev_before_receiver(t, i);
      if (p != kNpos && p >= 1 && t[p].text == "=" &&
          t[p - 1].kind == TokKind::Ident &&
          encl->members.contains(t[p - 1].text) &&
          dtor_cancels_member(*encl, t[p - 1].text)) {
        handle_held = true;
      }
    }

    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      const std::string& y = t[j].text;
      if (y == "(") { ++depth; continue; }
      if (y == ")") { --depth; continue; }
      // Lambda introducer at argument depth 1 of *this* call (nested calls
      // claim their own lambdas at their own depth-1 scan).
      if (y != "[" || depth != 1) continue;
      if (t[j - 1].text != "(" && t[j - 1].text != ",") continue;
      const std::size_t rb = match_bracket_fwd(t, j);
      if (rb + 1 >= t.size()) continue;
      const std::string& after = t[rb + 1].text;
      if (after != "(" && after != "{" && after != "mutable") continue;

      std::vector<std::string> bad;
      for (std::size_t k = j + 1; k < rb; ++k) {
        const std::string& ct = t[k].text;
        if (ct == "this" && t[k - 1].text != "*") {
          bad.emplace_back("this");
        } else if (ct == "&") {
          const std::string& nx = t[k + 1].text;
          if (nx == "," || nx == "]") bad.emplace_back("[&]");
          else if (t[k + 1].kind == TokKind::Ident) bad.emplace_back("&" + nx);
        }
      }
      if (bad.empty()) continue;
      bool only_this = true;
      for (const std::string& b : bad) {
        if (b != "this") only_this = false;
      }
      if (handle_held) continue;
      // Legality route (b): a bare `this` capture in a class that declares
      // (auditable, in one place) that it outlives the event loop.
      if (only_this && encl != nullptr && encl->pinned) continue;
      if (waived(info.lexed, t[j].line, "lifetime") ||
          waived(info.lexed, t[i].line, "lifetime"))
        continue;
      std::string caps;
      for (const std::string& b : bad) {
        if (!caps.empty()) caps += ", ";
        caps += b;
      }
      emit(out, path, t[j], "R6/callback-lifetime",
           "callback passed to '" + t[i].text + "' captures " + caps +
               " with no lifetime guarantee",
           "store the returned TimerId in a member cancelled by the "
           "destructor, annotate the owning class RILL_PINNED "
           "(src/common/pinned.hpp) if it provably outlives the event loop, "
           "or waive with // lint: lifetime-ok(reason)");
    }
  }
}

}  // namespace

std::vector<Finding> run(const std::vector<SourceFile>& files,
                         const Options& opts) {
  // Pass 1: lex, index and class-scan every file.  The map keeps the files
  // in path order, whatever the input order, so everything below runs in
  // a deterministic order.
  std::map<std::string, FileInfo> infos;
  for (const SourceFile& f : files) {
    const auto [it, fresh] = infos.try_emplace(f.path);
    if (!fresh) continue;
    FileInfo& info = it->second;
    info.lexed = lex(f.content);
    info.report_surface = is_report_surface(f.path);
    index_file(info);
    scan_classes(info);
  }

  // Include-closure edges: resolve quoted includes against src/, the scan
  // root, and the including file's own directory.
  std::unordered_map<std::string, std::vector<std::string>> edges;
  for (const auto& [path, info] : infos) {
    for (const std::string& inc : info.lexed.quoted_includes) {
      for (const std::string& cand :
           {std::string("src/") + inc, inc,
            dirname_of(path).empty() ? inc : dirname_of(path) + "/" + inc}) {
        if (cand != path && infos.contains(cand)) {
          edges[path].push_back(cand);
          break;
        }
      }
    }
  }

  // Cross-TU class model for R6, merged in sorted file order.
  const ClassModel model = build_model(infos);

  // Pass 2: per file, union declarations over its include closure (BFS),
  // then run the rules.
  std::vector<Finding> findings;
  for (const auto& [path, info] : infos) {
    Scope scope;
    std::vector<std::string> queue{path};
    std::unordered_set<std::string> seen{path};
    while (!queue.empty()) {
      const std::string cur = std::move(queue.back());
      queue.pop_back();
      const FileInfo& ci = infos.at(cur);
      scope.unordered_vars.insert(ci.unordered_vars.begin(),
                                  ci.unordered_vars.end());
      scope.unordered_accessors.insert(ci.unordered_accessors.begin(),
                                       ci.unordered_accessors.end());
      scope.float_fields.insert(ci.float_fields.begin(), ci.float_fields.end());
      const auto e = edges.find(cur);
      if (e == edges.end()) continue;
      for (const std::string& next : e->second) {
        if (seen.insert(next).second) queue.push_back(next);
      }
    }
    check_r1(path, info, opts, findings);
    check_r2(path, info, scope, findings);
    check_r3(path, info, scope, findings);
    check_r5(path, info, findings);
    check_r6(path, info, model, findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace rill::lint

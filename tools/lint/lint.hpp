// rill_lint — determinism & protocol-safety static analyzer.
//
// A lightweight tokenizer + rule engine (no libclang) that scans the Rill
// tree for the classes of bugs that silently corrupt the repro's headline
// guarantee — byte-identical traces and reports across runs:
//
//   R1 wallclock       wall-clock / entropy sources (std::chrono clocks,
//                      rand(), std::random_device, time(), ...) anywhere
//                      outside the allowlisted shim (src/common/ by
//                      default).  All time must come from sim::Engine and
//                      all randomness from rill::Rng.
//   R2 unordered-iter  range-for / begin() iteration over
//                      std::unordered_map / std::unordered_set.  Bucket
//                      order is an stdlib implementation detail; anything
//                      order-sensitive (trace emission, scheduling,
//                      metrics rollup) must go through sorted keys or
//                      std::map.
//   R3 float-accum     float/double compound accumulation (+=, -=, *=, /=)
//                      into trace/report-surface fields.  FP accumulation
//                      is evaluation-order sensitive; reordering a loop
//                      changes report bytes.
//   R5 metric-name     instrument name literals (counter / gauge /
//                      histogram / instant / begin / span_at call sites)
//                      must match [a-z0-9_.]+, and names must never be
//                      assembled with ad-hoc `+` concatenation — composed
//                      names go through the obs::names helper (the
//                      allowlisted src/obs/names.* files), so the name
//                      grammar lives in one place.
//   R6 callback-lifetime  a lambda passed to Engine::schedule /
//                      schedule_at / schedule_detached / schedule_at_detached
//                      (or to a net/kvstore completion-callback API) must
//                      not capture raw `this` or anything by reference,
//                      unless (a) the call returns a TimerId that the
//                      statement stores into a member of the enclosing
//                      class AND that class's destructor cancels it
//                      (directly or through one same-class method call),
//                      (b) the capture is exactly `this` and the enclosing
//                      class is annotated RILL_PINNED (see
//                      src/common/pinned.hpp — a one-place, auditable
//                      claim that the object outlives every callback it
//                      schedules), or (c) the site carries a
//                      `// lint: lifetime-ok(<reason>)` waiver.
//
// The numbering skips R4: a discarded [[nodiscard]] result is a compile
// error (the build passes -Werror=unused-result), which the compiler
// checks by type, not by name.
//
// Waivers: a statement may opt out with a comment on the same line or up
// to three lines above it:
//
//   // lint: unordered-iter-ok(<reason>)
//   // lint: wallclock-ok(<reason>)
//   // lint: float-accum-ok(<reason>)
//   // lint: float-size-field-ok(<reason>)
//   // lint: metric-name-ok(<reason>)
//   // lint: name-concat-ok(<reason>)
//   // lint: lifetime-ok(<reason>)
//
// The reason is mandatory — an empty waiver is itself a finding.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rill::lint {

// ---------------------------------------------------------------- tokens

enum class TokKind : std::uint8_t { Ident, Number, Punct, String, Char };

struct Token {
  TokKind kind{TokKind::Punct};
  std::string text;
  int line{1};
  int col{1};
};

struct LexedFile {
  std::vector<Token> tokens;
  /// Comment text per line (concatenated; both // and /* */), for waivers.
  std::map<int, std::string> comments;
  /// Targets of #include "..." directives (quoted form only).
  std::vector<std::string> quoted_includes;
};

/// Tokenize C++ source: skips whitespace, comments (recorded per line),
/// string/char literals (recorded as single tokens) and preprocessor
/// directives (recorded when they are quoted includes).
[[nodiscard]] LexedFile lex(const std::string& source);

// -------------------------------------------------------------- findings

struct Finding {
  std::string file;
  int line{0};
  int col{0};
  std::string rule;     ///< "R1/wallclock", "R2/unordered-iter", ...
  std::string message;
  std::string hint;
};

struct Options {
  /// Path prefixes (relative, '/'-separated) exempt from R1 — the
  /// deterministic time/rng shim lives here.
  std::vector<std::string> wallclock_allowlist{"src/common/"};
};

/// One input file: path is repo-relative with '/' separators.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Run all rules over `files`.  Pass every file the analysis should know
/// about (declarations are indexed across the whole set and joined to use
/// sites through the quoted-include graph; the class model for R6 is
/// merged across the whole set by class name).
[[nodiscard]] std::vector<Finding> run(const std::vector<SourceFile>& files,
                                       const Options& opts = {});

}  // namespace rill::lint

// Golden-fixture tests for rill_lint (tools/lint).  Each violating fixture
// asserts the exact rule id and line; the clean and waived fixtures assert
// silence.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace rill::lint {
namespace {

std::string fixture(const std::string& name) {
  const std::string path = std::string(RILL_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> lint_one(const std::string& name) {
  return run({{name, fixture(name)}});
}

bool has(const std::vector<Finding>& fs, const std::string& rule, int line) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

TEST(Lexer, SkipsStringsAndComments) {
  const LexedFile lx = lex(
      "int a = 1; // rand() in a comment\n"
      "const char* s = \"std::rand()\"; /* time() too */\n");
  for (const Token& t : lx.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "time");
  }
  ASSERT_TRUE(lx.comments.contains(1));
  EXPECT_NE(lx.comments.at(1).find("rand()"), std::string::npos);
}

TEST(Lexer, RecordsQuotedIncludesOnly) {
  const LexedFile lx = lex(
      "#include <vector>\n"
      "#include \"dsps/acker.hpp\"\n"
      "int x;\n");
  ASSERT_EQ(lx.quoted_includes.size(), 1u);
  EXPECT_EQ(lx.quoted_includes[0], "dsps/acker.hpp");
  // Directive lines emit no tokens.
  ASSERT_FALSE(lx.tokens.empty());
  EXPECT_EQ(lx.tokens[0].text, "int");
}

TEST(Lexer, TracksLineAndColumn) {
  const LexedFile lx = lex("ab\n  cd\n");
  ASSERT_EQ(lx.tokens.size(), 2u);
  EXPECT_EQ(lx.tokens[1].line, 2);
  EXPECT_EQ(lx.tokens[1].col, 3);
}

TEST(RillLint, R1WallclockFixture) {
  const auto fs = lint_one("r1_wallclock.cpp");
  EXPECT_TRUE(has(fs, "R1/wallclock", 8)) << "steady_clock";
  EXPECT_TRUE(has(fs, "R1/wallclock", 10)) << "rand";
  EXPECT_EQ(fs.size(), 2u);
}

TEST(RillLint, R1AllowlistSilencesTheShim) {
  // The same content under the allowlisted prefix produces no findings.
  const auto fs = run({{"src/common/wallclock_shim.cpp",
                        fixture("r1_wallclock.cpp")}});
  EXPECT_TRUE(fs.empty());
}

TEST(RillLint, R2UnorderedIterFixture) {
  const auto fs = lint_one("r2_unordered.cpp");
  EXPECT_TRUE(has(fs, "R2/unordered-iter", 12)) << "range-for";
  EXPECT_TRUE(has(fs, "R2/unordered-iter", 17)) << ".begin()";
  EXPECT_EQ(fs.size(), 2u);
}

TEST(RillLint, R2FlagsRootTableIteration) {
  const auto fs = lint_one("r2_root_table.cpp");
  EXPECT_TRUE(has(fs, "R2/unordered-iter", 13)) << "range-for";
  EXPECT_EQ(fs.size(), 1u);
}

TEST(RillLint, R2DeclarationJoinsAcrossIncludes) {
  // routes_ is declared in table_fixture.hpp; the iteration in
  // r2_closure.cpp is only caught if the include closure joins them.
  const auto fs = run({{"r2_closure.cpp", fixture("r2_closure.cpp")},
                       {"table_fixture.hpp", fixture("table_fixture.hpp")}});
  EXPECT_TRUE(has(fs, "R2/unordered-iter", 9));
  EXPECT_EQ(fs.size(), 1u);
}

TEST(RillLint, R3FloatAccumFixture) {
  const auto fs = lint_one("r3_report_fields.cpp");
  EXPECT_TRUE(has(fs, "R3/float-accum", 10));
  EXPECT_EQ(fs.size(), 1u);
}

TEST(RillLint, R3IgnoresFilesOffTheReportSurface) {
  // Same content, filename without report/trace/obs/metrics: no findings.
  const auto fs = run({{"r3_elsewhere.cpp", fixture("r3_report_fields.cpp")}});
  EXPECT_TRUE(fs.empty());
}

TEST(RillLint, R3SizeFieldFixture) {
  const auto fs = lint_one("r3_size_report.cpp");
  EXPECT_TRUE(has(fs, "R3/float-size-field", 8)) << "double bytes";
  EXPECT_TRUE(has(fs, "R3/float-size-field", 9)) << "float ratio";
  EXPECT_TRUE(has(fs, "R3/float-size-field", 10)) << "double chain";
  EXPECT_EQ(fs.size(), 3u)
      << "integer size fields, non-size floats and the waived field "
         "must stay silent";
}

TEST(RillLint, R3SizeFieldIgnoredOffTheReportSurface) {
  const auto fs = run({{"r3_elsewhere.cpp", fixture("r3_size_report.cpp")}});
  EXPECT_TRUE(fs.empty());
}

TEST(RillLint, R5NamesFixture) {
  const auto fs = lint_one("r5_names.cpp");
  EXPECT_TRUE(has(fs, "R5/metric-name", 8)) << "uppercase + dash";
  EXPECT_TRUE(has(fs, "R5/metric-name", 9)) << "embedded space";
  EXPECT_TRUE(has(fs, "R5/name-concat", 10)) << "literal + expr";
  EXPECT_TRUE(has(fs, "R5/name-concat", 11)) << "expr + literal";
  EXPECT_EQ(fs.size(), 4u)
      << "clean literals, waived lines and non-literal names must stay "
         "silent";
}

TEST(RillLint, R5AllowlistSilencesTheNamingHelper) {
  // The same content under the helper prefix produces no findings.
  const auto fs = run({{"src/obs/names.cpp", fixture("r5_names.cpp")}});
  EXPECT_TRUE(fs.empty());
}

TEST(RillLint, R5IgnoresArgKeysAtDepthTwo) {
  // Keys of nested arg("Key", ...) pairs sit at paren depth 2 and are not
  // instrument names.
  const auto fs = run({{"x.cpp",
                        "void f(T* tr) {\n"
                        "  tr->instant(track, \"cat\", \"name\",\n"
                        "              {arg(\"CamelKey\", 1)});\n"
                        "}\n"}});
  EXPECT_TRUE(fs.empty());
}

TEST(RillLint, CleanFixtureIsClean) {
  EXPECT_TRUE(lint_one("clean.cpp").empty());
}

TEST(RillLint, WaiversSilenceEveryRule) {
  EXPECT_TRUE(lint_one("waived_trace.cpp").empty());
}

TEST(RillLint, WaiverWithoutReasonDoesNotCount) {
  const auto fs = run({{"x.cpp",
                        "void f() {\n"
                        "  // lint: wallclock-ok()\n"
                        "  long t = time(nullptr);\n"
                        "  (void)t;\n"
                        "}\n"}});
  EXPECT_TRUE(has(fs, "R1/wallclock", 3));
}

// --------------------------------------------------------------------- R6

TEST(RillLint, R6LifetimeFixture) {
  const auto fs = lint_one("r6_lifetime.cpp");
  EXPECT_TRUE(has(fs, "R6/callback-lifetime", 9)) << "this, detached, unpinned";
  EXPECT_TRUE(has(fs, "R6/callback-lifetime", 18)) << "handle held in a local";
  EXPECT_TRUE(has(fs, "R6/callback-lifetime", 22)) << "&counter";
  EXPECT_TRUE(has(fs, "R6/callback-lifetime", 23)) << "[&]";
  EXPECT_TRUE(has(fs, "R6/callback-lifetime", 32)) << "get_batch, this";
  EXPECT_TRUE(has(fs, "R6/callback-lifetime", 35)) << "del_batch, &done";
  EXPECT_EQ(fs.size(), 6u);
}

TEST(RillLint, R6CleanFixtureIsClean) {
  // Member-held handle + dtor cancel, RILL_PINNED, and by-value captures
  // are all legal routes.
  EXPECT_TRUE(lint_one("r6_clean.cpp").empty());
}

TEST(RillLint, R6WaiverSilences) {
  EXPECT_TRUE(lint_one("r6_waived.cpp").empty());
}

TEST(RillLint, R6DtorCancelMustReachTheMember) {
  // The destructor cancels a *different* member's handle: the schedule
  // into pending_ stays illegal.  This is the shape of the real
  // CheckpointCoordinator init-timer bug.
  const auto fs = run({{"x.cpp",
                        "struct H {\n"
                        "  Engine& eng_;\n"
                        "  TimerId pending_;\n"
                        "  TimerId other_;\n"
                        "  ~H() { eng_.cancel(other_); }\n"
                        "  void arm() {\n"
                        "    pending_ = eng_.schedule(5, [this] { poke(); });\n"
                        "  }\n"
                        "  void poke();\n"
                        "};\n"}});
  EXPECT_TRUE(has(fs, "R6/callback-lifetime", 7));
}

// ---------------------------------------------------------- full-tree gate

std::vector<SourceFile> load_tree() {
  namespace fs = std::filesystem;
  const fs::path root(RILL_SOURCE_DIR);
  std::vector<SourceFile> files;
  for (const char* dir : {"src", "bench", "tools"}) {
    for (const auto& e : fs::recursive_directory_iterator(root / dir)) {
      if (!e.is_regular_file()) continue;
      const std::string ext = e.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      std::ifstream in(e.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      files.push_back({fs::relative(e.path(), root).generic_string(),
                       buf.str()});
    }
  }
  return files;
}

TEST(RillLint, FullTreeIsCleanUnderAllRules) {
  const std::vector<Finding> fs = run(load_tree());
  for (const Finding& f : fs) {
    ADD_FAILURE() << f.file << ":" << f.line << " " << f.rule << " "
                  << f.message;
  }
  EXPECT_TRUE(fs.empty());
}

}  // namespace
}  // namespace rill::lint

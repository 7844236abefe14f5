/**
 * @file
 * Golden-fixture tests for every wavedyn-lint rule: each known-bad
 * snippet in tests/lint/fixtures/ is copied into a synthetic repo at
 * a path where its rule applies, and must trip exactly that rule the
 * expected number of times. A completeness check pins the table to
 * allRuleIds(), so adding a rule without a fixture fails here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/driver.hh"

namespace fs = std::filesystem;

namespace wavedyn::lint
{
namespace
{

const char *kFixtureDir = WAVEDYN_SOURCE_DIR "/tests/lint/fixtures";

/** The layering/scope config the fixtures are written against. */
LintConfig
fixtureConfig()
{
    LintConfig cfg;
    cfg.roots = {"src"};
    cfg.moduleRank = {{"util", 0}, {"telemetry", 1}, {"core", 6},
                      {"campaign", 8}};
    cfg.telemetryMayInclude = {"util"};
    // All rules unscoped: they apply everywhere in the synthetic repo.
    return cfg;
}

class LintFixtureTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root = fs::temp_directory_path() /
               ("wavedyn-lint-test-" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)));
        fs::remove_all(root);
        fs::create_directories(root);
    }

    void TearDown() override { fs::remove_all(root); }

    /** Copy fixtures/@p fixture into the synthetic repo at @p rel. */
    void place(const std::string &fixture, const std::string &rel)
    {
        fs::path dst = root / rel;
        fs::create_directories(dst.parent_path());
        fs::copy_file(fs::path(kFixtureDir) / fixture, dst);
    }

    LintResult lint(const std::vector<std::string> &paths)
    {
        return lintPaths(fixtureConfig(), root.string(), paths);
    }

    fs::path root;
};

struct FixtureCase
{
    const char *fixture; //!< file under tests/lint/fixtures/
    const char *place;   //!< where the rule applies in the repo
    const char *rule;    //!< the one rule-id it must trip
    int count;           //!< exact number of violations
};

// One known-bad snippet per rule-id. determinism-unordered trips
// twice because the angled #include line is itself flagged; the
// crash-safety fixtures each contain two distinct offenses.
const FixtureCase kCases[] = {
    {"determinism-rand.cc", "src/core/bad_rand.cc",
     "determinism-rand", 1},
    {"determinism-clock.cc", "src/core/bad_clock.cc",
     "determinism-clock", 1},
    {"determinism-unordered.cc", "src/core/bad_unordered.cc",
     "determinism-unordered", 2},
    {"layering.cc", "src/util/bad_layer.cc", "layering", 1},
    {"layering-unknown-module.cc", "src/mystery/bad.cc",
     "layering-unknown-module", 1},
    {"layering-telemetry.cc", "src/telemetry/bad.cc",
     "layering-telemetry", 1},
    {"crash-safety-write.cc", "src/core/bad_write.cc",
     "crash-safety-write", 2},
    {"crash-safety-cloexec.cc", "src/core/bad_open.cc",
     "crash-safety-cloexec", 2},
    {"hygiene-header-guard.hh", "src/util/bad_guard.hh",
     "hygiene-header-guard", 1},
    {"hygiene-using-namespace.hh", "src/util/bad_using.hh",
     "hygiene-using-namespace", 1},
    {"hygiene-unused-suppression.cc", "src/core/bad_sup.cc",
     "hygiene-unused-suppression", 1},
};

TEST_F(LintFixtureTest, EveryKnownBadFixtureTripsExactlyItsRule)
{
    for (const FixtureCase &c : kCases) {
        SCOPED_TRACE(c.fixture);
        place(c.fixture, c.place);
        LintResult r = lint({c.place});
        EXPECT_EQ(r.filesScanned, 1u);
        ASSERT_EQ(r.violations.size(), static_cast<std::size_t>(c.count));
        for (const Violation &v : r.violations) {
            EXPECT_EQ(v.rule, c.rule) << formatViolation(v);
            EXPECT_EQ(v.file, c.place);
            EXPECT_GT(v.line, 0u);
        }
    }
}

TEST(LintFixtureTable, CoversEveryRuleId)
{
    std::set<std::string> covered;
    for (const FixtureCase &c : kCases)
        covered.insert(c.rule);
    for (const std::string &id : allRuleIds())
        EXPECT_TRUE(covered.count(id))
            << "rule '" << id << "' has no known-bad fixture";
}

TEST_F(LintFixtureTest, InlineSuppressionsSilenceRealViolations)
{
    // suppressed-ok.cc holds a real ofstream and a real rand() call,
    // each covered by an allow() — same-line and line-above forms.
    place("suppressed-ok.cc", "src/core/ok.cc");
    LintResult r = lint({"src/core/ok.cc"});
    for (const Violation &v : r.violations)
        ADD_FAILURE() << formatViolation(v);
    EXPECT_EQ(r.filesScanned, 1u);
}

TEST_F(LintFixtureTest, ViolationFormatIsClickable)
{
    place("determinism-rand.cc", "src/core/bad_rand.cc");
    LintResult r = lint({"src/core/bad_rand.cc"});
    ASSERT_EQ(r.violations.size(), 1u);
    std::string line = formatViolation(r.violations[0]);
    EXPECT_EQ(line.rfind("src/core/bad_rand.cc:8: determinism-rand: ", 0),
              0u)
        << line;
}

TEST_F(LintFixtureTest, ScopeAndAllowListsLimitRules)
{
    place("determinism-clock.cc", "src/core/bad_clock.cc");
    place("determinism-clock.cc", "src/telemetry/clock_ok.cc");
    LintConfig cfg = fixtureConfig();
    cfg.rules["determinism-clock"].paths = {"src/"};
    cfg.rules["determinism-clock"].allow = {"src/telemetry/"};
    LintResult r = lintPaths(cfg, root.string(), {"src"});
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_EQ(r.violations[0].file, "src/core/bad_clock.cc");
    EXPECT_EQ(r.filesScanned, 2u);
}

TEST_F(LintFixtureTest, ExcludePrefixSkipsFilesEntirely)
{
    place("determinism-rand.cc", "src/core/bad_rand.cc");
    place("determinism-rand.cc", "src/core/fixtures/skip_me.cc");
    LintConfig cfg = fixtureConfig();
    cfg.exclude = {"src/core/fixtures/"};
    LintResult r = lintTree(cfg, root.string());
    EXPECT_EQ(r.filesScanned, 1u);
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_EQ(r.violations[0].file, "src/core/bad_rand.cc");
}

TEST_F(LintFixtureTest, MissingScanRootIsAnError)
{
    LintConfig cfg = fixtureConfig();
    cfg.roots = {"no-such-dir"};
    EXPECT_THROW(lintTree(cfg, root.string()), std::runtime_error);
    EXPECT_THROW(lint({"no/such/file.cc"}), std::runtime_error);
}

TEST_F(LintFixtureTest, OutputIsDeterministicAcrossRuns)
{
    place("determinism-rand.cc", "src/core/bad_rand.cc");
    place("crash-safety-write.cc", "src/core/bad_write.cc");
    place("hygiene-header-guard.hh", "src/util/bad_guard.hh");
    auto render = [&] {
        std::ostringstream os;
        for (const Violation &v : lintTree(fixtureConfig(),
                                           root.string())
                                      .violations)
            os << formatViolation(v) << '\n';
        return os.str();
    };
    std::string a = render(), b = render();
    EXPECT_EQ(a, b);
    // Sorted by (file, line, rule): core files precede util.
    EXPECT_LT(a.find("bad_rand.cc"), a.find("bad_guard.hh"));
}

} // namespace
} // namespace wavedyn::lint

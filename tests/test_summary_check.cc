/**
 * @file
 * Tests for the stronger-property summary-check hook
 * (analysis/summary_check.h): integrating the escape-count rule into
 * RID's pipeline as the paper's Sections 2.1 / 4.5 describe.
 */

#include <gtest/gtest.h>

#include "analysis/summary_check.h"
#include "core/rid.h"
#include "pyc/pyc_specs.h"

namespace rid {
namespace {

RunResult
runWithRule(const std::string &source, bool check_arguments = false)
{
    analysis::AnalyzerOptions opts;
    analysis::EscapeRuleOptions rule;
    rule.check_arguments = check_arguments;
    opts.summary_check = analysis::makeEscapeRuleCheck(rule);
    Rid tool(opts);
    tool.loadSpecText(pyc::pycSpecText());
    tool.addSource(source);
    return tool.run();
}

RunResult
runPlain(const std::string &source)
{
    Rid tool;
    tool.loadSpecText(pyc::pycSpecText());
    tool.addSource(source);
    return tool.run();
}

// Uniform over-increment: every path leaks one count; no IPP exists,
// but the escape rule fires on the [0].rc delta of +2.
const char *kUniformLeak = R"(
struct obj *make(long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return NULL;
    Py_INCREF(item);
    return item;
}
)";

TEST(SummaryCheck, UniformLeakMissedByIppCaughtByRule)
{
    EXPECT_TRUE(runPlain(kUniformLeak).reports.empty());
    RunResult result = runWithRule(kUniformLeak);
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_EQ(result.reports[0].function, "make");
    EXPECT_EQ(result.reports[0].delta_a, 2);   // measured
    EXPECT_EQ(result.reports[0].delta_b, 1);   // expected by the rule
}

TEST(SummaryCheck, ReturnedNewReferenceIsClean)
{
    RunResult result = runWithRule(R"(
struct obj *make(long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return NULL;
    return item;
}
)");
    EXPECT_TRUE(result.reports.empty());
}

TEST(SummaryCheck, DeadObjectLeakAlwaysReportedBySomeLayer)
{
    // One error path leaks a dead object. The IPP layer reports the
    // inconsistency; the escape rule checks the post-drop function
    // summary (Section 4.5), so whether it fires too depends on which
    // entry of the pair survived. The drop keeps the entry carrying the
    // counter's only witness, the leaky one, so both layers report.
    const char *source = R"(
struct obj *make(long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return NULL;
    if (use(item) < 0)
        return NULL;
    return item;
}
int use(struct obj *o);
)";
    analysis::AnalyzerOptions opts;
    opts.summary_check = analysis::makeEscapeRuleCheck();
    Rid tool(opts);
    tool.loadSpecText(pyc::pycSpecText());
    tool.addSource(source);
    EXPECT_EQ(tool.run().reports.size(), 2u);
}

TEST(SummaryCheck, StealingIdiomIsTheRulesBlindSpot)
{
    // Ownership moves into the container; the dead-temp +1 violates the
    // naive rule (a known false positive of the stronger property —
    // Section 2.1's reason cpychecker needs attributes).
    RunResult plain = runPlain(R"(
int push(struct obj *list, long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return -1;
    return PyList_SetItem(list, 0, item);
}
)");
    RunResult ruled = runWithRule(R"(
int push(struct obj *list, long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return -1;
    return PyList_SetItem(list, 0, item);
}
)");
    // Both layers report here: RID's IPP (+1 vs 0 overlap) and the rule.
    EXPECT_GE(ruled.reports.size(), plain.reports.size());
}

TEST(SummaryCheck, ArgumentCheckingFlagsUniformArgIncrement)
{
    const char *source = R"(
void set_error(struct obj *type, struct obj *value) {
    PyErr_SetObject(type, value);
}
)";
    EXPECT_TRUE(runWithRule(source, false).reports.empty());
    RunResult strict = runWithRule(source, true);
    EXPECT_EQ(strict.reports.size(), 2u);  // [type].rc and [value].rc
}

TEST(SummaryCheck, PredefinedAndDefaultSummariesExempt)
{
    summary::FunctionSummary predefined;
    predefined.function = "api";
    predefined.is_predefined = true;
    summary::SummaryEntry e;
    e.changes[smt::Expr::field(smt::Expr::arg("o"), "rc")] = 1;
    predefined.entries.push_back(e);
    EXPECT_TRUE(analysis::escapeRuleViolations(
                    predefined, analysis::EscapeRuleOptions{true})
                    .empty());

    summary::FunctionSummary dflt =
        summary::FunctionSummary::defaultFor("f", true);
    EXPECT_TRUE(analysis::escapeRuleViolations(dflt).empty());
}

TEST(SummaryCheck, RuleReportsCarryContext)
{
    RunResult result = runWithRule(kUniformLeak);
    ASSERT_EQ(result.reports.size(), 1u);
    EXPECT_NE(result.reports[0].cons_b.find("escape rule"),
              std::string::npos);
    EXPECT_EQ(result.reports[0].refcount, "[0].rc");
}

} // anonymous namespace
} // namespace rid

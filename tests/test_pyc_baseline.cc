/**
 * @file
 * Tests for the Python/C corpus, the Figure 7 specs and the
 * Cpychecker-style baseline (pyc/, baseline/).
 */

#include <gtest/gtest.h>

#include "baseline/cpychecker.h"
#include "core/rid.h"
#include "frontend/lower.h"
#include "frontend/parser.h"
#include "pyc/pyc_generator.h"
#include "pyc/pyc_specs.h"
#include "summary/spec.h"

namespace rid {
namespace {

std::vector<baseline::BaselineReport>
runBaseline(const std::string &source, baseline::CpycheckerOptions opts = {})
{
    baseline::Cpychecker checker(pyc::pycApiAttrs(), opts);
    ir::Module m = frontend::compile(source);
    return checker.checkModule(m);
}

size_t
runRid(const std::string &source)
{
    Rid tool;
    tool.loadSpecText(pyc::pycSpecText());
    tool.addSource(source);
    return tool.run().reports.size();
}

TEST(PycSpecs, ParseAndCoverFigure7Apis)
{
    auto parsed = summary::parseSpecText(pyc::pycSpecText()).summaries;
    std::set<std::string> names;
    for (const auto &p : parsed)
        names.insert(p.summary.function);
    for (const char *api :
         {"Py_INCREF", "Py_DECREF", "Py_BuildValue", "PyList_New",
          "PyInt_FromLong", "PyList_GetItem", "PyErr_SetObject",
          "PyList_SetItem"}) {
        EXPECT_TRUE(names.count(api)) << api;
    }
}

TEST(PycSpecs, ConstructorsHaveSuccessAndFailureEntries)
{
    auto parsed = summary::parseSpecText(pyc::pycSpecText()).summaries;
    for (const auto &p : parsed) {
        if (p.summary.function == "PyList_New") {
            ASSERT_EQ(p.summary.entries.size(), 2u);
            EXPECT_FALSE(p.summary.entries[0].changes.empty());
            EXPECT_TRUE(p.summary.entries[1].changes.empty());
        }
    }
}

TEST(PycSpecs, AttrsConsistentWithSummaries)
{
    const auto &attrs = pyc::pycApiAttrs();
    EXPECT_TRUE(attrs.at("PyList_New").returns_new_ref);
    EXPECT_TRUE(attrs.at("PyList_GetItem").returns_borrowed);
    EXPECT_EQ(attrs.at("PyList_SetItem").steals_args,
              (std::vector<int>{2}));
    EXPECT_EQ(attrs.at("Py_INCREF").arg_delta.at(0), 1);
    EXPECT_EQ(attrs.at("Py_DECREF").arg_delta.at(0), -1);
}

TEST(Baseline, SimpleLeakDetected)
{
    auto reports = runBaseline(R"(
struct obj *f(long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return NULL;
    if (check(item) < 0)
        return NULL;
    return item;
}
int check(struct obj *o);
)");
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].function, "f");
    EXPECT_EQ(reports[0].variable, "item");
    EXPECT_EQ(reports[0].refs, 1);
    EXPECT_EQ(reports[0].expected, 0);
}

TEST(Baseline, BalancedCodeClean)
{
    auto reports = runBaseline(R"(
struct obj *f(long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return NULL;
    if (check(item) < 0) {
        Py_DECREF(item);
        return NULL;
    }
    return item;
}
int check(struct obj *o);
)");
    EXPECT_TRUE(reports.empty());
}

TEST(Baseline, NullPathExempt)
{
    // On the allocation-failure path nothing is held; the bare
    // `return NULL` must not be flagged.
    auto reports = runBaseline(R"(
struct obj *f(long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return NULL;
    return item;
}
)");
    EXPECT_TRUE(reports.empty());
}

TEST(Baseline, StolenReferenceIsEscape)
{
    auto reports = runBaseline(R"(
int f(struct obj *list, long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return -1;
    return PyList_SetItem(list, 0, item);
}
)");
    EXPECT_TRUE(reports.empty());
}

TEST(Baseline, BorrowedReferenceExempt)
{
    auto reports = runBaseline(R"(
struct obj *f(struct obj *list, long idx) {
    struct obj *item;
    item = PyList_GetItem(list, idx);
    if (item == NULL)
        return NULL;
    Py_INCREF(item);
    return item;
}
)");
    EXPECT_TRUE(reports.empty());
}

TEST(Baseline, UniformOverIncrementDetected)
{
    auto reports = runBaseline(R"(
struct obj *f(long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return NULL;
    Py_INCREF(item);
    return item;
}
)");
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].refs, 2);
    EXPECT_EQ(reports[0].expected, 1);
}

TEST(Baseline, MultipleAssignmentBailsWithoutSsa)
{
    const char *src = R"(
struct obj *f(long a, long b) {
    struct obj *obj;
    obj = PyInt_FromLong(a);
    if (obj == NULL)
        return NULL;
    Py_DECREF(obj);
    obj = PyInt_FromLong(b);
    if (obj == NULL)
        return NULL;
    if (use(obj) < 0)
        return NULL;
    return obj;
}
int use(struct obj *o);
)";
    EXPECT_TRUE(runBaseline(src).empty());  // non-SSA: silent

    baseline::CpycheckerOptions opts;
    opts.ssa_renaming = true;
    EXPECT_FALSE(runBaseline(src, opts).empty());  // ablation: found
}

TEST(Baseline, RidDetectsTheReassignmentLeak)
{
    // The same code: RID's per-path symbolic values see through the
    // reassignment (Section 6.6).
    EXPECT_EQ(runRid(R"(
struct obj *f(long a, long b) {
    struct obj *obj;
    obj = PyInt_FromLong(a);
    if (obj == NULL)
        return NULL;
    Py_DECREF(obj);
    obj = PyInt_FromLong(b);
    if (obj == NULL)
        return NULL;
    if (use(obj) < 0)
        return NULL;
    return obj;
}
int use(struct obj *o);
)"),
              1u);
}

TEST(Baseline, RidMissesUniformLeak)
{
    // No inconsistent pair when every path leaks equally.
    EXPECT_EQ(runRid(R"(
struct obj *f(long v) {
    struct obj *item;
    item = PyInt_FromLong(v);
    if (item == NULL)
        return NULL;
    Py_INCREF(item);
    return item;
}
)"),
              0u);
}

TEST(Baseline, ArgumentCheckingFlagsKernelWrapper)
{
    std::map<std::string, pyc::ApiAttr> attrs;
    attrs["pm_runtime_get_sync"].arg_delta = {{0, 1}};
    attrs["pm_runtime_put_sync"].arg_delta = {{0, -1}};
    const char *wrapper = R"(
int autopm_get(struct intf *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    return status;
}
)";
    baseline::CpycheckerOptions off;
    baseline::Cpychecker plain(attrs, off);
    EXPECT_TRUE(
        plain.checkModule(frontend::compile(wrapper)).empty());

    baseline::CpycheckerOptions on;
    on.check_arguments = true;
    baseline::Cpychecker strict(attrs, on);
    EXPECT_FALSE(
        strict.checkModule(frontend::compile(wrapper)).empty());
}

TEST(PycGenerator, ProgramsMatchTable2Mix)
{
    auto programs = pyc::paperPrograms();
    ASSERT_EQ(programs.size(), 3u);
    auto count = [](const pyc::PycProgram &p, pyc::PycBugClass c) {
        int n = 0;
        for (const auto &t : p.truth)
            if (t.bug_class == c)
                n++;
        return n;
    };
    EXPECT_EQ(count(programs[0], pyc::PycBugClass::Common), 48);
    EXPECT_EQ(count(programs[0], pyc::PycBugClass::RidOnly), 86);
    EXPECT_EQ(count(programs[0], pyc::PycBugClass::BaselineOnly), 14);
    EXPECT_EQ(count(programs[1], pyc::PycBugClass::Common), 7);
    EXPECT_EQ(count(programs[2], pyc::PycBugClass::Common), 31);
}

TEST(PycGenerator, SourcesParse)
{
    for (const auto &program : pyc::paperPrograms())
        EXPECT_NO_THROW(frontend::parseUnit(program.source))
            << program.name;
}

TEST(PycGenerator, Deterministic)
{
    auto a = pyc::generateProgram("x-1.0", pyc::PycMix{2, 2, 1, 3}, 5);
    auto b = pyc::generateProgram("x-1.0", pyc::PycMix{2, 2, 1, 3}, 5);
    EXPECT_EQ(a.source, b.source);
}

TEST(PycGenerator, PerClassDetectionHolds)
{
    // Each planted class behaves as designed against both tools.
    auto program =
        pyc::generateProgram("t-1.0", pyc::PycMix{5, 5, 5, 10}, 3);

    Rid tool;
    tool.loadSpecText(pyc::pycSpecText());
    tool.addSource(program.source);
    std::set<std::string> rid_hits;
    for (const auto &report : tool.run().reports)
        rid_hits.insert(report.function);

    baseline::Cpychecker checker(pyc::pycApiAttrs());
    std::set<std::string> base_hits;
    for (const auto &report :
         checker.checkModule(frontend::compile(program.source)))
        base_hits.insert(report.function);

    for (const auto &truth : program.truth) {
        bool r = rid_hits.count(truth.name) != 0;
        bool b = base_hits.count(truth.name) != 0;
        switch (truth.bug_class) {
          case pyc::PycBugClass::Common:
            EXPECT_TRUE(r && b) << truth.name;
            break;
          case pyc::PycBugClass::RidOnly:
            EXPECT_TRUE(r && !b) << truth.name;
            break;
          case pyc::PycBugClass::BaselineOnly:
            EXPECT_TRUE(!r && b) << truth.name;
            break;
          case pyc::PycBugClass::None:
            EXPECT_FALSE(b) << truth.name;
            if (!truth.rid_fp_expected) {
                EXPECT_FALSE(r) << truth.name;
            }
            break;
        }
    }
}

} // anonymous namespace
} // namespace rid

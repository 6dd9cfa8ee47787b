/**
 * @file
 * Unit tests for the prefix-sharing tree executor and its supporting
 * data structures: the copy-on-write value map (analysis/cow.h), the
 * persistent path-condition chain (smt/cond_chain.h) plus its
 * Solver::checkChain contract, the executeFunctionTree output against
 * the paper's enumerate-then-replay engine's recorded output (inline for
 * hand-written functions; tests/golden/tree_exec_entries.golden for
 * every function of the determinism corpus after a full run), the
 * blocks/forks/pruned counters, and
 * the feasible-only truncation semantics (with pruning enabled,
 * max_paths counts only feasible completed paths and the truncation
 * diagnostic says how many infeasible subtrees were pruned).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cow.h"
#include "analysis/paths.h"
#include "analysis/symexec.h"
#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "smt/cond_chain.h"
#include "smt/query_cache.h"
#include "smt/solver.h"
#include "summary/inst_cache.h"
#include "summary/spec.h"

namespace rid {
namespace {

using analysis::CowMap;
using smt::CondChain;
using smt::Expr;
using smt::Formula;
using smt::Pred;
using smt::SatResult;
using smt::Solver;

// ---------------------------------------------------------------- CowMap

TEST(CowMap, SetLookupAndShadowing)
{
    CowMap<std::string, int> m;
    EXPECT_EQ(m.lookup("x"), nullptr);
    m.set("x", 1);
    ASSERT_NE(m.lookup("x"), nullptr);
    EXPECT_EQ(*m.lookup("x"), 1);
    m.set("x", 2);  // rebinding shadows, never erases
    EXPECT_EQ(*m.lookup("x"), 2);
    EXPECT_EQ(m.size(), 1u);
}

TEST(CowMap, FreezeSharesBindingsBetweenForks)
{
    CowMap<std::string, int> parent;
    parent.set("a", 1);
    parent.set("b", 2);
    parent.freeze();
    CowMap<std::string, int> child = parent;  // O(1): shared frozen chain

    child.set("b", 3);  // only touches the child's overlay
    EXPECT_EQ(*parent.lookup("b"), 2);
    EXPECT_EQ(*child.lookup("b"), 3);
    EXPECT_EQ(*child.lookup("a"), 1);  // read through the shared layer

    auto flat = child.flattened();
    EXPECT_EQ(flat.size(), 2u);
    EXPECT_EQ(flat.at("a"), 1);
    EXPECT_EQ(flat.at("b"), 3);
}

TEST(CowMap, DeepChainsCompactAndStayCorrect)
{
    using IntMap = CowMap<int, int>;
    IntMap m;
    for (int i = 0; i < 4 * IntMap::kCompactDepth; i++) {
        m.set(i, i);
        m.set(0, i);  // keep rebinding one key across layers
        m.freeze();
    }
    // Compaction bounds the frozen chain well below the write count.
    EXPECT_LE(m.depth(), IntMap::kCompactDepth);
    // The newest binding still wins after flattening.
    int last = 4 * IntMap::kCompactDepth - 1;
    EXPECT_EQ(*m.lookup(0), last);
    EXPECT_EQ(*m.lookup(last), last);
    EXPECT_EQ(m.size(), static_cast<size_t>(last + 1));
}

// -------------------------------------------------------------- CondChain

Formula
lit(const char *a, Pred p, int64_t k)
{
    return Formula::lit(Expr::cmp(p, Expr::arg(a), Expr::intConst(k)));
}

TEST(CondChain, FormulaMatchesConjOfParts)
{
    // The equivalence contract: formula() is structurally identical to
    // Formula::conj of the raw parts in push order — True parts dropped,
    // duplicate conjuncts deduplicated, same fingerprint (so the solver
    // query cache keys match a batch-built conjunction's).
    int tag_a = 0, tag_b = 0;
    CondChain chain;
    chain = chain.extended(&tag_a, lit("x", Pred::Gt, 5));
    chain = chain.extended(&tag_a, Formula::top());      // dropped
    chain = chain.extended(&tag_b, lit("y", Pred::Lt, 3));
    chain = chain.extended(&tag_b, lit("x", Pred::Gt, 5));  // dedup

    Formula batch = Formula::conj({lit("x", Pred::Gt, 5), Formula::top(),
                                   lit("y", Pred::Lt, 3),
                                   lit("x", Pred::Gt, 5)});
    EXPECT_TRUE(chain.formula().equals(batch));
    EXPECT_EQ(chain.formula().fingerprint(), batch.fingerprint());
    // The duplicate raw part is retained (withoutSource must be able to
    // replay it) but contributes no conjunct: dedup is per flattened
    // child, exactly as Formula::conj's first-occurrence dedup.
    EXPECT_EQ(chain.depth(), 3);
    EXPECT_EQ(chain.parts().size(), 3u);
}

TEST(CondChain, WithoutSourceReplacesTaggedParts)
{
    // A re-executed branch (loop unrolled once) replaces its earlier
    // condition: withoutSource drops every part with the branch's tag
    // and leaves the rest byte-identical.
    int branch = 0, call = 0;
    CondChain chain;
    chain = chain.extended(&branch, lit("x", Pred::Gt, 5));
    chain = chain.extended(&call, lit("y", Pred::Lt, 3));
    chain = chain.extended(&branch, lit("z", Pred::Eq, 1));

    CondChain without = chain.withoutSource(&branch);
    EXPECT_TRUE(without.formula().equals(
        Formula::conj({lit("y", Pred::Lt, 3)})));

    // Absent tag: no rebuild, same conjunction.
    int absent = 0;
    EXPECT_EQ(chain.withoutSource(&absent).formula().fingerprint(),
              chain.formula().fingerprint());
}

TEST(CondChain, FalsePartLatchesUntilRemoved)
{
    int tag = 0, other = 0;
    CondChain chain;
    chain = chain.extended(&other, lit("x", Pred::Gt, 5));
    EXPECT_FALSE(chain.isFalse());
    chain = chain.extended(&tag, Formula::bottom());
    EXPECT_TRUE(chain.isFalse());
    EXPECT_TRUE(chain.formula().isFalse());
    CondChain revived = chain.withoutSource(&tag);
    EXPECT_FALSE(revived.isFalse());
    EXPECT_TRUE(revived.formula().equals(
        Formula::conj({lit("x", Pred::Gt, 5)})));
}

TEST(CondChain, CheckChainMatchesCheckVerdictAndStats)
{
    // checkChain must reproduce check(formula()) exactly: verdict AND
    // statistics (queries, theory checks, disjunction branches), so
    // incremental checking changes nothing under fuel budgets.
    std::vector<std::vector<Formula>> cases = {
        {},                                            // trivially true
        {lit("x", Pred::Gt, 5), lit("x", Pred::Lt, 10)},   // sat
        {lit("x", Pred::Gt, 5), lit("x", Pred::Lt, 3)},    // unsat
        {Formula::disj({lit("x", Pred::Lt, 0), lit("x", Pred::Gt, 10)}),
         lit("x", Pred::Gt, 3)},                       // pending Or
        {lit("x", Pred::Gt, 5), Formula::bottom()},    // latched False
    };
    int tag = 0;
    for (const auto &parts : cases) {
        CondChain chain;
        for (const auto &p : parts)
            chain = chain.extended(&tag, p);
        Solver batch, incremental;
        SatResult want = batch.check(chain.formula());
        SatResult got = incremental.checkChain(chain);
        EXPECT_EQ(got, want) << chain.formula().str();
        EXPECT_EQ(incremental.stats().queries, batch.stats().queries);
        EXPECT_EQ(incremental.stats().theory_checks,
                  batch.stats().theory_checks);
        EXPECT_EQ(incremental.stats().branches, batch.stats().branches);
    }
}

// ------------------------------------------- tree-vs-replay equivalence
//
// The expected entries below and in tests/golden/tree_exec_entries.golden
// are the output of the paper's enumerate-then-replay engine (one
// symbolic execution per enumerated path), recorded while it still lived
// beside the tree walk and the two agreed entry for entry.

const char *kSpec = R"(
summary pm_get(dev) -> int {
  entry { cons: true; change: [dev].pm += 1; return: [0]; }
}
summary pm_put(dev) -> int {
  entry { cons: true; change: [dev].pm -= 1; return: [0]; }
}
)";

/** One tree walk of @p fn, optionally through a shared query cache and
 *  a shared instantiation cache (none by default). */
analysis::TreeExecResult
runTree(const ir::Function &fn, const summary::SummaryDb &db,
        std::shared_ptr<smt::QueryCache> query_cache = nullptr,
        summary::InstCache *inst_cache = nullptr)
{
    Solver solver;
    solver.attachCache(std::move(query_cache));
    analysis::TreeExecOptions opts;
    opts.inst_cache = inst_cache;
    return analysis::executeFunctionTree(fn, db, solver, opts);
}

std::vector<std::string>
treeEntries(const analysis::TreeExecResult &tree)
{
    std::vector<std::string> out;
    for (const auto &p : tree.completed)
        for (const auto &e : p.entries)
            out.push_back(e.str());
    return out;
}

/** A shared straight-line prefix, two independent diamonds, DPM calls
 *  on one side: 4 feasible paths, every prefix block shared. */
const char *kBranchySource = R"(
int branchy(struct device *dev, int a, int b) {
    int r;
    int s;
    r = 0;
    s = 1;
    r = s + 1;
    s = r + a;
    if (a > 0)
        r = pm_get(dev);
    if (b > 0)
        r = pm_put(dev);
    return r + s;
}
)";

/** Correlated branches: the second condition contradicts the first, so
 *  one of the four structural paths is infeasible and its subtree is
 *  prunable at the branch. */
const char *kCorrelatedSource = R"(
int correlated(struct device *dev, int a) {
    int r;
    r = 0;
    if (a > 0)
        r = pm_get(dev);
    if (a < 0)
        r = pm_put(dev);
    return r;
}
)";

/** Replay's entries for kBranchySource, one per path. */
const std::vector<std::string> kBranchyEntries = {
    "cons: [a] > 0 && [b] > 0; changes: (none); return: [0]",
    "cons: [a] > 0 && [b] <= 0; changes: [dev].pm:+1; return: [0]",
    "cons: [a] <= 0 && [b] > 0; changes: [dev].pm:-1; return: [0]",
    "cons: [a] <= 0 && [b] <= 0; changes: (none); return: [0]",
};

/** Replay's entries for kCorrelatedSource: the a > 0 && a < 0 path
 *  has no model and contributes none. */
const std::vector<std::string> kCorrelatedEntries = {
    "cons: [a] > 0 && [a] >= 0; changes: [dev].pm:+1; return: [0]",
    "cons: [a] <= 0 && [a] < 0; changes: [dev].pm:-1; return: [0]",
    "cons: [a] <= 0 && [a] >= 0 && [0] == 0; changes: (none); return: 0",
};

class TreeExecTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        summary::loadSpecsInto(kSpec, db_);
    }

    const ir::Function *
    compile(const char *source, const char *name)
    {
        module_ = frontend::compile(source);
        const ir::Function *fn = module_.find(name);
        EXPECT_NE(fn, nullptr);
        return fn;
    }

    ir::Module module_;
    summary::SummaryDb db_;
};

TEST_F(TreeExecTest, MatchesReplayOnBranchyFunction)
{
    const ir::Function *fn = compile(kBranchySource, "branchy");
    auto tree = runTree(*fn, db_);
    EXPECT_EQ(treeEntries(tree), kBranchyEntries);
    EXPECT_FALSE(tree.truncated);
    EXPECT_EQ(tree.completed.size(), 4u);
}

TEST_F(TreeExecTest, SharesPrefixBlocksAndCountsForks)
{
    // Replay steps every block of every path, so on this function, whose
    // paths are all feasible, it steps the sum of the path lengths. The
    // tree walk steps every CFG-tree edge exactly once, so it must
    // execute strictly fewer blocks while producing the same entries.
    const ir::Function *fn = compile(kBranchySource, "branchy");
    auto tree = runTree(*fn, db_);
    uint64_t replay_blocks = 0;
    for (const auto &path : analysis::enumeratePaths(*fn, 100).paths)
        replay_blocks += path.blocks.size();
    EXPECT_GT(tree.blocks_executed, 0u);
    EXPECT_LT(tree.blocks_executed, replay_blocks);
    EXPECT_GT(tree.forks, 0u);  // both diamonds fork the state set
    EXPECT_EQ(tree.subtrees_pruned, 0u);  // all four paths feasible
}

TEST_F(TreeExecTest, PrunesContradictedSubtrees)
{
    const ir::Function *fn = compile(kCorrelatedSource, "correlated");
    auto tree = runTree(*fn, db_);
    // Replay's entries — pruning only skips work that could never
    // produce one (a > 0 && a < 0 has no model).
    EXPECT_EQ(treeEntries(tree), kCorrelatedEntries);
    EXPECT_GT(tree.subtrees_pruned, 0u);
    // Only the three feasible paths complete.
    EXPECT_EQ(tree.completed.size(), 3u);
}

// ------------------------------------------ corpus-wide differential

/** Figure 9 of the paper; with the calibrated corpus below it forms the
 *  determinism suite's corpus (test_analyzer_determinism.cc). */
const char *kFigure9Source = R"(
int usb_autopm_get_interface(struct usb_interface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
int idmouse_open(struct usb_interface *interface) {
    int result;
    result = usb_autopm_get_interface(interface);
    if (result)
        goto error;
    result = idmouse_create_image(interface);
    if (result)
        goto error;
    usb_autopm_put_interface(interface);
error:
    return result;
}
int idmouse_create_image(struct usb_interface *i);
void usb_autopm_put_interface(struct usb_interface *i);
)";

TEST(TreeExecDifferential, MatchesReplayOnEveryFunctionOfTheCorpus)
{
    // After a default run over the determinism corpus, every defined
    // function must produce, against the run's final summary database,
    // the entries the per-path replay engine produced, in the same order
    // and with the same truncation flag. Each golden record is a line
    // `function <name> truncated <0|1> entries <n>` followed by the n
    // entries' SummaryEntry::str(). A function whose structural paths
    // exceed the cap is not in the golden: there the enumerator counts
    // infeasible paths against the cap and the tree walk does not (see
    // TreeExecTruncation below). The walk runs twice: with no caches,
    // and with one query cache and one instantiation cache shared across
    // every function, as the analyzer shares them, so the golden pins
    // both caches as pure memoization.
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kFigure9Source);
    auto corpus =
        kernel::generateCorpus(kernel::CorpusMix::paperCalibrated(0.001));
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    RunResult result = tool.run();
    const summary::SummaryDb &db = tool.summaries();

    std::ifstream in(RID_TEST_GOLDEN_DIR "/tree_exec_entries.golden",
                     std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file";
    std::ostringstream golden;
    golden << in.rdbuf();

    auto query_cache = std::make_shared<smt::QueryCache>();
    summary::InstCache inst_cache;
    for (bool cached : {false, true}) {
        SCOPED_TRACE(cached ? "shared caches" : "no caches");
        std::string got;
        size_t compared = 0, with_entries = 0;
        for (const auto &fn : tool.module().functions()) {
            if (fn->isDeclaration() || db.hasPredefined(fn->name()))
                continue;
            if (analysis::enumeratePaths(*fn, 100).truncated)
                continue;
            auto tree = cached ? runTree(*fn, db, query_cache, &inst_cache)
                               : runTree(*fn, db);
            std::vector<std::string> entries = treeEntries(tree);
            got += "function " + std::string(fn->name()) + " truncated " +
                   (tree.truncated ? "1" : "0") + " entries " +
                   std::to_string(entries.size()) + "\n";
            for (const auto &e : entries)
                got += e + "\n";
            compared++;
            if (!entries.empty())
                with_entries++;
        }
        if (got != golden.str()) {
            // Name the first record that differs rather than dumping both.
            std::istringstream g(golden.str()), t(got);
            std::string gl, tl, function;
            for (int line = 1; std::getline(g, gl) && std::getline(t, tl);
                 line++) {
                if (tl.rfind("function ", 0) == 0)
                    function = tl;
                if (gl != tl) {
                    ADD_FAILURE() << "line " << line << " (" << function
                                  << "): got '" << tl << "', golden '" << gl
                                  << "'";
                    break;
                }
            }
            ADD_FAILURE() << "tree walk differs from the golden: "
                          << got.size() << " bytes vs "
                          << golden.str().size();
        }
        // Non-vacuity: at least every function the run analyzed was
        // compared.
        EXPECT_GE(compared, result.stats.functions_analyzed);
        EXPECT_GT(with_entries, 0u);
    }
    EXPECT_GT(result.stats.functions_analyzed, 0u);
    // The shared caches were exercised, not just attached.
    EXPECT_GT(query_cache->stats().hits, 0u);
    EXPECT_GT(inst_cache.stats().hits, 0u);
}

// --------------------------------- feasible-only truncation semantics

RunResult
runAnalyzer(const std::string &source, analysis::AnalyzerOptions opts)
{
    Rid tool(opts);
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(source);
    return tool.run();
}

/** n correlated `if (a > 0)` diamonds: 2^n structural paths but only 2
 *  feasible ones (all-taken / none-taken). */
std::string
correlatedDiamonds(int n)
{
    std::string source = "int corr(struct device *dev, int a) {\n"
                         "    int r = 0;\n";
    for (int i = 0; i < n; i++)
        source += "    if (a > 0)\n        r = r + 1;\n";
    source += "    pm_runtime_get_noresume(dev);\n"
              "    pm_runtime_put_noidle(dev);\n"
              "    return r;\n}\n";
    return source;
}

TEST(TreeExecTruncation, PathCapCountsOnlyFeasiblePaths)
{
    // With pruning enabled, max_paths is spent on feasible completed
    // paths only. 16 structural paths trip a 4-path cap in the path
    // enumerator, but the tree walk prunes the 14 contradicted subtrees
    // and completes the 2 feasible paths without ever touching the cap.
    std::string source = correlatedDiamonds(4);

    ir::Module mod = frontend::compile(source);
    const ir::Function *fn = mod.find("corr");
    ASSERT_NE(fn, nullptr);
    EXPECT_TRUE(analysis::enumeratePaths(*fn, 4).truncated);

    analysis::AnalyzerOptions opts;
    opts.max_paths = 4;
    RunResult result = runAnalyzer(source, opts);
    EXPECT_EQ(result.stats.functions_truncated, 0u);
    EXPECT_EQ(result.stats.paths_enumerated, 2u);
    EXPECT_TRUE(result.reports.empty());
}

TEST(TreeExecTruncation, CapHitDiagnosticReportsPrunedSubtrees)
{
    // Monotone thresholds a>0, a>1, ...: 2^10 structural paths, 11
    // feasible ones. A 4-path cap genuinely fires on feasible paths,
    // and the diagnostic must say how many infeasible subtrees were
    // pruned before the cap was reached — distinguishing "cap hit"
    // from "cap hit after pruning".
    std::string source = "int wide(struct device *dev, int a) {\n"
                         "    int r = 0;\n";
    for (int i = 0; i < 10; i++)
        source += "    if (a > " + std::to_string(i) + ")\n        r = " +
                  std::to_string(i) + ";\n";
    source += "    pm_runtime_get_noresume(dev);\n"
              "    pm_runtime_put_noidle(dev);\n"
              "    return r;\n}\n";

    analysis::AnalyzerOptions opts;
    opts.max_paths = 4;
    RunResult result = runAnalyzer(source, opts);
    EXPECT_EQ(result.stats.functions_truncated, 1u);
    EXPECT_GT(result.stats.subtrees_pruned, 0u);
    EXPECT_GT(result.stats.state_forks, 0u);
    EXPECT_GT(result.stats.blocks_executed, 0u);

    bool found = false;
    for (const auto &d : result.diagnostics) {
        if (d.function != "wide")
            continue;
        found = true;
        EXPECT_EQ(d.status, analysis::FnStatus::Truncated);
        EXPECT_NE(d.reason.find("after pruning"), std::string::npos)
            << d.reason;
        EXPECT_NE(d.reason.find("infeasible subtrees"), std::string::npos)
            << d.reason;
    }
    EXPECT_TRUE(found);
}

} // anonymous namespace
} // namespace rid

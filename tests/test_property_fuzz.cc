/**
 * @file
 * Property and robustness tests across the whole pipeline:
 *
 *  - random Kernel-C programs must lower to verifiable IR, enumerate
 *    bounded paths and analyze without crashing, regardless of shape;
 *  - randomly generated summaries must round-trip through the spec
 *    language unchanged;
 *  - analysis results must be independent of file ordering and thread
 *    count.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "analysis/paths.h"
#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "kernel/inject.h"
#include "kernel/score.h"
#include "summary/spec.h"

namespace rid {
namespace {

/** Generates random Kernel-C functions from a small statement grammar. */
class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed) : rng_(seed) {}

    std::string
    function(int index)
    {
        std::ostringstream os;
        vars_ = 0;
        os << "int fuzz" << index << "(struct device *dev, int a, int b) "
           << "{\n";
        os << body(3);
        os << "    return 0;\n}\n";
        return os.str();
    }

  private:
    std::string
    freshVar()
    {
        return "v" + std::to_string(vars_++);
    }

    std::string
    expr()
    {
        switch (rng_() % 8) {
          case 0: return "a";
          case 1: return "b";
          case 2: return std::to_string(static_cast<int>(rng_() % 7) - 3);
          case 3: return "a + b";
          case 4: return "dev->state";
          case 5: return "a & 4";
          case 6: return "probe(dev)";
          default:
            return vars_ > 0
                       ? "v" + std::to_string(rng_() % vars_)
                       : "a";
        }
    }

    std::string
    cond()
    {
        const char *ops[] = {"<", "<=", ">", ">=", "==", "!="};
        std::string c = expr() + " " + ops[rng_() % 6] + " " + expr();
        if (rng_() % 4 == 0)
            c = "!(" + c + ")";
        if (rng_() % 4 == 0)
            c += (rng_() % 2 ? " && " : " || ") + cond_simple();
        return c;
    }

    std::string
    cond_simple()
    {
        const char *ops[] = {"<", ">", "=="};
        return expr() + " " + ops[rng_() % 3] + " " + expr();
    }

    std::string
    statement(int depth)
    {
        switch (rng_() % 8) {
          case 0: {
            std::string v = freshVar();
            return "    int " + v + " = " + expr() + ";\n";
          }
          case 1:
            return "    pm_runtime_get_noresume(dev);\n";
          case 2:
            return "    pm_runtime_put_noidle(dev);\n";
          case 3:
            if (depth > 0) {
                std::string s = "    if (" + cond() + ") {\n" +
                                body(depth - 1) + "    }\n";
                if (rng_() % 2)
                    s += "    else {\n" + body(depth - 1) + "    }\n";
                return s;
            }
            return "    work(dev);\n";
          case 4:
            if (depth > 0) {
                return "    while (" + cond_simple() + ") {\n" +
                       body(depth - 1) + "    }\n";
            }
            return "    work(dev);\n";
          case 5:
            return "    if (" + cond_simple() + ")\n        return " +
                   std::to_string(static_cast<int>(rng_() % 5) - 2) +
                   ";\n";
          case 6:
            return "    dev->state = " + expr() + ";\n";
          default:
            return "    work(dev);\n";
        }
    }

    std::string
    body(int depth)
    {
        std::string out;
        size_t n = 1 + rng_() % 3;
        for (size_t i = 0; i < n; i++)
            out += statement(depth);
        return out;
    }

    std::mt19937_64 rng_;
    int vars_ = 0;
};

class PipelineFuzzTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(PipelineFuzzTest, RandomProgramsAnalyzeCleanly)
{
    ProgramGen gen(GetParam());
    std::string source = "int probe(struct device *dev);\n"
                         "void work(struct device *dev);\n";
    for (int i = 0; i < 20; i++)
        source += gen.function(i);

    // Lowering must produce verifiable IR (verify() throws IrError on
    // bad IR, which fails the test).
    ir::Module module = frontend::compile(source);
    for (const auto &fn : module.functions()) {
        if (fn->isDeclaration())
            continue;
        fn->verify();
        // Path enumeration respects the cap and the unroll-once rule.
        auto paths = analysis::enumeratePaths(*fn, 64);
        EXPECT_LE(paths.paths.size(), 64u);
        for (const auto &path : paths.paths) {
            std::map<ir::BlockId, int> visits;
            for (auto b : path.blocks)
                EXPECT_LE(++visits[b], 2) << fn->name();
        }
    }

    // The full analysis must terminate without crashing and be
    // deterministic.
    auto analyze = [&]() {
        Rid tool;
        tool.loadSpecText(kernel::dpmSpecText());
        tool.addSource(source);
        RunResult result = tool.run();
        std::string digest;
        for (const auto &report : result.reports)
            digest += report.str() + "\n";
        return digest;
    };
    EXPECT_EQ(analyze(), analyze());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

class ExtensionFuzzTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(ExtensionFuzzTest, ExtensionsNeverAddReportsOnRandomPrograms)
{
    // The Section 5.4 extensions only make paths MORE distinguishable,
    // so they can only remove reports, never add them (per function).
    ProgramGen gen(GetParam() * 31);
    std::string source = "int probe(struct device *dev);\n"
                         "void work(struct device *dev);\n";
    for (int i = 0; i < 12; i++)
        source += gen.function(i);

    auto reportedSet = [&](bool bits, bool stores) {
        frontend::LowerOptions lower;
        lower.model_bit_tests = bits;
        lower.model_field_stores = stores;
        Rid tool({}, lower);
        tool.loadSpecText(kernel::dpmSpecText());
        tool.addSource(source);
        std::set<std::string> out;
        for (const auto &report : tool.run().reports)
            out.insert(report.function);
        return out;
    };

    auto baseline = reportedSet(false, false);
    for (auto [bits, stores] :
         {std::pair{true, false}, {false, true}, {true, true}}) {
        auto extended = reportedSet(bits, stores);
        for (const auto &fn : extended) {
            EXPECT_TRUE(baseline.count(fn))
                << "extension invented a report in " << fn;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

class SummaryRoundTripTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SummaryRoundTripTest, RandomSummariesSurviveSerialization)
{
    std::mt19937_64 rng(GetParam());
    using smt::Expr;
    using smt::Formula;
    using smt::Pred;

    auto randomAtom = [&rng]() -> Expr {
        switch (rng() % 4) {
          case 0: return Expr::arg("a" + std::to_string(rng() % 3));
          case 1: return Expr::ret();
          case 2:
            return Expr::field(Expr::arg("a" + std::to_string(rng() % 3)),
                               "f" + std::to_string(rng() % 3));
          default:
            return Expr::temp("t" + std::to_string(rng() % 3));
        }
    };
    auto randomLit = [&]() {
        Pred preds[] = {Pred::Eq, Pred::Ne, Pred::Lt,
                        Pred::Le, Pred::Gt, Pred::Ge};
        Expr rhs = rng() % 2
                       ? Expr::intConst(static_cast<int64_t>(rng() % 9) - 4)
                       : randomAtom();
        return Formula::lit(
            Expr::cmp(preds[rng() % 6], randomAtom(), rhs));
    };

    for (int round = 0; round < 50; round++) {
        summary::FunctionSummary s;
        s.function = "fn" + std::to_string(round);
        s.params = {"a0", "a1", "a2"};
        s.returns_value = rng() % 2 == 0;
        size_t entries = 1 + rng() % 3;
        for (size_t e = 0; e < entries; e++) {
            summary::SummaryEntry entry;
            std::vector<Formula> parts;
            size_t lits = rng() % 3;
            for (size_t l = 0; l < lits; l++)
                parts.push_back(randomLit());
            entry.cons = rng() % 4 == 0 && parts.size() >= 2
                             ? Formula::disj(parts)
                             : Formula::conj(parts);
            size_t changes = rng() % 3;
            for (size_t c = 0; c < changes; c++) {
                entry.changes[Expr::field(randomAtom(), "rc")] +=
                    static_cast<int>(rng() % 5) - 2;
            }
            entry.normalizeChanges();
            if (rng() % 3 == 0)
                entry.stores.insert(Expr::field(randomAtom(), "head"));
            if (s.returns_value)
                entry.ret = rng() % 2 ? Expr::ret() : Expr::intConst(0);
            s.entries.push_back(std::move(entry));
        }

        std::string text = summary::serializeSummary(s);
        auto parsed = summary::parseSpecText(text).summaries;
        ASSERT_EQ(parsed.size(), 1u) << text;
        const auto &back = parsed[0].summary;
        ASSERT_EQ(back.entries.size(), s.entries.size()) << text;
        for (size_t e = 0; e < s.entries.size(); e++) {
            EXPECT_TRUE(back.entries[e].cons.equals(s.entries[e].cons))
                << text;
            EXPECT_EQ(back.entries[e].changes, s.entries[e].changes)
                << text;
            EXPECT_EQ(back.entries[e].stores.size(),
                      s.entries[e].stores.size())
                << text;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryRoundTripTest,
                         ::testing::Values(11, 22, 33, 44, 55));

class InjectionFuzzTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(InjectionFuzzTest, ScoresStayInRangeUnderRandomClaims)
{
    // Fuzz the injection recipes over generator seeds, then throw
    // adversarial claim sets at the scorer: whatever a tool claims,
    // scores must stay in range — recall and precision in [0, 1], no
    // negative counts, tp + fn exactly the injection count.
    uint64_t seed = GetParam();
    auto mix = kernel::CorpusMix::cleanCalibrated(0.02);
    auto plan = kernel::InjectionPlan::calibrated(mix);
    auto injected = kernel::generateInjectedCorpus(mix, plan, seed);
    const int n = static_cast<int>(injected.injections.size());

    // Engine accounting closes: every attempt is applied or rejected,
    // and every applied injection is logged with consistent truth.
    EXPECT_EQ(injected.stats.attempted,
              injected.stats.applied + injected.stats.rejected_rewrite +
                  injected.stats.rejected_unviable);
    EXPECT_EQ(injected.stats.applied, n);
    EXPECT_GT(n, 0);
    for (const auto &inj : injected.injections) {
        const auto *truth = injected.corpus.truthFor(inj.function);
        ASSERT_NE(truth, nullptr) << inj.function;
        EXPECT_TRUE(truth->injected) << inj.function;
        EXPECT_TRUE(truth->has_bug) << inj.function;
        EXPECT_EQ(truth->domain, inj.domain) << inj.function;
    }

    std::mt19937_64 rng(seed * 7919 + 1);
    const char *domains[] = {"", "ref", "lock", "alloc"};
    std::vector<kernel::ReportClaim> claims;
    for (const auto &inj : injected.injections) {
        // Random subset of the injected functions, sometimes claimed in
        // the wrong domain, sometimes twice.
        if (rng() % 2)
            claims.push_back({inj.function, domains[rng() % 4]});
        if (rng() % 4 == 0)
            claims.push_back({inj.function, domains[rng() % 4]});
    }
    for (size_t i = 0; i < injected.corpus.truth.size();
         i += 1 + rng() % 97) {
        claims.push_back(
            {injected.corpus.truth[i].name, domains[rng() % 4]});
    }
    for (int i = 0; i < 25; i++) {
        claims.push_back(
            {"ghost_" + std::to_string(rng() % 40), domains[rng() % 4]});
    }

    auto score = kernel::scoreReports(injected.injections,
                                      injected.corpus.truth, claims);
    EXPECT_GE(score.total.tp, 0);
    EXPECT_GE(score.total.fp, 0);
    EXPECT_GE(score.total.fn, 0);
    EXPECT_LE(score.total.tp, n);
    EXPECT_EQ(score.total.tp + score.total.fn, n);
    EXPECT_GE(score.total.precision(), 0.0);
    EXPECT_LE(score.total.precision(), 1.0);
    EXPECT_GE(score.total.recall(), 0.0);
    EXPECT_LE(score.total.recall(), 1.0);
    // The clean mix seeds no pattern bugs or FP-inducers, so nothing
    // can land in those buckets no matter what is claimed.
    EXPECT_EQ(score.pattern_bug_hits, 0);
    EXPECT_EQ(score.pattern_fp_hits, 0);
    int domain_tp = 0, domain_fn = 0;
    for (const auto &[domain, counts] : score.by_domain) {
        EXPECT_GE(counts.tp, 0) << domain;
        EXPECT_GE(counts.fp, 0) << domain;
        EXPECT_GE(counts.fn, 0) << domain;
        EXPECT_LE(counts.recall(), 1.0) << domain;
        EXPECT_LE(counts.precision(), 1.0) << domain;
        domain_tp += counts.tp;
        domain_fn += counts.fn;
    }
    EXPECT_EQ(domain_tp, score.total.tp);
    EXPECT_EQ(domain_fn, score.total.fn);
}

TEST_P(InjectionFuzzTest, CensusStaysWithinCalibrationTolerance)
{
    // The per-domain census of a cleanCalibrated corpus must track the
    // DriverCalibration densities at any seed: per-1000 "changing"
    // rates within 30% of the analytic targets (base density plus the
    // nested patterns' contribution to each of their domains).
    uint64_t seed = GetParam();
    auto mix = kernel::CorpusMix::cleanCalibrated(0.02);
    auto plan = kernel::InjectionPlan::calibrated(mix);
    auto injected = kernel::generateInjectedCorpus(mix, plan, seed);
    auto census = kernel::censusOf(injected.corpus.truth);

    ASSERT_GT(census.functions, 1000);
    kernel::DriverCalibration cal;
    double nested_each = cal.nested_per_k / 2.0;
    std::map<std::string, double> target = {
        {"ref", cal.ref_per_k + nested_each},
        {"lock", cal.lock_per_k + 2 * nested_each},
        {"alloc", cal.alloc_per_k + nested_each},
    };
    for (const auto &[domain, want_per_k] : target) {
        ASSERT_TRUE(census.domains.count(domain)) << domain;
        double got_per_k = 1000.0 *
                           census.domains.at(domain).changing /
                           census.functions;
        EXPECT_NEAR(got_per_k, want_per_k, 0.30 * want_per_k) << domain;
    }

    // Injections are counted per domain and close with the log.
    std::map<std::string, int> injected_by_domain;
    for (const auto &inj : injected.injections)
        injected_by_domain[inj.domain]++;
    int census_injected = 0;
    for (const auto &[domain, d] : census.domains) {
        EXPECT_EQ(d.injected, injected_by_domain[domain]) << domain;
        EXPECT_EQ(d.seeded_bugs, 0) << domain;
        EXPECT_EQ(d.seeded_fp_inducers, 0) << domain;
        census_injected += d.injected;
    }
    EXPECT_EQ(census_injected, static_cast<int>(injected.injections.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InjectionFuzzTest,
                         ::testing::Values(0x101, 0x202, 0x303, 0x404));

TEST(Determinism, ThreadCountDoesNotChangeReports)
{
    auto mix = kernel::CorpusMix::paperCalibrated(0.001);
    auto corpus = kernel::generateCorpus(mix);
    auto digest = [&](int threads) {
        analysis::AnalyzerOptions opts;
        opts.threads = threads;
        Rid tool(opts);
        tool.loadSpecText(kernel::dpmSpecText());
        for (const auto &file : corpus.files)
            tool.addSource(file.text);
        std::multiset<std::string> out;
        for (const auto &report : tool.run().reports)
            out.insert(report.str());
        return out;
    };
    EXPECT_EQ(digest(1), digest(4));
}

TEST(Determinism, FileOrderDoesNotChangeReportSet)
{
    auto mix = kernel::CorpusMix::paperCalibrated(0.001);
    auto corpus = kernel::generateCorpus(mix);
    auto digest = [&](bool reversed) {
        Rid tool;
        tool.loadSpecText(kernel::dpmSpecText());
        if (reversed) {
            for (auto it = corpus.files.rbegin();
                 it != corpus.files.rend(); ++it) {
                tool.addSource(it->text);
            }
        } else {
            for (const auto &file : corpus.files)
                tool.addSource(file.text);
        }
        std::multiset<std::string> out;
        for (const auto &report : tool.run().reports)
            out.insert(report.function);
        return out;
    };
    EXPECT_EQ(digest(false), digest(true));
}

} // anonymous namespace
} // namespace rid

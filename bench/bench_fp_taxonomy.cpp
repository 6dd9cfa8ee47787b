/**
 * @file
 * Reproduces the Section 6.4 false-positive / missed-bug taxonomy and
 * the design-choice ablations called out in DESIGN.md.
 *
 * Part 1 — taxonomy: for every planted pattern kind, report whether RID
 * reports it, confirming the paper's qualitative claims: bit operations
 * and data-structure operations outside the abstraction cause false
 * positives; differing return values (Figure 10) and path-limit
 * truncation cause misses.
 *
 * Part 2 — ablations:
 *   - local-variable projection with vs without equality substitution
 *     (a naive drop loses [0]-relations and changes report counts);
 *   - the drop of one entry per IPP (Section 4.5): reports at caller
 *     level depend on which entry survives. The paper drops at random;
 *     this checker keeps the entry that loses the least information, so
 *     the surviving entry (and the caller's report) is fixed.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "analysis/symexec.h"
#include "core/rid.h"
#include "frontend/lower.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"

namespace {

std::set<std::string>
reportedFunctions(const rid::kernel::Corpus &corpus)
{
    rid::Rid tool;
    tool.loadSpecText(rid::kernel::dpmSpecText());
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    rid::RunResult result = tool.run();
    std::set<std::string> reported;
    for (const auto &report : result.reports)
        reported.insert(report.function);
    return reported;
}

} // anonymous namespace

int
main()
{
    using rid::kernel::PatternKind;

    rid::kernel::CorpusMix mix;
    for (PatternKind kind :
         {PatternKind::CorrectGetPut, PatternKind::CorrectNoErrorCheck,
          PatternKind::BuggyMissingPutOnError, PatternKind::BuggyIrqStyle,
          PatternKind::BuggyPathExplosion, PatternKind::WrapperGet,
          PatternKind::WrapperPut, PatternKind::BuggyWrapperCaller,
          PatternKind::FpBitmask, PatternKind::FpListOp,
          PatternKind::BuggyDoublePut, PatternKind::BuggyLoopGet,
          PatternKind::CorrectGotoLadder,
          PatternKind::BuggyGotoLadder}) {
        mix.counts[kind] = 10;
    }
    auto corpus = rid::kernel::generateCorpus(mix);
    auto reported = reportedFunctions(corpus);

    std::printf("== Section 6.4: detection matrix per pattern ==\n\n");
    std::printf("%-24s %8s %8s %10s  %s\n", "pattern", "bug?", "hits",
                "expected", "meaning");
    std::map<PatternKind, std::pair<int, int>> per_kind;
    for (const auto &truth : corpus.truth) {
        auto &bucket = per_kind[truth.kind];
        bucket.second++;
        if (reported.count(truth.name))
            bucket.first++;
    }
    struct RowInfo
    {
        PatternKind kind;
        const char *expected;
        const char *meaning;
    };
    const RowInfo rows[] = {
        {PatternKind::CorrectGetPut, "0", "balanced code stays silent"},
        {PatternKind::CorrectNoErrorCheck, "0", "balanced code, no check"},
        {PatternKind::WrapperGet, "0", "wrapper summarized, not flagged"},
        {PatternKind::WrapperPut, "0", "wrapper summarized, not flagged"},
        {PatternKind::BuggyMissingPutOnError, "10",
         "Figure 8: detected"},
        {PatternKind::BuggyWrapperCaller, "10", "Figure 9: detected"},
        {PatternKind::CorrectGotoLadder, "0",
         "goto cleanup ladder, balanced -> silent"},
        {PatternKind::BuggyGotoLadder, "10",
         "unwind skips the put -> detected"},
        {PatternKind::BuggyDoublePut, "10",
         "double decrement (negative count) -> detected"},
        {PatternKind::BuggyIrqStyle, "0",
         "Figure 10: distinguishable returns -> miss"},
        {PatternKind::BuggyPathExplosion, "0",
         "path cap truncation -> miss"},
        {PatternKind::BuggyLoopGet, "0",
         "needs 2+ loop iterations; unroll-once -> miss"},
        {PatternKind::FpBitmask, "10",
         "bit ops outside abstraction -> FP"},
        {PatternKind::FpListOp, "10",
         "list ops outside abstraction -> FP"},
    };
    bool ok = true;
    for (const auto &row : rows) {
        auto bucket = per_kind[row.kind];
        bool has_bug = row.kind == PatternKind::BuggyMissingPutOnError ||
                       row.kind == PatternKind::BuggyIrqStyle ||
                       row.kind == PatternKind::BuggyPathExplosion ||
                       row.kind == PatternKind::BuggyWrapperCaller ||
                       row.kind == PatternKind::BuggyDoublePut ||
                       row.kind == PatternKind::BuggyLoopGet ||
                       row.kind == PatternKind::BuggyGotoLadder;
        std::printf("%-24s %8s %5d/%-2d %10s  %s\n",
                    rid::kernel::patternKindName(row.kind),
                    has_bug ? "yes" : "no", bucket.first, bucket.second,
                    row.expected, row.meaning);
        ok = ok && bucket.first == std::atoi(row.expected);
    }

    std::printf("\n== ablation: projection keeps [0]-relations ==\n\n");
    {
        // [0] == v with conditions on local v: substitution keeps the
        // relation, a naive drop would lose it and merge distinct paths.
        using namespace rid::smt;
        Expr v = Expr::local("v");
        Formula cons = Formula::conj(
            {Formula::lit(Expr::cmp(Pred::Ge, v, Expr::intConst(0))),
             Formula::lit(Expr::cmp(Pred::Eq, Expr::ret(), v))});
        Formula projected = rid::analysis::projectLocals(cons);
        std::printf("before projection : %s\n", cons.str().c_str());
        std::printf("after projection  : %s\n", projected.str().c_str());
        std::printf("(equality substitution turned conditions on the "
                    "local into conditions on [0])\n");
    }

    std::printf("\n== ablation: entry drop and redundant caller reports "
                "(Section 4.5) ==\n\n");
    {
        // opt_get() has an IPP (the option bit is outside the
        // abstraction); after the report one of its two entries is
        // dropped. The caller compensates correctly at runtime, but
        // under either surviving summary its two paths disagree, so the
        // caller is re-reported — a redundant cascade — and WHICH deltas
        // get reported depends on the surviving entry. The paper's
        // random drop varied it from seed to seed (EXPERIMENTS.md keeps
        // the last such run); the information-loss drop fixes it.
        const char *source = R"(
int opt_get(struct device *dev, int flags) {
    if (flags & 1)
        pm_runtime_get_sync(dev);
    return 0;
}
int balanced_caller(struct device *dev, int flags) {
    opt_get(dev, flags);
    if (flags & 1)
        pm_runtime_put(dev);
    return 0;
}
)";
        rid::Rid tool;
        tool.loadSpecText(rid::kernel::dpmSpecText());
        tool.addSource(source);
        auto result = tool.run();
        std::string deltas;
        for (const auto &report : result.reports) {
            if (report.function == "balanced_caller") {
                deltas += "(" + std::to_string(report.delta_a) + " vs " +
                          std::to_string(report.delta_b) + ") ";
            }
        }
        std::printf("%14s %26s\n", "total reports",
                    "caller deltas reported");
        std::printf("%14zu %26s\n", result.reports.size(), deltas.c_str());
        std::printf("(the correct caller is re-reported — the redundancy "
                    "of Section 4.5 —\nand the surviving entry decides "
                    "which delta pair appears)\n");
    }

    std::printf("\n== ablation: Section 5.4 abstraction extensions ==\n\n");
    {
        // The paper names bit operations and data-structure operations
        // as its main false-positive sources and proposes extending the
        // abstraction. Each extension must remove exactly its FP class
        // and leave real-bug detection untouched.
        rid::kernel::CorpusMix ext_mix;
        ext_mix.counts[PatternKind::FpBitmask] = 20;
        ext_mix.counts[PatternKind::FpListOp] = 20;
        ext_mix.counts[PatternKind::BuggyMissingPutOnError] = 20;
        ext_mix.counts[PatternKind::BuggyWrapperCaller] = 20;
        ext_mix.counts[PatternKind::WrapperGet] = 20;
        ext_mix.counts[PatternKind::WrapperPut] = 20;
        auto ext_corpus = rid::kernel::generateCorpus(ext_mix);

        std::printf("%-10s %-12s %10s %10s %10s\n", "bit-tests",
                    "field-stores", "mask FPs", "list FPs", "real bugs");
        bool ext_ok = true;
        for (int bits = 0; bits <= 1; bits++) {
            for (int stores = 0; stores <= 1; stores++) {
                rid::frontend::LowerOptions lower;
                lower.model_bit_tests = bits != 0;
                lower.model_field_stores = stores != 0;
                rid::Rid tool({}, lower);
                tool.loadSpecText(rid::kernel::dpmSpecText());
                for (const auto &file : ext_corpus.files)
                    tool.addSource(file.text);
                auto result = tool.run();
                std::set<std::string> hit;
                for (const auto &report : result.reports)
                    hit.insert(report.function);
                int mask = 0, list = 0, bugs = 0;
                for (const auto &truth : ext_corpus.truth) {
                    if (!hit.count(truth.name))
                        continue;
                    if (truth.kind == PatternKind::FpBitmask)
                        mask++;
                    if (truth.kind == PatternKind::FpListOp)
                        list++;
                    if (truth.has_bug)
                        bugs++;
                }
                std::printf("%-10s %-12s %10d %10d %10d\n",
                            bits ? "on" : "off", stores ? "on" : "off",
                            mask, list, bugs);
                ext_ok = ext_ok && bugs == 40 &&
                         mask == (bits ? 0 : 20) &&
                         list == (stores ? 0 : 20);
            }
        }
        std::printf("(each extension removes exactly its FP class; real "
                    "bugs stay detected)\n");
        ok = ok && ext_ok;
    }

    std::printf("\nshape check (taxonomy + extensions exact): %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

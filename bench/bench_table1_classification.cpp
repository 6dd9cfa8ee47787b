/**
 * @file
 * Reproduces Table 1: functions in different categories, plus the
 * classification timing claim of Section 6.5.
 *
 * The paper classifies the 270k functions of Linux 3.17 into:
 *
 *     functions with refcount changes                 2133
 *     functions affecting those ...   analyzed        1889
 *                                     not analyzed    2803
 *     the others                                    261391
 *
 * This harness generates the synthetic kernel at a configurable scale
 * (default 0.02 so the full benchmark sweep stays fast; pass a scale
 * argument, e.g. 1.0, for the full-size population), runs the two-phase
 * classifier, and prints the measured counts of *defined* functions next
 * to the paper's, scaled. Shape checks: every per-category count must be
 * within 20% of the scaled paper value and category 3 must dominate.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "analysis/analyzer.h"
#include "core/rid.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "summary/spec.h"

int
main(int argc, char **argv)
{
    double scale = argc > 1 ? std::atof(argv[1]) : 0.02;

    std::printf("== Table 1: function categories (scale %.3f) ==\n\n",
                scale);

    auto t0 = std::chrono::steady_clock::now();
    auto mix = rid::kernel::CorpusMix::paperCalibrated(
        scale, /*scale_bug_population=*/true);
    auto corpus = rid::kernel::generateCorpus(mix);
    auto t1 = std::chrono::steady_clock::now();

    rid::analysis::AnalyzerOptions opts;
    rid::Rid tool(opts);
    tool.loadSpecText(rid::kernel::dpmSpecText());
    for (const auto &file : corpus.files)
        tool.addSource(file.text);
    auto t2 = std::chrono::steady_clock::now();

    // Run classification only through the analyzer; count per-category
    // over defined functions (the paper's population is function bodies
    // in the kernel build).
    rid::summary::SummaryDb db;
    rid::summary::loadSpecsInto(rid::kernel::dpmSpecText(), db);
    std::vector<std::string> seeds;
    for (const auto &name : db.predefinedNames()) {
        const auto *s = db.find(name);
        if (s && s->hasChanges())
            seeds.push_back(name);
    }
    auto t3 = std::chrono::steady_clock::now();
    rid::analysis::FunctionClassifier classifier(tool.module(), seeds);
    auto t4 = std::chrono::steady_clock::now();

    size_t cat1 = 0, cat2_analyzed = 0, cat2_skipped = 0, cat3 = 0;
    // Counted from skeletons: only category-2 bodies are read (and so
    // built), for their branch counts.
    const rid::ir::Module &mod = tool.module();
    for (size_t k = 0; k < mod.size(); k++) {
        if (mod.skeleton(k).declaration)
            continue;
        switch (classifier.categoryOf(static_cast<int>(k))) {
          case rid::analysis::Category::RefcountChanging:
            cat1++;
            break;
          case rid::analysis::Category::Affecting:
            if (mod.function(k).countCondBranches() <=
                rid::analysis::kMaxCat2Branches)
                cat2_analyzed++;
            else
                cat2_skipped++;
            break;
          case rid::analysis::Category::Other:
            cat3++;
            break;
        }
    }

    auto seconds = [](auto a, auto b) {
        return std::chrono::duration<double>(b - a).count();
    };

    std::printf("%-48s %10s %14s\n", "Category", "measured",
                "paper(scaled)");
    bool within = true;
    auto row = [&](const char *name, size_t measured, double paper) {
        double expect = paper * scale;
        std::printf("%-48s %10zu %14.0f\n", name, measured, expect);
        if (std::abs(measured - expect) > 0.2 * expect + 3)
            within = false;
    };
    row("functions with refcount changes", cat1, 2133);
    row("affecting those with refcount changes (analyzed)", cat2_analyzed,
        1889);
    row("affecting ... (not analyzed)", cat2_skipped, 2803);
    row("the others", cat3, 261391);
    std::printf("%-48s %10zu %14.0f\n", "total",
                cat1 + cat2_analyzed + cat2_skipped + cat3,
                268216.0 * scale);

    std::printf("\n== Section 6.5 timing (classification phase) ==\n");
    std::printf("generate corpus : %7.2f s\n", seconds(t0, t1));
    std::printf("parse + lower   : %7.2f s\n", seconds(t1, t2));
    std::printf("classification  : %7.2f s  (%zu functions incl. "
                "declarations)\n",
                seconds(t3, t4), tool.module().size());
    std::printf("(paper: 64 min to classify 270k functions; scale 1.0 "
                "reproduces that population)\n");

    bool shape_ok = within &&
                    cat3 > 10 * (cat1 + cat2_analyzed + cat2_skipped);
    std::printf("\nshape check (each category within 20%% of the scaled "
                "paper count,\n             others >> category 1+2): %s\n",
                shape_ok ? "PASS" : "FAIL");
    return shape_ok ? 0 : 1;
}

/**
 * @file
 * Path summary calculation by symbolic execution (Section 4.4).
 *
 * A state is (ip, cons, changes, return, vmap). Instructions are
 * evaluated as in Figure 6; call instructions instantiate the callee's
 * summary entries and fork one state per satisfiable entry (Algorithm 1).
 * When a Return executes, the state becomes a summary entry: the return
 * value is bound to the atom [0], conditions on local state are projected
 * out (by equality substitution where possible, otherwise by dropping the
 * literal — a sound weakening), and the entry is recorded.
 *
 * The paper enumerates a function's paths and replays each one. The
 * executor here walks the CFG tree instead, stepping every shared prefix
 * once and forking the state set at conditional branches; it produces
 * the same entries in the same order (tests/golden/tree_exec_entries.golden
 * holds the per-path replay's output over the determinism corpus).
 */

#ifndef RID_ANALYSIS_SYMEXEC_H
#define RID_ANALYSIS_SYMEXEC_H

#include <cstdint>
#include <vector>

#include "ir/function.h"
#include "smt/solver.h"
#include "summary/db.h"
#include "summary/inst_cache.h"

namespace rid::analysis {

/**
 * Project local state out of an entry constraint: rewrite Local/Temp
 * atoms into argument/return terms where an equality in @p cons allows
 * it, then drop any literal still mentioning local state. Exposed for
 * testing; every summary entry the executor emits is projected this way.
 */
smt::Formula projectLocals(const smt::Formula &cons);

/** Options of the prefix-sharing tree executor. */
struct TreeExecOptions
{
    /** Cap on summary entries / live states per path ("subcases" in
     *  the paper's configuration; default 10 — Section 6.1). */
    int max_subcases = 10;
    /** Optional cooperative budget checked once per executed tree node;
     *  expiry stops the walk and sets TreeExecResult::deadline_hit. Not
     *  owned; must outlive the call. */
    const obs::Budget *budget = nullptr;
    /** Cap on completed paths; with pruning enabled only feasible
     *  completed paths count against it. */
    int max_paths = 100;
    /** Optional shared callee-instantiation cache (summary/inst_cache.h);
     *  null instantiates every call entry from scratch. Semantically
     *  invisible either way. Not owned; must outlive the call. */
    summary::InstCache *inst_cache = nullptr;
};

/** The summary entries of one completed feasible path, one per
 *  surviving state in state-set order. */
struct PathOutcome
{
    std::vector<summary::SummaryEntry> entries;
};

struct TreeExecResult
{
    /** Completed paths in DFS order, which is the path enumerator's
     *  order (analysis/paths.h) with infeasible paths left out. */
    std::vector<PathOutcome> completed;
    /** A deterministic cap (max_paths or max_subcases) cut the tree. */
    bool truncated = false;
    /** Specifically the feasible-path cap was consumed (drives the
     *  enriched truncation diagnostic). */
    bool path_cap_hit = false;
    /** Budget expired mid-tree; results are partial and timing-dependent
     *  and must be discarded by the caller. */
    bool deadline_hit = false;
    /** Basic blocks stepped (each CFG-tree edge once). */
    uint64_t blocks_executed = 0;
    /** State-set forks performed at conditional branches. */
    uint64_t forks = 0;
    /** Branch sides (and mid-block state-set deaths) skipped because the
     *  path condition became unsatisfiable. */
    uint64_t subtrees_pruned = 0;
    /** Callee summary entries instantiated from scratch (inst-cache
     *  misses when a cache is attached; every call entry without). */
    uint64_t entries_instantiated = 0;
};

/**
 * Execute every path of @p fn in one depth-first walk of the CFG tree,
 * forking state at conditional branches instead of replaying shared
 * prefixes per path. Completed outcomes appear in the path enumerator's
 * order; an infeasible path contributes no outcome.
 *
 * @param db      summary database for callee lookup. A callee without a
 *                summary (undefined, or not yet run in the caller's SCC)
 *                returns a fresh temp and adds no callee-chain entry, no
 *                instantiation and no subcase cap; a defaulted callee's
 *                summary does all three
 * @param solver  satisfiability checker used for pruning
 */
TreeExecResult executeFunctionTree(const ir::Function &fn,
                                   const summary::SummaryDb &db,
                                   smt::Solver &solver,
                                   const TreeExecOptions &opts);

} // namespace rid::analysis

#endif // RID_ANALYSIS_SYMEXEC_H

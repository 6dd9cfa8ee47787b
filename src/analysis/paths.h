/**
 * @file
 * Path enumeration (Step I of the per-function analysis, Section 4.2).
 *
 * All entry-to-exit paths of a function are enumerated, with loops
 * unrolled at most once (each block may appear at most kMaxBlockVisits
 * times on a path) and a configurable cap on the number of paths. Paths
 * passing through an __assert_fail call model assertion-failure exits
 * and are skipped, as in the paper's running example.
 */

#ifndef RID_ANALYSIS_PATHS_H
#define RID_ANALYSIS_PATHS_H

#include <vector>

#include "ir/function.h"

namespace rid::obs {
class Budget;
}

namespace rid::analysis {

/** One enumerated path: the block sequence from entry to a Return. */
struct Path
{
    std::vector<ir::BlockId> blocks;
};

struct PathEnumResult
{
    std::vector<Path> paths;
    /** True if the path cap stopped enumeration early (the function must
     *  then get a default summary entry — Section 5.2). */
    bool truncated = false;
    /** True if the budget expired during enumeration. Unlike `truncated`
     *  (a deterministic structural cap), this is timing-dependent: the
     *  caller must discard the partial result and degrade the whole
     *  function, not merge it. */
    bool deadline_hit = false;
};

/** How many times one block may appear on a path: the paper's
 *  unroll-loops-once rule. The prefix-sharing executor applies it too. */
inline constexpr int kMaxBlockVisits = 2;

/**
 * Enumerate paths of @p fn.
 *
 * @param max_paths   cap on the number of returned paths
 * @param budget      optional cooperative budget checked once per visited
 *                    block; expiry stops enumeration and sets
 *                    PathEnumResult::deadline_hit
 */
PathEnumResult enumeratePaths(const ir::Function &fn, int max_paths,
                              const obs::Budget *budget = nullptr);

/** True if @p bb contains an __assert_fail call — such blocks model
 *  assertion-failure exits and are never part of an enumerated path.
 *  Shared between the enumerator and the prefix-sharing executor so
 *  both skip exactly the same blocks. */
bool blockCallsAssertFail(const ir::BasicBlock &bb);

} // namespace rid::analysis

#endif // RID_ANALYSIS_PATHS_H

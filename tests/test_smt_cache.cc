/**
 * @file
 * Tests for formula interning (hash-consing) and the memoized solver
 * query cache:
 *
 *  - fingerprints are stable (pinned on fixed trees), and equal exactly
 *    for structurally equal expressions/formulas on a large random
 *    population;
 *  - interning shares construction (observable through InternStats),
 *    nodes are immortal, concurrent builders agree on one node per
 *    term, and a failed construction leaves nothing behind;
 *  - the QueryCache respects capacity, evicts LRU-wise and verifies
 *    fingerprint hits structurally;
 *  - differential property: a cache-attached solver agrees with a fresh
 *    uncached solver on every one of >= 10k random queries, including
 *    repeated queries and queries after evictions;
 *  - the shared cache is safe and still exact under concurrent use.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "obs/failpoint.h"
#include "smt/intern.h"
#include "smt/query_cache.h"
#include "smt/solver.h"

namespace rid::smt {
namespace {

/**
 * Random formula generator over a small pool of atoms, biased toward the
 * shapes RID produces: conjunctions of comparison literals with
 * occasional disjunction/negation nesting. A small pool makes repeated
 * (cache-hitting) formulas likely by construction.
 */
class FormulaGen
{
  public:
    /** @p prefix renames every argument atom, so one seed can build
     *  a population no earlier test has interned. */
    explicit FormulaGen(uint64_t seed, std::string prefix = "")
        : rng_(seed), prefix_(std::move(prefix))
    {}

    Expr
    atom()
    {
        switch (rng_() % 5) {
          case 0: return Expr::arg(prefix_ + "a");
          case 1: return Expr::arg(prefix_ + "b");
          case 2: return Expr::ret();
          case 3: return Expr::field(Expr::arg(prefix_ + "dev"), "pm");
          default:
            return Expr::arg(prefix_ + "c" + std::to_string(rng_() % 3));
        }
    }

    Expr
    literalExpr()
    {
        Pred preds[] = {Pred::Eq, Pred::Ne, Pred::Lt,
                        Pred::Le, Pred::Gt, Pred::Ge};
        Expr lhs = atom();
        Expr rhs = rng_() % 2
                       ? Expr::intConst(static_cast<int64_t>(rng_() % 7) - 3)
                       : atom();
        return Expr::cmp(preds[rng_() % 6], lhs, rhs);
    }

    Formula
    formula(int depth)
    {
        if (depth <= 0 || rng_() % 3 == 0)
            return Formula::lit(literalExpr());
        switch (rng_() % 4) {
          case 0:
          case 1: {
            std::vector<Formula> parts;
            size_t n = 2 + rng_() % 3;
            for (size_t i = 0; i < n; i++)
                parts.push_back(formula(depth - 1));
            return Formula::conj(std::move(parts));
          }
          case 2: {
            std::vector<Formula> parts;
            size_t n = 2 + rng_() % 3;
            for (size_t i = 0; i < n; i++)
                parts.push_back(formula(depth - 1));
            return Formula::disj(std::move(parts));
          }
          default:
            return Formula::negation(formula(depth - 1));
        }
    }

  private:
    std::mt19937_64 rng_;
    std::string prefix_;
};

TEST(Interning, FingerprintEqualsIffStructurallyEqual)
{
    FormulaGen gen(42);
    std::vector<Formula> pool;
    for (int i = 0; i < 400; i++)
        pool.push_back(gen.formula(3));
    for (size_t i = 0; i < pool.size(); i++) {
        for (size_t j = 0; j < pool.size(); j++) {
            bool eq = pool[i].equals(pool[j]);
            bool fp_eq = pool[i].fingerprint() == pool[j].fingerprint();
            // equal => equal fingerprints always; the converse holds on
            // this population (a violation would be a found 64-bit
            // collision, worth knowing about).
            EXPECT_EQ(eq, fp_eq)
                << pool[i].str() << " vs " << pool[j].str();
        }
    }
}

TEST(Interning, RebuildingTheSameTreeSharesNodes)
{
    auto build = []() {
        return Formula::conj(
            {Formula::lit(Expr::cmp(Pred::Ge, Expr::ret(),
                                    Expr::intConst(0))),
             Formula::lit(Expr::cmp(Pred::Ne, Expr::arg("interned_probe"),
                                    Expr::null()))});
    };
    InternStats before = totalInternStats();
    Formula a = build();
    InternStats mid = totalInternStats();
    Formula b = build();
    InternStats after = totalInternStats();

    EXPECT_TRUE(a.equals(b));
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    // The second build allocates nothing new: every construction is an
    // intern hit.
    EXPECT_EQ(after.misses, mid.misses);
    EXPECT_GT(after.hits, mid.hits);
    // The first build interned at least the novel atom + literals.
    EXPECT_GT(mid.misses, before.misses);
}

TEST(Interning, FingerprintsArePinned)
{
    // Fingerprints key the query cache, the instantiation cache and the
    // on-disk store, so they must never drift with the representation.
    Expr dev = Expr::arg("dev");
    Expr chain = Expr::field(Expr::field(dev, "power"), "usage_count");
    Expr ge = Expr::cmp(Pred::Ge, Expr::ret(), Expr::intConst(0));
    Formula conj = Formula::conj(
        {Formula::lit(ge),
         Formula::lit(Expr::cmp(Pred::Ne, dev, Expr::null()))});
    Formula disj = Formula::disj(
        {Formula::lit(Expr::cmp(Pred::Lt, Expr::ret(), Expr::intConst(0))),
         Formula::lit(Expr::cmp(Pred::Eq, Expr::field(dev, "pm"),
                                Expr::intConst(1)))});
    Formula neg = Formula::negation(conj);

    EXPECT_EQ(dev.fingerprint(), 0xfef39bbec0f1da51ULL);
    EXPECT_EQ(chain.fingerprint(), 0xeb328c967cb32e63ULL);
    EXPECT_EQ(ge.fingerprint(), 0x84ff5e751f5c069fULL);
    EXPECT_EQ(conj.fingerprint(), 0x945f5d16fe8a9703ULL);
    EXPECT_EQ(disj.fingerprint(), 0x6e6fd7f4ce896525ULL);
    EXPECT_EQ(neg.fingerprint(), 0x0f6e13e33590c042ULL);
    EXPECT_EQ(neg.str(), "!([0] >= 0 && [dev] != 0)");
}

TEST(Interning, RebuildAddsNoMissAndEntriesNeverDecrease)
{
    auto build = []() {
        return Formula::disj(
            {Formula::lit(Expr::cmp(Pred::Lt, Expr::arg("rebuild_probe"),
                                    Expr::intConst(2))),
             Formula::negation(Formula::lit(
                 Expr::cmp(Pred::Eq, Expr::ret(), Expr::null())))});
    };
    InternStats first;
    uint64_t fp = 0;
    {
        Formula a = build();
        fp = a.fingerprint();
        first = totalInternStats();
    }
    // The first handle is gone, but its nodes are not: rebuilding the
    // tree finds every node it needs.
    Formula b = build();
    InternStats second = totalInternStats();
    EXPECT_EQ(second.misses, first.misses);
    EXPECT_EQ(second.entries, first.entries);
    EXPECT_GT(second.hits, first.hits);
    EXPECT_EQ(b.fingerprint(), fp);

    FormulaGen gen(11);
    InternStats last = second;
    for (int i = 0; i < 200; i++) {
        gen.formula(3);  // the handle is dropped at once
        InternStats now = totalInternStats();
        EXPECT_GE(now.entries, last.entries);
        EXPECT_GE(now.bytes, last.bytes);
        EXPECT_EQ(now.entries, now.misses);
        last = now;
    }
}

TEST(Interning, ConcurrentBuildersShareOneNodePerTerm)
{
    constexpr int kThreads = 8;
    constexpr int kFormulas = 300;
    auto population = [](const std::string &prefix) {
        FormulaGen gen(7, prefix);
        std::vector<Formula> out;
        for (int i = 0; i < kFormulas; i++)
            out.push_back(gen.formula(3));
        return out;
    };
    // Intern the terms that mention no argument atom (constants, [0]
    // and what is built from them) so that both measured builds below
    // miss on exactly the prefixed terms.
    population("warm_");
    uint64_t before = totalInternStats().misses;
    population("solo_");
    uint64_t distinct = totalInternStats().misses - before;
    ASSERT_GT(distinct, 0u);

    std::vector<std::vector<Formula>> built(kThreads);
    before = totalInternStats().misses;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back([&, t] { built[t] = population("conc_"); });
    for (auto &t : threads)
        t.join();

    // Renaming the atoms maps terms one to one, so the eight racing
    // builds together add exactly as many nodes as the solo build did.
    EXPECT_EQ(totalInternStats().misses - before, distinct);
    for (int t = 1; t < kThreads; t++)
        for (int i = 0; i < kFormulas; i++)
            ASSERT_TRUE(built[t][i].equals(built[0][i])) << t << " " << i;
}

TEST(Interning, FailedConstructionLeavesNoNode)
{
    auto &registry = obs::FailpointRegistry::instance();
    InternStats before = totalInternStats();
    registry.configure("smt.intern=always");
    EXPECT_THROW(Expr::arg("failpoint_probe"), obs::InjectedFault);
    registry.disarm();
    EXPECT_EQ(totalInternStats().entries, before.entries);

    // Had the failed attempt left its node behind, this would be a hit.
    Expr e = Expr::arg("failpoint_probe");
    EXPECT_EQ(e.str(), "[failpoint_probe]");
    InternStats after = totalInternStats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.entries, before.entries + 1);
}

TEST(Interning, FingerprintsAreStableAcrossRebuilds)
{
    // Same construction from two different generator instances.
    FormulaGen g1(7), g2(7);
    for (int i = 0; i < 200; i++) {
        Formula a = g1.formula(3);
        Formula b = g2.formula(3);
        ASSERT_TRUE(a.equals(b));
        ASSERT_EQ(a.fingerprint(), b.fingerprint());
    }
}

TEST(QueryCache, InsertLookupRoundTrip)
{
    QueryCache cache;
    FormulaGen gen(1);
    Formula f = gen.formula(2);
    EXPECT_FALSE(cache.lookup(f).has_value());
    cache.insert(f, SatResult::Unsat);
    auto hit = cache.lookup(f);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, SatResult::Unsat);
    auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(QueryCache, CapacityBoundsResidencyAndEvicts)
{
    QueryCache::Options opts;
    opts.capacity = 16;
    QueryCache cache(opts);
    FormulaGen gen(2);
    std::vector<Formula> pool;
    for (int i = 0; i < 200; i++) {
        Formula f = gen.formula(3);
        pool.push_back(f);
        cache.insert(f, SatResult::Sat);
    }
    auto s = cache.stats();
    EXPECT_LE(s.entries, cache.capacity());
    EXPECT_GT(s.evictions, 0u);
    // Entries that survive still answer correctly.
    std::set<uint64_t> resident;
    for (const auto &f : pool) {
        if (auto hit = cache.lookup(f)) {
            EXPECT_EQ(*hit, SatResult::Sat);
            resident.insert(f.fingerprint());
        }
    }
    EXPECT_LE(resident.size(), cache.capacity());
}

TEST(QueryCache, ClearDropsEntries)
{
    QueryCache cache;
    FormulaGen gen(3);
    Formula f = gen.formula(2);
    cache.insert(f, SatResult::Sat);
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_FALSE(cache.lookup(f).has_value());
}

TEST(SolverCache, AttachedSolverCountsHitsAndMisses)
{
    auto cache = std::make_shared<QueryCache>();
    Solver solver;
    solver.attachCache(cache);
    Formula f = Formula::lit(
        Expr::cmp(Pred::Gt, Expr::arg("x"), Expr::intConst(3)));
    SatResult first = solver.check(f);
    SatResult second = solver.check(f);
    EXPECT_EQ(first, second);
    EXPECT_EQ(solver.stats().cache_hits, 1u);
    EXPECT_EQ(solver.stats().cache_misses, 1u);
    // Trivial formulas bypass the cache entirely.
    solver.check(Formula::top());
    solver.check(Formula::bottom());
    EXPECT_EQ(solver.stats().cache_hits, 1u);
    EXPECT_EQ(solver.stats().cache_misses, 1u);
}

/**
 * The differential property at the heart of this suite: for every query,
 * a cache-attached solver and a fresh uncached solver return the same
 * SatResult. The query stream revisits earlier formulas (guaranteed cache
 * hits) and the cache is deliberately small (guaranteed evictions), so
 * hit, miss, and re-miss-after-eviction paths are all exercised.
 */
TEST(SolverCacheDifferential, CachedAgreesWithUncachedOn10kQueries)
{
    QueryCache::Options cache_opts;
    cache_opts.capacity = 256;  // far below the distinct-formula count
    auto cache = std::make_shared<QueryCache>(cache_opts);
    Solver cached;
    cached.attachCache(cache);

    FormulaGen gen(0xcac4e);
    std::mt19937_64 pick(0x5eed);
    std::vector<Formula> pool{gen.formula(3)};
    size_t queries = 0;
    while (queries < 10500) {
        // Grow the pool slowly so later queries repeat earlier formulas.
        if (pool.size() < 2000 && pick() % 3 != 0)
            pool.push_back(gen.formula(3));
        const Formula &f = pool[pick() % pool.size()];
        Solver fresh;
        SatResult want = fresh.check(f);
        SatResult got = cached.check(f);
        ASSERT_EQ(got, want) << f.str();
        queries++;
    }
    auto s = cache->stats();
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.evictions, 0u);
    EXPECT_EQ(s.hits, cached.stats().cache_hits);
    // Repeat the whole pool once more after all those evictions.
    for (const auto &f : pool) {
        Solver fresh;
        ASSERT_EQ(cached.check(f), fresh.check(f)) << f.str();
    }
}

TEST(SolverCacheDifferential, SharedCacheIsExactUnderConcurrency)
{
    auto cache = std::make_shared<QueryCache>();
    // One shared pool: all threads query overlapping formulas.
    FormulaGen gen(99);
    std::vector<Formula> pool;
    for (int i = 0; i < 500; i++)
        pool.push_back(gen.formula(3));

    std::atomic<uint64_t> mismatches{0};
    auto worker = [&](uint64_t seed) {
        std::mt19937_64 pick(seed);
        Solver cached;
        cached.attachCache(cache);
        Solver fresh;
        for (int i = 0; i < 800; i++) {
            const Formula &f = pool[pick() % pool.size()];
            if (cached.check(f) != fresh.check(f))
                mismatches.fetch_add(1);
        }
    };
    std::vector<std::thread> threads;
    for (uint64_t t = 0; t < 4; t++)
        threads.emplace_back(worker, 1000 + t);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_GT(cache->stats().hits, 0u);
}

} // anonymous namespace
} // namespace rid::smt

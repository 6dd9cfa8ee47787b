/**
 * @file
 * Unit tests for summaries, the summary database and the spec language
 * (summary/).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/rid.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "pyc/pyc_specs.h"
#include "summary/db.h"
#include "summary/domain.h"
#include "summary/spec.h"
#include "summary/summary.h"

namespace rid::summary {
namespace {

using smt::Expr;
using smt::Formula;
using smt::Pred;

SummaryEntry
entryWith(Formula cons, std::map<std::string, int> changes, Expr ret)
{
    SummaryEntry e;
    e.cons = std::move(cons);
    for (const auto &[field, delta] : changes)
        e.changes[Expr::field(Expr::arg("d"), field)] = delta;
    e.ret = std::move(ret);
    return e;
}

TEST(SummaryEntry, NormalizeDropsZeroDeltas)
{
    SummaryEntry e;
    e.changes[Expr::field(Expr::arg("d"), "pm")] = 0;
    e.changes[Expr::field(Expr::arg("d"), "rc")] = 1;
    e.normalizeChanges();
    EXPECT_EQ(e.changes.size(), 1u);
}

TEST(SummaryEntry, SameChangesSymmetric)
{
    SummaryEntry a = entryWith(Formula::top(), {{"pm", 1}}, Expr());
    SummaryEntry b = entryWith(Formula::top(), {{"pm", 1}}, Expr());
    SummaryEntry c = entryWith(Formula::top(), {{"pm", 2}}, Expr());
    SummaryEntry d = entryWith(Formula::top(), {}, Expr());
    EXPECT_TRUE(SummaryEntry::sameChanges(a, b));
    EXPECT_FALSE(SummaryEntry::sameChanges(a, c));
    EXPECT_FALSE(SummaryEntry::sameChanges(a, d));
    EXPECT_FALSE(SummaryEntry::sameChanges(d, a));
}

TEST(SummaryEntry, ChangedDifferentlyReportsBothDeltas)
{
    SummaryEntry a = entryWith(Formula::top(), {{"pm", 1}}, Expr());
    SummaryEntry b = entryWith(Formula::top(), {{"rc", -1}}, Expr());
    auto diffs = SummaryEntry::changedDifferently(a, b);
    ASSERT_EQ(diffs.size(), 2u);
}

TEST(SummaryEntry, MergeDisjoinsConstraints)
{
    Formula c1 = Formula::lit(
        Expr::cmp(Pred::Eq, Expr::ret(), Expr::intConst(0)));
    Formula c2 = Formula::lit(
        Expr::cmp(Pred::Eq, Expr::ret(), Expr::intConst(1)));
    SummaryEntry a = entryWith(c1, {{"pm", 1}}, Expr::intConst(0));
    SummaryEntry b = entryWith(c2, {{"pm", 1}}, Expr::intConst(1));
    SummaryEntry merged = SummaryEntry::merge(a, b);
    EXPECT_EQ(merged.cons.kind(), smt::FormulaKind::Or);
    // Different return expressions collapse to the opaque [0].
    EXPECT_TRUE(merged.ret.equals(Expr::ret()));
}

TEST(SummaryEntry, MergeKeepsEqualReturn)
{
    SummaryEntry a =
        entryWith(Formula::top(), {{"pm", 1}}, Expr::intConst(0));
    SummaryEntry b =
        entryWith(Formula::top(), {{"pm", 1}}, Expr::intConst(0));
    EXPECT_TRUE(SummaryEntry::merge(a, b).ret.equals(Expr::intConst(0)));
}

TEST(FunctionSummary, DefaultSummaryShape)
{
    FunctionSummary s = FunctionSummary::defaultFor("f", true);
    EXPECT_TRUE(s.is_default);
    ASSERT_EQ(s.entries.size(), 1u);
    EXPECT_TRUE(s.entries[0].cons.isTrue());
    EXPECT_TRUE(s.entries[0].changes.empty());
    EXPECT_TRUE(s.entries[0].ret.equals(Expr::ret()));
    EXPECT_FALSE(s.hasChanges());
}

TEST(FunctionSummary, VoidDefaultHasNoReturn)
{
    FunctionSummary s = FunctionSummary::defaultFor("f", false);
    EXPECT_TRUE(s.entries[0].ret.empty());
}

TEST(Instantiate, FormalsReplacedByActuals)
{
    SummaryEntry e;
    e.cons = Formula::lit(
        Expr::cmp(Pred::Ne, Expr::arg("d"), Expr::null()));
    e.changes[Expr::field(Expr::arg("d"), "pm")] = 1;
    e.ret = Expr::ret();

    Expr actual = Expr::field(Expr::arg("intf"), "dev");
    SummaryEntry inst = instantiate(e, {"d"}, {actual}, Expr());
    EXPECT_EQ(inst.cons.str(), "[intf].dev != 0");
    ASSERT_EQ(inst.changes.size(), 1u);
    EXPECT_EQ(inst.changes.begin()->first.str(), "[intf].dev.pm");
}

TEST(Instantiate, ReturnAtomReplacedByResult)
{
    SummaryEntry e;
    e.cons = Formula::lit(
        Expr::cmp(Pred::Ge, Expr::ret(), Expr::intConst(0)));
    e.ret = Expr::ret();
    SummaryEntry inst = instantiate(e, {}, {}, Expr::temp("c1"));
    EXPECT_EQ(inst.cons.str(), "%c1 >= 0");
    EXPECT_TRUE(inst.ret.equals(Expr::temp("c1")));
}

TEST(Instantiate, MissingActualsBecomeFreshTemps)
{
    SummaryEntry e;
    e.changes[Expr::field(Expr::arg("d"), "pm")] = 1;
    SummaryEntry inst = instantiate(e, {"d"}, {}, Expr());
    EXPECT_EQ(inst.changes.begin()->first.str(), "%missing$d.pm");
}

TEST(Instantiate, ChangeKeysThatCollideAccumulate)
{
    // Two formals instantiated with the same actual: deltas add up.
    SummaryEntry e;
    e.changes[Expr::field(Expr::arg("a"), "rc")] = 1;
    e.changes[Expr::field(Expr::arg("b"), "rc")] = 1;
    Expr same = Expr::arg("x");
    SummaryEntry inst = instantiate(e, {"a", "b"}, {same, same}, Expr());
    ASSERT_EQ(inst.changes.size(), 1u);
    EXPECT_EQ(inst.changes.begin()->second, 2);
}

TEST(Instantiate, MissingActualTempsAreScopedPerCallee)
{
    // Two callees sharing a formal name must not alias one temp atom:
    // the scoped spelling includes the callee, while repeated
    // instantiations of one callee stay name-identical (the inst-cache
    // key contract).
    SummaryEntry e;
    e.cons =
        Formula::lit(Expr::cmp(Pred::Gt, Expr::arg("b"), Expr::intConst(0)));
    e.changes[Expr::field(Expr::arg("b"), "pm")] = 1;

    SummaryEntry callee1 =
        instantiate(e, {"a", "b"}, {Expr::arg("x")}, Expr(), "callee1");
    SummaryEntry again =
        instantiate(e, {"a", "b"}, {Expr::arg("x")}, Expr(), "callee1");
    SummaryEntry callee2 =
        instantiate(e, {"a", "b"}, {Expr::arg("x")}, Expr(), "callee2");
    EXPECT_EQ(callee1.cons.str(), "%missing$callee1$b > 0");
    EXPECT_EQ(again.cons.str(), callee1.cons.str());
    EXPECT_EQ(callee2.cons.str(), "%missing$callee2$b > 0");
    EXPECT_EQ(callee1.changes.begin()->first.str(),
              "%missing$callee1$b.pm");
    // No scope keeps the legacy spelling.
    SummaryEntry legacy =
        instantiate(e, {"a", "b"}, {Expr::arg("x")}, Expr());
    EXPECT_EQ(legacy.cons.str(), "%missing$b > 0");
}

TEST(BindResult, SubstitutesReturnAtomAndDropsZeroDeltas)
{
    // Binding [0] to an expression that collapses two counters with
    // opposite deltas must drop the resulting exact-zero key: the entry
    // nets no change on it and must not count as "changing".
    SummaryEntry e;
    e.cons = Formula::lit(Expr::cmp(Pred::Ge, Expr::ret(),
                                    Expr::intConst(0)));
    e.changes[Expr::field(Expr::ret(), "pm")] = 1;
    e.changes[Expr::field(Expr::arg("d"), "pm")] = -1;
    e.changes[Expr::field(Expr::arg("d"), "rc")] = 2;
    bindResult(e, Expr::arg("d"));
    EXPECT_EQ(e.cons.str(), "[d] >= 0");
    ASSERT_EQ(e.changes.size(), 1u);
    EXPECT_EQ(e.changes.begin()->first.str(), "[d].rc");
    EXPECT_EQ(e.changes.begin()->second, 2);
}

TEST(BindResult, KeepsNonZeroCollapsedDeltas)
{
    SummaryEntry e;
    e.changes[Expr::field(Expr::ret(), "pm")] = 2;
    e.changes[Expr::field(Expr::arg("d"), "pm")] = -1;
    bindResult(e, Expr::arg("d"));
    ASSERT_EQ(e.changes.size(), 1u);
    EXPECT_EQ(e.changes.begin()->second, 1);
}

TEST(SummaryFingerprint, StableAndContentSensitive)
{
    FunctionSummary s;
    s.function = "f";
    s.params = {"d"};
    s.returns_value = true;
    SummaryEntry e;
    e.cons = Formula::top();
    e.changes[Expr::field(Expr::arg("d"), "pm")] = 1;
    e.ret = Expr::intConst(0);
    s.entries.push_back(e);

    uint64_t fp = summaryFingerprint(s);
    EXPECT_EQ(summaryFingerprint(s), fp);

    FunctionSummary renamed = s;
    renamed.function = "g";
    EXPECT_NE(summaryFingerprint(renamed), fp);
    FunctionSummary changed = s;
    changed.entries[0].changes[Expr::field(Expr::arg("d"), "pm")] = 2;
    EXPECT_NE(summaryFingerprint(changed), fp);
    FunctionSummary truncated = s;
    truncated.is_truncated = true;
    EXPECT_NE(summaryFingerprint(truncated), fp);
}

TEST(SummaryDb, StampsContentFingerprintOnAdd)
{
    SummaryDb db;
    FunctionSummary computed;
    computed.function = "f";
    computed.params = {"d"};
    computed.entries.push_back(SummaryEntry{});
    db.addComputed(computed);
    const FunctionSummary *found = db.find("f");
    ASSERT_NE(found, nullptr);
    EXPECT_NE(found->fingerprint, 0u);
    EXPECT_EQ(found->fingerprint, summaryFingerprint(*found));
}

TEST(SummaryDb, PredefinedBeatsComputed)
{
    SummaryDb db;
    FunctionSummary computed;
    computed.function = "f";
    computed.entries.push_back(SummaryEntry{});
    db.addComputed(computed);

    FunctionSummary spec;
    spec.function = "f";
    spec.entries.push_back(SummaryEntry{});
    spec.entries.push_back(SummaryEntry{});
    db.addPredefined(spec);

    const FunctionSummary *found = db.find("f");
    ASSERT_NE(found, nullptr);
    EXPECT_TRUE(found->is_predefined);
    EXPECT_EQ(found->entries.size(), 2u);

    // Computed summaries never overwrite predefined ones.
    db.addComputed(computed);
    EXPECT_TRUE(db.find("f")->is_predefined);
}

TEST(SummaryDb, FindMissingReturnsNull)
{
    SummaryDb db;
    EXPECT_EQ(db.find("nope"), nullptr);
}

TEST(SpecParser, ParsesTheDpmShape)
{
    auto parsed = parseSpecText(R"(
summary pm_runtime_get_sync(dev) -> int {
  entry { cons: true; change: [dev].pm += 1; return: [0]; }
}
)").summaries;
    ASSERT_EQ(parsed.size(), 1u);
    const auto &s = parsed[0].summary;
    EXPECT_EQ(s.function, "pm_runtime_get_sync");
    EXPECT_EQ(s.params, (std::vector<std::string>{"dev"}));
    EXPECT_TRUE(s.returns_value);
    ASSERT_EQ(s.entries.size(), 1u);
    EXPECT_TRUE(s.entries[0].cons.isTrue());
    EXPECT_EQ(s.entries[0].changes.begin()->first.str(), "[dev].pm");
    EXPECT_EQ(s.entries[0].changes.begin()->second, 1);
}

TEST(SpecParser, MultipleEntriesAndConstraints)
{
    auto parsed = parseSpecText(R"(
summary PyList_New(len) -> ptr {
  entry { cons: [0] != null; change: [0].rc += 1; return: [0]; }
  entry { cons: [0] == null; return: null; }
}
)").summaries;
    const auto &s = parsed[0].summary;
    ASSERT_EQ(s.entries.size(), 2u);
    EXPECT_EQ(s.entries[0].cons.str(), "[0] != 0");
    EXPECT_TRUE(s.entries[1].ret.equals(smt::Expr::null()));
}

TEST(SpecParser, VoidFunctionsHaveNoReturn)
{
    auto parsed = parseSpecText(
        "summary Py_INCREF(o) -> void {"
        " entry { cons: true; change: [o].rc += 1; return: none; } }")
                      .summaries;
    EXPECT_FALSE(parsed[0].returns_value);
    EXPECT_TRUE(parsed[0].summary.entries[0].ret.empty());
}

TEST(SpecParser, NegativeChangesAndConstants)
{
    auto parsed = parseSpecText(
        "summary f(a) -> int {"
        " entry { cons: [0] == -1; change: [a].rc -= 2; return: -1; } }")
                      .summaries;
    const auto &e = parsed[0].summary.entries[0];
    EXPECT_EQ(e.changes.begin()->second, -2);
    EXPECT_EQ(e.ret.intValue(), -1);
}

TEST(SpecParser, DisjunctionAndNegationInCons)
{
    auto parsed = parseSpecText(
        "summary f(a) -> int {"
        " entry { cons: [a] == 0 || !([0] < 0) && [a] > 1; } }").summaries;
    // || binds loosest: a == 0 || (!(..) && a > 1)
    const auto &cons = parsed[0].summary.entries[0].cons;
    EXPECT_EQ(cons.kind(), smt::FormulaKind::Or);
}

TEST(SpecParser, CommentsAndBlankLines)
{
    auto parsed = parseSpecText(
        "# leading comment\n\n"
        "summary f() -> void { # trailing\n entry { cons: true; "
        "return: none; } }\n# done\n").summaries;
    EXPECT_EQ(parsed.size(), 1u);
}

TEST(SpecParser, ErrorsCarryLineNumbers)
{
    try {
        parseSpecText("summary f() -> int {\n  entry { bogus: 1; }\n}");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_EQ(e.line(), 2);
    }
}

TEST(SpecParser, RejectsNonZeroBracketNumbers)
{
    EXPECT_THROW(parseSpecText("summary f() -> int {"
                               " entry { cons: [1] == 0; } }"),
                 SpecError);
}

TEST(SpecParser, RejectsMissingSummaryKeyword)
{
    EXPECT_THROW(parseSpecText("function f() -> int {}"), SpecError);
}

TEST(SpecRoundTrip, SerializeThenParse)
{
    auto parsed = parseSpecText(R"(
summary usb_autopm_get_interface(intf) -> int {
  entry { cons: [0] < 0; return: [0]; }
  entry { cons: [0] == 0; change: [intf].dev.pm += 1; return: [0]; }
}
)").summaries;
    std::string text = serializeSummary(parsed[0].summary);
    auto again = parseSpecText(text).summaries;
    ASSERT_EQ(again.size(), 1u);
    const auto &a = parsed[0].summary;
    const auto &b = again[0].summary;
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (size_t i = 0; i < a.entries.size(); i++) {
        EXPECT_TRUE(a.entries[i].cons.equals(b.entries[i].cons));
        EXPECT_EQ(a.entries[i].changes, b.entries[i].changes);
    }
    EXPECT_EQ(a.params, b.params);
}

TEST(SpecRoundTrip, FlagsSurvive)
{
    FunctionSummary s = FunctionSummary::defaultFor("f", true);
    s.is_truncated = true;
    auto again = parseSpecText(serializeSummary(s)).summaries;
    EXPECT_TRUE(again[0].summary.is_default);
    EXPECT_TRUE(again[0].summary.is_truncated);
}

TEST(SpecRoundTrip, TempAtomsSurvive)
{
    FunctionSummary s;
    s.function = "f";
    s.returns_value = false;
    SummaryEntry e;
    e.changes[smt::Expr::field(smt::Expr::temp("c1_0"), "rc")] = 1;
    s.entries.push_back(e);
    auto again = parseSpecText(serializeSummary(s)).summaries;
    EXPECT_EQ(again[0].summary.entries[0].changes.begin()->first.str(),
              "%c1_0.rc");
}

TEST(SpecLoad, LoadSpecsIntoRegistersPredefined)
{
    SummaryDb db;
    loadSpecsInto("summary f(a) -> int { entry { cons: true; "
                  "change: [a].rc += 1; } }",
                  db);
    ASSERT_TRUE(db.hasPredefined("f"));
    EXPECT_TRUE(db.find("f")->hasChanges());
}

TEST(SpecSave, DbSavesOnlyComputed)
{
    SummaryDb db;
    loadSpecsInto("summary api(a) -> void { entry { cons: true; } }",
                  db);
    FunctionSummary computed = FunctionSummary::defaultFor("mine", true);
    db.addComputed(computed);
    std::string saved = db.saveComputed();
    EXPECT_NE(saved.find("summary mine"), std::string::npos);
    EXPECT_EQ(saved.find("summary api"), std::string::npos);
}

TEST(SpecDomains, ParsesDeclarationAndTaggedChange)
{
    ParsedSpec spec = parseSpecText(R"(
domain lock { policy: balanced; }
summary spin_lock(l) -> void {
  entry { cons: true; change(lock): [l].held += 1; return: none; }
}
)");
    ASSERT_EQ(spec.domains.size(), 1u);
    EXPECT_EQ(spec.domains[0].name, "lock");
    EXPECT_EQ(spec.domains[0].policy, DomainPolicy::Balanced);
    ASSERT_EQ(spec.summaries.size(), 1u);
    const auto &changes = spec.summaries[0].summary.entries[0].changes;
    ASSERT_EQ(changes.size(), 1u);
    EXPECT_EQ(changes.begin()->first.domain, "lock");
    EXPECT_EQ(changes.begin()->second, 1);
}

TEST(SpecDomains, UntaggedChangeIsRefDomain)
{
    auto parsed = parseSpecText("summary g(a) -> void { entry { cons: true; "
                                "change: [a].rc += 1; } }")
                      .summaries;
    const auto &key = parsed[0].summary.entries[0].changes.begin()->first;
    EXPECT_EQ(key.domain, kRefDomain);
    EXPECT_TRUE(key.isRef());
    EXPECT_EQ(key.str(), "[a].rc");
}

TEST(SpecDomains, RoundTripPreservesDomainTag)
{
    DomainTable known;
    known.declare({"lock", DomainPolicy::Balanced});
    ParsedSpec spec = parseSpecText(
        "summary mutex_lock(l) -> void { entry { cons: true; "
        "change(lock): [l].held += 1; } }",
        &known);
    std::string text = serializeSummary(spec.summaries[0].summary);
    EXPECT_NE(text.find("change(lock):"), std::string::npos);
    ParsedSpec again = parseSpecText(text, &known);
    EXPECT_EQ(spec.summaries[0].summary.entries[0].changes,
              again.summaries[0].summary.entries[0].changes);
}

TEST(SpecDomains, SaveComputedEmitsDomainHeaderForNonRef)
{
    SummaryDb db;
    ASSERT_TRUE(db.declareDomain({"lock", DomainPolicy::Balanced}));
    FunctionSummary s;
    s.function = "wrapper";
    s.returns_value = false;
    SummaryEntry e;
    e.changes[EffectKey("lock", smt::Expr::field(smt::Expr::arg("l"),
                                                 "held"))] = 1;
    s.entries.push_back(e);
    db.addComputed(s);
    std::string saved = db.saveComputed();
    EXPECT_NE(saved.find("domain lock { policy: balanced; }"),
              std::string::npos);

    // A ref-only database never emits a domain header (byte
    // compatibility with pre-domain exports).
    SummaryDb ref_db;
    ref_db.addComputed(FunctionSummary::defaultFor("plain", true));
    EXPECT_EQ(ref_db.saveComputed().find("domain"), std::string::npos);
}

TEST(SpecDomainErrors, DeclarationWithoutPolicyThrows)
{
    EXPECT_THROW(parseSpecText("domain lock { }"), SpecError);
    try {
        parseSpecText("domain lock { }");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("declares no policy"),
                  std::string::npos);
    }
}

TEST(SpecDomainErrors, UnknownPolicyThrows)
{
    EXPECT_THROW(parseSpecText("domain lock { policy: bogus; }"),
                 SpecError);
}

TEST(SpecDomainErrors, MalformedDeclarationThrows)
{
    EXPECT_THROW(parseSpecText("domain { policy: ipp; }"), SpecError);
    EXPECT_THROW(parseSpecText("domain lock policy: ipp;"), SpecError);
    EXPECT_THROW(parseSpecText("domain lock { color: red; }"), SpecError);
}

TEST(SpecDomainErrors, UnknownDomainReferenceThrows)
{
    try {
        parseSpecText("summary f(a) -> void { entry { cons: true; "
                      "change(lock): [a].held += 1; } }");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown domain 'lock'"),
                  std::string::npos);
    }
}

TEST(SpecDomainErrors, ConflictingRedeclarationThrows)
{
    EXPECT_THROW(parseSpecText("domain lock { policy: balanced; }\n"
                               "domain lock { policy: ipp; }"),
                 SpecError);
    // Redeclaring with the same policy is harmless (spec concatenation).
    EXPECT_NO_THROW(parseSpecText("domain lock { policy: balanced; }\n"
                                  "domain lock { policy: balanced; }"));
    // `ref` is implicitly declared with the ipp policy.
    EXPECT_THROW(parseSpecText("domain ref { policy: balanced; }"),
                 SpecError);
}

TEST(SpecDomainErrors, DuplicateSummaryRejectedByLoad)
{
    SummaryDb db;
    const std::string dup =
        "summary f(a) -> void { entry { cons: true; } }\n"
        "summary f(a) -> void { entry { cons: true; } }";
    EXPECT_THROW(loadSpecsInto(dup, db), SpecError);
    // parseSpecText itself allows duplicates: computed-summary imports
    // concatenate exports across levels and the last one wins.
    EXPECT_NO_THROW(parseSpecText(dup));
}

TEST(SpecDomainErrors, LoadSpecTolerantRecordsDiagnosticNeverThrows)
{
    Rid tool;
    EXPECT_FALSE(tool.loadSpecTolerant("bad.spec",
                                       "domain lock { policy: bogus; }"));
    EXPECT_FALSE(tool.loadSpecTolerant(
        "unknown.spec", "summary f(a) -> void { entry { cons: true; "
                        "change(lock): [a].held += 1; } }"));
    EXPECT_FALSE(tool.loadSpecTolerant(
        "dup.spec", "summary g() -> void { entry { cons: true; } }\n"
                    "summary g() -> void { entry { cons: true; } }"));
    ASSERT_EQ(tool.fileDiagnostics().size(), 3u);
    EXPECT_EQ(tool.fileDiagnostics()[0].file, "bad.spec");
    EXPECT_NE(tool.fileDiagnostics()[1].reason.find("unknown domain"),
              std::string::npos);
    EXPECT_NE(tool.fileDiagnostics()[2].reason.find("duplicate summary"),
              std::string::npos);
    // A good spec still loads afterwards.
    EXPECT_TRUE(tool.loadSpecTolerant(
        "good.spec", "summary h(a) -> void { entry { cons: true; "
                     "change: [a].rc += 1; } }"));
    EXPECT_TRUE(tool.summaries().hasPredefined("h"));
}

/** Default-summary slots over a fixed name list, so SummaryDb marks can
 *  be driven without an IR module. */
class NameSlots final : public DefaultSlots
{
  public:
    explicit NameSlots(std::vector<std::string> names)
        : names_(std::move(names))
    {
    }

    size_t size() const override { return names_.size(); }
    int slotOf(const std::string &fn) const override
    {
        auto it = std::find(names_.begin(), names_.end(), fn);
        return it == names_.end() ? -1
                                  : static_cast<int>(it - names_.begin());
    }
    const std::string &nameOf(int slot) const override
    {
        return names_[slot];
    }
    bool returnsValue(int) const override { return true; }

  private:
    std::vector<std::string> names_;
};

TEST(SummaryDefaults, ConcurrentLookupsMaterializeOnce)
{
    // Repeated so that the first lookups really overlap in some rounds.
    for (int round = 0; round < 50; round++) {
        SummaryDb db;
        db.bindDefaults(std::make_unique<NameSlots>(
            std::vector<std::string>{"callee", "unmarked"}));
        db.markDefaulted(0);
        EXPECT_EQ(db.defaultsMaterialized(), 0u);

        std::vector<const FunctionSummary *> seen(8, nullptr);
        {
            std::atomic<int> ready{0};
            std::atomic<bool> go{false};
            std::vector<std::jthread> threads;
            for (size_t t = 0; t < seen.size(); t++) {
                threads.emplace_back([&, t] {
                    ready++;
                    // Spin without yielding so the lookups start together.
                    while (!go.load()) {
                    }
                    seen[t] = db.find("callee");
                });
            }
            while (ready.load() < static_cast<int>(seen.size()))
                std::this_thread::yield();
            go = true;
        }
        ASSERT_NE(seen[0], nullptr);
        for (const FunctionSummary *s : seen)
            EXPECT_EQ(s, seen[0]);
        ASSERT_EQ(db.defaultsMaterialized(), 1u) << "round " << round;

        // The same summary addComputed(defaultFor(...)) would have
        // stored.
        FunctionSummary expected =
            FunctionSummary::defaultFor("callee", true);
        EXPECT_TRUE(seen[0]->is_default);
        EXPECT_EQ(seen[0]->str(), expected.str());
        EXPECT_EQ(seen[0]->fingerprint, summaryFingerprint(expected));
        EXPECT_EQ(db.find("unmarked"), nullptr);
    }
}

TEST(SummaryDefaults, DbBindsOnce)
{
    SummaryDb db;
    db.bindDefaults(
        std::make_unique<NameSlots>(std::vector<std::string>{"first"}));
    db.markDefaulted(0);
    EXPECT_THROW(db.bindDefaults(std::make_unique<NameSlots>(
                     std::vector<std::string>{"second"})),
                 std::logic_error);
    // The refused call changed nothing: the first binding's mark is
    // still unbuilt, and builds on its first lookup.
    EXPECT_EQ(db.defaultsMaterialized(), 0u);
    const FunctionSummary *first = db.find("first");
    ASSERT_NE(first, nullptr);
    EXPECT_TRUE(first->is_default);
    EXPECT_EQ(db.find("second"), nullptr);
}

TEST(SummaryDefaults, DefaultReplacesAStoredSummary)
{
    // A summary stored before the binding (an imported one, say) is
    // marked as stored, so defaulting its function replaces it in place.
    SummaryDb db;
    FunctionSummary computed;
    computed.function = "f";
    computed.entries.push_back(SummaryEntry{});
    db.addComputed(computed);
    db.bindDefaults(
        std::make_unique<NameSlots>(std::vector<std::string>{"f"}));
    db.markDefaulted(0);
    EXPECT_EQ(db.defaultsMaterialized(), 1u);
    const FunctionSummary *found = db.find("f");
    ASSERT_NE(found, nullptr);
    EXPECT_TRUE(found->is_default);
}

TEST(SummaryDefaults, ComputedReplacesAnUnbuiltDefault)
{
    // A summary computed after the mark is the later write: it clears
    // the mark, and no default is ever built.
    SummaryDb db;
    db.bindDefaults(
        std::make_unique<NameSlots>(std::vector<std::string>{"f"}));
    db.markDefaulted(0);
    FunctionSummary computed;
    computed.function = "f";
    computed.entries.push_back(SummaryEntry{});
    db.addComputed(computed);
    const FunctionSummary *found = db.find("f");
    ASSERT_NE(found, nullptr);
    EXPECT_FALSE(found->is_default);
    EXPECT_EQ(db.defaultsMaterialized(), 0u);
    // The cleared mark renders no default row next to the computed one.
    std::string exported = db.saveComputed();
    EXPECT_EQ(exported.find("default"), std::string::npos) << exported;
    EXPECT_NE(exported.find("summary f("), std::string::npos) << exported;
}

TEST(SummaryDefaults, RunDefaultReplacesAnImportedSummary)
{
    // No specs, so lonely is category 3 and defaulted by the run, even
    // though an imported summary for it was already stored.
    Rid tool;
    tool.importSummaries("summary lonely(v) -> int {\n"
                         "  entry { cons: true; return: [0]; }\n"
                         "}\n");
    const FunctionSummary *before = tool.summaries().find("lonely");
    ASSERT_NE(before, nullptr);
    EXPECT_FALSE(before->is_default);
    tool.addSource("int lonely(int v) {\n    return v;\n}\n");
    RunResult result = tool.run();
    EXPECT_EQ(result.stats.functions_defaulted, 1u);
    const FunctionSummary *after = tool.summaries().find("lonely");
    ASSERT_NE(after, nullptr);
    EXPECT_TRUE(after->is_default);
}

/** A category-1 caller of two defined category-3 helpers and of an
 *  undefined extern, and a category-3 function nobody calls. */
const char *kDefaultsSource = R"(
int zeta_helper(struct device *dev) {
    return 0;
}
void alpha_helper(struct device *dev) {
    return;
}
int caller(struct device *dev) {
    pm_runtime_get_sync(dev);
    zeta_helper(dev);
    alpha_helper(dev);
    ext_probe(dev);
    pm_runtime_put(dev);
    return 0;
}
int lonely(int v) {
    return v;
}
)";

/** One SCC of two functions; category 1 with the DPM specs, category 3
 *  without them. */
const char *kPingPongSource = R"(
int ping(struct device *dev, int n) {
    pm_runtime_get_sync(dev);
    if (n > 0)
        pong(dev, n - 1);
    pm_runtime_put(dev);
    return 0;
}
int pong(struct device *dev, int n) {
    if (n > 0)
        ping(dev, n - 1);
    return 0;
}
)";

/** Whether any entry of @p s instantiated a summary of @p callee. */
bool
calleeChainMentions(const FunctionSummary &s, const std::string &callee)
{
    for (const auto &e : s.entries) {
        const auto &chain = e.origin.callees;
        if (std::find(chain.begin(), chain.end(), callee) != chain.end())
            return true;
    }
    return false;
}

/** Analyze @p source with the DPM specs, keeping entry origins intact. */
std::unique_ptr<Rid>
analyzeUncompacted(const std::string &source)
{
    analysis::AnalyzerOptions opts;
    opts.compact_summaries = false;
    auto tool = std::make_unique<Rid>(opts);
    tool->loadSpecText(kernel::dpmSpecText());
    tool->addSource(source);
    tool->run();
    return tool;
}

TEST(SummaryDefaults, DefaultedCalleeEntersTheCalleeChain)
{
    auto tool = analyzeUncompacted(kDefaultsSource);
    const FunctionSummary *caller = tool->summaries().find("caller");
    ASSERT_NE(caller, nullptr);
    EXPECT_TRUE(calleeChainMentions(*caller, "zeta_helper"));
    EXPECT_TRUE(calleeChainMentions(*caller, "alpha_helper"));
    const FunctionSummary *helper = tool->summaries().find("zeta_helper");
    ASSERT_NE(helper, nullptr);
    EXPECT_TRUE(helper->is_default);
}

TEST(SummaryDefaults, UndefinedExternStaysAbsent)
{
    auto tool = analyzeUncompacted(kDefaultsSource);
    const FunctionSummary *caller = tool->summaries().find("caller");
    ASSERT_NE(caller, nullptr);
    EXPECT_FALSE(calleeChainMentions(*caller, "ext_probe"));
    EXPECT_EQ(tool->summaries().find("ext_probe"), nullptr);
}

TEST(SummaryDefaults, SameSccCalleeNotYetRunReadsAbsent)
{
    // ping and pong form one SCC and are both analyzed, one after the
    // other: the first sees its partner absent (no chain entry), the
    // second sees the first's computed summary.
    auto tool = analyzeUncompacted(kPingPongSource);
    const FunctionSummary *ping = tool->summaries().find("ping");
    const FunctionSummary *pong = tool->summaries().find("pong");
    ASSERT_NE(ping, nullptr);
    ASSERT_NE(pong, nullptr);
    EXPECT_NE(calleeChainMentions(*ping, "pong"),
              calleeChainMentions(*pong, "ping"));
}

TEST(SummaryDefaults, ExportRendersDefaultsInNameOrder)
{
    Rid tool;
    tool.loadSpecText(kernel::dpmSpecText());
    tool.addSource(kDefaultsSource);
    tool.run();
    EXPECT_EQ(tool.exportSummaries(),
              "summary alpha_helper() -> void default {\n"
              "  entry { cons: true; return: none; }\n"
              "}\n"
              "summary caller(dev) -> int {\n"
              "  entry { cons: [0] == 0; return: 0; }\n"
              "}\n"
              "summary lonely() -> int default {\n"
              "  entry { cons: true; return: [0]; }\n"
              "}\n"
              "summary zeta_helper() -> int default {\n"
              "  entry { cons: true; return: [0]; }\n"
              "}\n");
    // caller's analysis looked up both helpers; lonely is rendered
    // without being built into the database.
    EXPECT_EQ(tool.summaries().defaultsMaterialized(), 2u);
}

/**
 * Everything a spec text declares, rendered canonically: the domain
 * declarations, then each summary's signature and serialized entries.
 * Comments and layout do not show.
 */
std::string
canonicalSpec(const std::string &text)
{
    ParsedSpec spec = parseSpecText(text);
    std::ostringstream out;
    for (const DomainInfo &d : spec.domains)
        out << "domain " << d.name << " policy "
            << static_cast<int>(d.policy) << "\n";
    for (const ParsedSummary &p : spec.summaries) {
        out << "params";
        for (const std::string &param : p.params)
            out << " " << param;
        out << (p.returns_value ? " -> value\n" : " -> void\n")
            << serializeSummary(p.summary);
    }
    return out.str();
}

/** Each built-in spec text is the spec file shipped beside it, apart
 *  from comments: the same domains and the same summaries. */
TEST(SpecDrift, BuiltinSpecTextsMatchTheirFiles)
{
    const std::pair<const std::string &, const char *> pairs[] = {
        {kernel::dpmSpecText(), "dpm.spec"},
        {pyc::pycSpecText(), "pythonc.spec"},
        {kernel::lockSpecText(), "lock.spec"},
        {kernel::allocSpecText(), "kmalloc.spec"},
    };
    for (const auto &[builtin, file] : pairs) {
        std::ifstream in(std::string(RID_TEST_SPECS_DIR) + "/" + file);
        std::stringstream text;
        text << in.rdbuf();
        ASSERT_FALSE(text.str().empty()) << file;
        EXPECT_FALSE(parseSpecText(text.str()).summaries.empty()) << file;
        EXPECT_EQ(canonicalSpec(builtin), canonicalSpec(text.str()))
            << file;
    }
}

} // anonymous namespace
} // namespace rid::summary

#include "summary/db.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/failpoint.h"
#include "summary/spec.h"

namespace rid::summary {

bool
SummaryDb::declareDomain(const DomainInfo &info)
{
    std::unique_lock lock(mutex_);
    return domains_.declare(info) != DomainTable::DeclareResult::Conflict;
}

DomainTable
SummaryDb::domains() const
{
    std::shared_lock lock(mutex_);
    return domains_;
}

void
SummaryDb::addPredefined(FunctionSummary s)
{
    std::unique_lock lock(mutex_);
    s.is_predefined = true;
    s.fingerprint = summaryFingerprint(s);
    predefined_[s.function] = std::move(s);
}

void
SummaryDb::addComputed(FunctionSummary s)
{
    std::unique_lock lock(mutex_);
    if (predefined_.count(s.function))
        return;
    s.fingerprint = summaryFingerprint(s);
    // A later write than any default mark on the same function.
    if (int slot = slotOf(s.function); slot >= 0)
        marks_[slot].store(kStored);
    computed_[s.function] = std::move(s);
}

int
SummaryDb::slotOf(const std::string &fn) const
{
    if (!slots_)
        return -1;
    int slot = slots_->slotOf(fn);
    return slot >= 0 && static_cast<size_t>(slot) < num_marks_ ? slot : -1;
}

void
SummaryDb::materializeLocked(int slot) const
{
    // Building the default entry interns expressions, which is itself a
    // failpoint site; a default is recovery and must not be re-injected.
    obs::FailpointSuppressScope suppress;
    FunctionSummary s = FunctionSummary::defaultFor(
        slots_->nameOf(slot), slots_->returnsValue(slot));
    s.fingerprint = summaryFingerprint(s);
    computed_[s.function] = std::move(s);
    marks_[slot].store(kStored);
    materialized_++;
}

void
SummaryDb::bindDefaults(std::unique_ptr<const DefaultSlots> slots)
{
    std::unique_lock lock(mutex_);
    if (slots_)
        throw std::logic_error("SummaryDb::bindDefaults: already bound");
    slots_ = std::move(slots);
    num_marks_ = slots_->size();
    marks_ = std::make_unique<std::atomic<uint8_t>[]>(num_marks_);
    for (const auto &[name, s] : computed_)
        if (int slot = slotOf(name); slot >= 0)
            marks_[slot].store(kStored);
}

void
SummaryDb::markDefaulted(int slot)
{
    std::atomic<uint8_t> &mark = marks_[slot];
    if (!(mark.load() & kStored)) {
        mark.store(kDefaulted);
        return;
    }
    // An earlier summary is stored: the default replaces it in place.
    std::unique_lock lock(mutex_);
    materializeLocked(slot);
}

const FunctionSummary *
SummaryDb::find(const std::string &fn) const
{
    int slot = -1;
    {
        std::shared_lock lock(mutex_);
        auto it = predefined_.find(fn);
        if (it != predefined_.end())
            return &it->second;
        auto it2 = computed_.find(fn);
        if (it2 != computed_.end())
            return &it2->second;
        slot = slotOf(fn);
        if (slot < 0 || !(marks_[slot].load() & kDefaulted))
            return nullptr;
    }
    std::unique_lock lock(mutex_);
    // Another reader may have built it since the shared lock was dropped.
    if (marks_[slot].load() & kDefaulted)
        materializeLocked(slot);
    return &computed_.find(fn)->second;
}

bool
SummaryDb::hasPredefined(const std::string &fn) const
{
    std::shared_lock lock(mutex_);
    return predefined_.count(fn) != 0;
}

std::vector<std::string>
SummaryDb::predefinedNames() const
{
    std::shared_lock lock(mutex_);
    std::vector<std::string> names;
    names.reserve(predefined_.size());
    for (const auto &[name, s] : predefined_)
        names.push_back(name);
    std::sort(names.begin(), names.end());
    return names;
}

std::vector<std::string>
SummaryDb::namesWithChanges() const
{
    return namesWithChanges({});
}

std::vector<std::string>
SummaryDb::namesWithChanges(
    const std::vector<std::string> &enabled_domains) const
{
    std::shared_lock lock(mutex_);
    std::vector<std::string> names;
    for (const auto &[name, s] : predefined_) {
        if (s.hasChangesIn(enabled_domains))
            names.push_back(name);
    }
    for (const auto &[name, s] : computed_) {
        if (s.hasChangesIn(enabled_domains) && !predefined_.count(name))
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

size_t
SummaryDb::defaultsMaterialized() const
{
    std::shared_lock lock(mutex_);
    return materialized_;
}

std::string
SummaryDb::saveComputed() const
{
    std::shared_lock lock(mutex_);
    // Defaults nobody looked up are rendered here, not stored.
    std::vector<FunctionSummary> defaults;
    {
        obs::FailpointSuppressScope suppress;
        for (size_t k = 0; k < num_marks_; k++)
            if (marks_[k].load() & kDefaulted)
                defaults.push_back(FunctionSummary::defaultFor(
                    slots_->nameOf(static_cast<int>(k)),
                    slots_->returnsValue(static_cast<int>(k))));
    }
    std::vector<const FunctionSummary *> rows;
    rows.reserve(computed_.size() + defaults.size());
    for (const auto &[name, s] : computed_)
        rows.push_back(&s);
    for (const FunctionSummary &s : defaults)
        rows.push_back(&s);
    // Name-sorted so the export is byte-identical regardless of the
    // (thread-scheduling-dependent) order summaries were inserted in.
    std::sort(rows.begin(), rows.end(),
              [](const FunctionSummary *a, const FunctionSummary *b) {
                  return a->function < b->function;
              });
    std::ostringstream os;
    // Non-ref domains referenced by the export are declared up front so
    // the text round-trips through parseSpecText() without needing the
    // original spec files. Ref-only exports stay byte-identical to the
    // pre-domain format.
    std::set<std::string> used;
    for (const FunctionSummary *s : rows)
        for (const auto &e : s->entries)
            for (const auto &[rc, delta] : e.changes)
                if (!rc.isRef())
                    used.insert(rc.domain);
    for (const auto &name : used) {
        os << "domain " << name << " { policy: "
           << domainPolicyName(domains_.policyOf(name)) << "; }\n";
    }
    for (const FunctionSummary *s : rows)
        os << serializeSummary(*s);
    return os.str();
}

} // namespace rid::summary

#include "ir/name.h"

#include <deque>
#include <mutex>
#include <ostream>
#include <vector>

namespace rid::ir {

constinit const std::string Name::kEmpty;

namespace {

/**
 * The process-wide intern table. Strings live in a deque so they never
 * move. The index is an open-addressing table of (hash, string) slots
 * kept at most half full: a lookup usually touches one slot and, on a
 * hash match, the one string it compares, which matters because a cold
 * corpus scan looks up every identifier it lexes.
 */
struct InternTable
{
    struct Slot
    {
        size_t hash = 0;
        const std::string *s = nullptr;   ///< null: empty slot
    };

    std::mutex mu;                        ///< guards strings and slots
    std::deque<std::string> strings;
    std::vector<Slot> slots = std::vector<Slot>(1024);   // power of two

    /** Slot holding @p spelling, or the empty slot where it belongs. */
    Slot &
    find(std::string_view spelling, size_t hash)
    {
        size_t mask = slots.size() - 1;
        size_t i = hash & mask;
        while (slots[i].s &&
               !(slots[i].hash == hash && *slots[i].s == spelling))
            i = (i + 1) & mask;
        return slots[i];
    }

    void
    grow()
    {
        std::vector<Slot> old(slots.size() * 2);
        old.swap(slots);
        for (const Slot &e : old)
            if (e.s)
                find(*e.s, e.hash) = e;
    }
};

InternTable &
table()
{
    // Never destroyed: names may be read by other static destructors.
    static InternTable *t = new InternTable;
    return *t;
}

} // anonymous namespace

Name::Name(std::string_view spelling) : s_(&kEmpty)
{
    if (spelling.empty())
        return;
    size_t hash = std::hash<std::string_view>{}(spelling);
    InternTable &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    InternTable::Slot &slot = t.find(spelling, hash);
    if (!slot.s) {
        slot = {hash, &t.strings.emplace_back(spelling)};
        s_ = slot.s;
        if (t.strings.size() * 2 > t.slots.size())
            t.grow();
        return;
    }
    s_ = slot.s;
}

size_t
Name::internedCount()
{
    InternTable &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    return t.strings.size();
}

std::ostream &
operator<<(std::ostream &os, Name n)
{
    return os << n.str();
}

} // namespace rid::ir

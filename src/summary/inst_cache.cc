#include "summary/inst_cache.h"

#include "smt/intern.h"

namespace rid::summary {

uint64_t
InstKey::fingerprint() const
{
    using smt::fpCombine;
    uint64_t h = smt::fpBytes("rid-inst-key-v1");
    h = fpCombine(h, summary_fp);
    h = fpCombine(h, static_cast<uint64_t>(entry_index));
    h = smt::fpRange(h, actuals.begin(), actuals.end(),
                     [](const smt::Expr &a) { return a.fingerprint(); });
    h = fpCombine(h, slot.fingerprint());
    h = fpCombine(h, static_cast<uint64_t>(wants_result));
    return h;
}

bool
InstKey::equals(const InstKey &o) const
{
    if (summary_fp != o.summary_fp || entry_index != o.entry_index ||
        wants_result != o.wants_result || !slot.equals(o.slot) ||
        actuals.size() != o.actuals.size()) {
        return false;
    }
    for (size_t i = 0; i < actuals.size(); i++)
        if (!actuals[i].equals(o.actuals[i]))
            return false;
    return true;
}

} // namespace rid::summary

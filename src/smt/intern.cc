#include "smt/intern.h"

namespace rid::smt {

InternStats
totalInternStats()
{
    InternStats total = exprInternStats();
    total += formulaInternStats();
    return total;
}

} // namespace rid::smt

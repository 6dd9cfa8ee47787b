#include "analysis/dot.h"

#include <sstream>

namespace rid::analysis {

namespace {

/** Escape a label for DOT: quotes and backslashes. */
std::string
dotEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\l";
            continue;
        }
        out += c;
    }
    return out;
}

const char *
categoryColor(Category c)
{
    switch (c) {
      case Category::RefcountChanging:
        return "lightcoral";
      case Category::Affecting:
        return "khaki";
      case Category::Other:
        return "lightgray";
    }
    return "white";
}

} // anonymous namespace

std::string
cfgToDot(const ir::Function &fn)
{
    std::ostringstream os;
    os << "digraph \"" << dotEscape(fn.name()) << "\" {\n";
    os << "  node [shape=box, fontname=\"monospace\"];\n";
    for (size_t b = 0; b < fn.numBlocks(); b++) {
        const auto &bb = fn.block(static_cast<ir::BlockId>(b));
        std::ostringstream label;
        label << "bb" << b;
        if (!bb.label.empty())
            label << " (" << bb.label << ")";
        label << "\n";
        for (const auto &in : bb.instrs)
            label << in.str() << "\n";
        os << "  bb" << b << " [label=\"" << dotEscape(label.str())
           << "\"];\n";
        if (!bb.hasTerminator())
            continue;
        const auto &term = bb.terminator();
        if (term.op == ir::Opcode::Branch) {
            os << "  bb" << b << " -> bb" << term.target << ";\n";
        } else if (term.op == ir::Opcode::CondBranch) {
            os << "  bb" << b << " -> bb" << term.target
               << " [label=\"T\"];\n";
            os << "  bb" << b << " -> bb" << term.target_else
               << " [label=\"F\"];\n";
        }
    }
    os << "}\n";
    return os.str();
}

std::string
callGraphToDot(const CallGraph &cg, const FunctionClassifier *classifier)
{
    std::ostringstream os;
    os << "digraph callgraph {\n";
    os << "  node [shape=ellipse];\n";

    // Cluster multi-member SCCs (recursion groups).
    for (size_t s = 0; s < cg.numSccs(); s++) {
        const auto &members = cg.sccMembers(static_cast<int>(s));
        if (members.size() < 2)
            continue;
        os << "  subgraph cluster_scc" << s << " {\n";
        os << "    label=\"scc " << s << "\";\n";
        for (int node : members)
            os << "    n" << node << ";\n";
        os << "  }\n";
    }

    for (size_t n = 0; n < cg.size(); n++) {
        os << "  n" << n << " [label=\"" << dotEscape(cg.nameOf(
                  static_cast<int>(n)))
           << "\"";
        if (classifier) {
            os << ", style=filled, fillcolor="
               << categoryColor(
                      classifier->categoryOf(static_cast<int>(n)));
        }
        os << "];\n";
    }
    for (size_t n = 0; n < cg.size(); n++) {
        for (int callee : cg.calleesOf(static_cast<int>(n)))
            os << "  n" << n << " -> n" << callee << ";\n";
    }
    os << "}\n";
    return os.str();
}

} // namespace rid::analysis

#include "baseline/cpychecker.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "analysis/paths.h"
#include "obs/budget.h"
#include "obs/failpoint.h"
#include "smt/intern.h"

namespace rid::baseline {

std::string
BaselineReport::str() const
{
    std::ostringstream os;
    os << function << ": object '" << variable << "' has net change "
       << (refs >= 0 ? "+" : "") << refs << " but " << expected
       << " reference(s) escape";
    return os.str();
}

uint64_t
BaselineReport::computeFingerprint(uint64_t function_fingerprint) const
{
    using smt::fpBytes;
    using smt::fpCombine;
    uint64_t h = fpCombine(function_fingerprint, fpBytes(function));
    h = fpCombine(h, fpBytes(domain));
    h = fpCombine(h, fpBytes(variable));
    h = fpCombine(h, static_cast<uint64_t>(static_cast<int64_t>(refs)));
    h = fpCombine(h, static_cast<uint64_t>(static_cast<int64_t>(expected)));
    return h;
}

std::vector<obs::ProvenanceRecord>
provenanceRecords(const std::vector<BaselineReport> &reports)
{
    std::vector<obs::ProvenanceRecord> records;
    records.reserve(reports.size());
    for (const auto &r : reports) {
        obs::ProvenanceRecord rec;
        rec.tool = "cpychecker";
        rec.function = r.function;
        rec.function_fp = r.function_fp;
        rec.fingerprint = r.fingerprint;
        rec.domain = r.domain;
        rec.kind = "escape";
        rec.counter = r.variable;
        rec.path_a.delta = r.refs;
        rec.has_path_b = true;
        rec.path_b.cons =
            "(escape rule: expected " + std::to_string(r.expected) + ")";
        rec.path_b.delta = r.expected;
        records.push_back(std::move(rec));
    }
    return records;
}

Cpychecker::Cpychecker(const std::map<std::string, pyc::ApiAttr> &attrs,
                       CpycheckerOptions opts)
    : attrs_(attrs), opts_(opts)
{}

namespace {

/** State of one tracked object along a path. */
struct ObjState
{
    std::string var;     ///< source variable for the report
    int refs = 0;        ///< net count change so far
    int escapes = 0;     ///< references escaped (returned / stolen)
    bool is_null = false; ///< this path established the object is null
    bool borrowed = false;
    /** Effect domain, attributed from the API that created the object or
     *  (for argument objects) the first count-changing API; empty until
     *  attributed, reported as "ref". */
    std::string domain;
};

/**
 * Static pre-pass: find ctor calls whose result ends up in a variable
 * with more than one such (static) binding. Without SSA those objects are
 * conflated under one name and cannot be tracked (Section 6.6). The
 * front-end routes every call result through a fresh temp, so the binding
 * is the first copy `v = temp` following the call in the same block; a
 * result that stays in its single-assignment temp is always trackable.
 */
struct BindingInfo
{
    /** For each ctor call: the source variable its result binds to. */
    std::map<const ir::Instruction *, std::string> bound_var;
    /** Calls whose bound variable has multiple static ctor bindings. */
    std::set<const ir::Instruction *> untrackable;
};

BindingInfo
analyzeBindings(const ir::Function &fn,
                const std::map<std::string, pyc::ApiAttr> &attrs)
{
    BindingInfo info;
    std::map<std::string, int> defs;
    for (size_t b = 0; b < fn.numBlocks(); b++) {
        const auto &bb = fn.block(b);
        for (size_t i = 0; i < bb.instrs.size(); i++) {
            const auto &in = bb.instrs[i];
            if (in.op != ir::Opcode::Call || in.dst.empty())
                continue;
            auto it = attrs.find(in.callee);
            if (it == attrs.end() || !(it->second.returns_new_ref ||
                                       it->second.returns_borrowed)) {
                continue;
            }
            std::string var = in.dst;
            for (size_t j = i + 1; j < bb.instrs.size(); j++) {
                const auto &next = bb.instrs[j];
                if (next.op == ir::Opcode::Assign && next.a.isVar() &&
                    next.a.varName() == in.dst) {
                    var = next.dst;
                    break;
                }
            }
            info.bound_var[&in] = var;
            defs[var]++;
        }
    }
    for (const auto &[call, var] : info.bound_var)
        if (defs[var] > 1)
            info.untrackable.insert(call);
    return info;
}

/** Per-path walker with object-identity aliasing. */
struct PathWalker
{
    const ir::Function &fn;
    const std::map<std::string, pyc::ApiAttr> &attrs;
    const CpycheckerOptions &opts;
    const BindingInfo &bindings;

    std::map<int, ObjState> objects;
    std::map<std::string, int> binding;  ///< variable -> object id
    /** Boolean temps testing an object against null:
     *  temp -> (object id, true means "temp <=> object is null"). */
    std::map<std::string, std::pair<int, bool>> null_tests;
    int next_id = 0;

    std::vector<BaselineReport> reports;

    ObjState *
    objectFor(const ir::Value &v)
    {
        if (!v.isVar())
            return nullptr;
        auto it = binding.find(v.varName());
        if (it == binding.end())
            return nullptr;
        auto obj = objects.find(it->second);
        return obj == objects.end() ? nullptr : &obj->second;
    }

    void
    walk(const analysis::Path &path)
    {
        for (size_t step = 0; step < path.blocks.size(); step++) {
            const auto &bb = fn.block(path.blocks[step]);
            for (const auto &in : bb.instrs) {
                switch (in.op) {
                  case ir::Opcode::Call:
                    handleCall(in);
                    break;
                  case ir::Opcode::Cmp:
                    handleCmp(in);
                    break;
                  case ir::Opcode::CondBranch: {
                    bool taken = step + 1 < path.blocks.size() &&
                                 path.blocks[step + 1] == in.target;
                    handleBranch(in, taken);
                    break;
                  }
                  case ir::Opcode::Assign:
                    if (in.dst.empty())
                        break;
                    if (in.a.isVar() && binding.count(in.a.varName())) {
                        // Copy: the destination aliases the same object.
                        binding[in.dst] = binding[in.a.varName()];
                    } else {
                        binding.erase(in.dst);
                    }
                    break;
                  case ir::Opcode::FieldLoad:
                    // Coarse aliasing for the argument-checking mode:
                    // a field of a tracked object stands for the object
                    // itself (e.g. &intf->dev in a DPM wrapper).
                    if (!in.dst.empty()) {
                        if (opts.check_arguments && in.a.isVar() &&
                            binding.count(in.a.varName())) {
                            binding[in.dst] = binding[in.a.varName()];
                        } else {
                            binding.erase(in.dst);
                        }
                    }
                    break;
                  case ir::Opcode::Return:
                    handleReturn(in);
                    return;
                  default:
                    if (!in.dst.empty())
                        binding.erase(in.dst);
                    break;
                }
            }
        }
    }

    void
    handleCall(const ir::Instruction &in)
    {
        auto it = attrs.find(in.callee);
        if (it == attrs.end()) {
            // Unannotated function: cpychecker assumes no refcount effect
            // and an untracked result.
            if (!in.dst.empty())
                binding.erase(in.dst);
            return;
        }
        const pyc::ApiAttr &attr = it->second;

        for (const auto &[arg_idx, delta] : attr.arg_delta) {
            if (arg_idx < static_cast<int>(in.args.size())) {
                if (ObjState *obj = objectFor(in.args[arg_idx])) {
                    obj->refs += delta;
                    if (obj->domain.empty())
                        obj->domain = attr.domain;
                }
            }
        }
        for (int stolen : attr.steals_args) {
            if (stolen < static_cast<int>(in.args.size())) {
                if (ObjState *obj = objectFor(in.args[stolen]))
                    obj->escapes++;
            }
        }
        if (!in.dst.empty()) {
            binding.erase(in.dst);
            if ((attr.returns_new_ref || attr.returns_borrowed) &&
                !bindings.untrackable.count(&in)) {
                int id = next_id++;
                ObjState state;
                auto bound = bindings.bound_var.find(&in);
                state.var = bound != bindings.bound_var.end()
                                ? bound->second
                                : in.dst.str();
                state.refs = attr.returns_new_ref ? 1 : 0;
                state.borrowed = attr.returns_borrowed;
                state.domain = attr.domain;
                objects[id] = state;
                binding[in.dst] = id;
            }
        }
    }

    void
    handleCmp(const ir::Instruction &in)
    {
        // Remember null tests of tracked objects so the following branch
        // can refine null-ness.
        null_tests.erase(in.dst);
        if (!in.a.isVar())
            return;
        auto bind = binding.find(in.a.varName());
        bool rhs_null = in.b.isConst() && in.b.intValue() == 0;
        if (bind != binding.end() && rhs_null &&
            (in.pred == smt::Pred::Eq || in.pred == smt::Pred::Ne)) {
            null_tests[in.dst] = {bind->second,
                                  in.pred == smt::Pred::Eq};
        }
    }

    void
    handleBranch(const ir::Instruction &in, bool taken)
    {
        if (!in.a.isVar())
            return;
        auto it = null_tests.find(in.a.varName());
        if (it == null_tests.end())
            return;
        const auto &[id, eq_means_null] = it->second;
        auto obj = objects.find(id);
        if (obj == objects.end())
            return;
        if (taken == eq_means_null) {
            // Allocation failed on this path: nothing is held.
            obj->second.is_null = true;
            obj->second.refs = 0;
            obj->second.escapes = 0;
        }
    }

    void
    handleReturn(const ir::Instruction &in)
    {
        if (in.a.isVar()) {
            if (ObjState *obj = objectFor(in.a))
                obj->escapes++;
        }
        for (const auto &[id, obj] : objects) {
            if (obj.is_null || obj.borrowed)
                continue;
            if (obj.refs != obj.escapes) {
                BaselineReport r;
                r.function = fn.name();
                r.variable = obj.var;
                r.refs = obj.refs;
                r.expected = obj.escapes;
                if (!obj.domain.empty())
                    r.domain = obj.domain;
                reports.push_back(std::move(r));
            }
        }
    }
};

} // anonymous namespace

std::vector<BaselineReport>
Cpychecker::checkFunction(const ir::Function &fn) const
{
    bool truncated = false, deadline_hit = false;
    return checkFunctionInner(fn, nullptr, truncated, deadline_hit);
}

std::vector<BaselineReport>
Cpychecker::checkFunctionInner(const ir::Function &fn,
                               const obs::Budget *budget, bool &truncated,
                               bool &deadline_hit) const
{
    std::vector<BaselineReport> out;
    if (fn.isDeclaration())
        return out;

    BindingInfo bindings = analyzeBindings(fn, attrs_);
    if (opts_.ssa_renaming) {
        // Ablation: SSA-style tracking keeps reassigned names apart, so
        // nothing is untrackable.
        bindings.untrackable.clear();
    }

    auto paths = analysis::enumeratePaths(fn, opts_.max_paths, budget);
    truncated = truncated || paths.truncated;
    deadline_hit = deadline_hit || paths.deadline_hit;
    if (paths.deadline_hit)
        return out;
    std::set<std::pair<std::string, std::string>> seen;

    auto runWalker = [&](bool with_args) {
        for (const auto &path : paths.paths) {
            if (budget && budget->expired()) {
                deadline_hit = true;
                return;
            }
            PathWalker walker{fn, attrs_, opts_, bindings,
                              {}, {}, {}, 0, {}};
            if (with_args) {
                for (const auto &p : fn.params()) {
                    int id = walker.next_id++;
                    ObjState s;
                    s.var = p;
                    walker.objects[id] = s;
                    walker.binding[p] = id;
                }
            }
            walker.walk(path);
            for (auto &r : walker.reports) {
                if (seen.insert({r.function, r.variable}).second)
                    out.push_back(std::move(r));
            }
        }
    };

    runWalker(/*with_args=*/false);
    if (opts_.check_arguments)
        runWalker(/*with_args=*/true);
    if (!out.empty()) {
        // Same stamping contract as the main analyzer: the fingerprint is
        // a deterministic function of the function body and the report's
        // witness shape, independent of run configuration.
        uint64_t fn_fp = fn.fingerprint();
        for (auto &r : out) {
            r.function_fp = fn_fp;
            r.fingerprint = r.computeFingerprint(fn_fp);
        }
    }
    return out;
}

std::vector<BaselineReport>
Cpychecker::checkModule(const ir::Module &mod) const
{
    std::vector<BaselineReport> out;
    for (const auto &fn : mod.functions()) {
        auto reports = checkFunction(*fn);
        for (auto &r : reports)
            out.push_back(std::move(r));
    }
    return out;
}

BaselineRunResult
Cpychecker::run(const ir::Module &mod, const obs::Budget *budget) const
{
    using analysis::FnStatus;
    BaselineRunResult out;
    for (const auto &fn : mod.functions()) {
        if (fn->isDeclaration())
            continue;
        obs::FailpointScope fp_scope(fn->name());
        if (budget && budget->expiredNow()) {
            // Graceful run-level degradation: remaining functions are
            // skipped with a diagnostic, never silently.
            out.diagnostics.push_back(
                {fn->name(), FnStatus::Timeout,
                 std::string("budget: ") +
                     obs::budgetStopName(budget->stopReason())});
            continue;
        }
        try {
            bool truncated = false, deadline_hit = false;
            auto reports =
                checkFunctionInner(*fn, budget, truncated, deadline_hit);
            if (deadline_hit || (budget && budget->expiredNow())) {
                // Partial reports are timing-dependent; drop them.
                out.diagnostics.push_back(
                    {fn->name(), FnStatus::Timeout,
                     std::string("budget: ") +
                         obs::budgetStopName(budget->stopReason())});
                continue;
            }
            if (truncated) {
                // checkModule() hits the same cap silently; here it is
                // first-class: the reports stand but are marked partial.
                out.diagnostics.push_back(
                    {fn->name(), FnStatus::Truncated,
                     "max_paths cap truncated enumeration"});
            }
            for (auto &r : reports)
                out.reports.push_back(std::move(r));
        } catch (const std::exception &e) {
            out.diagnostics.push_back(
                {fn->name(), FnStatus::Degraded, e.what()});
        }
    }
    std::sort(out.diagnostics.begin(), out.diagnostics.end(),
              [](const analysis::FunctionDiagnostic &a,
                 const analysis::FunctionDiagnostic &b) {
                  return a.function < b.function;
              });
    return out;
}

} // namespace rid::baseline

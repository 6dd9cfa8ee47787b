#include "ir/function.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/failpoint.h"
#include "smt/intern.h"

namespace rid::ir {

namespace {

void
appendInt(std::string &out, int64_t v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void
appendBlockRef(std::string &out, BlockId id)
{
    out += "bb";
    appendInt(out, id);
}

uint32_t
nameHash(std::string_view name)
{
    return static_cast<uint32_t>(std::hash<std::string_view>{}(name));
}

} // anonymous namespace

Value
Value::var(Name name)
{
    Value v;
    v.kind_ = ValueKind::Var;
    v.name_ = name.s_;
    return v;
}

Value
Value::intConst(int64_t value)
{
    Value v;
    v.kind_ = ValueKind::IntConst;
    v.int_ = value;
    return v;
}

Value
Value::boolConst(bool value)
{
    Value v;
    v.kind_ = ValueKind::BoolConst;
    v.int_ = value ? 1 : 0;
    return v;
}

Value
Value::null()
{
    Value v;
    v.kind_ = ValueKind::Null;
    return v;
}

void
Value::appendTo(std::string &out) const
{
    switch (kind_) {
      case ValueKind::None: out += "<none>"; return;
      case ValueKind::Var: out += *name_; return;
      case ValueKind::IntConst: appendInt(out, int_); return;
      case ValueKind::BoolConst: out += int_ ? "true" : "false"; return;
      case ValueKind::Null: out += "null"; return;
    }
    out += '?';
}

std::string
Value::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Assign: return "assign";
      case Opcode::FieldLoad: return "fieldload";
      case Opcode::FieldStore: return "fieldstore";
      case Opcode::Random: return "random";
      case Opcode::Call: return "call";
      case Opcode::Return: return "return";
      case Opcode::Cmp: return "cmp";
      case Opcode::CondBranch: return "condbranch";
      case Opcode::Branch: return "branch";
    }
    return "?";
}

Instruction
Instruction::assign(Name dst, Value src)
{
    Instruction i;
    i.op = Opcode::Assign;
    i.dst = dst;
    i.a = src;
    return i;
}

Instruction
Instruction::fieldLoad(Name dst, Value base, Name field)
{
    Instruction i;
    i.op = Opcode::FieldLoad;
    i.dst = dst;
    i.a = base;
    i.field = field;
    return i;
}

Instruction
Instruction::fieldStore(Value base, Name field, Value value)
{
    Instruction i;
    i.op = Opcode::FieldStore;
    i.a = base;
    i.field = field;
    i.b = value;
    return i;
}

Instruction
Instruction::random(Name dst)
{
    Instruction i;
    i.op = Opcode::Random;
    i.dst = dst;
    return i;
}

Instruction
Instruction::call(Name dst, Name callee, std::span<const Value> args)
{
    Instruction i;
    i.op = Opcode::Call;
    i.dst = dst;
    i.callee = callee;
    i.args = args;
    return i;
}

Instruction
Instruction::ret(Value v)
{
    Instruction i;
    i.op = Opcode::Return;
    i.a = v;
    return i;
}

Instruction
Instruction::cmp(Name dst, smt::Pred pred, Value lhs, Value rhs)
{
    Instruction i;
    i.op = Opcode::Cmp;
    i.dst = dst;
    i.pred = pred;
    i.a = lhs;
    i.b = rhs;
    return i;
}

Instruction
Instruction::condBranch(Value cond_var, BlockId if_true, BlockId if_false)
{
    Instruction i;
    i.op = Opcode::CondBranch;
    i.a = cond_var;
    i.target = if_true;
    i.target_else = if_false;
    return i;
}

Instruction
Instruction::branch(BlockId target)
{
    Instruction i;
    i.op = Opcode::Branch;
    i.target = target;
    return i;
}

void
Instruction::appendTo(std::string &out) const
{
    switch (op) {
      case Opcode::Assign:
        out += dst.str();
        out += " = ";
        a.appendTo(out);
        break;
      case Opcode::FieldLoad:
        out += dst.str();
        out += " = ";
        a.appendTo(out);
        out += '.';
        out += field.str();
        break;
      case Opcode::FieldStore:
        a.appendTo(out);
        out += '.';
        out += field.str();
        out += " = ";
        b.appendTo(out);
        break;
      case Opcode::Random:
        out += dst.str();
        out += " = random";
        break;
      case Opcode::Call:
        if (!dst.empty()) {
            out += dst.str();
            out += " = ";
        }
        out += callee.str();
        out += '(';
        for (size_t i = 0; i < args.size(); i++) {
            if (i)
                out += ", ";
            args[i].appendTo(out);
        }
        out += ')';
        break;
      case Opcode::Return:
        out += "return";
        if (!a.isNone()) {
            out += ' ';
            a.appendTo(out);
        }
        break;
      case Opcode::Cmp:
        out += dst.str();
        out += " = ";
        a.appendTo(out);
        out += ' ';
        out += smt::predSpelling(pred);
        out += ' ';
        b.appendTo(out);
        break;
      case Opcode::CondBranch:
        out += "branch ";
        a.appendTo(out);
        out += ", ";
        appendBlockRef(out, target);
        out += ", ";
        appendBlockRef(out, target_else);
        break;
      case Opcode::Branch:
        out += "branch ";
        appendBlockRef(out, target);
        break;
    }
}

std::string
Instruction::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

std::vector<BlockId>
BasicBlock::successors() const
{
    if (!hasTerminator())
        return {};
    const Instruction &t = terminator();
    switch (t.op) {
      case Opcode::Branch:
        return {t.target};
      case Opcode::CondBranch:
        return {t.target, t.target_else};
      default:
        return {};
    }
}

int
Function::countCondBranches() const
{
    int n = 0;
    for (const auto &bb : blocks_)
        for (const auto &in : bb.instrs)
            if (in.op == Opcode::CondBranch)
                n++;
    return n;
}

bool
Function::isParam(Name name) const
{
    for (Name p : params_)
        if (p == name)
            return true;
    return false;
}

void
Function::verify() const
{
    obs::failpoint("ir.verify");
    auto fail = [this](size_t block, const std::string &msg) {
        throw IrError(name_, static_cast<BlockId>(block), msg);
    };
    for (size_t b = 0; b < blocks_.size(); b++) {
        const auto &bb = blocks_[b];
        if (!bb.hasTerminator())
            fail(b, "block lacks a terminator");
        for (size_t i = 0; i < bb.instrs.size(); i++) {
            const auto &in = bb.instrs[i];
            if (in.isTerminator() && i + 1 != bb.instrs.size())
                fail(b, "terminator not last in block");
            if (in.op == Opcode::Branch || in.op == Opcode::CondBranch) {
                auto check = [&](BlockId t) {
                    if (t < 0 || static_cast<size_t>(t) >= blocks_.size())
                        fail(b, "branch target out of range");
                };
                check(in.target);
                if (in.op == Opcode::CondBranch)
                    check(in.target_else);
            }
            if (in.op == Opcode::Return) {
                if (returnsValue_ && in.a.isNone())
                    fail(b, "missing return value");
            }
        }
    }
}

void
Function::appendTo(std::string &out) const
{
    out += returnsValue_ ? "int " : "void ";
    out += name_;
    out += '(';
    for (size_t i = 0; i < params_.size(); i++) {
        if (i)
            out += ", ";
        out += params_[i].str();
    }
    out += ')';
    if (isDeclaration()) {
        out += ";\n";
        return;
    }
    out += " {\n";
    for (size_t b = 0; b < blocks_.size(); b++) {
        out += "  ";
        appendBlockRef(out, static_cast<BlockId>(b));
        if (!blocks_[b].label.empty()) {
            out += " (";
            out += blocks_[b].label.str();
            out += ')';
        }
        out += ":\n";
        for (const auto &in : blocks_[b].instrs) {
            out += "    ";
            in.appendTo(out);
            out += '\n';
        }
    }
    out += "}\n";
}

std::string
Function::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

uint64_t
Function::fingerprint() const
{
    // Hash the printed bytes through a per-thread buffer: after the first
    // call it has the capacity of the largest body seen, so fingerprinting
    // a corpus allocates nothing per function.
    thread_local std::string buf;
    buf.clear();
    appendTo(buf);
    return smt::fpBytes(buf);
}

std::unique_ptr<Function>
Function::allocate(Name name, std::span<const Name> params,
                   bool returns_value, size_t body_bytes)
{
    static_assert(alignof(Function) % alignof(Name) == 0 &&
                  sizeof(Function) % alignof(Name) == 0);
    std::unique_ptr<Function> fn(
        new (Trailing{body_bytes + params.size_bytes()})
            Function(name, returns_value));
    auto *dst = reinterpret_cast<Name *>(fn->bodyStorage() + body_bytes);
    std::uninitialized_copy(params.begin(), params.end(), dst);
    fn->params_ = {dst, params.size()};
    return fn;
}

std::unique_ptr<Function>
Function::declaration(Name name, std::span<const Name> params,
                      bool returns_value)
{
    return allocate(name, params, returns_value, 0);
}

/** Build locks and the build counter of a module that lowers on first
 *  read. A function takes the lock of its stripe while it is built, so
 *  two threads never build it twice and builds of other functions
 *  mostly do not wait. */
struct Module::Lazy
{
    static constexpr size_t kStripes = 64;

    std::shared_ptr<const Lowering> lowering;
    std::mutex stripes[kStripes];
    std::atomic<size_t> lowered{0};
};

Module::Module() = default;
Module::~Module() = default;
Module::Module(Module &&) noexcept = default;
Module &Module::operator=(Module &&) noexcept = default;

size_t
Module::slotOf(std::string_view name, uint32_t hash) const
{
    const size_t mask = index_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        const Slot &s = index_[i];
        if (s.pos < 0 ||
            (s.hash == hash && entries_[s.pos].sk.name == name))
            return i;
    }
}

void
Module::storeCallees(const Function &fn, Skeleton &sk)
{
    // Distinct targets in first-call order; a body calls few enough
    // distinct functions that a linear scan beats a set.
    thread_local std::vector<Name> seen;
    seen.clear();
    for (const BasicBlock &bb : fn.blocks_)
        for (const Instruction &in : bb.instrs)
            if (in.op == Opcode::Call &&
                std::find(seen.begin(), seen.end(), in.callee) == seen.end())
                seen.push_back(in.callee);
    sk.num_callees = static_cast<uint32_t>(seen.size());
    if (seen.empty())
        return;
    if (callee_chunk_used_ + seen.size() > callee_chunk_size_) {
        callee_chunk_size_ = std::max<size_t>(4096, seen.size());
        callee_chunks_.push_back(std::make_unique<Name[]>(callee_chunk_size_));
        callee_chunk_used_ = 0;
    }
    Name *dst = callee_chunks_.back().get() + callee_chunk_used_;
    std::copy(seen.begin(), seen.end(), dst);
    callee_chunk_used_ += seen.size();
    sk.callee_names = dst;
}

void
Module::place(std::unique_ptr<Function> fn, uint32_t unit,
              const SourceSpan &span, bool fingerprint,
              std::span<const Name> keep_callers_of)
{
    if ((entries_.size() + 1) * 4 > index_.size() * 3) {
        std::vector<Slot> old(std::max<size_t>(16, index_.size() * 2),
                              Slot{0, -1});
        old.swap(index_);
        const size_t mask = index_.size() - 1;
        for (const Slot &s : old) {
            if (s.pos < 0)
                continue;
            size_t i = s.hash & mask;
            while (index_[i].pos >= 0)
                i = (i + 1) & mask;
            index_[i] = s;
        }
    }
    const uint32_t hash = nameHash(fn->name());
    Slot &s = index_[slotOf(fn->name(), hash)];
    // Keep a definition over a declaration; otherwise first wins. The
    // definition takes the declaration's slot and position.
    Entry *kept = s.pos < 0 ? nullptr : &entries_[s.pos];
    if (kept && !(kept->sk.declaration && !fn->isDeclaration()))
        return;

    Skeleton sk;
    sk.name = fn->name_;
    sk.span = span;
    sk.unit = unit;
    sk.declaration = fn->isDeclaration();
    sk.returns_value = fn->returnsValue();
    if (fingerprint)
        sk.fingerprint = fn->fingerprint();
    storeCallees(*fn, sk);
    // Only a function the hook can rebuild from its source gives up its
    // IR.
    bool keep = !lazy_ || span.end == 0;
    for (Name callee : sk.callees())
        keep = keep || std::ranges::find(keep_callers_of, callee) !=
                           keep_callers_of.end();
    Function *ir = keep ? fn.release() : nullptr;
    if (!kept) {
        s = {hash, static_cast<int32_t>(entries_.size())};
        entries_.emplace_back(sk, ir);
        return;
    }
    kept->sk = sk;
    delete kept->fn.exchange(ir, std::memory_order_relaxed);
}

void
Module::commit(std::vector<std::unique_ptr<Function>> unit,
               std::span<const SourceSpan> spans, bool fingerprint,
               std::span<const Name> keep_callers_of)
{
    if (!spans.empty() && spans.size() != unit.size())
        throw std::logic_error(
            "ir::Module: a unit committed with spans needs one per "
            "function");
    uint32_t ordinal = units_++;
    for (size_t i = 0; i < unit.size(); i++)
        place(std::move(unit[i]), ordinal,
              spans.empty() ? SourceSpan{} : spans[i], fingerprint,
              keep_callers_of);
}

void
Module::absorb(Module other)
{
    std::vector<std::unique_ptr<Function>> unit;
    std::vector<SourceSpan> spans;
    unit.reserve(other.size());
    spans.reserve(other.size());
    for (size_t k = 0; k < other.size(); k++) {
        other.function(k);
        unit.emplace_back(other.entries_[k].fn.exchange(
            nullptr, std::memory_order_relaxed));
        spans.push_back(other.entries_[k].sk.span);
    }
    commit(std::move(unit), spans);
}

void
Module::setLowering(std::shared_ptr<const Lowering> lowering)
{
    if (!lazy_)
        lazy_ = std::make_unique<Lazy>();
    lazy_->lowering = std::move(lowering);
}

const Function &
Module::build(size_t k) const
{
    const Entry &e = entries_[k];
    std::lock_guard<std::mutex> lock(lazy_->stripes[k % Lazy::kStripes]);
    // The stripe lock orders this load after the store of any thread
    // that built the function first.
    if (const Function *fn = e.fn.load(std::memory_order_relaxed))
        return *fn;
    std::unique_ptr<Function> fn;
    {
        // The unit's faults were injected, if at all, when it was first
        // lowered; a rebuild is not a new frontend run.
        obs::FailpointSuppressScope suppress;
        fn = lazy_->lowering->lower(e.sk);
    }
    if (!fn || fn->name_ != e.sk.name ||
        fn->isDeclaration() != e.sk.declaration)
        throw IrError(e.sk.name.str(), 0,
                      "rebuilt function does not match its skeleton");
    lazy_->lowered.fetch_add(1, std::memory_order_relaxed);
    Function *built = fn.release();
    e.fn.store(built, std::memory_order_release);
    return *built;
}

size_t
Module::lowered() const
{
    return lazy_ ? lazy_->lowered.load(std::memory_order_relaxed) : 0;
}

int
Module::indexOf(std::string_view name) const
{
    if (index_.empty())
        return -1;
    return index_[slotOf(name, nameHash(name))].pos;
}

const Function *
Module::find(std::string_view name) const
{
    int k = indexOf(name);
    return k < 0 ? nullptr : &function(k);
}

std::string
Module::str() const
{
    std::string out;
    for (size_t k = 0; k < size(); k++) {
        function(k).appendTo(out);
        out += '\n';
    }
    return out;
}

} // namespace rid::ir

#include "ir/function.h"

#include <cassert>
#include <charconv>

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
Instruction::call(Name dst, Name callee, std::vector<Value> args)
{
    Instruction i;
    i.op = Opcode::Call;
    i.dst = dst;
    i.callee = callee;
    i.args = std::move(args);
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
Function::isParam(const std::string &name) const
{
    for (const auto &p : params_)
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
        out += params_[i];
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

Function *
Module::addFunction(Function fn)
{
    return adopt(std::make_unique<Function>(std::move(fn)));
}

Function *
Module::adopt(std::unique_ptr<Function> fn)
{
    auto [it, added] =
        byName_.try_emplace(fn->name(), static_cast<int>(functions_.size()));
    if (added) {
        functions_.push_back(std::move(fn));
        return functions_.back().get();
    }
    // Keep a definition over a declaration; otherwise first wins. The
    // definition takes the declaration's slot, and the key is re-pointed
    // at the new owner's name before the declaration's goes away.
    std::unique_ptr<Function> &slot = functions_[it->second];
    if (slot->isDeclaration() && !fn->isDeclaration()) {
        auto entry = byName_.extract(it);
        entry.key() = fn->name();
        byName_.insert(std::move(entry));
        slot = std::move(fn);
    }
    return slot.get();
}

int
Module::indexOf(std::string_view name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? -1 : it->second;
}

Function *
Module::find(const std::string &name)
{
    int k = indexOf(name);
    return k < 0 ? nullptr : functions_[k].get();
}

const Function *
Module::find(const std::string &name) const
{
    int k = indexOf(name);
    return k < 0 ? nullptr : functions_[k].get();
}

void
Module::absorb(Module other)
{
    uint32_t unit = absorbed_++;
    for (auto &fn : other.functions_) {
        fn->unit_ = unit;
        adopt(std::move(fn));
    }
}

std::string
Module::str() const
{
    std::string out;
    for (const auto &fn : functions_) {
        fn->appendTo(out);
        out += '\n';
    }
    return out;
}

} // namespace rid::ir

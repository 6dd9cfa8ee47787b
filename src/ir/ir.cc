#include "ir/function.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <functional>
#include <memory>

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

size_t
Module::slotOf(std::string_view name, uint32_t hash) const
{
    const size_t mask = index_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        const Slot &s = index_[i];
        if (s.pos < 0 ||
            (s.hash == hash && functions_[s.pos]->name() == name))
            return i;
    }
}

Function *
Module::addFunction(std::unique_ptr<Function> fn)
{
    if ((functions_.size() + 1) * 4 > index_.size() * 3) {
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
    if (s.pos < 0) {
        s = {hash, static_cast<int32_t>(functions_.size())};
        functions_.push_back(std::move(fn));
        return functions_.back().get();
    }
    // Keep a definition over a declaration; otherwise first wins. The
    // definition takes the declaration's slot and position.
    std::unique_ptr<Function> &slot = functions_[s.pos];
    if (slot->isDeclaration() && !fn->isDeclaration())
        slot = std::move(fn);
    return slot.get();
}

void
Module::commit(std::vector<std::unique_ptr<Function>> unit)
{
    uint32_t ordinal = units_++;
    for (auto &fn : unit) {
        fn->unit_ = ordinal;
        addFunction(std::move(fn));
    }
}

int
Module::indexOf(std::string_view name) const
{
    if (index_.empty())
        return -1;
    return index_[slotOf(name, nameHash(name))].pos;
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

#include "frontend/lower.h"

#include <cassert>
#include <map>

#include "frontend/parser.h"
#include "ir/builder.h"

namespace rid::frontend {

namespace {

using ir::BlockId;
using ir::IrBuilder;
using ir::Name;
using ir::Value;

/** Interned `t$<n>`, the name of lowering temporary @p n. Each thread
 *  spells a number once, so naming a temporary is an index. */
Name
tempName(int n)
{
    thread_local std::vector<Name> names;
    while (names.size() <= static_cast<size_t>(n))
        names.emplace_back("t$" + std::to_string(names.size()));
    return names[n];
}

/** @p fn's parameter names, in a per-thread buffer that the next call
 *  overwrites (IrBuilder and Function::declaration copy them). */
std::span<const Name>
paramNames(const AstFunction &fn)
{
    thread_local std::vector<Name> names;
    names.clear();
    for (const auto &p : fn.params)
        names.push_back(p.name);
    return names;
}

/** Lowers one function body onto an IrBuilder. */
class FunctionLowerer
{
  public:
    FunctionLowerer(const AstFunction &fn, const LowerOptions &opts)
        : fn_(fn), opts_(opts),
          builder_(fn.name, paramNames(fn), fn.returns_value)
    {}

    std::unique_ptr<ir::Function>
    lower()
    {
        lowerStmt(*fn_.body);
        // Fall off the end of the body: implicit return.
        if (!builder_.terminated())
            builder_.ret(fn_.returns_value ? Value::intConst(0)
                                           : Value::none());
        resolveGotos();
        return builder_.finish(fn_.returns_value);
    }

  private:
    Name freshTemp() { return tempName(temp_counter_++); }

    [[noreturn]] void
    err(const std::string &msg, int line) const
    {
        throw ParseError(fn_.name.str() + ": " + msg, line);
    }

    /** Get (creating on demand) the block for a source label. */
    BlockId
    labelBlock(Name name)
    {
        auto it = labels_.find(name);
        if (it != labels_.end())
            return it->second;
        BlockId b = builder_.newBlock(name);
        labels_.emplace(name, b);
        return b;
    }

    void
    resolveGotos() const
    {
        // All label blocks were created eagerly; nothing to patch. A goto
        // to an undefined label leaves an unterminated block, caught by
        // verify() — produce a friendlier error here.
        for (const auto &[name, defined] : label_defined_) {
            if (!defined)
                throw ParseError(fn_.name.str() +
                                     ": goto to undefined label '" +
                                     name.str() + "'",
                                 fn_.line);
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /** Lower an expression to an operand Value, emitting instructions. */
    Value
    lowerValue(const AstExpr &e)
    {
        switch (e.kind) {
          case AstExprKind::Ident:
            return Value::var(e.text);
          case AstExprKind::Number:
            return Value::intConst(e.number);
          case AstExprKind::Bool:
            return Value::boolConst(e.number != 0);
          case AstExprKind::Null:
            return Value::null();
          case AstExprKind::String:
            // Strings are opaque non-null blobs; model as nondet.
            return lowerRandom();
          case AstExprKind::Field: {
            Value base = lowerValue(*e.a);
            Name t = freshTemp();
            builder_.atLine(e.line).fieldLoad(t, base, e.text);
            return Value::var(t);
          }
          case AstExprKind::Call:
            return lowerCall(e, /*want_value=*/true);
          case AstExprKind::Unary:
            return lowerUnaryValue(e);
          case AstExprKind::Binary:
            return lowerBinaryValue(e);
          case AstExprKind::Ternary: {
            // cond ? a : b via a control-flow diamond.
            Name t = freshTemp();
            BlockId bt = builder_.newBlock();
            BlockId bf = builder_.newBlock();
            BlockId join = builder_.newBlock();
            lowerCond(*e.a, bt, bf);
            builder_.setBlock(bt);
            Value va = lowerValue(*e.b);
            builder_.assign(t, va);
            builder_.branch(join);
            builder_.setBlock(bf);
            Value vb = lowerValue(*e.c);
            builder_.assign(t, vb);
            builder_.branch(join);
            builder_.setBlock(join);
            return Value::var(t);
          }
          case AstExprKind::Index: {
            // Array elements are outside the abstraction: nondet.
            lowerForEffect(*e.a);
            lowerForEffect(*e.b);
            return lowerRandom();
          }
        }
        err("unsupported expression", e.line);
    }

    Value
    lowerRandom()
    {
        Name t = freshTemp();
        builder_.random(t);
        return Value::var(t);
    }

    Value
    lowerUnaryValue(const AstExpr &e)
    {
        const std::string &op = e.text.str();
        if (op == "&") {
            // &x and &x->f denote the same symbolic object as x / x->f.
            return lowerValue(*e.a);
        }
        if (op == "*") {
            Value base = lowerValue(*e.a);
            Name t = freshTemp();
            builder_.atLine(e.line).fieldLoad(t, base, "deref");
            return Value::var(t);
        }
        if (op == "!") {
            // Materialize the negation as a comparison temp.
            Name t = freshTemp();
            Value v = lowerValue(*e.a);
            builder_.atLine(e.line).cmp(t, smt::Pred::Eq, v,
                                        Value::intConst(0));
            return Value::var(t);
        }
        if (op == "-") {
            if (e.a->kind == AstExprKind::Number)
                return Value::intConst(-e.a->number);
            lowerForEffect(*e.a);
            return lowerRandom();
        }
        // ~, ++, -- : nondeterministic results.
        lowerForEffect(*e.a);
        return lowerRandom();
    }

    static bool
    isComparisonOp(const std::string &op)
    {
        return op == "==" || op == "!=" || op == "<" || op == "<=" ||
               op == ">" || op == ">=";
    }

    static smt::Pred
    predFor(const std::string &op)
    {
        if (op == "==") return smt::Pred::Eq;
        if (op == "!=") return smt::Pred::Ne;
        if (op == "<") return smt::Pred::Lt;
        if (op == "<=") return smt::Pred::Le;
        if (op == ">") return smt::Pred::Gt;
        return smt::Pred::Ge;
    }

    Value
    lowerBinaryValue(const AstExpr &e)
    {
        const std::string &op = e.text.str();
        if (isComparisonOp(op)) {
            Value a = lowerValue(*e.a);
            Value b = lowerValue(*e.b);
            Name t = freshTemp();
            builder_.atLine(e.line).cmp(t, predFor(op), a, b);
            return Value::var(t);
        }
        if (op == "&&" || op == "||") {
            // Short-circuit evaluation producing a 0/1 temp.
            Name t = freshTemp();
            BlockId bt = builder_.newBlock();
            BlockId bf = builder_.newBlock();
            BlockId join = builder_.newBlock();
            lowerCond(e, bt, bf);
            builder_.setBlock(bt);
            builder_.assign(t, Value::boolConst(true));
            builder_.branch(join);
            builder_.setBlock(bf);
            builder_.assign(t, Value::boolConst(false));
            builder_.branch(join);
            builder_.setBlock(join);
            return Value::var(t);
        }
        // Arithmetic / bit operations: fold constants, otherwise nondet
        // (the abstraction ignores arithmetic — Section 4.1).
        Value va = lowerValue(*e.a);
        Value vb = lowerValue(*e.b);
        if (opts_.model_bit_tests && op == "&") {
            // Extension (Section 5.4): `value & CONSTANT` becomes a
            // deterministic uninterpreted function of the value, encoded
            // as the synthetic field load `value.bits_<mask>` so that two
            // paths testing the same bit stay distinguishable.
            Value base, mask;
            if (vb.kind() == ir::ValueKind::IntConst && va.isVar()) {
                base = va;
                mask = vb;
            } else if (va.kind() == ir::ValueKind::IntConst &&
                       vb.isVar()) {
                base = vb;
                mask = va;
            }
            if (base.isVar()) {
                Name t = freshTemp();
                builder_.atLine(e.line).fieldLoad(
                    t, base, "bits_" + std::to_string(mask.intValue()));
                return Value::var(t);
            }
        }
        if (va.kind() == ir::ValueKind::IntConst &&
            vb.kind() == ir::ValueKind::IntConst) {
            // Fold with two's-complement wraparound: an overflowing
            // constant expression must not be undefined behaviour here
            // (INT64_MIN / -1 would trap).
            int64_t a = va.intValue(), b = vb.intValue();
            uint64_t ua = static_cast<uint64_t>(a);
            uint64_t ub = static_cast<uint64_t>(b);
            auto wrap = [](uint64_t v) {
                return Value::intConst(static_cast<int64_t>(v));
            };
            if (op == "+") return wrap(ua + ub);
            if (op == "-") return wrap(ua - ub);
            if (op == "*") return wrap(ua * ub);
            if (b == -1 && (op == "/" || op == "%"))
                return op == "/" ? wrap(0 - ua) : Value::intConst(0);
            if (op == "/" && b != 0) return Value::intConst(a / b);
            if (op == "%" && b != 0) return Value::intConst(a % b);
            if (op == "&") return Value::intConst(a & b);
            if (op == "|") return Value::intConst(a | b);
            if (op == "^") return Value::intConst(a ^ b);
            if (op == "<<") return wrap(ua << (b & 63));
            if (op == ">>") return Value::intConst(a >> (b & 63));
        }
        return lowerRandom();
    }

    Value
    lowerCall(const AstExpr &e, bool want_value)
    {
        if (e.a->kind != AstExprKind::Ident) {
            // Calls through function pointers are outside the abstraction
            // (Section 6.4); the result is nondeterministic.
            for (const auto &arg : e.args)
                lowerForEffect(*arg);
            return want_value ? lowerRandom() : Value::none();
        }
        std::vector<Value> args;
        args.reserve(e.args.size());
        for (const auto &arg : e.args)
            args.push_back(lowerValue(*arg));
        Name dst = want_value ? freshTemp() : Name();
        builder_.atLine(e.line).call(dst, e.a->text, args);
        return want_value ? Value::var(dst) : Value::none();
    }

    /** Evaluate an expression for side effects only. */
    void
    lowerForEffect(const AstExpr &e)
    {
        switch (e.kind) {
          case AstExprKind::Call:
            lowerCall(e, /*want_value=*/false);
            return;
          case AstExprKind::Ident:
          case AstExprKind::Number:
          case AstExprKind::Bool:
          case AstExprKind::Null:
          case AstExprKind::String:
            return;  // pure
          default:
            lowerValue(e);
            return;
        }
    }

    /**
     * Lower an expression as a branch condition with short-circuiting,
     * jumping to @p if_true / @p if_false. Leaves the cursor in a dead
     * position; callers must setBlock() afterwards.
     */
    void
    lowerCond(const AstExpr &e, BlockId if_true, BlockId if_false)
    {
        if (e.kind == AstExprKind::Unary && e.text == "!") {
            lowerCond(*e.a, if_false, if_true);
            return;
        }
        if (e.kind == AstExprKind::Binary && e.text == "&&") {
            BlockId mid = builder_.newBlock();
            lowerCond(*e.a, mid, if_false);
            builder_.setBlock(mid);
            lowerCond(*e.b, if_true, if_false);
            return;
        }
        if (e.kind == AstExprKind::Binary && e.text == "||") {
            BlockId mid = builder_.newBlock();
            lowerCond(*e.a, if_true, mid);
            builder_.setBlock(mid);
            lowerCond(*e.b, if_true, if_false);
            return;
        }
        if (e.kind == AstExprKind::Binary && isComparisonOp(e.text)) {
            Value a = lowerValue(*e.a);
            Value b = lowerValue(*e.b);
            Name t = freshTemp();
            builder_.atLine(e.line).cmp(t, predFor(e.text), a, b);
            builder_.condBranchNoMove(Value::var(t), if_true, if_false);
            return;
        }
        // Plain value: branch on (v != 0).
        Value v = lowerValue(e);
        Name t = freshTemp();
        builder_.atLine(e.line).cmp(t, smt::Pred::Ne, v, Value::intConst(0));
        builder_.condBranchNoMove(Value::var(t), if_true, if_false);
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    void
    lowerStmt(const AstStmt &s)
    {
        switch (s.kind) {
          case AstStmtKind::Block:
            for (const auto &child : s.body) {
                lowerStmt(*child);
                // Statements after a terminator in the same block are
                // unreachable; keep lowering into a fresh block so labels
                // inside remain reachable via goto.
                if (builder_.terminated() &&
                    &child != &s.body.back()) {
                    const AstStmt &next = **(&child + 1);
                    if (next.kind != AstStmtKind::Label) {
                        BlockId dead = builder_.newBlock();
                        builder_.setBlock(dead);
                    }
                }
            }
            return;
          case AstStmtKind::Empty:
            return;
          case AstStmtKind::Decl:
            for (size_t i = 0; i < s.names.size(); i++) {
                if (s.inits[i]) {
                    Value v = lowerValue(*s.inits[i]);
                    builder_.atLine(s.line).assign(s.names[i], v);
                }
                // Uninitialized locals keep their symbolic default.
            }
            return;
          case AstStmtKind::Assign: {
            if (s.lhs->kind == AstExprKind::Ident) {
                Value v = lowerValue(*s.rhs);
                builder_.atLine(s.line).assign(s.lhs->text, v);
                return;
            }
            if (opts_.model_field_stores &&
                s.lhs->kind == AstExprKind::Field) {
                // Extension (Section 5.4): record the store as an
                // observable path effect.
                Value base = lowerValue(*s.lhs->a);
                Value v = lowerValue(*s.rhs);
                builder_.atLine(s.line).fieldStore(base, s.lhs->text, v);
                return;
            }
            // Stores to fields/arrays/derefs are outside the abstraction
            // (Section 5.4): evaluate both sides for effects and drop.
            lowerForEffect(*s.lhs);
            lowerForEffect(*s.rhs);
            return;
          }
          case AstStmtKind::ExprStmt:
            lowerForEffect(*s.rhs);
            return;
          case AstStmtKind::If: {
            BlockId bt = builder_.newBlock();
            BlockId bf = builder_.newBlock();
            BlockId join = s.else_body ? builder_.newBlock() : bf;
            lowerCond(*s.cond, bt, bf);
            builder_.setBlock(bt);
            lowerStmt(*s.then_body);
            if (!builder_.terminated())
                builder_.branch(join);
            if (s.else_body) {
                builder_.setBlock(bf);
                lowerStmt(*s.else_body);
                if (!builder_.terminated())
                    builder_.branch(join);
            }
            builder_.setBlock(join);
            return;
          }
          case AstStmtKind::While: {
            BlockId head = builder_.newBlock("while.head");
            BlockId body = builder_.newBlock("while.body");
            BlockId exit = builder_.newBlock("while.exit");
            builder_.branch(head);
            builder_.setBlock(head);
            lowerCond(*s.cond, body, exit);
            builder_.setBlock(body);
            loop_stack_.push_back({head, exit});
            lowerStmt(*s.loop_body);
            loop_stack_.pop_back();
            if (!builder_.terminated())
                builder_.branch(head);
            builder_.setBlock(exit);
            return;
          }
          case AstStmtKind::DoWhile: {
            BlockId body = builder_.newBlock("do.body");
            BlockId head = builder_.newBlock("do.cond");
            BlockId exit = builder_.newBlock("do.exit");
            builder_.branch(body);
            builder_.setBlock(body);
            loop_stack_.push_back({head, exit});
            lowerStmt(*s.loop_body);
            loop_stack_.pop_back();
            if (!builder_.terminated())
                builder_.branch(head);
            builder_.setBlock(head);
            lowerCond(*s.cond, body, exit);
            builder_.setBlock(exit);
            return;
          }
          case AstStmtKind::For: {
            if (s.for_init)
                lowerStmt(*s.for_init);
            BlockId head = builder_.newBlock("for.head");
            BlockId body = builder_.newBlock("for.body");
            BlockId step = builder_.newBlock("for.step");
            BlockId exit = builder_.newBlock("for.exit");
            builder_.branch(head);
            builder_.setBlock(head);
            if (s.cond)
                lowerCond(*s.cond, body, exit);
            else
                builder_.branch(body);
            builder_.setBlock(body);
            loop_stack_.push_back({step, exit});
            lowerStmt(*s.loop_body);
            loop_stack_.pop_back();
            if (!builder_.terminated())
                builder_.branch(step);
            builder_.setBlock(step);
            if (s.for_step)
                lowerStmt(*s.for_step);
            if (!builder_.terminated())
                builder_.branch(head);
            builder_.setBlock(exit);
            return;
          }
          case AstStmtKind::Return: {
            Value v = Value::none();
            if (s.rhs)
                v = lowerValue(*s.rhs);
            else if (fn_.returns_value)
                v = Value::intConst(0);
            builder_.atLine(s.line).ret(v);
            return;
          }
          case AstStmtKind::Goto: {
            BlockId target = labelBlock(s.names[0]);
            label_defined_.emplace(s.names[0], false);
            builder_.atLine(s.line).branchNoMove(target);
            return;
          }
          case AstStmtKind::Label: {
            BlockId target = labelBlock(s.names[0]);
            label_defined_[s.names[0]] = true;
            if (!builder_.terminated())
                builder_.branch(target);
            builder_.setBlock(target);
            return;
          }
          case AstStmtKind::Break: {
            if (loop_stack_.empty())
                err("break outside loop", s.line);
            builder_.atLine(s.line).branchNoMove(loop_stack_.back().second);
            return;
          }
          case AstStmtKind::Continue: {
            if (loop_stack_.empty())
                err("continue outside loop", s.line);
            builder_.atLine(s.line).branchNoMove(loop_stack_.back().first);
            return;
          }
          case AstStmtKind::Assert: {
            BlockId cont = builder_.newBlock();
            BlockId fail = builder_.newBlock("assert.fail");
            lowerCond(*s.rhs, cont, fail);
            builder_.setBlock(fail);
            builder_.callVoid(kAssertFailFn, {});
            builder_.ret(fn_.returns_value ? Value::intConst(0)
                                           : Value::none());
            builder_.setBlock(cont);
            return;
          }
        }
    }

    /**
     * Thin adapter around IrBuilder adding "is the current block already
     * terminated" tracking and cursor-preserving branch emission.
     */
    class Cursor
    {
      public:
        Cursor(Name name, std::span<const Name> params, bool returns_value)
            : b_(name, params, returns_value)
        {}

        BlockId newBlock(Name label = Name()) { return b_.newBlock(label); }
        void setBlock(BlockId id)
        {
            b_.setBlock(id);
            terminated_ = blockTerminated(id);
        }
        /** True if the current block already ends in a terminator. */
        bool terminated() const { return terminated_; }

        Cursor &atLine(int line) { b_.atLine(line); return *this; }

        void assign(Name d, Value v)
        {
            if (!terminated_) b_.assign(d, v);
        }
        void fieldLoad(Name d, Value base, Name f)
        {
            if (!terminated_) b_.fieldLoad(d, base, f);
        }
        void fieldStore(Value base, Name f, Value v)
        {
            if (!terminated_) b_.fieldStore(base, f, v);
        }
        void random(Name d)
        {
            if (!terminated_) b_.random(d);
        }
        void call(Name d, Name callee, std::span<const Value> a)
        {
            if (!terminated_) b_.call(d, callee, a);
        }
        void callVoid(Name callee, std::span<const Value> a)
        {
            if (!terminated_) b_.callVoid(callee, a);
        }
        void cmp(Name d, smt::Pred p, Value l, Value r)
        {
            if (!terminated_) b_.cmp(d, p, l, r);
        }
        void ret(Value v)
        {
            if (!terminated_) {
                b_.ret(v);
                terminated_ = true;
            }
        }
        void branch(BlockId t)
        {
            if (!terminated_)
                b_.branch(t);
            else
                b_.setBlock(t);
            terminated_ = blockTerminated(t);
        }
        void branchNoMove(BlockId t)
        {
            if (!terminated_) {
                BlockId cur = b_.currentBlock();
                b_.branch(t);
                b_.setBlock(cur);
                terminated_ = true;
            }
        }
        void condBranchNoMove(Value cond, BlockId t, BlockId f)
        {
            if (!terminated_) {
                BlockId cur = b_.currentBlock();
                b_.condBranch(cond, t, f);
                b_.setBlock(cur);
                terminated_ = true;
            }
        }

        std::unique_ptr<ir::Function>
        finish(bool returns_value)
        {
            // Seal unreachable blocks produced while lowering dead code so
            // the structural verifier passes; they are never enumerated.
            b_.sealOpenBlocks(returns_value ? Value::intConst(0)
                                            : Value::none());
            return b_.take();
        }

        IrBuilder &raw() { return b_; }

      private:
        bool
        blockTerminated(BlockId id)
        {
            return b_.blockHasTerminator(id);
        }

        IrBuilder b_;
        bool terminated_ = false;
    };

    const AstFunction &fn_;
    LowerOptions opts_;
    Cursor builder_;
    int temp_counter_ = 0;
    std::map<Name, BlockId> labels_;        // spelling order
    std::map<Name, bool> label_defined_;
    std::vector<std::pair<BlockId, BlockId>> loop_stack_;  // continue,break
};

/** Lower one parsed function: a declaration for a prototype. */
std::unique_ptr<ir::Function>
lowerFunction(const AstFunction &fn, const LowerOptions &opts)
{
    if (!fn.is_definition)
        return ir::Function::declaration(fn.name, paramNames(fn),
                                         fn.returns_value);
    return FunctionLowerer(fn, opts).lower();
}

} // anonymous namespace

std::vector<std::unique_ptr<ir::Function>>
lowerFunctions(const AstUnit &unit, const LowerOptions &opts)
{
    std::vector<std::unique_ptr<ir::Function>> fns;
    fns.reserve(unit.functions.size());
    for (const auto &fn : unit.functions)
        fns.push_back(lowerFunction(fn, opts));
    return fns;
}

std::vector<ir::SourceSpan>
spansOf(const AstUnit &unit)
{
    std::vector<ir::SourceSpan> spans;
    spans.reserve(unit.functions.size());
    for (const AstFunction &fn : unit.functions)
        spans.push_back({fn.begin, fn.end, fn.first_line});
    return spans;
}

std::unique_ptr<ir::Function>
lowerSpan(std::string_view source, const ir::SourceSpan &span,
          const LowerOptions &opts)
{
    if (span.begin > span.end || span.end > source.size())
        throw ParseError("function span outside its source", span.line);
    AstUnit unit = parseUnit(
        source.substr(span.begin, span.end - span.begin), span.line);
    if (unit.functions.size() != 1)
        throw ParseError("function span does not hold one function",
                         span.line);
    return lowerFunction(unit.functions.front(), opts);
}

ir::Module
lowerUnit(const AstUnit &unit, const LowerOptions &opts)
{
    ir::Module mod;
    mod.commit(lowerFunctions(unit, opts), spansOf(unit));
    return mod;
}

ir::Module
compile(std::string_view source, const LowerOptions &opts)
{
    return lowerUnit(parseUnit(source), opts);
}

} // namespace rid::frontend

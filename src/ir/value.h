/**
 * @file
 * Operand values of the abstract program (Figure 3 of the paper).
 *
 * A value is a variable reference, an integer numeral, a boolean constant,
 * or the null pointer constant. Variables are identified by name within a
 * function; formal arguments are variables whose names appear in the
 * function's parameter list.
 */

#ifndef RID_IR_VALUE_H
#define RID_IR_VALUE_H

#include <cstdint>
#include <string>

#include "ir/name.h"

namespace rid::ir {

enum class ValueKind : uint8_t {
    None,      ///< absent operand (e.g. `return;` with no value)
    Var,       ///< variable reference by name
    IntConst,  ///< numeral constant
    BoolConst, ///< true / false
    Null,      ///< the null pointer constant
};

/** A small value-semantic operand. */
class Value
{
  public:
    Value() = default;

    static Value none() { return Value(); }
    static Value var(Name name);
    static Value intConst(int64_t v);
    static Value boolConst(bool v);
    static Value null();

    ValueKind kind() const { return kind_; }
    bool isNone() const { return kind_ == ValueKind::None; }
    bool isVar() const { return kind_ == ValueKind::Var; }
    bool isConst() const
    {
        return kind_ == ValueKind::IntConst ||
               kind_ == ValueKind::BoolConst || kind_ == ValueKind::Null;
    }

    /** The variable's name; empty for every other kind. */
    Name varName() const
    {
        Name n;
        if (isVar())
            n.s_ = name_;
        return n;
    }
    /** The constant's value; 0 for None, Null and variables. */
    int64_t intValue() const { return isVar() ? 0 : int_; }
    bool boolValue() const { return intValue() != 0; }

    bool operator==(const Value &o) const
    {
        return kind_ == o.kind_ &&
               (isVar() ? name_ == o.name_ : int_ == o.int_);
    }

    std::string str() const;
    /** Append str()'s bytes to @p out (the one printer; str() wraps it). */
    void appendTo(std::string &out) const;

  private:
    ValueKind kind_ = ValueKind::None;
    /** A variable has a name and no value, a constant the reverse, so
     *  the two share storage (the kind says which is live). name_ is the
     *  variable's interned Name handle. */
    union {
        int64_t int_ = 0;
        const std::string *name_;
    };
};

} // namespace rid::ir

#endif // RID_IR_VALUE_H

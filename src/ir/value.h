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
    static Value var(std::string name);
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

    const std::string &varName() const { return name_; }
    int64_t intValue() const { return int_; }
    bool boolValue() const { return int_ != 0; }

    bool operator==(const Value &o) const
    {
        return kind_ == o.kind_ && name_ == o.name_ && int_ == o.int_;
    }

    std::string str() const;
    /** Append str()'s bytes to @p out (the one printer; str() wraps it). */
    void appendTo(std::string &out) const;

  private:
    ValueKind kind_ = ValueKind::None;
    std::string name_;
    int64_t int_ = 0;
};

} // namespace rid::ir

#endif // RID_IR_VALUE_H

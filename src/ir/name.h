/**
 * @file
 * Interned names of the abstract program.
 *
 * The Figure 3 abstraction identifies variables, fields, callees and
 * block labels by name only, so a name needs nothing beyond its spelling
 * and its identity. A Name is a pointer-sized handle to an immutable
 * string in a process-wide, append-only intern table: equal spellings
 * intern to the same handle, so equality is a pointer comparison and
 * copying a name copies eight bytes.
 *
 * Interned strings live for the rest of the process and never move. The
 * table is guarded by a mutex, so units may be lowered concurrently.
 * Ordering compares spellings, never addresses, and there is no
 * address-based hash: nothing a name feeds can depend on where the
 * allocator happened to put its string.
 */

#ifndef RID_IR_NAME_H
#define RID_IR_NAME_H

#include <iosfwd>
#include <string>
#include <string_view>

namespace rid::ir {

class Name
{
  public:
    /** The empty name. */
    Name() noexcept : s_(&kEmpty) {}
    /** Intern @p spelling (implicit, so string arguments convert). */
    Name(std::string_view spelling);
    Name(const std::string &spelling) : Name(std::string_view(spelling)) {}
    Name(const char *spelling) : Name(std::string_view(spelling)) {}

    /** Distinct spellings interned so far in this process. */
    static size_t internedCount();

    const std::string &str() const { return *s_; }
    operator const std::string &() const { return *s_; }
    bool empty() const { return s_ == &kEmpty; }

    friend bool operator==(Name a, Name b) { return a.s_ == b.s_; }
    friend bool operator==(Name a, std::string_view b) { return *a.s_ == b; }
    friend bool operator==(Name a, const std::string &b)
    {
        return *a.s_ == b;
    }
    friend bool operator==(Name a, const char *b) { return *a.s_ == b; }
    /** Spelling order, so sorted output never depends on addresses. */
    friend bool operator<(Name a, Name b) { return *a.s_ < *b.s_; }

  private:
    friend class Value;   // stores the handle in a union with its int

    static const std::string kEmpty;
    const std::string *s_;
};

std::ostream &operator<<(std::ostream &os, Name n);

} // namespace rid::ir

#endif // RID_IR_NAME_H

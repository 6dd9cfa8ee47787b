/**
 * @file
 * Lowering from the Kernel-C AST to the Figure 3 abstract program IR.
 *
 * Lowering follows the paper's abstraction rules:
 *  - arithmetic and bit operations are replaced by the `random` generator
 *    (the abstraction ignores arithmetic; refcounts only change through
 *    API calls — Section 4.1);
 *  - `&e` on a field access denotes the same symbolic object as the field
 *    access itself; `*p` is modelled as the field load `p.deref`;
 *  - stores to fields and arrays are outside the abstraction and are
 *    dropped (a cause of false positives the paper discusses in 6.4);
 *  - `assert(e)` constrains the path: the failing branch jumps to an
 *    `__assert_fail` call, and the analysis discards such paths;
 *  - short-circuit && and || become control flow.
 *
 * A lowered unit enters an ir::Module through Module::commit with the
 * spans its parse recorded (spansOf), so every function that came from
 * source can be lowered again on its own (lowerSpan): the module rebuilds
 * the IR it did not keep that way, and triage re-lowers a reported
 * function at higher precision.
 */

#ifndef RID_FRONTEND_LOWER_H
#define RID_FRONTEND_LOWER_H

#include "frontend/ast.h"
#include "ir/function.h"

namespace rid::frontend {

/** Name of the intrinsic marking unreachable (assertion-failure) paths. */
inline constexpr const char *kAssertFailFn = "__assert_fail";

/**
 * Optional extensions to the abstraction (the future work of
 * Section 5.4). Both default to off, which reproduces the paper's
 * prototype exactly.
 */
struct LowerOptions
{
    /**
     * Model `value & CONSTANT` as a deterministic uninterpreted function
     * of the value (a synthetic field load `value.bits_<mask>`) instead
     * of a nondeterministic result. Two paths branching on the same bit
     * of the same value then stay distinguishable, removing the
     * bit-operation false positives of Section 6.4.
     */
    bool model_bit_tests = false;
    /**
     * Keep stores to fields of caller-visible structures as FieldStore
     * effects instead of dropping them. Paths that record their refcount
     * action in a caller-visible structure (e.g. inserting the device
     * into a list) then stay distinguishable, removing the
     * data-structure false positives of Section 6.4.
     */
    bool model_field_stores = false;
};

/**
 * Lower every function of a parsed unit, in source order, into a plain
 * vector: the unit ir::Module::commit takes. Prototypes become
 * declarations; definitions are fully lowered and verified. Nothing is
 * committed anywhere, so a unit that throws part-way leaves no trace.
 *
 * @throws ParseError for constructs that cannot be lowered, ir::IrError
 *         for a function that fails verification.
 */
std::vector<std::unique_ptr<ir::Function>>
lowerFunctions(const AstUnit &unit, const LowerOptions &opts = {});

/** The source span parseUnit() recorded for each of @p unit's functions,
 *  in order: the spans ir::Module::commit takes with lowerFunctions(). */
std::vector<ir::SourceSpan> spansOf(const AstUnit &unit);

/**
 * Lower the one function whose text is @p span of @p source, a span
 * parseUnit() recorded, exactly as lowering its whole unit lowers it:
 * the same IR bytes, fingerprint and instruction lines. Only the span
 * is lexed and parsed.
 *
 * @throws ParseError when the span does not hold exactly one function
 *         or does not lower.
 */
std::unique_ptr<ir::Function> lowerSpan(std::string_view source,
                                        const ir::SourceSpan &span,
                                        const LowerOptions &opts = {});

/**
 * Lower a parsed unit into a module of its own: lowerFunctions()
 * committed with spansOf() as the module's unit 0. The module has no
 * Lowering hook, so it keeps every function's IR.
 *
 * @throws ParseError for constructs that cannot be lowered.
 */
ir::Module lowerUnit(const AstUnit &unit, const LowerOptions &opts = {});

/**
 * Convenience: parse Kernel-C source and lower it.
 *
 * @throws ParseError on syntax or lowering errors.
 */
ir::Module compile(std::string_view source, const LowerOptions &opts = {});

} // namespace rid::frontend

#endif // RID_FRONTEND_LOWER_H

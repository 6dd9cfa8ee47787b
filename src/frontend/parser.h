/**
 * @file
 * Recursive-descent parser for Kernel-C.
 */

#ifndef RID_FRONTEND_PARSER_H
#define RID_FRONTEND_PARSER_H

#include "frontend/ast.h"
#include "frontend/lexer.h"

namespace rid::frontend {

/**
 * Parse a Kernel-C translation unit.
 *
 * Struct/enum/union definitions and typedefs at file scope are skipped;
 * function prototypes and definitions are retained. The returned tree
 * holds interned names, never views of @p source.
 *
 * @throws ParseError on syntax errors and on nesting deeper than the
 *         parser's limit.
 */
AstUnit parseUnit(std::string_view source);

} // namespace rid::frontend

#endif // RID_FRONTEND_PARSER_H

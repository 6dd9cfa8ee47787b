/**
 * @file
 * Recursive-descent parser for Kernel-C.
 *
 * The parser pulls tokens from a Lexer through a small lookahead ring,
 * builds each unit's tree in that unit's arena (lists are gathered on
 * reusable scratch stacks and copied into the arena once complete), and
 * interns identifiers through a per-unit cache in front of ir::Name's
 * process-wide table. None of this allocates per token or per node.
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
 * holds interned names, never views of @p source, and lives in the
 * unit's arena.
 *
 * Each function records its byte span in @p source and the line it
 * starts on; lines are counted from @p first_line, so parsing one
 * function's span alone from its first line gives that function the
 * lines it has in its unit.
 *
 * @throws ParseError on lexical and syntax errors and on nesting deeper
 *         than the parser's limit. A file's first lexical error is
 *         reported ahead of any syntax error, wherever the two are.
 */
AstUnit parseUnit(std::string_view source, int first_line = 1);

} // namespace rid::frontend

#endif // RID_FRONTEND_PARSER_H

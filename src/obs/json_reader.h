/**
 * @file
 * Minimal strict JSON reader, the counterpart of obs/json_writer.h.
 *
 * The repo deliberately has no JSON library dependency, yet it reads
 * back what it writes: the provenance journal (`ridc explain`,
 * `ridc diff-runs`) and, in the tests, every exported document. This
 * recursive-descent reader covers exactly the JSON the writers produce
 * (objects, arrays, strings with the emitted escapes, numbers, booleans,
 * null) and is strict: malformed or trailing input throws, naming the
 * byte offset where parsing stopped.
 */

#ifndef RID_OBS_JSON_READER_H
#define RID_OBS_JSON_READER_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rid::obs {

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    /** Object members in document order. */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** The first member named @p key, or null. */
    const JsonValue *find(std::string_view key) const;
};

/**
 * Parse one JSON document.
 *
 * @throws std::runtime_error "<context>: <what> at offset <N>" on any
 *         syntax error or trailing input.
 */
JsonValue parseJson(std::string_view text,
                    std::string_view context = "json");

} // namespace rid::obs

#endif // RID_OBS_JSON_READER_H

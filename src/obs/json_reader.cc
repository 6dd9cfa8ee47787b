#include "obs/json_reader.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

namespace rid::obs {

const JsonValue *
JsonValue::find(std::string_view key) const
{
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

namespace {

class JsonParser
{
  public:
    JsonParser(std::string_view text, std::string_view context)
        : text_(text), context_(context)
    {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error(std::string(context_) + ": " + why +
                                 " at offset " + std::to_string(pos_));
    }

    void
    skipWs()
    {
        pos_ = std::min(text_.size(),
                        text_.find_first_not_of(" \t\n\r", pos_));
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        pos_++;
    }

    bool
    at(char c) const
    {
        return pos_ < text_.size() && text_[pos_] == c;
    }

    /** Skip a run of decimal digits; returns its length. */
    size_t
    digits()
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            pos_++;
        return pos_ - start;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        JsonValue v;
        const char c = peek();
        if (c == '{' || c == '[') {
            v.kind = c == '{' ? JsonValue::Kind::Object
                              : JsonValue::Kind::Array;
            parseItems(v, c == '{' ? '}' : ']');
        } else if (c == '"') {
            v.kind = JsonValue::Kind::String;
            v.string = parseString();
        } else if (c == 't' || c == 'f' || c == 'n') {
            const char *word = c == 't' ? "true"
                               : c == 'f' ? "false" : "null";
            for (const char *p = word; *p; p++)
                expect(*p);
            v.kind = c == 'n' ? JsonValue::Kind::Null
                              : JsonValue::Kind::Bool;
            v.boolean = c == 't';
        } else {
            parseNumber(v);
        }
        return v;
    }

    /** The members or elements of an object or array, brackets
     *  included. */
    void
    parseItems(JsonValue &v, char close)
    {
        pos_++;  // the opening bracket
        skipWs();
        if (at(close)) {
            pos_++;
            return;
        }
        while (true) {
            if (v.isObject()) {
                skipWs();
                std::string key = parseString();
                skipWs();
                expect(':');
                JsonValue member = parseValue();
                v.members.emplace_back(std::move(key), std::move(member));
            } else {
                v.array.push_back(parseValue());
            }
            skipWs();
            if (!at(','))
                break;
            pos_++;
        }
        expect(close);
    }

    std::string
    parseString()
    {
        static constexpr std::string_view kEscaped = "\"\\/bfnrt";
        static constexpr std::string_view kMeaning = "\"\\/\b\f\n\r\t";
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            if (size_t k = kEscaped.find(e); k != kEscaped.npos) {
                out += kMeaning[k];
                continue;
            }
            if (e != 'u')
                fail("unknown escape");
            if (pos_ + 4 > text_.size())
                fail("bad \\u escape");
            const char *digits = text_.data() + pos_;
            unsigned code = 0;
            auto [end, ec] = std::from_chars(digits, digits + 4, code, 16);
            if (ec != std::errc() || end != digits + 4) {
                pos_ = end - text_.data() + 1;  // past the bad digit
                fail("bad \\u escape");
            }
            pos_ += 4;
            // The writers only escape control characters.
            out += static_cast<char>(code);
        }
    }

    /** `-? digits? (. digits?)? ([eE] [+-]? digits)?` with at least one
     *  mantissa digit; what follows is the caller's to reject. */
    void
    parseNumber(JsonValue &v)
    {
        const size_t start = pos_;
        if (peek() == '-')
            pos_++;
        size_t mantissa = digits();
        if (at('.')) {
            pos_++;
            mantissa += digits();
        }
        if (mantissa == 0) {
            pos_ = start;
            fail("expected number");
        }
        if (at('e') || at('E')) {
            pos_++;
            if (at('-') || at('+'))
                pos_++;
            if (digits() == 0)
                fail("expected exponent digits");
        }
        v.kind = JsonValue::Kind::Number;
        v.number = std::strtod(
            std::string(text_.substr(start, pos_ - start)).c_str(),
            nullptr);
    }

    std::string_view text_;
    std::string_view context_;
    size_t pos_ = 0;
};

} // anonymous namespace

JsonValue
parseJson(std::string_view text, std::string_view context)
{
    return JsonParser(text, context).parse();
}

} // namespace rid::obs

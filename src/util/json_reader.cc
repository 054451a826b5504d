#include "util/json_reader.h"

#include <cctype>

#include "util/logging.h"
#include "util/parse.h"

namespace gables {

bool
JsonValue::asBool() const
{
    if (type_ != Type::Bool)
        fatal("JSON value is not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (type_ != Type::Number)
        fatal("JSON value is not a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    if (type_ != Type::String)
        fatal("JSON value is not a string");
    return string_;
}

size_t
JsonValue::size() const
{
    if (type_ == Type::Array)
        return items_.size();
    if (type_ == Type::Object)
        return members_.size();
    fatal("JSON value is not a container");
}

const JsonValue &
JsonValue::at(size_t i) const
{
    if (type_ != Type::Array)
        fatal("JSON value is not an array");
    if (i >= items_.size())
        fatal("JSON array index out of range");
    return items_[i];
}

bool
JsonValue::has(const std::string &key) const
{
    if (type_ != Type::Object)
        return false;
    for (const auto &[k, v] : members_) {
        if (k == key)
            return true;
    }
    return false;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (type_ != Type::Object)
        fatal("JSON value is not an object");
    for (const auto &[k, v] : members_) {
        if (k == key)
            return v;
    }
    fatal("JSON object has no member '" + key + "'");
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (type_ != Type::Array)
        fatal("JSON value is not an array");
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (type_ != Type::Object)
        fatal("JSON value is not an object");
    return members_;
}

/** Recursive-descent parser over an in-memory document; nesting is
 * capped at kJsonMaxDepth so recursion depth is bounded. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue root = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return root;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        fatal("JSON parse error at offset " + std::to_string(pos_) +
              ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t n = 0;
        while (lit[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        char c = peek();
        if (c == '{' || c == '[') {
            if (depth_ == kJsonMaxDepth)
                fail("nesting deeper than " +
                     std::to_string(kJsonMaxDepth) + " levels");
            ++depth_;
            JsonValue v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"') {
            JsonValue v;
            v.type_ = JsonValue::Type::String;
            v.string_ = parseString();
            return v;
        }
        if (c == 't' || c == 'f') {
            JsonValue v;
            v.type_ = JsonValue::Type::Bool;
            if (consumeLiteral("true"))
                v.bool_ = true;
            else if (consumeLiteral("false"))
                v.bool_ = false;
            else
                fail("bad literal");
            return v;
        }
        if (c == 'n') {
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
        }
        return parseNumber();
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.type_ = JsonValue::Type::Object;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.members_.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.type_ = JsonValue::Type::Array;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items_.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    parseNumber()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        const std::string token = text_.substr(start, pos_ - start);
        double d = 0.0;
        try {
            d = parseDoubleStrict(token, "JSON number");
        } catch (const FatalError &) {
            fail("malformed number '" + token + "'");
        }
        JsonValue v;
        v.type_ = JsonValue::Type::Number;
        v.number_ = d;
        return v;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': appendUnicodeEscape(out); break;
              default: fail("bad escape character");
            }
        }
    }

    void
    appendUnicodeEscape(std::string &out)
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
                cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                cp |= static_cast<unsigned>(h - 'A' + 10);
            else
                fail("bad hex digit in \\u escape");
        }
        // Encode the BMP code point as UTF-8 (surrogate pairs are
        // passed through as two separate 3-byte sequences, which is
        // fine for validation purposes).
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
    size_t depth_ = 0;
};

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

} // namespace gables

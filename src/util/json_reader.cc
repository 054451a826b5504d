#include "util/json_reader.h"

#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/parse.h"

namespace gables {

namespace {

/** The document a default-constructed JsonValue (null) points at. */
const JsonDocument &
nullDocument()
{
    static const JsonDocument doc = [] {
        JsonDocument d;
        d.nodes.emplace_back();
        return d;
    }();
    return doc;
}

} // namespace

JsonValue::JsonValue() : doc_(&nullDocument()) {}

void
JsonValue::typeMismatch(const char *want)
{
    fatal(std::string("JSON value is not ") + want);
}

std::string_view
JsonValue::text(uint32_t index) const
{
    const JsonNode &n = doc_->nodes[index];
    return std::string_view(doc_->arena.data() + n.text.offset,
                            n.text.length);
}

bool
JsonValue::asBool() const
{
    const JsonNode &n = node();
    if (n.type != Type::Bool)
        typeMismatch("a bool");
    return n.boolean;
}

std::string_view
JsonValue::asString() const
{
    if (type() != Type::String)
        typeMismatch("a string");
    return text(index_);
}

size_t
JsonValue::size() const
{
    const JsonNode &n = node();
    if (n.type != Type::Array && n.type != Type::Object)
        typeMismatch("a container");
    return n.count;
}

JsonValue
JsonValue::at(size_t i) const
{
    const JsonNode &n = node();
    if (n.type != Type::Array)
        typeMismatch("an array");
    if (i >= n.count)
        fatal("JSON array index out of range");
    // An array of scalars is contiguous: element i is node i + 1.
    if (n.extent == n.count + 1)
        return JsonValue(doc_, index_ + 1 + static_cast<uint32_t>(i));
    uint32_t at = index_ + 1;
    for (; i > 0; --i)
        at += doc_->nodes[at].extent;
    return JsonValue(doc_, at);
}

std::optional<JsonValue>
JsonValue::find(std::string_view key) const
{
    const JsonNode &n = node();
    if (n.type != Type::Object)
        return std::nullopt;
    const uint32_t end = index_ + n.extent;
    for (uint32_t k = index_ + 1; k < end;
         k += 1 + doc_->nodes[k + 1].extent) {
        if (text(k) == key)
            return JsonValue(doc_, k + 1);
    }
    return std::nullopt;
}

JsonValue
JsonValue::at(std::string_view key) const
{
    if (type() != Type::Object)
        typeMismatch("an object");
    std::optional<JsonValue> v = find(key);
    if (!v)
        fatal("JSON object has no member '" + std::string(key) + "'");
    return *v;
}

JsonValue::Items
JsonValue::items() const
{
    const JsonNode &n = node();
    if (n.type != Type::Array)
        typeMismatch("an array");
    return Items(doc_, index_ + 1, index_ + n.extent);
}

JsonValue::Members
JsonValue::members() const
{
    const JsonNode &n = node();
    if (n.type != Type::Object)
        typeMismatch("an object");
    return Members(doc_, index_ + 1, index_ + n.extent);
}

JsonValue
JsonValue::owned() const
{
    JsonValue v = *this;
    if (!v.owner_)
        v.owner_ = doc_->weak_from_this().lock();
    return v;
}

namespace {

/** Recursive-descent parser that appends to one flat document;
 * nesting is capped at kJsonMaxDepth so recursion depth is bounded. */
class JsonParser
{
  public:
    JsonParser(std::string_view text, JsonDocument &doc)
        : text_(text), doc_(doc)
    {}

    void
    parse()
    {
        // Offsets, lengths and node indices are 32-bit, and no
        // document yields more nodes or arena bytes than it has
        // bytes of text.
        if (text_.size() > std::numeric_limits<uint32_t>::max())
            fail("document larger than 4 GiB");
        // Within a small multiple of the text: a node per 8 bytes
        // covers number-heavy documents, and the arena never
        // outgrows the text.
        doc_.nodes.reserve(text_.size() / 8 + 2);
        doc_.arena.reserve(text_.size());
        parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
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
    consumeLiteral(std::string_view lit)
    {
        if (text_.compare(pos_, lit.size(), lit) != 0)
            return false;
        pos_ += lit.size();
        return true;
    }

    /** Append a node of type @p type; @return its index. */
    uint32_t
    push(JsonType type)
    {
        doc_.nodes.emplace_back().type = type;
        return static_cast<uint32_t>(doc_.nodes.size() - 1);
    }

    /** Record container @p self's member count and extent. */
    void
    close(uint32_t self, uint32_t count)
    {
        JsonNode &n = doc_.nodes[self];
        n.count = count;
        n.extent = static_cast<uint32_t>(doc_.nodes.size()) - self;
    }

    void
    parseValue()
    {
        skipWs();
        char c = peek();
        if (c == '{' || c == '[') {
            if (depth_ == kJsonMaxDepth)
                fail("nesting deeper than " +
                     std::to_string(kJsonMaxDepth) + " levels");
            ++depth_;
            if (c == '{')
                parseObject();
            else
                parseArray();
            --depth_;
            return;
        }
        if (c == '"') {
            parseString(push(JsonType::String));
            return;
        }
        if (c == 't' || c == 'f') {
            bool value = false;
            if (consumeLiteral("true"))
                value = true;
            else if (!consumeLiteral("false"))
                fail("bad literal");
            doc_.nodes[push(JsonType::Bool)].boolean = value;
            return;
        }
        if (c == 'n') {
            if (!consumeLiteral("null"))
                fail("bad literal");
            push(JsonType::Null);
            return;
        }
        parseNumber();
    }

    void
    parseObject()
    {
        expect('{');
        const uint32_t self = push(JsonType::Object);
        uint32_t count = 0;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            close(self, count);
            return;
        }
        while (true) {
            skipWs();
            parseString(push(JsonType::String));
            skipWs();
            expect(':');
            parseValue();
            ++count;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            close(self, count);
            return;
        }
    }

    void
    parseArray()
    {
        expect('[');
        const uint32_t self = push(JsonType::Array);
        uint32_t count = 0;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            close(self, count);
            return;
        }
        while (true) {
            parseValue();
            ++count;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            close(self, count);
            return;
        }
    }

    static bool
    isNumberChar(char c)
    {
        return (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
               c == 'E' || c == '+' || c == '-';
    }

    /** Scan the token in place with the strict parsers' scanner: the
     * whole token must be one finite decimal. */
    void
    parseNumber()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() && isNumberChar(text_[pos_]))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        const char *begin = text_.data() + start;
        const char *end = text_.data() + pos_;
        double value = 0.0;
        bool out_of_range = false;
        if (scanDouble(begin, end, &value, &out_of_range) != end ||
            out_of_range || !std::isfinite(value))
            fail("malformed number '" + std::string(begin, end) + "'");
        doc_.nodes[push(JsonType::Number)].number = value;
    }

    /** Decode a string into the arena as node @p self's text. */
    void
    parseString(uint32_t self)
    {
        expect('"');
        std::string &out = doc_.arena;
        const size_t offset = out.size();
        while (true) {
            // Copy a run of plain bytes in one append.
            const size_t run = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"' &&
                   text_[pos_] != '\\')
                ++pos_;
            out.append(text_.data() + run, pos_ - run);
            if (pos_ >= text_.size())
                fail("unterminated string");
            if (text_[pos_++] == '"')
                break;
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
        JsonNode &n = doc_.nodes[self];
        n.text.offset = static_cast<uint32_t>(offset);
        n.text.length = static_cast<uint32_t>(out.size() - offset);
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

    std::string_view text_;
    JsonDocument &doc_;
    size_t pos_ = 0;
    size_t depth_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    auto doc = std::make_shared<JsonDocument>();
    JsonParser(text, *doc).parse();
    JsonValue root(doc.get(), 0);
    root.owner_ = std::move(doc);
    return root;
}

} // namespace gables

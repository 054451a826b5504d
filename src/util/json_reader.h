/**
 * @file
 * A minimal JSON parser: enough to read back the documents our own
 * JsonWriter emits (run reports, Chrome traces, visualization
 * exports, serve request lines) so tools and tests can read them
 * structurally instead of regex-matching text. Full JSON syntax is
 * accepted; numbers are doubles; \uXXXX escapes are decoded to UTF-8.
 *
 * A parse yields one flat document: a vector of 16-byte nodes in
 * document order plus one arena holding the decoded bytes of every
 * string. A container node is followed by its members (an object
 * member is its key node, then its value), and records its member
 * count and the node extent of its subtree, so skipping a value is
 * one addition. JsonValue is a handle: the document plus a node
 * index.
 */

#ifndef GABLES_UTIL_JSON_READER_H
#define GABLES_UTIL_JSON_READER_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gables {

/** The six JSON value types. */
enum class JsonType : uint8_t { Null, Bool, Number, String, Array, Object };

/** One node of a parsed document (see the file comment). */
struct JsonNode {
    JsonType type = JsonType::Null;
    /** Bool payload. */
    bool boolean = false;
    /** Nodes in this value's subtree, itself included (1 for a
     * scalar or a key). */
    uint32_t extent = 1;
    union {
        /** Number payload. */
        double number;
        /** String payload: decoded bytes in the document's arena. */
        struct {
            uint32_t offset;
            uint32_t length;
        } text;
        /** Array elements or object members. */
        uint32_t count;
    };

    JsonNode() : number(0.0) {}
};

static_assert(sizeof(JsonNode) == 16, "JsonNode packs into 16 bytes");

/** A parsed document: the nodes and the string arena they index. */
struct JsonDocument : std::enable_shared_from_this<JsonDocument> {
    std::vector<JsonNode> nodes;
    std::string arena;
};

/**
 * A parsed JSON value: a handle on a node of its document.
 * Accessors throw FatalError on a type mismatch, so tests fail with a
 * message instead of crashing.
 *
 * Lifetime: the value parseJson() returns owns its document, and so
 * do copies of it. The handles that at(), items() and members()
 * yield borrow the document: they stay valid while an owner lives,
 * and cost no allocation and no reference count. owned() turns a
 * borrowed handle into an owner for a value that must outlive the
 * others.
 */
class JsonValue
{
  public:
    using Type = JsonType;

    class Items;
    class Members;

    /** A null value. */
    JsonValue();

    /** @return The value's type. */
    Type type() const { return node().type; }

    /** @name Type predicates. */
    /** @{ */
    bool isNull() const { return type() == Type::Null; }
    bool isBool() const { return type() == Type::Bool; }
    bool isNumber() const { return type() == Type::Number; }
    bool isString() const { return type() == Type::String; }
    bool isArray() const { return type() == Type::Array; }
    bool isObject() const { return type() == Type::Object; }
    /** @} */

    /** @return The boolean payload. @throws FatalError otherwise. */
    bool asBool() const;
    /** @return The numeric payload. @throws FatalError otherwise. */
    double
    asNumber() const
    {
        const JsonNode &n = node();
        if (n.type != Type::Number)
            typeMismatch("a number");
        return n.number;
    }
    /** @return The string payload, a view into the document's
     * arena. @throws FatalError otherwise. */
    std::string_view asString() const;

    /** @return Element count of an array or member count of an
     * object. @throws FatalError otherwise. */
    size_t size() const;

    /** @return Array element @p i. @throws FatalError out of range
     * or not an array. */
    JsonValue at(size_t i) const;

    /** @return True if this is an object with member @p key. */
    bool has(std::string_view key) const { return find(key).has_value(); }

    /** @return Object member @p key (the first, if the key repeats).
     * @throws FatalError if absent or not an object. */
    JsonValue at(std::string_view key) const;

    /** @return Object member @p key (the first, if the key repeats),
     * or nothing when it is absent or this is not an object. */
    std::optional<JsonValue> find(std::string_view key) const;

    /** @return Array elements in document order. @throws FatalError
     * if not an array. */
    Items items() const;

    /** @return Object members as (key, value) pairs in document
     * order. @throws FatalError if not an object. */
    Members members() const;

    /** @return This value as an owner of its document, valid after
     * every other owner is gone. Call it while an owner lives. */
    JsonValue owned() const;

  private:
    friend JsonValue parseJson(std::string_view text);

    JsonValue(const JsonDocument *doc, uint32_t index)
        : doc_(doc), index_(index)
    {}

    const JsonNode &node() const { return doc_->nodes[index_]; }
    /** @return The node's bytes in the arena (a String or a key). */
    std::string_view text(uint32_t index) const;
    [[noreturn]] static void typeMismatch(const char *want);

    std::shared_ptr<const JsonDocument> owner_;
    const JsonDocument *doc_;
    uint32_t index_ = 0;
};

/** The elements of an array, as borrowed handles. */
class JsonValue::Items
{
  public:
    class iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = JsonValue;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = JsonValue;

        iterator(const JsonDocument *doc, uint32_t index)
            : doc_(doc), index_(index)
        {}
        JsonValue operator*() const { return JsonValue(doc_, index_); }
        iterator &
        operator++()
        {
            index_ += doc_->nodes[index_].extent;
            return *this;
        }
        bool operator==(const iterator &o) const { return index_ == o.index_; }

      private:
        const JsonDocument *doc_;
        uint32_t index_;
    };

    iterator begin() const { return {doc_, first_}; }
    iterator end() const { return {doc_, end_}; }

  private:
    friend class JsonValue;
    Items(const JsonDocument *doc, uint32_t first, uint32_t end)
        : doc_(doc), first_(first), end_(end)
    {}

    const JsonDocument *doc_;
    uint32_t first_;
    uint32_t end_;
};

/** The members of an object, as (key, borrowed handle) pairs. */
class JsonValue::Members
{
  public:
    using Member = std::pair<std::string_view, JsonValue>;

    class iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = Member;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = Member;

        iterator(const JsonDocument *doc, uint32_t index)
            : doc_(doc), index_(index)
        {}
        Member
        operator*() const
        {
            const JsonNode &key = doc_->nodes[index_];
            return {std::string_view(doc_->arena.data() + key.text.offset,
                                     key.text.length),
                    JsonValue(doc_, index_ + 1)};
        }
        iterator &
        operator++()
        {
            index_ += 1 + doc_->nodes[index_ + 1].extent;
            return *this;
        }
        bool operator==(const iterator &o) const { return index_ == o.index_; }

      private:
        const JsonDocument *doc_;
        uint32_t index_;
    };

    iterator begin() const { return {doc_, first_}; }
    iterator end() const { return {doc_, end_}; }

  private:
    friend class JsonValue;
    Members(const JsonDocument *doc, uint32_t first, uint32_t end)
        : doc_(doc), first_(first), end_(end)
    {}

    const JsonDocument *doc_;
    uint32_t first_;
    uint32_t end_;
};

/**
 * Deepest array/object nesting parseJson() accepts. Our own documents
 * nest a few dozen levels at most; the cap keeps a hostile document
 * (say, a request line of 200 000 '[') from exhausting the stack.
 */
inline constexpr size_t kJsonMaxDepth = 256;

/**
 * Parse a complete JSON document into one flat document.
 *
 * @param text The document; trailing whitespace is allowed, trailing
 *             garbage is not. The document copies what it keeps, so
 *             @p text may be a temporary.
 * @return The root value, owning the document.
 * @throws FatalError with position info on malformed input, including
 *         nesting deeper than kJsonMaxDepth.
 */
JsonValue parseJson(std::string_view text);

} // namespace gables

#endif // GABLES_UTIL_JSON_READER_H

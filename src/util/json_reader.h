/**
 * @file
 * A minimal JSON parser: enough to read back the documents our own
 * JsonWriter emits (run reports, Chrome traces, visualization
 * exports) so tests and tools can validate them structurally instead
 * of regex-matching text. Full JSON syntax is accepted; numbers are
 * doubles; \uXXXX escapes are decoded to UTF-8.
 */

#ifndef GABLES_UTIL_JSON_READER_H
#define GABLES_UTIL_JSON_READER_H

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace gables {

/**
 * A parsed JSON value (immutable DOM). Accessors fatal() on type
 * mismatch so tests fail with a message instead of crashing.
 */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() : type_(Type::Null) {}

    /** @return The value's type. */
    Type type() const { return type_; }

    /** @name Type predicates. */
    /** @{ */
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }
    /** @} */

    /** @return The boolean payload. @throws FatalError otherwise. */
    bool asBool() const;
    /** @return The numeric payload. @throws FatalError otherwise. */
    double asNumber() const;
    /** @return The string payload. @throws FatalError otherwise. */
    const std::string &asString() const;

    /** @return Element count of an array or member count of an
     * object. @throws FatalError otherwise. */
    size_t size() const;

    /** @return Array element @p i. @throws FatalError out of range
     * or not an array. */
    const JsonValue &at(size_t i) const;

    /** @return True if this is an object with member @p key. */
    bool has(const std::string &key) const;

    /** @return Object member @p key. @throws FatalError if absent or
     * not an object. */
    const JsonValue &at(const std::string &key) const;

    /** @return Array elements. @throws FatalError if not an array. */
    const std::vector<JsonValue> &items() const;

    /** @return Object members in document order. @throws FatalError
     * if not an object. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

  private:
    friend class JsonParser;

    Type type_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Deepest array/object nesting parseJson() accepts. Our own documents
 * nest a few dozen levels at most; the cap keeps a hostile document
 * (say, a request line of 200 000 '[') from exhausting the stack.
 */
inline constexpr size_t kJsonMaxDepth = 256;

/**
 * Parse a complete JSON document.
 *
 * @param text The document; trailing whitespace is allowed, trailing
 *             garbage is not.
 * @return The root value.
 * @throws FatalError with position info on malformed input, including
 *         nesting deeper than kJsonMaxDepth.
 */
JsonValue parseJson(const std::string &text);

} // namespace gables

#endif // GABLES_UTIL_JSON_READER_H

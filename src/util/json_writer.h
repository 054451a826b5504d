/**
 * @file
 * Minimal streaming JSON writer — enough to emit model results and
 * sweep series for external tooling (the paper's interactive
 * visualizer consumes exactly this kind of structure). No parsing, no
 * DOM; just a correct, ordered writer with proper string escaping and
 * numbers that read back exactly: "%.12g" when that round-trips, else
 * "%.17g" (writeRoundTrip() in util/decimal.h); NaN and the
 * infinities become null.
 */

#ifndef GABLES_UTIL_JSON_WRITER_H
#define GABLES_UTIL_JSON_WRITER_H

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace gables {

/**
 * Streaming JSON writer with an explicit begin/end nesting API.
 *
 * The writer validates nesting with an internal stack and panics on
 * misuse (writing a bare value inside an object without a key, or
 * unbalanced begin/end).
 *
 * A stream sink is fed from an internal buffer, in chunks of about
 * kChunkBytes and always in full when the root value closes and in
 * the destructor. So once done() is true the whole document is in
 * the stream, and bytes the caller writes to the stream after that
 * follow it. A string sink is appended to directly, with no stream
 * and no buffer between.
 */
class JsonWriter
{
  public:
    /** Buffered bytes that trigger a write to the stream. */
    static constexpr size_t kChunkBytes = 64 * 1024;

    /** Write JSON to @p out; the stream must outlive the writer. */
    explicit JsonWriter(std::ostream &out, bool pretty = true);
    /** Append JSON to @p out; the string must outlive the writer. */
    explicit JsonWriter(std::string &out, bool pretty = true);
    /** Hands any buffered bytes to the stream. */
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** Begin the root or a nested object. */
    void beginObject();
    /** End the current object. */
    void endObject();
    /** Begin the root or a nested array. */
    void beginArray();
    /** End the current array. */
    void endArray();

    /** Emit a key inside an object; must be followed by a value. */
    void key(std::string_view name);

    /** @name Value emitters (object values after key(), or array items). */
    /** @{ */
    void value(std::string_view v);
    void value(const char *v);
    void value(double v);
    void value(int v);
    void value(long v);
    void value(size_t v);
    void value(bool v);
    void valueNull();
    /** @} */

    /** Convenience: key() then value(). */
    template <typename T>
    void
    kv(std::string_view name, const T &v)
    {
        key(name);
        value(v);
    }

    /** Emit a whole numeric array under @p name. */
    void numberArray(std::string_view name,
                     const std::vector<double> &values);

    /** @return True once the root value has been closed. */
    bool done() const { return doneRoot; }

  private:
    enum class Ctx { Object, Array };

    void beforeValue();
    /** Close the root if nothing is open; flush when due. */
    void afterValue();
    /** Pop the innermost container and append @p close. */
    void endContainer(char close);
    void indent();
    /** Append @p s as a quoted, escaped JSON string. */
    void appendString(std::string_view s);
    void flush();

    /** The stream sink, or null for a string sink. */
    std::ostream *out_;
    bool pretty_;
    /** A stream sink's chunk buffer. */
    std::string chunk_;
    /** Where values are appended: chunk_, or a string sink. */
    std::string &buf_;
    std::vector<Ctx> stack_;
    std::vector<bool> hasItems_;
    bool pendingKey = false;
    bool doneRoot = false;
};

} // namespace gables

#endif // GABLES_UTIL_JSON_WRITER_H

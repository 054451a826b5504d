#include "util/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/decimal.h"
#include "util/logging.h"

namespace gables {

namespace {

template <typename Int>
void
appendInt(std::string &buf, Int v)
{
    char digits[24];
    std::to_chars_result res =
        std::to_chars(digits, digits + sizeof digits, v);
    buf.append(digits, res.ptr);
}

} // namespace

JsonWriter::JsonWriter(std::ostream &out, bool pretty)
    : out_(&out), pretty_(pretty), buf_(chunk_)
{}

JsonWriter::JsonWriter(std::string &out, bool pretty)
    : out_(nullptr), pretty_(pretty), buf_(out)
{}

JsonWriter::~JsonWriter()
{
    // A stream with exceptions enabled may throw from write(); its
    // badbit already records that failure for the caller to read.
    try {
        flush();
    } catch (const std::ios_base::failure &) {
    }
}

void
JsonWriter::flush()
{
    if (out_ == nullptr || buf_.empty())
        return;
    out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

void
JsonWriter::appendString(std::string_view s)
{
    buf_ += '"';
    // Copy runs of plain characters in one append each.
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        buf_.append(s.substr(run, i - run));
        run = i + 1;
        switch (c) {
          case '"': buf_ += "\\\""; break;
          case '\\': buf_ += "\\\\"; break;
          case '\n': buf_ += "\\n"; break;
          case '\r': buf_ += "\\r"; break;
          case '\t': buf_ += "\\t"; break;
          default: {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x", c);
            buf_ += esc;
          }
        }
    }
    buf_.append(s.substr(run));
    buf_ += '"';
}

void
JsonWriter::indent()
{
    if (!pretty_)
        return;
    buf_ += '\n';
    buf_.append(2 * stack_.size(), ' ');
}

void
JsonWriter::beforeValue()
{
    GABLES_ASSERT(!doneRoot, "write after JSON root closed");
    if (stack_.empty())
        return;
    if (stack_.back() == Ctx::Object) {
        GABLES_ASSERT(pendingKey, "object value requires a key first");
        pendingKey = false;
        return;
    }
    // Array item.
    if (hasItems_.back())
        buf_ += ',';
    hasItems_.back() = true;
    indent();
}

void
JsonWriter::afterValue()
{
    if (stack_.empty()) {
        doneRoot = true;
        flush();
    } else if (buf_.size() >= kChunkBytes) {
        flush();
    }
}

void
JsonWriter::beginObject()
{
    beforeValue();
    buf_ += '{';
    stack_.push_back(Ctx::Object);
    hasItems_.push_back(false);
}

void
JsonWriter::endObject()
{
    GABLES_ASSERT(!stack_.empty() && stack_.back() == Ctx::Object,
                  "endObject with no open object");
    GABLES_ASSERT(!pendingKey, "endObject with dangling key");
    endContainer('}');
}

void
JsonWriter::beginArray()
{
    beforeValue();
    buf_ += '[';
    stack_.push_back(Ctx::Array);
    hasItems_.push_back(false);
}

void
JsonWriter::endArray()
{
    GABLES_ASSERT(!stack_.empty() && stack_.back() == Ctx::Array,
                  "endArray with no open array");
    endContainer(']');
}

void
JsonWriter::endContainer(char close)
{
    bool had = hasItems_.back();
    stack_.pop_back();
    hasItems_.pop_back();
    if (had)
        indent();
    buf_ += close;
    if (stack_.empty() && pretty_)
        buf_ += '\n';
    afterValue();
}

void
JsonWriter::key(std::string_view name)
{
    GABLES_ASSERT(!stack_.empty() && stack_.back() == Ctx::Object,
                  "key() outside an object");
    GABLES_ASSERT(!pendingKey, "two keys in a row");
    if (hasItems_.back())
        buf_ += ',';
    hasItems_.back() = true;
    indent();
    appendString(name);
    buf_ += ':';
    if (pretty_)
        buf_ += ' ';
    pendingKey = true;
}

void
JsonWriter::value(std::string_view v)
{
    beforeValue();
    appendString(v);
    afterValue();
}

void
JsonWriter::value(const char *v)
{
    beforeValue();
    appendString(v);
    afterValue();
}

void
JsonWriter::value(double v)
{
    beforeValue();
    if (std::isnan(v) || std::isinf(v)) {
        // JSON has no NaN/Inf; emit null, which downstream tools treat
        // as a gap.
        buf_ += "null";
    } else {
        // "%.12g" when it round-trips, else "%.17g" — the original
        // snprintf scheme, so committed baselines and replay bundles
        // are unchanged — with no locale and no parse.
        char digits[kGeneralChars];
        buf_.append(digits, writeRoundTrip(digits, v));
    }
    afterValue();
}

void
JsonWriter::value(int v)
{
    beforeValue();
    appendInt(buf_, v);
    afterValue();
}

void
JsonWriter::value(long v)
{
    beforeValue();
    appendInt(buf_, v);
    afterValue();
}

void
JsonWriter::value(size_t v)
{
    beforeValue();
    appendInt(buf_, v);
    afterValue();
}

void
JsonWriter::value(bool v)
{
    beforeValue();
    buf_ += v ? "true" : "false";
    afterValue();
}

void
JsonWriter::valueNull()
{
    beforeValue();
    buf_ += "null";
    afterValue();
}

void
JsonWriter::numberArray(std::string_view name,
                        const std::vector<double> &values)
{
    key(name);
    beginArray();
    for (double v : values)
        value(v);
    endArray();
}

} // namespace gables

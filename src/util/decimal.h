/**
 * @file
 * Exact decimal rendering of doubles in integer arithmetic.
 *
 * A finite double is m·2^e with a 53-bit integer m. Writing 10^k as
 * 5^k·2^k, |v|·10^k is m·5^k shifted by e + k bits, and m·5^k fits
 * in 128 bits for every k up to kMaxDecimalScale. So the integer and
 * fractional parts of |v|·10^k, and with them every printf rounding
 * decision, come out exact without any decimal big-number code.
 *
 * The writers below print what printf would in the C locale, byte for
 * byte. They take the integer path wherever it is exact and hand every
 * other input to std::to_chars, so their output never depends on
 * LC_NUMERIC.
 */

#ifndef GABLES_UTIL_DECIMAL_H
#define GABLES_UTIL_DECIMAL_H

#include <cstddef>
#include <cstdint>

namespace gables {

/** The integer part of |v|·10^k and where its fraction lies. */
struct ScaledDecimal
{
    /** The fraction, placed against one half. */
    enum class Rest : uint8_t { Zero, BelowHalf, Half, AboveHalf };

    uint64_t whole = 0;
    Rest rest = Rest::Zero;

    /** @return whole rounded by rest, ties to even (printf's rule). */
    uint64_t
    rounded() const
    {
        bool up = rest == Rest::AboveHalf ||
                  (rest == Rest::Half && (whole & 1) != 0);
        return whole + (up ? 1 : 0);
    }
};

/** The largest scale k that scaleDecimal() takes: m·5^k < 2^119. */
inline constexpr int kMaxDecimalScale = 28;

/**
 * Split |v|·10^k exactly into its integer part and the place of its
 * fraction.
 *
 * @return False, leaving @p out unchanged, when @p v is not finite,
 *         @p k is outside [0, kMaxDecimalScale], or the integer part
 *         is 2^64 − 1 or more (so rounded() always fits).
 */
bool scaleDecimal(double v, int k, ScaledDecimal &out);

/** Room for any text writeGeneral17() or writeRoundTrip() writes. */
inline constexpr size_t kGeneralChars = 24;

/**
 * Write printf("%.17g", v) in the C locale ("inf", "-nan", ... for
 * the non-finite values).
 *
 * @param out At least kGeneralChars bytes.
 * @return One past the last byte written.
 */
char *writeGeneral17(char *out, double v);

/**
 * Write the JSON number rule for a finite @p v: printf("%.12g") when
 * that text reads back as exactly @p v, else printf("%.17g").
 *
 * The round trip is decided without parsing. On the integer path the
 * 12 digits N and their exponent X give back fl(N / 10^(11 − X)),
 * which is exact and equals what a correct parser returns while N <
 * 2^53 and 10^|11 − X| <= 10^22 (Clinger's fast path). Elsewhere
 * "%.12g" round-trips exactly when the shortest round-trip digits
 * number 12 or fewer.
 *
 * @param out At least kGeneralChars bytes.
 * @return One past the last byte written.
 */
char *writeRoundTrip(char *out, double v);

/**
 * Write printf("%.*f", precision, v) in the C locale with trailing
 * fraction zeros, and then a bare point, removed. A negative
 * precision means 6, as in printf.
 *
 * @param first Start of the buffer.
 * @param last  End of the buffer: room for "-", 309 integer digits,
 *              the point and @p precision digits covers every finite
 *              @p v.
 * @return One past the last byte written.
 */
char *writeFixedTrimmed(char *first, char *last, double v,
                        int precision);

} // namespace gables

#endif // GABLES_UTIL_DECIMAL_H

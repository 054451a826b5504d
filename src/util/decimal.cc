#include "util/decimal.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace gables {

namespace {

using u128 = unsigned __int128;
using Rest = ScaledDecimal::Rest;

/** 5^k for every scale scaleDecimal() takes. */
constexpr auto kPow5 = [] {
    std::array<u128, kMaxDecimalScale + 1> t{};
    u128 p = 1;
    for (u128 &x : t) {
        x = p;
        p *= 5;
    }
    return t;
}();

/** 10^k for k in [0, 19], all below 2^64. */
constexpr auto kPow10 = [] {
    std::array<uint64_t, 20> t{};
    uint64_t p = 1;
    for (uint64_t &x : t) {
        x = p;
        p *= 10;
    }
    return t;
}();

/** The powers of ten a double holds exactly. */
constexpr double kExactPow10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
    1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
    1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/** "00" "01" ... "99", two characters each. */
constexpr auto kDigitPairs = [] {
    std::array<char, 200> t{};
    for (int i = 0; i < 100; ++i) {
        t[2 * i] = static_cast<char>('0' + i / 10);
        t[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
    return t;
}();

/** Write exactly @p count digits of @p n, leading zeros included. */
void
writeDigits(char *out, uint64_t n, int count)
{
    char *p = out + count;
    for (; count >= 2; count -= 2) {
        p -= 2;
        std::memcpy(p, &kDigitPairs[2 * (n % 100)], 2);
        n /= 100;
    }
    if (count > 0)
        *--p = static_cast<char>('0' + n);
}

/**
 * Drop the last digits of @p s: divide by @p pow10 (10 or more) and
 * place the new fraction, which is (remainder + old fraction) / pow10.
 */
ScaledDecimal
dropDigits(ScaledDecimal s, uint64_t pow10)
{
    uint64_t r = s.whole % pow10;
    uint64_t half = pow10 / 2;
    Rest rest = Rest::AboveHalf;
    if (r < half)
        rest = r == 0 && s.rest == Rest::Zero ? Rest::Zero
                                               : Rest::BelowHalf;
    else if (r == half && s.rest == Rest::Zero)
        rest = Rest::Half;
    return {s.whole / pow10, rest};
}

/** P significant digits, 10^(P-1) <= digits < 10^P, and the decimal
 * exponent of the first one. */
struct Significand {
    uint64_t digits;
    int exp;
};

/**
 * Round @p s, the first P digits of a value whose first digit has
 * exponent @p exp, to P digits; a carry to 10^P (@p limit) moves the
 * exponent up one, as printf does.
 */
Significand
roundDigits(ScaledDecimal s, int exp, uint64_t limit)
{
    uint64_t n = s.rounded();
    if (n == limit)
        return {n / 10, exp + 1};
    return {n, exp};
}

/**
 * The first 17 significant digits of a normal @p v: @p s holds
 * floor(|v|·10^(16 − x)) and its fraction, @p x = floor(log10 |v|).
 * @return False outside the exact range (about 2^-39 <= |v| < 2^57).
 */
bool
significand17(double v, ScaledDecimal &s, int &x)
{
    int biased = static_cast<int>(std::bit_cast<uint64_t>(v) >> 52 & 0x7ff);
    if (biased == 0 || biased == 0x7ff)
        return false;
    // floor(b·log10 2) for b = floor(log2 |v|), exact for |b| <= 1650;
    // |v| < 2^(b+1) <= 10^(est+2), so x is est or est + 1.
    int est = (biased - 1023) * 78913 >> 18;
    if (!scaleDecimal(v, 16 - est, s))
        return false;
    x = est;
    if (s.whole >= kPow10[17]) {
        s = dropDigits(s, 10);
        ++x;
    }
    return true;
}

/** Write @p sig (P digits) in printf's "%.Pg" style. */
char *
writeGeneralDigits(char *out, bool negative, Significand sig, int P)
{
    if (negative)
        *out++ = '-';
    char d[20];
    writeDigits(d, sig.digits, P);
    int len = P;
    while (len > 1 && d[len - 1] == '0')
        --len;
    int x = sig.exp;
    if (x < -4 || x >= P) {
        *out++ = d[0];
        if (len > 1) {
            *out++ = '.';
            std::memcpy(out, d + 1, len - 1);
            out += len - 1;
        }
        *out++ = 'e';
        *out++ = x < 0 ? '-' : '+';
        // Exponents on the integer path lie in [-12, 18]: two digits.
        std::memcpy(out, &kDigitPairs[2 * std::abs(x)], 2);
        return out + 2;
    }
    if (x >= 0) {
        std::memcpy(out, d, x + 1);
        out += x + 1;
        if (len > x + 1) {
            *out++ = '.';
            std::memcpy(out, d + x + 1, len - x - 1);
            out += len - x - 1;
        }
        return out;
    }
    *out++ = '0';
    *out++ = '.';
    for (int i = -1; i > x; --i)
        *out++ = '0';
    std::memcpy(out, d, len);
    return out + len;
}

/** std::to_chars(general, precision): printf "%.*g" in the C locale. */
char *
toCharsGeneral(char *out, double v, int precision)
{
    auto [end, ec] = std::to_chars(out, out + kGeneralChars, v,
                                   std::chars_format::general, precision);
    GABLES_ASSERT(ec == std::errc(), "to_chars buffer too small");
    return end;
}

} // namespace

bool
scaleDecimal(double v, int k, ScaledDecimal &out)
{
    if (!std::isfinite(v) || k < 0 || k > kMaxDecimalScale)
        return false;
    uint64_t bits = std::bit_cast<uint64_t>(v);
    int biased = static_cast<int>(bits >> 52 & 0x7ff);
    uint64_t m = bits & ((uint64_t{1} << 52) - 1);
    int e = -1074;
    if (biased != 0) {
        m |= uint64_t{1} << 52;
        e = biased - 1075;
    }
    // |v|·10^k = m·5^k·2^(e+k), with m·5^k < 2^53·5^28 < 2^119.
    u128 p = u128{m} * kPow5[k];
    int t = e + k;
    u128 whole = 0;
    Rest rest = Rest::Zero;
    if (t >= 0) {
        if (t >= 64 || p >> (64 - t) != 0)
            return false;
        whole = p << t;
    } else if (t <= -128) {
        // The whole of p is fraction, and p < 2^127 <= half.
        rest = p == 0 ? Rest::Zero : Rest::BelowHalf;
    } else {
        int s = -t;
        whole = p >> s;
        u128 frac = p & ((u128{1} << s) - 1);
        u128 half = u128{1} << (s - 1);
        rest = frac == 0      ? Rest::Zero
               : frac < half  ? Rest::BelowHalf
               : frac == half ? Rest::Half
                              : Rest::AboveHalf;
    }
    if (whole >= UINT64_MAX)
        return false;
    out = {static_cast<uint64_t>(whole), rest};
    return true;
}

char *
writeGeneral17(char *out, double v)
{
    ScaledDecimal s;
    int x = 0;
    if (v != 0.0 && !significand17(v, s, x))
        return toCharsGeneral(out, v, 17);
    return writeGeneralDigits(out, std::signbit(v),
                              roundDigits(s, x, kPow10[17]), 17);
}

char *
writeRoundTrip(char *out, double v)
{
    ScaledDecimal s;
    int x = 0;
    if (v == 0.0 || significand17(v, s, x)) {
        Significand n12 =
            roundDigits(dropDigits(s, kPow10[5]), x, kPow10[12]);
        if (n12.exp >= -11) {
            // N12 < 2^53 and 10^|11 - X| <= 10^22 are exact doubles,
            // so one IEEE operation is the correctly rounded read-back.
            int j = 11 - n12.exp;
            double n = static_cast<double>(n12.digits);
            double back =
                j >= 0 ? n / kExactPow10[j] : n * kExactPow10[-j];
            if (back == std::fabs(v))
                return writeGeneralDigits(out, std::signbit(v), n12, 12);
            return writeGeneralDigits(out, std::signbit(v),
                                      roundDigits(s, x, kPow10[17]), 17);
        }
    }
    // Elsewhere "%.12g" reads back exactly when some decimal of at most
    // 12 digits does: two 12-digit decimals lie further apart than a
    // double's rounding interval is wide, so that decimal is the
    // nearest one, which is what "%.12g" prints.
    char shortest[kGeneralChars];
    auto [end, ec] = std::to_chars(shortest, shortest + sizeof shortest,
                                   v, std::chars_format::scientific);
    GABLES_ASSERT(ec == std::errc(), "to_chars buffer too small");
    int digits = 0;
    for (const char *c = shortest; c != end && *c != 'e'; ++c)
        digits += *c >= '0' && *c <= '9';
    return toCharsGeneral(out, v, digits <= 12 ? 12 : 17);
}

char *
writeFixedTrimmed(char *first, char *last, double v, int precision)
{
    if (precision < 0)
        precision = 6;
    ScaledDecimal s;
    if (precision <= 18 && scaleDecimal(v, precision, s)) {
        // The digits of round(|v|·10^precision), with leading zeros up
        // to one integer digit; the point goes before the last
        // precision of them.
        uint64_t n = s.rounded();
        int len = precision + 1;
        while (len < 20 && n >= kPow10[len])
            ++len;
        char digits[20];
        writeDigits(digits, n, len);
        int point = len - precision;
        int end = len;
        while (end > point && digits[end - 1] == '0')
            --end;
        char *out = first;
        if (std::signbit(v))
            *out++ = '-';
        std::memcpy(out, digits, point);
        out += point;
        if (end > point) {
            *out++ = '.';
            std::memcpy(out, digits + point, end - point);
            out += end - point;
        }
        return out;
    }
    auto [end, ec] = std::to_chars(first, last, v,
                                   std::chars_format::fixed, precision);
    if (ec != std::errc())
        fatal("writeFixedTrimmed: to_chars failed");
    if (std::find(first, end, '.') != end) {
        while (end[-1] == '0')
            --end;
        if (end[-1] == '.')
            --end;
    }
    return end;
}

} // namespace gables

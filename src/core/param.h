/**
 * @file
 * One input of the Gables model, named as data. Paper Table II lists
 * six: Ppeak, Bpeak, Ai and Bi on the hardware side, fi and Ii on the
 * software side. Every analysis that varies an input (sweeps,
 * sensitivity, the explorer, the advisor, the provisioner, serve)
 * names it with a Param, and GablesPack<W>, SocSpec::with() and
 * read() below are the only places that map a Param onto storage.
 */

#ifndef GABLES_CORE_PARAM_H
#define GABLES_CORE_PARAM_H

#include <cstddef>
#include <string>

namespace gables {

class SocSpec;
class Usecase;

/** One Table II input: a kind and, for the per-IP kinds, an IP. */
struct Param {
    /** The model inputs, chip-level first. */
    enum class Kind {
        /** Baseline peak performance Ppeak (ops/s). */
        Ppeak,
        /** Off-chip memory bandwidth Bpeak (bytes/s). */
        Bpeak,
        /** IP acceleration Ai. */
        Acceleration,
        /** IP link bandwidth Bi (bytes/s). */
        IpBandwidth,
        /** Work fraction fi. */
        Fraction,
        /** Operational intensity Ii (ops/byte). */
        Intensity,
    };

    Kind kind = Kind::Ppeak;
    /** IP index of the per-IP kinds; 0 for Ppeak and Bpeak. */
    size_t ip = 0;

    static constexpr Param ppeak() { return {Kind::Ppeak, 0}; }
    static constexpr Param bpeak() { return {Kind::Bpeak, 0}; }
    static constexpr Param acceleration(size_t i)
    {
        return {Kind::Acceleration, i};
    }
    static constexpr Param ipBandwidth(size_t i)
    {
        return {Kind::IpBandwidth, i};
    }
    static constexpr Param fraction(size_t i)
    {
        return {Kind::Fraction, i};
    }
    static constexpr Param intensity(size_t i)
    {
        return {Kind::Intensity, i};
    }

    /** @return True for Ai, Bi, fi and Ii, which name an IP. */
    constexpr bool perIp() const
    {
        return kind != Kind::Ppeak && kind != Kind::Bpeak;
    }

    /** @return The display name: "Ppeak", "Bpeak", "A[i]", "B[i]",
     * "f[i]" or "I[i]". */
    std::string name() const;

    /**
     * @return This input's value in the pair (hardware kinds read
     * @p soc, software kinds @p usecase).
     * @throws FatalError if the IP index is out of range.
     */
    double read(const SocSpec &soc, const Usecase &usecase) const;

    bool operator==(const Param &) const = default;
};

} // namespace gables

#endif // GABLES_CORE_PARAM_H

/**
 * @file
 * One input of the Gables model, named as data, and the rules its
 * values obey. Paper Table II lists six inputs: Ppeak, Bpeak, Ai and
 * Bi on the hardware side, fi and Ii on the software side. Every
 * analysis that varies an input (sweeps, sensitivity, the explorer,
 * the advisor, the provisioner, serve) names it with a Param, and
 * GablesPack<W>, SocSpec::with() and read() below are the only places
 * that map a Param onto storage.
 *
 * The rules (Section III: A0 = 1, positive rates, a finite peak
 * Ai * Ppeak, non-negative fractions, Ii > 0 wherever work is
 * assigned) are stated once, below: SocSpec and Usecase apply them
 * when they are built, and GablesPack<W> when a lane is set. A new
 * input is one more Param::Kind and one more rule function.
 */

#ifndef GABLES_CORE_PARAM_H
#define GABLES_CORE_PARAM_H

#include <cmath>
#include <cstddef>
#include <string>

#include "util/logging.h"

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

/**
 * Who holds a checked input, named at the head of a failed rule's
 * message: "evaluator" (a GablesPack lane), "SoC '<name>'" or
 * "usecase '<name>'". It holds pointers only and is formatted only
 * when a rule fails, so a passing check allocates nothing.
 */
struct InputOwner {
    /** "evaluator", "SoC" or "usecase". */
    const char *kind;
    /** The SoC's or usecase's display name; nullptr for a pack. */
    const std::string *name = nullptr;

    /** @return The kind, then the quoted name when there is one. */
    std::string str() const;
};

/** @return "IP[i]": how IP @p i is named by its position. */
inline std::string
ipTag(size_t i)
{
    return "IP[" + std::to_string(i) + "]";
}

/**
 * Throw FatalError "<owner>: <msg()>". Cold and out of line, so an
 * inlined rule costs a compare and a branch.
 */
template <typename Msg>
[[noreturn, gnu::cold, gnu::noinline]] void
rejectInput(const InputOwner &owner, Msg msg)
{
    fatal(owner.str() + ": " + msg());
}

/** @name Table II input rules
 * One per input. The fi rule, checkWork(), also applies the Ii rule,
 * checkIntensity(), which depends on fi. Each throws FatalError
 * through rejectInput() on the first clause its value breaks. Always
 * inlined: GablesPack<W>::set() runs one per staged lane. */
/** @{ */
/** Ppeak is positive and finite. */
[[gnu::always_inline]] inline void
checkPpeak(const InputOwner &owner, double ppeak)
{
    if (!(ppeak > 0.0) || std::isinf(ppeak))
        rejectInput(owner,
                    [] { return "Ppeak must be positive and finite"; });
}

/** Bpeak is positive and finite. */
[[gnu::always_inline]] inline void
checkBpeak(const InputOwner &owner, double bpeak)
{
    if (!(bpeak > 0.0) || std::isinf(bpeak))
        rejectInput(owner,
                    [] { return "Bpeak must be positive and finite"; });
}

/**
 * Ai of IP @p i: A0 is 1 (paper Section III-D), every Ai is positive
 * and finite, and the IP's peak Ai * @p ppeak, which its compute
 * time divides by, is finite. The peak message quotes @p ipName when
 * one is given.
 */
[[gnu::always_inline]] inline void
checkAcceleration(const InputOwner &owner, size_t i, double acceleration,
                  double ppeak, const std::string *ipName = nullptr)
{
    if (i == 0 && acceleration != 1.0)
        rejectInput(owner, [] {
            return "IP[0] acceleration A0 must be 1 (paper Section III-D)";
        });
    if (!(acceleration > 0.0) || std::isinf(acceleration))
        rejectInput(owner, [i] {
            return ipTag(i) + " acceleration must be positive and finite";
        });
    if (!std::isfinite(acceleration * ppeak))
        rejectInput(owner, [i, ipName] {
            std::string ip = ipTag(i) + " ";
            if (ipName != nullptr)
                ip += "'" + *ipName + "' ";
            return ip + "peak Ai * Ppeak must be finite";
        });
}

/** Bi of IP @p i is positive and finite. */
[[gnu::always_inline]] inline void
checkIpBandwidth(const InputOwner &owner, size_t i, double bandwidth)
{
    if (!(bandwidth > 0.0) || std::isinf(bandwidth))
        rejectInput(owner, [i] {
            return ipTag(i) + " bandwidth must be positive and finite";
        });
}

/**
 * Ii of IP @p i, given its fi: positive wherever fi > 0 (an idle
 * IP's Ii is never read). On its own only where fi is already
 * checked; checkWork() applies it with the fi rule.
 */
[[gnu::always_inline]] inline void
checkIntensity(const InputOwner &owner, size_t i, double fraction,
               double intensity)
{
    if (fraction > 0.0 && !(intensity > 0.0))
        rejectInput(owner, [i] {
            return "intensity I[" + std::to_string(i) +
                   "] must be > 0 where work is assigned";
        });
}

/**
 * fi and Ii of IP @p i, checked together: fi is non-negative and
 * finite, then checkIntensity(). That the fractions sum to 1 is a
 * rule of the whole usecase, which Usecase checks.
 */
[[gnu::always_inline]] inline void
checkWork(const InputOwner &owner, size_t i, double fraction,
          double intensity)
{
    if (!(fraction >= 0.0) || std::isinf(fraction))
        rejectInput(owner, [i] {
            return "fraction f[" + std::to_string(i) +
                   "] must be in [0, 1]";
        });
    checkIntensity(owner, i, fraction, intensity);
}
/** @} */

/**
 * The pair rule: @p usecase has one work entry per IP of @p soc.
 * Every model entry point that takes a pair checks it.
 * @throws FatalError "usecase 'X' has N IP entries but SoC 'Y' has M
 *         IPs".
 */
void checkPair(const SocSpec &soc, const Usecase &usecase);

} // namespace gables

#endif // GABLES_CORE_PARAM_H

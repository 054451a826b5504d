#include "core/param.h"

#include "core/soc_spec.h"
#include "core/usecase.h"

namespace gables {

std::string
Param::name() const
{
    const std::string index = "[" + std::to_string(ip) + "]";
    switch (kind) {
    case Kind::Ppeak:
        return "Ppeak";
    case Kind::Bpeak:
        return "Bpeak";
    case Kind::Acceleration:
        return "A" + index;
    case Kind::IpBandwidth:
        return "B" + index;
    case Kind::Fraction:
        return "f" + index;
    case Kind::Intensity:
        return "I" + index;
    }
    return "?";
}

double
Param::read(const SocSpec &soc, const Usecase &usecase) const
{
    switch (kind) {
    case Kind::Ppeak:
        return soc.ppeak();
    case Kind::Bpeak:
        return soc.bpeak();
    case Kind::Acceleration:
        return soc.ip(ip).acceleration;
    case Kind::IpBandwidth:
        return soc.ip(ip).bandwidth;
    case Kind::Fraction:
        return usecase.fraction(ip);
    case Kind::Intensity:
        return usecase.intensity(ip);
    }
    return 0.0;
}

std::string
InputOwner::str() const
{
    if (name == nullptr)
        return kind;
    return std::string(kind) + " '" + *name + "'";
}

void
checkPair(const SocSpec &soc, const Usecase &usecase)
{
    if (usecase.numIps() != soc.numIps())
        fatal("usecase '" + usecase.name() + "' has " +
              std::to_string(usecase.numIps()) +
              " IP entries but SoC '" + soc.name() + "' has " +
              std::to_string(soc.numIps()) + " IPs");
}

} // namespace gables

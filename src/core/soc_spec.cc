#include "core/soc_spec.h"

#include <algorithm>

#include "util/logging.h"

namespace gables {

SocSpec::SocSpec(std::string name, double ppeak, double bpeak,
                 std::vector<IpSpec> ips)
    : name_(std::move(name)), ppeak_(ppeak), bpeak_(bpeak),
      ips_(std::move(ips))
{
    validate();
}

void
SocSpec::validate() const
{
    const InputOwner owner{"SoC", &name_};
    checkPpeak(owner, ppeak_);
    checkBpeak(owner, bpeak_);
    if (ips_.empty())
        fatal("SoC '" + name_ + "': needs at least one IP (IP[0])");
    for (size_t i = 0; i < ips_.size(); ++i) {
        const IpSpec &ip = ips_[i];
        checkAcceleration(owner, i, ip.acceleration, ppeak_, &ip.name);
        checkIpBandwidth(owner, i, ip.bandwidth);
    }
}

const IpSpec &
SocSpec::ip(size_t i) const
{
    if (i >= ips_.size())
        fatal("SoC '" + name_ + "': IP index " + std::to_string(i) +
              " out of range (N=" + std::to_string(ips_.size()) + ")");
    return ips_[i];
}

std::string
SocSpec::ipLabel(size_t i) const
{
    const std::string &name = ip(i).name;
    return name.empty() ? ipTag(i) : name;
}

double
SocSpec::ipPeakPerf(size_t i) const
{
    return ip(i).acceleration * ppeak_;
}

Roofline
SocSpec::ipRoofline(size_t i) const
{
    const IpSpec &spec = ip(i);
    return Roofline(spec.acceleration * ppeak_,
                    std::min(spec.bandwidth, bpeak_), ipLabel(i));
}

size_t
SocSpec::ipIndex(const std::string &name) const
{
    for (size_t i = 0; i < ips_.size(); ++i) {
        if (ips_[i].name == name)
            return i;
    }
    fatal("SoC '" + name_ + "': no IP named '" + name + "'");
}

SocSpec
SocSpec::with(Param p, double value) const
{
    if (p.perIp())
        ip(p.ip); // the range check, with this SoC's message
    SocSpec copy = *this;
    switch (p.kind) {
    case Param::Kind::Ppeak:
        copy.ppeak_ = value;
        break;
    case Param::Kind::Bpeak:
        copy.bpeak_ = value;
        break;
    case Param::Kind::Acceleration:
        copy.ips_[p.ip].acceleration = value;
        break;
    case Param::Kind::IpBandwidth:
        copy.ips_[p.ip].bandwidth = value;
        break;
    case Param::Kind::Fraction:
    case Param::Kind::Intensity:
        fatal("SoC '" + name_ + "': " + p.name() +
              " is a usecase input");
    }
    copy.validate();
    return copy;
}

} // namespace gables

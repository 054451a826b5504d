#include "core/energy.h"

#include <cmath>
#include <limits>

#include "util/logging.h"

namespace gables {

EnergyModel::EnergyModel(std::vector<double> energy_per_op,
                         double energy_per_byte, double static_power)
    : energyPerOp_(std::move(energy_per_op)),
      energyPerByte_(energy_per_byte), staticPower_(static_power)
{
    if (energyPerOp_.empty())
        fatal("energy model needs at least one IP coefficient");
    for (size_t i = 0; i < energyPerOp_.size(); ++i) {
        if (!(energyPerOp_[i] > 0.0))
            fatal("energy per op e[" + std::to_string(i) +
                  "] must be > 0");
    }
    if (!(energy_per_byte >= 0.0))
        fatal("energy per byte must be >= 0");
    if (!(static_power >= 0.0))
        fatal("static power must be >= 0");
}

double
EnergyModel::usecaseEnergyPerOp(const Usecase &usecase) const
{
    if (usecase.numIps() != energyPerOp_.size())
        fatal("energy model has " +
              std::to_string(energyPerOp_.size()) +
              " IPs but usecase has " +
              std::to_string(usecase.numIps()));
    double e = 0.0;
    for (size_t i = 0; i < usecase.numIps(); ++i)
        e += usecase.fraction(i) * energyPerOp_[i];
    e += usecase.bytesPerOp() * energyPerByte_;
    return e;
}

EnergyResult
EnergyModel::evaluate(const SocSpec &soc, const Usecase &usecase,
                      double tdp_watts) const
{
    if (!(tdp_watts > staticPower_))
        fatal("TDP must exceed the static power");

    EnergyResult result;
    result.attainable = GablesModel::evaluate(soc, usecase).attainable;
    result.energyPerOp = usecaseEnergyPerOp(usecase);
    result.tdpBound =
        result.energyPerOp > 0.0
            ? (tdp_watts - staticPower_) / result.energyPerOp
            : std::numeric_limits<double>::infinity();
    result.constrained = std::min(result.attainable, result.tdpBound);
    result.power =
        result.constrained * result.energyPerOp + staticPower_;
    result.thermallyLimited = result.tdpBound < result.attainable;
    return result;
}

} // namespace gables

#include "core/usecase.h"

#include <cmath>
#include <limits>

#include "core/param.h"
#include "util/logging.h"

namespace gables {

namespace {

/// Tolerance for the sum-to-one check on work fractions.
constexpr double kFractionSumTol = 1e-9;

} // namespace

Usecase::Usecase(std::string name, std::vector<IpWork> work)
    : name_(std::move(name)), work_(std::move(work))
{
    validate();
}

Usecase
Usecase::twoIp(std::string name, double f, double i0, double i1)
{
    return Usecase(std::move(name),
                   {IpWork{1.0 - f, i0}, IpWork{f, i1}});
}

void
Usecase::validate() const
{
    if (work_.empty())
        fatal("usecase '" + name_ + "': needs at least one IP entry");
    const InputOwner owner{"usecase", &name_};
    double sum = 0.0;
    for (size_t i = 0; i < work_.size(); ++i) {
        checkWork(owner, i, work_[i].fraction, work_[i].intensity);
        sum += work_[i].fraction;
    }
    if (std::fabs(sum - 1.0) > kFractionSumTol)
        fatal("usecase '" + name_ + "': work fractions sum to " +
              std::to_string(sum) + ", expected 1");
}

const IpWork &
Usecase::at(size_t i) const
{
    if (i >= work_.size())
        fatal("usecase '" + name_ + "': IP index " + std::to_string(i) +
              " out of range");
    return work_[i];
}

double
Usecase::bytesPerOp() const
{
    double bytes = 0.0;
    for (const IpWork &w : work_) {
        if (w.fraction == 0.0 || std::isinf(w.intensity))
            continue;
        bytes += w.fraction / w.intensity;
    }
    return bytes;
}

double
Usecase::averageIntensity() const
{
    double bytes = bytesPerOp();
    if (bytes == 0.0)
        return std::numeric_limits<double>::infinity();
    return 1.0 / bytes;
}

Usecase
Usecase::withWork(size_t i, IpWork work) const
{
    std::vector<IpWork> w = work_;
    if (i >= w.size())
        fatal("withWork: IP index out of range");
    w[i] = work;
    return Usecase(name_, std::move(w));
}

} // namespace gables

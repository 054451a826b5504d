#include "core/interconnect.h"

#include "util/logging.h"

namespace gables {

InterconnectModel::InterconnectModel(std::vector<BusSpec> buses,
                                     std::vector<std::vector<bool>> use)
    : buses_(std::move(buses)), use_(std::move(use))
{
    if (buses_.empty())
        fatal("interconnect model needs at least one bus");
    for (size_t j = 0; j < buses_.size(); ++j) {
        if (!(buses_[j].bandwidth > 0.0))
            fatal("bus '" + buses_[j].name +
                  "' bandwidth must be positive");
    }
    for (size_t i = 0; i < use_.size(); ++i) {
        if (use_[i].size() != buses_.size())
            fatal("use matrix row " + std::to_string(i) + " has " +
                  std::to_string(use_[i].size()) + " entries, expected " +
                  std::to_string(buses_.size()));
    }
}

InterconnectModel
InterconnectModel::hierarchy(const std::vector<std::string> &leaf_names,
                             const std::vector<double> &leaf_bw,
                             const std::vector<size_t> &ip_to_leaf,
                             double system_bw)
{
    if (leaf_names.size() != leaf_bw.size())
        fatal("hierarchy: leaf names/bandwidths size mismatch");
    std::vector<BusSpec> buses;
    buses.reserve(leaf_names.size() + 1);
    for (size_t j = 0; j < leaf_names.size(); ++j)
        buses.push_back({leaf_names[j], leaf_bw[j]});
    bool has_system = system_bw > 0.0;
    if (has_system)
        buses.push_back({"system fabric", system_bw});

    std::vector<std::vector<bool>> use;
    use.reserve(ip_to_leaf.size());
    for (size_t leaf : ip_to_leaf) {
        if (leaf >= leaf_names.size())
            fatal("hierarchy: IP mapped to nonexistent leaf fabric");
        std::vector<bool> row(buses.size(), false);
        row[leaf] = true;
        if (has_system)
            row.back() = true;
        use.push_back(std::move(row));
    }
    return InterconnectModel(std::move(buses), std::move(use));
}

bool
InterconnectModel::uses(size_t i, size_t j) const
{
    if (i >= use_.size() || j >= buses_.size())
        fatal("use matrix index out of range");
    return use_[i][j];
}

} // namespace gables

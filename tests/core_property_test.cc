/**
 * @file
 * Property-based tests of the Gables model over randomized SoCs and
 * usecases (parameterized over seeds):
 *
 *  - duality: the time-form (Eqs. 9-11) and performance-form
 *    (Eqs. 12-14) equations agree;
 *  - monotonicity: performance never decreases when any hardware
 *    resource (Ppeak, Bpeak, Ai, Bi) or any software intensity Ii
 *    grows;
 *  - bound consistency: Pattainable equals the minimum over the
 *    scaled rooflines evaluated at their operating intensities;
 *  - concurrency dominance: base (concurrent) Gables never loses to
 *    the serialized extension;
 *  - extension reduction: an SRAM with every mi = 1 and a bus too wide
 *    to bind leave every base-model field bit-equal;
 *  - explorer invariants: a candidate's minPerf is the minimum of
 *    its per-usecase scores, and Pareto extraction is independent of
 *    the order the grid is enumerated in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "analysis/explorer.h"
#include "core/gables.h"
#include "core/interconnect.h"
#include "core/memside.h"
#include "core/serialized.h"
#include "util/rng.h"

namespace gables {
namespace {

/** Draw a random but valid SoC with 1-6 IPs. */
SocSpec
randomSoc(Rng &rng)
{
    size_t n = static_cast<size_t>(rng.uniformInt(1, 6));
    std::vector<IpSpec> ips;
    for (size_t i = 0; i < n; ++i) {
        IpSpec ip;
        ip.name = "IP" + std::to_string(i);
        ip.acceleration = i == 0 ? 1.0 : rng.logUniform(0.1, 100.0);
        ip.bandwidth = rng.logUniform(1e9, 100e9);
        ips.push_back(ip);
    }
    return SocSpec("random", rng.logUniform(1e9, 100e9),
                   rng.logUniform(1e9, 100e9), std::move(ips));
}

/** Draw a random usecase over n IPs (some IPs may get ~no work). */
Usecase
randomUsecase(Rng &rng, size_t n)
{
    std::vector<double> f = rng.simplex(n);
    std::vector<IpWork> work(n);
    for (size_t i = 0; i < n; ++i)
        work[i] = IpWork{f[i], rng.logUniform(0.01, 1024.0)};
    return Usecase("random", std::move(work));
}

class GablesProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(GablesProperty, TimeAndPerformanceFormsAgree)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 50; ++trial) {
        SocSpec soc = randomSoc(rng);
        Usecase u = randomUsecase(rng, soc.numIps());
        double time_form = GablesModel::evaluate(soc, u).attainable;
        double perf_form = GablesModel::attainablePerfForm(soc, u);
        EXPECT_NEAR(time_form / perf_form, 1.0, 1e-9)
            << "seed " << GetParam() << " trial " << trial;
    }
}

TEST_P(GablesProperty, MonotoneInBpeak)
{
    Rng rng(GetParam() ^ 0x1111);
    for (int trial = 0; trial < 30; ++trial) {
        SocSpec soc = randomSoc(rng);
        Usecase u = randomUsecase(rng, soc.numIps());
        double base = GablesModel::evaluate(soc, u).attainable;
        double more = GablesModel::evaluate(
                          soc.with(Param::bpeak(), soc.bpeak() * 2.0), u)
                          .attainable;
        EXPECT_GE(more, base * (1.0 - 1e-12));
    }
}

TEST_P(GablesProperty, MonotoneInPpeak)
{
    Rng rng(GetParam() ^ 0x2222);
    for (int trial = 0; trial < 30; ++trial) {
        SocSpec soc = randomSoc(rng);
        Usecase u = randomUsecase(rng, soc.numIps());
        double base = GablesModel::evaluate(soc, u).attainable;
        SocSpec faster(soc.name(), soc.ppeak() * 2.0, soc.bpeak(),
                       soc.ips());
        double more = GablesModel::evaluate(faster, u).attainable;
        EXPECT_GE(more, base * (1.0 - 1e-12));
    }
}

TEST_P(GablesProperty, MonotoneInIpKnobs)
{
    Rng rng(GetParam() ^ 0x3333);
    for (int trial = 0; trial < 30; ++trial) {
        SocSpec soc = randomSoc(rng);
        if (soc.numIps() < 2)
            continue;
        Usecase u = randomUsecase(rng, soc.numIps());
        double base = GablesModel::evaluate(soc, u).attainable;
        size_t ip = static_cast<size_t>(rng.uniformInt(
            1, static_cast<int64_t>(soc.numIps()) - 1));
        EXPECT_GE(GablesModel::evaluate(
                      soc.with(Param::acceleration(
                          ip), soc.ip(ip).acceleration * 3.0),
                      u)
                      .attainable,
                  base * (1.0 - 1e-12));
        EXPECT_GE(GablesModel::evaluate(
                      soc.with(Param::ipBandwidth(ip),
                               soc.ip(ip).bandwidth * 3.0),
                      u)
                      .attainable,
                  base * (1.0 - 1e-12));
    }
}

TEST_P(GablesProperty, MonotoneInIntensity)
{
    Rng rng(GetParam() ^ 0x4444);
    for (int trial = 0; trial < 30; ++trial) {
        SocSpec soc = randomSoc(rng);
        Usecase u = randomUsecase(rng, soc.numIps());
        double base = GablesModel::evaluate(soc, u).attainable;
        size_t ip = static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(soc.numIps()) - 1));
        Usecase better = u.withWork(
            ip, IpWork{u.fraction(ip), u.intensity(ip) * 4.0});
        EXPECT_GE(GablesModel::evaluate(soc, better).attainable,
                  base * (1.0 - 1e-12));
    }
}

TEST_P(GablesProperty, AttainableEqualsMinOfSelectedBounds)
{
    Rng rng(GetParam() ^ 0x5555);
    for (int trial = 0; trial < 30; ++trial) {
        SocSpec soc = randomSoc(rng);
        Usecase u = randomUsecase(rng, soc.numIps());
        GablesResult r = GablesModel::evaluate(soc, u);
        double min_bound = r.memoryPerfBound;
        for (size_t i = 0; i < soc.numIps(); ++i) {
            // IP i's scaled roofline at Ii (Eq. 12); an idle IP
            // bounds nothing.
            double f = u.fraction(i);
            if (f > 0.0)
                min_bound = std::min(
                    min_bound,
                    std::min(soc.ip(i).bandwidth * u.intensity(i),
                             soc.ipPeakPerf(i)) /
                        f);
        }
        EXPECT_NEAR(r.attainable / min_bound, 1.0, 1e-9);
    }
}

TEST_P(GablesProperty, ConcurrentNeverLosesToSerialized)
{
    Rng rng(GetParam() ^ 0x6666);
    for (int trial = 0; trial < 30; ++trial) {
        SocSpec soc = randomSoc(rng);
        Usecase u = randomUsecase(rng, soc.numIps());
        double concurrent = GablesModel::evaluate(soc, u).attainable;
        double serialized =
            SerializedModel::evaluate(soc, u).attainable;
        EXPECT_GE(concurrent, serialized * (1.0 - 1e-12));
    }
}

/** Every field the base model sets must be equal in @p ext. */
void
expectBaseFieldsEqual(const GablesResult &ext, const GablesResult &base,
                      const char *what)
{
    EXPECT_EQ(ext.attainable, base.attainable) << what;
    EXPECT_EQ(ext.memoryTime, base.memoryTime) << what;
    EXPECT_EQ(ext.memoryPerfBound, base.memoryPerfBound) << what;
    EXPECT_EQ(ext.averageIntensity, base.averageIntensity) << what;
    EXPECT_EQ(ext.totalDataBytes, base.totalDataBytes) << what;
    EXPECT_EQ(ext.bottleneckIp, base.bottleneckIp) << what;
    EXPECT_EQ(ext.bottleneck, base.bottleneck) << what;
    EXPECT_EQ(ext.bottleneckBus, -1) << what;
    ASSERT_EQ(ext.ips.size(), base.ips.size()) << what;
    for (size_t i = 0; i < base.ips.size(); ++i) {
        EXPECT_EQ(ext.ips[i].computeTime, base.ips[i].computeTime);
        EXPECT_EQ(ext.ips[i].dataBytes, base.ips[i].dataBytes);
        EXPECT_EQ(ext.ips[i].transferTime, base.ips[i].transferTime);
        EXPECT_EQ(ext.ips[i].time, base.ips[i].time);
        EXPECT_EQ(ext.ips[i].perfBound, base.ips[i].perfBound);
    }
}

TEST_P(GablesProperty, NeutralExtensionsKeepBaseBits)
{
    // mi = 1 for every IP reduces Eq. 15 to the base model, and a
    // bus far wider than Bpeak never binds (Eq. 17).
    Rng rng(GetParam() ^ 0x8888);
    for (int trial = 0; trial < 30; ++trial) {
        SocSpec soc = randomSoc(rng);
        Usecase u = randomUsecase(rng, soc.numIps());
        GablesResult base = GablesModel::evaluate(soc, u);
        EXPECT_TRUE(base.busTimes.empty());
        EXPECT_EQ(base.bottleneckBus, -1);

        MemSideMemory all_miss =
            MemSideMemory::uniform(soc.numIps(), 1.0);
        expectBaseFieldsEqual(GablesModel::evaluate(soc, u, &all_miss),
                              base, "mi = 1");

        InterconnectModel wide(
            {BusSpec{"wide", 1e15}},
            std::vector<std::vector<bool>>(soc.numIps(), {true}));
        GablesResult with_bus =
            GablesModel::evaluate(soc, u, nullptr, &wide);
        expectBaseFieldsEqual(with_bus, base, "1e15 B/s bus");
        EXPECT_EQ(with_bus.busTimes.size(), 1u);
    }
}

TEST_P(GablesProperty, BottleneckResourceHasUnitElasticityLocally)
{
    // Growing the binding resource slightly must grow performance;
    // growing a strictly-slack IP knob must not change it.
    Rng rng(GetParam() ^ 0x7777);
    for (int trial = 0; trial < 20; ++trial) {
        SocSpec soc = randomSoc(rng);
        Usecase u = randomUsecase(rng, soc.numIps());
        GablesResult r = GablesModel::evaluate(soc, u);
        if (r.bottleneckIp < 0) {
            double grown =
                GablesModel::evaluate(
                    soc.with(Param::bpeak(), soc.bpeak() * 1.0001), u)
                    .attainable;
            EXPECT_GT(grown, r.attainable);
        }
    }
}

/** Draw a random SoC guaranteed to have at least two IPs. */
SocSpec
randomMultiIpSoc(Rng &rng)
{
    SocSpec soc = randomSoc(rng);
    while (soc.numIps() < 2)
        soc = randomSoc(rng);
    return soc;
}

/** A random explorer over Bpeak and A1 grids for @p soc. */
DesignExplorer
randomExplorer(Rng &rng, const SocSpec &soc,
               std::vector<double> bpeaks, std::vector<double> accels)
{
    size_t n_usecases = static_cast<size_t>(rng.uniformInt(1, 4));
    std::vector<Usecase> usecases;
    for (size_t i = 0; i < n_usecases; ++i)
        usecases.push_back(randomUsecase(rng, soc.numIps()));
    CostModel cost;
    cost.costPerAcceleration = rng.uniform(0.1, 2.0);
    cost.costPerBpeak = rng.logUniform(1e-10, 1e-8);
    DesignExplorer ex(soc, std::move(usecases), cost);
    ex.sweepBpeak(std::move(bpeaks));
    ex.sweepAcceleration(1, std::move(accels));
    return ex;
}

TEST_P(GablesProperty, ExplorerMinPerfIsWorstUsecase)
{
    Rng rng(GetParam() ^ 0x8888);
    for (int trial = 0; trial < 5; ++trial) {
        SocSpec soc = randomMultiIpSoc(rng);
        std::vector<double> bpeaks, accels;
        for (int i = 0; i < 4; ++i) {
            bpeaks.push_back(rng.logUniform(1e9, 100e9));
            accels.push_back(rng.logUniform(0.5, 50.0));
        }
        DesignExplorer ex =
            randomExplorer(rng, soc, bpeaks, accels);
        for (bool prune : {true, false}) {
            ExploreOptions opts;
            opts.prune = prune;
            for (const Candidate &c : ex.exploreFrontier(opts)) {
                ASSERT_FALSE(c.perUsecase.empty());
                EXPECT_EQ(c.minPerf,
                          *std::min_element(c.perUsecase.begin(),
                                            c.perUsecase.end()))
                    << "seed " << GetParam() << " trial " << trial
                    << " prune " << prune;
            }
        }
    }
}

TEST_P(GablesProperty, ExplorerParetoOrderIndependent)
{
    // Permuting the enumeration order of the knob grids must not
    // change which designs are on the Pareto frontier.
    Rng rng(GetParam() ^ 0x9999);
    for (int trial = 0; trial < 5; ++trial) {
        SocSpec soc = randomMultiIpSoc(rng);
        std::vector<double> bpeaks, accels;
        for (int i = 0; i < 4; ++i) {
            bpeaks.push_back(rng.logUniform(1e9, 100e9));
            accels.push_back(rng.logUniform(0.5, 50.0));
        }
        // Fisher-Yates permutations of both grids, rng-driven.
        std::vector<double> bpeaks_p = bpeaks, accels_p = accels;
        for (size_t i = bpeaks_p.size(); i > 1; --i)
            std::swap(bpeaks_p[i - 1],
                      bpeaks_p[static_cast<size_t>(rng.uniformInt(
                          0, static_cast<int64_t>(i) - 1))]);
        for (size_t i = accels_p.size(); i > 1; --i)
            std::swap(accels_p[i - 1],
                      accels_p[static_cast<size_t>(rng.uniformInt(
                          0, static_cast<int64_t>(i) - 1))]);

        uint64_t fork = rng.next(); // same downstream stream twice
        Rng rng_a(fork), rng_b(fork);
        DesignExplorer ex =
            randomExplorer(rng_a, soc, bpeaks, accels);
        DesignExplorer ex_p =
            randomExplorer(rng_b, soc, bpeaks_p, accels_p);

        // Key each frontier member by its knob values; the two
        // enumerations must give the same members with the same
        // scores and costs.
        using Key = std::tuple<double, double>;
        auto members = [](const std::vector<Candidate> &frontier) {
            std::map<Key, std::pair<double, double>> out;
            for (const Candidate &c : frontier)
                out[{c.soc.bpeak(), c.soc.ip(1).acceleration}] = {
                    c.minPerf, c.cost};
            return out;
        };
        auto frontier = members(ex.exploreFrontier());
        ASSERT_FALSE(frontier.empty());
        EXPECT_EQ(members(ex_p.exploreFrontier()), frontier)
            << "seed " << GetParam() << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GablesProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

} // namespace
} // namespace gables

/**
 * @file
 * Tests of the SoC catalog: spec validity, and the central
 * calibration claim — running the ERT micro-benchmark on the
 * simulated Snapdragon 835 reproduces the paper's measured rooflines
 * (Figures 7a, 7b, 9).
 */

#include <gtest/gtest.h>

#include "ert/ert.h"
#include "ert/fitter.h"
#include "soc/catalog.h"
#include "soc/market_data.h"
#include "util/logging.h"

namespace gables {
namespace {

TEST(Catalog, SpecsValidate)
{
    EXPECT_NO_THROW(SocCatalog::snapdragon835().validate());
    EXPECT_NO_THROW(SocCatalog::snapdragon821().validate());
    EXPECT_NO_THROW(SocCatalog::snapdragon835Full().validate());
    EXPECT_NO_THROW(SocCatalog::paperTwoIp().validate());
    EXPECT_NO_THROW(SocCatalog::paperTwoIpBalanced().validate());
}

TEST(Catalog, NamedTableListsTheCliNames)
{
    std::vector<std::string> names;
    for (const NamedSoc &soc : SocCatalog::named())
        names.push_back(soc.name);
    EXPECT_EQ(names, (std::vector<std::string>{"sd835", "sd835-full",
                                               "sd821", "paper",
                                               "paper-balanced"}));
    EXPECT_EQ(SocCatalog::byName("sd835-full").spec().name(),
              SocCatalog::snapdragon835Full().name());
    EXPECT_EQ(SocCatalog::byName("paper-balanced").spec().bpeak(),
              SocCatalog::paperTwoIpBalanced().bpeak());
    // The empty name means sd835.
    EXPECT_EQ(&SocCatalog::byName(""), &SocCatalog::byName("sd835"));
}

TEST(Catalog, OnlyTheSnapdragonsHaveCalibratedSims)
{
    for (const NamedSoc &soc : SocCatalog::named()) {
        std::string name = soc.name;
        EXPECT_EQ(soc.sim != nullptr, name == "sd835" || name == "sd821")
            << name;
    }
    EXPECT_EQ(SocCatalog::byName("sd821").sim()->name(),
              SocCatalog::snapdragon821Sim()->name());
}

TEST(Catalog, UnknownNameSuggestsAndListsTheNames)
{
    try {
        SocCatalog::byName("sd8355");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(),
                     "unknown SoC 'sd8355' (did you mean 'sd835'?) (try "
                     "sd835, sd835-full, sd821, paper, paper-balanced)");
    }
}

TEST(Catalog, Sd835UsesMeasuredAnchors)
{
    SocSpec soc = SocCatalog::snapdragon835();
    EXPECT_DOUBLE_EQ(soc.ppeak(), 7.5e9);
    EXPECT_DOUBLE_EQ(soc.ip(0).bandwidth, 15.1e9);
    // A1 = 349.6 / 7.5 ~ 46.6 (the paper's ~47x).
    EXPECT_NEAR(soc.ip(1).acceleration, 46.6, 0.1);
    EXPECT_DOUBLE_EQ(soc.ip(1).bandwidth, 24.4e9);
    EXPECT_NEAR(soc.ip(2).acceleration, 0.4, 1e-9);
    EXPECT_DOUBLE_EQ(soc.ip(2).bandwidth, 5.4e9);
}

TEST(Catalog, FullSpecHasTableOneIps)
{
    SocSpec soc = SocCatalog::snapdragon835Full();
    ASSERT_EQ(soc.numIps(), static_cast<size_t>(kNumFullSocIps));
    EXPECT_EQ(soc.ip(kIpAp).name, "AP");
    EXPECT_EQ(soc.ip(kIpGpu).name, "GPU");
    EXPECT_EQ(soc.ip(kIpIpu).name, "IPU");
    EXPECT_EQ(soc.ip(kIpDsp).name, "DSP");
}

TEST(Catalog, PaperTwoIpMatchesFigure6Inputs)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    EXPECT_DOUBLE_EQ(soc.ppeak(), 40e9);
    EXPECT_DOUBLE_EQ(soc.bpeak(), 10e9);
    EXPECT_DOUBLE_EQ(soc.ip(1).acceleration, 5.0);
    EXPECT_DOUBLE_EQ(soc.ip(0).bandwidth, 6e9);
    EXPECT_DOUBLE_EQ(soc.ip(1).bandwidth, 15e9);
    EXPECT_DOUBLE_EQ(SocCatalog::paperTwoIpBalanced().bpeak(), 20e9);
}

/**
 * The calibration fixture: ERT on the simulated 835 engine must fit
 * the paper's measured roofline within a small tolerance.
 */
struct CalibrationCase {
    const char *engine;
    double peakOps;
    double peakBw;
};

// Without a printer gtest lists a case as its raw bytes, which include
// the address of `engine`; ctest names built from that listing would
// then change with code layout and ASLR.
void PrintTo(const CalibrationCase &c, std::ostream *os)
{
    *os << c.engine;
}

class Sd835Calibration
    : public ::testing::TestWithParam<CalibrationCase>
{
};

TEST_P(Sd835Calibration, ErtReproducesMeasuredRoofline)
{
    const CalibrationCase &c = GetParam();
    auto soc = SocCatalog::snapdragon835Sim();
    ErtConfig config;
    config.intensities = ErtConfig::defaultIntensities();
    config.workingSetBytes = 64e6; // defeats the local memories
    config.totalBytes = 128e6;
    auto samples = ErtSweep::run(*soc, c.engine, config);
    RooflineFit fit = RooflineFitter::fitDram(samples);
    EXPECT_NEAR(fit.peakOps, c.peakOps, c.peakOps * 0.03) << c.engine;
    EXPECT_NEAR(fit.peakBw, c.peakBw, c.peakBw * 0.03) << c.engine;
}

INSTANTIATE_TEST_SUITE_P(
    PaperFigures, Sd835Calibration,
    ::testing::Values(CalibrationCase{"CPU", 7.5e9, 15.1e9},
                      CalibrationCase{"GPU", 349.6e9, 24.4e9},
                      CalibrationCase{"DSP", 3.0e9, 5.4e9}),
    [](const ::testing::TestParamInfo<CalibrationCase> &info) {
        return info.param.engine;
    });

TEST(Catalog, Sd821SimAlsoTracesRooflines)
{
    // The paper reports its findings hold on the 821 as well.
    auto soc = SocCatalog::snapdragon821Sim();
    ErtConfig config;
    config.intensities = {0.125, 64.0};
    config.workingSetBytes = 64e6;
    config.totalBytes = 64e6;
    auto samples = ErtSweep::run(*soc, "CPU", config);
    RooflineFit fit = RooflineFitter::fitDram(samples);
    EXPECT_NEAR(fit.peakOps, 6.4e9, 6.4e9 * 0.03);
    EXPECT_NEAR(fit.peakBw, 14.0e9, 14.0e9 * 0.03);
}

TEST(Catalog, CpuSimdCeilingMatchesSectionFourB)
{
    // "When we apply vectorization ... we can achieve in excess of
    // 40 GFLOP/s"; the paper standardizes on the 7.5 non-NEON
    // ceiling. Both live on one roofline with a ceiling.
    Roofline cpu = SocCatalog::sd835CpuRooflineWithSimd();
    EXPECT_DOUBLE_EQ(cpu.attainable(100.0), 40e9);
    EXPECT_DOUBLE_EQ(cpu.attainableWithCeilings(100.0), 7.5e9);
    // In the bandwidth-bound region the two coincide.
    EXPECT_DOUBLE_EQ(cpu.attainable(0.25),
                     cpu.attainableWithCeilings(0.25));
}

TEST(MarketData, ChipsetSeriesShapeMatchesFigure2a)
{
    const auto &data = MarketData::chipsetsPerYear();
    ASSERT_EQ(data.size(), 11u);
    EXPECT_EQ(data.front().year, 2007);
    EXPECT_EQ(data.back().year, 2017);
    EXPECT_EQ(MarketData::peakChipsetYear(), 2015);
    EXPECT_TRUE(MarketData::declinesAfterPeak());
    // Monotone growth up to the peak.
    for (size_t i = 1; i < data.size(); ++i) {
        if (data[i].year <= 2015) {
            EXPECT_GT(data[i].count, data[i - 1].count);
        }
    }
}

TEST(MarketData, IpBlocksClimbPastThirty)
{
    const auto &data = MarketData::ipBlocksPerGeneration();
    ASSERT_GE(data.size(), 6u);
    for (size_t i = 1; i < data.size(); ++i)
        EXPECT_GT(data[i].count, data[i - 1].count);
    EXPECT_GT(data.back().count, 30.0);
}

} // namespace
} // namespace gables

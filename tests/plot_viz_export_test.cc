/**
 * @file
 * Tests for the visualization JSON export, and that it labels the
 * curves as the SVG and ASCII charts do.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "plot/roofline_plot.h"
#include "plot/viz_export.h"
#include "soc/catalog.h"

namespace gables {
namespace {

std::string
exportFor(double f, double i0, double i1)
{
    std::ostringstream oss;
    writeVisualizationJson(oss, SocCatalog::paperTwoIpBalanced(),
                           Usecase::twoIp("u", f, i0, i1));
    return oss.str();
}

TEST(VizExport, ContainsCurvesDropsAndBound)
{
    std::string json = exportFor(0.75, 8.0, 8.0);
    EXPECT_NE(json.find("\"curves\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"ip\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"memory\""), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"Iavg\""), std::string::npos);
    EXPECT_NE(json.find("\"attainable\": 160000000000"),
              std::string::npos);
    EXPECT_NE(json.find("\"bottleneck\""), std::string::npos);
}

TEST(VizExport, IdleIpsOmitted)
{
    std::string json = exportFor(0.0, 8.0, 0.1);
    EXPECT_NE(json.find("CPU (f=1)"), std::string::npos);
    EXPECT_EQ(json.find("GPU"), std::string::npos);
    // No I1 drop either.
    EXPECT_EQ(json.find("\"label\": \"I1\""), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"I0\""), std::string::npos);
}

TEST(VizExport, BalancedStructure)
{
    std::string json = exportFor(0.75, 8.0, 8.0);
    int braces = 0, brackets = 0;
    for (char c : json) {
        braces += (c == '{') - (c == '}');
        brackets += (c == '[') - (c == ']');
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(VizExport, SampleCountRespected)
{
    std::ostringstream oss;
    writeVisualizationJson(oss, SocCatalog::paperTwoIp(),
                           Usecase::twoIp("u", 0.5, 1.0, 1.0), 0.1,
                           10.0, 16);
    std::string json = oss.str();
    // The shared x array has exactly 16 entries: count commas inside
    // the first array after "x":.
    size_t start = json.find("\"x\": [");
    ASSERT_NE(start, std::string::npos);
    size_t end = json.find(']', start);
    int commas = 0;
    for (size_t p = start; p < end; ++p)
        commas += json[p] == ',' ? 1 : 0;
    EXPECT_EQ(commas, 15);
}

// An IP without a name is IP[i] in every view of the picture.
TEST(VizExport, UnnamedIpLabelsMatchThePlots)
{
    SocSpec soc("anon", 40e9, 10e9,
                {IpSpec{"", 1.0, 6e9}, IpSpec{"", 5.0, 15e9}});
    Usecase usecase = Usecase::twoIp("u", 0.75, 8.0, 0.1);
    RooflinePlot plot("anon", 0.01, 100.0);
    plot.addGables(soc, usecase);
    const std::string svg = plot.renderSvg();
    const std::string ascii = plot.renderAscii();
    std::ostringstream viz;
    writeVisualizationJson(viz, soc, usecase);
    for (const std::string label : {"IP[0] (f=0.25)", "IP[1] (f=0.75)"}) {
        EXPECT_NE(svg.find(label), std::string::npos) << label;
        EXPECT_NE(ascii.find(label), std::string::npos) << label;
        EXPECT_NE(viz.str().find("\"label\": \"" + label + "\""),
                  std::string::npos)
            << label;
    }
}

} // namespace
} // namespace gables

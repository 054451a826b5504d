/**
 * @file
 * Tests for the plotting stack: SVG/ASCII backends, axes, and the
 * roofline/series chart builders.
 */

#include <gtest/gtest.h>


#include "analysis/sweep.h"
#include "plot/ascii.h"
#include "plot/axes.h"
#include "plot/roofline_plot.h"
#include "plot/series_plot.h"
#include "plot/svg.h"
#include "soc/catalog.h"
#include "util/logging.h"

namespace gables {
namespace {

TEST(Svg, DocumentStructure)
{
    SvgCanvas svg(200, 100);
    svg.line(0, 0, 10, 10);
    svg.circle(5, 5, 2);
    svg.text(1, 1, "hello");
    std::string doc = svg.render();
    EXPECT_NE(doc.find("<svg"), std::string::npos);
    EXPECT_NE(doc.find("</svg>"), std::string::npos);
    EXPECT_NE(doc.find("<line"), std::string::npos);
    EXPECT_NE(doc.find("<circle"), std::string::npos);
    EXPECT_NE(doc.find(">hello</text>"), std::string::npos);
    EXPECT_NE(doc.find("width=\"200\""), std::string::npos);
}

TEST(Svg, EscapesTextContent)
{
    SvgCanvas svg(100, 100);
    svg.text(0, 0, "a < b & c > \"d\"");
    std::string doc = svg.render();
    EXPECT_NE(doc.find("a &lt; b &amp; c &gt; &quot;d&quot;"),
              std::string::npos);
}

TEST(Svg, PolylineAndDashes)
{
    SvgCanvas svg(100, 100);
    svg.polyline({{0, 0}, {10, 10}, {20, 5}}, "#ff0000", 2.0, true);
    std::string doc = svg.render();
    EXPECT_NE(doc.find("<polyline"), std::string::npos);
    EXPECT_NE(doc.find("stroke-dasharray"), std::string::npos);
    EXPECT_NE(doc.find("0,0 10,10 20,5"), std::string::npos);
}

TEST(Svg, RejectsBadDimensions)
{
    EXPECT_THROW(SvgCanvas(0, 10), FatalError);
}

TEST(Ascii, PutAndRender)
{
    AsciiCanvas c(4, 2);
    c.put(0, 0, 'a');
    c.put(3, 1, 'z');
    EXPECT_EQ(c.render(), "a   \n   z\n");
}

TEST(Ascii, OutOfRangeIgnored)
{
    AsciiCanvas c(2, 2);
    c.put(-1, 0, 'x');
    c.put(0, 5, 'x');
    c.put(5, 0, 'x');
    EXPECT_EQ(c.render(), "  \n  \n");
}

TEST(Ascii, WriteClips)
{
    AsciiCanvas c(5, 1);
    c.write(3, 0, "abc");
    EXPECT_EQ(c.render(), "   ab\n");
}

TEST(Ascii, LineDrawsDiagonal)
{
    AsciiCanvas c(4, 4);
    c.line(0, 0, 3, 3, '*');
    std::string out = c.render();
    EXPECT_EQ(out[0], '*');            // (0,0)
    EXPECT_EQ(out[5 * 1 + 1], '*');    // (1,1), rows are 5 chars
    EXPECT_EQ(out[5 * 3 + 3], '*');    // (3,3)
}

TEST(Axis, LinearMapping)
{
    Axis a(Scale::Linear, 0.0, 10.0, 100.0, 200.0);
    EXPECT_DOUBLE_EQ(a.toPixel(0.0), 100.0);
    EXPECT_DOUBLE_EQ(a.toPixel(5.0), 150.0);
    EXPECT_DOUBLE_EQ(a.toPixel(10.0), 200.0);
    // Clamped outside the range.
    EXPECT_DOUBLE_EQ(a.toPixel(-5.0), 100.0);
    EXPECT_DOUBLE_EQ(a.toPixel(50.0), 200.0);
}

TEST(Axis, LogMapping)
{
    Axis a(Scale::Log, 1.0, 100.0, 0.0, 200.0);
    EXPECT_DOUBLE_EQ(a.toPixel(1.0), 0.0);
    EXPECT_NEAR(a.toPixel(10.0), 100.0, 1e-9);
    EXPECT_DOUBLE_EQ(a.toPixel(100.0), 200.0);
}

TEST(Axis, FlippedPixelsForY)
{
    Axis a(Scale::Linear, 0.0, 1.0, 200.0, 0.0);
    EXPECT_DOUBLE_EQ(a.toPixel(0.0), 200.0);
    EXPECT_DOUBLE_EQ(a.toPixel(1.0), 0.0);
}

TEST(Axis, LogTicksArePowersOfTen)
{
    Axis a(Scale::Log, 0.01, 100.0, 0.0, 1.0);
    auto ticks = a.ticks();
    ASSERT_EQ(ticks.size(), 5u);
    EXPECT_DOUBLE_EQ(ticks[0], 0.01);
    EXPECT_DOUBLE_EQ(ticks[4], 100.0);
}

TEST(Axis, LinearTicksNiceSteps)
{
    Axis a(Scale::Linear, 0.0, 1.0, 0.0, 1.0);
    auto ticks = a.ticks();
    EXPECT_GE(ticks.size(), 4u);
    EXPECT_LE(ticks.size(), 12u);
}

TEST(Axis, InvalidConstruction)
{
    EXPECT_THROW(Axis(Scale::Log, 0.0, 10.0, 0.0, 1.0), FatalError);
    EXPECT_THROW(Axis(Scale::Linear, 5.0, 5.0, 0.0, 1.0), FatalError);
    EXPECT_THROW(Axis(Scale::Linear, 0.0, 1.0, 3.0, 3.0), FatalError);
}

TEST(Axis, FormatTick)
{
    EXPECT_EQ(Axis::formatTick(0.0), "0");
    EXPECT_EQ(Axis::formatTick(1.0), "1");
    EXPECT_EQ(Axis::formatTick(0.01), "0.01");
    EXPECT_EQ(Axis::formatTick(100.0), "100");
}

TEST(GablesCurves, ScaledRooflineMatchesDefinition)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    GablesCurves family =
        gablesCurves(soc, Usecase::twoIp("u", 0.75, 8.0, 0.1));
    ASSERT_EQ(family.curves.size(), 3u);
    // IP[1]: min(15 * x, 200) / 0.75.
    const RooflineCurve &gpu = family.curves[1];
    EXPECT_EQ(gpu.ip, 1);
    EXPECT_EQ(gpu.label, "GPU (f=0.75)");
    EXPECT_DOUBLE_EQ(gpu.at(1.0), 15e9 / 0.75);
    EXPECT_DOUBLE_EQ(gpu.at(1000.0), 200e9 / 0.75);
    // An IP with no work has no curve and no drop point.
    GablesCurves idle1 =
        gablesCurves(soc, Usecase::twoIp("i", 0.0, 8.0, 0.1));
    ASSERT_EQ(idle1.curves.size(), 2u);
    EXPECT_EQ(idle1.curves[0].ip, 0);
    EXPECT_EQ(idle1.curves[1].ip, -1);
    ASSERT_EQ(idle1.drops.size(), 2u);
    EXPECT_EQ(idle1.drops[0].label, "I0");
    EXPECT_EQ(idle1.drops[1].label, "Iavg");
}

TEST(GablesCurves, MemoryRooflineIsSlantedOnly)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    GablesCurves family =
        gablesCurves(soc, Usecase::twoIp("u", 0.75, 8.0, 0.1));
    const RooflineCurve &memory = family.curves.back();
    EXPECT_EQ(memory.label, "memory");
    EXPECT_DOUBLE_EQ(memory.at(2.0), 20e9);
    EXPECT_DOUBLE_EQ(memory.at(200.0), 2000e9);
}

TEST(RooflinePlot, ClassicRooflineSvg)
{
    RooflinePlot plot("Figure 7a", 0.01, 100.0);
    plot.addRoofline(Roofline(7.5e9, 15.1e9, "CPU"));
    std::string svg = plot.renderSvg();
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("Figure 7a"), std::string::npos);
    EXPECT_NE(svg.find("CPU"), std::string::npos);
    EXPECT_NE(svg.find("operational intensity"), std::string::npos);
}

TEST(RooflinePlot, GablesViewIncludesActiveIpsOnly)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    RooflinePlot plot("6a", 0.01, 100.0);
    plot.addGables(soc, Usecase::twoIp("6a", 0.0, 8.0, 0.1));
    std::string svg = plot.renderSvg();
    EXPECT_NE(svg.find("CPU"), std::string::npos);
    EXPECT_NE(svg.find("memory"), std::string::npos);
    // The idle GPU is omitted, as in the paper's Figure 6a.
    EXPECT_EQ(svg.find("GPU"), std::string::npos);
}

TEST(RooflinePlot, AsciiRenderingHasLegendAndDropLines)
{
    SocSpec soc = SocCatalog::paperTwoIpBalanced();
    RooflinePlot plot("6d", 0.01, 100.0);
    plot.addGables(soc, Usecase::twoIp("6d", 0.75, 8.0, 8.0));
    std::string out = plot.renderAscii();
    EXPECT_NE(out.find("6d"), std::string::npos);
    EXPECT_NE(out.find("memory"), std::string::npos);
    EXPECT_NE(out.find('V'), std::string::npos); // drop marker
}

TEST(RooflinePlot, EmptyPlotRejected)
{
    RooflinePlot plot("empty");
    EXPECT_THROW(plot.renderSvg(), FatalError);
    EXPECT_THROW(plot.renderAscii(), FatalError);
}

TEST(SeriesPlot, SvgWithLegend)
{
    SeriesPlot plot("mixing", "f", "normalized perf");
    Series s;
    s.label = "I = 64";
    s.x = {0.0, 0.5, 1.0};
    s.y = {1.0, 2.0, 4.0};
    plot.addSeries(s);
    std::string svg = plot.renderSvg();
    EXPECT_NE(svg.find("mixing"), std::string::npos);
    EXPECT_NE(svg.find("I = 64"), std::string::npos);
}

TEST(SeriesPlot, LogScaleSkipsNonPositive)
{
    SeriesPlot plot("log", "x", "y");
    plot.setScales(Scale::Linear, Scale::Log);
    Series s;
    s.label = "s";
    s.x = {0.0, 1.0, 2.0};
    s.y = {0.0, 1.0, 10.0}; // the zero must be skipped, not crash
    plot.addSeries(s);
    EXPECT_NO_THROW(plot.renderSvg());
    EXPECT_NO_THROW(plot.renderAscii());
}

TEST(SeriesPlot, MismatchedSeriesRejected)
{
    SeriesPlot plot("bad", "x", "y");
    Series s;
    s.label = "s";
    s.x = {1.0, 2.0};
    s.y = {1.0};
    EXPECT_THROW(plot.addSeries(s), FatalError);
    Series empty;
    empty.label = "e";
    EXPECT_THROW(plot.addSeries(empty), FatalError);
    EXPECT_THROW(plot.renderSvg(), FatalError);
}

TEST(SeriesPlot, SinglePointSeriesRenders)
{
    SeriesPlot plot("point", "x", "y");
    Series s;
    s.label = "p";
    s.x = {1.0};
    s.y = {2.0};
    plot.addSeries(s);
    EXPECT_NO_THROW(plot.renderSvg());
    EXPECT_NO_THROW(plot.renderAscii());
}

} // namespace
} // namespace gables

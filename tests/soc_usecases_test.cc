/**
 * @file
 * Tests of the usecase catalog against the paper's Table I and the
 * Section II-B narrative (HFR memory pressure, concurrent IPs).
 */

#include <gtest/gtest.h>

#include "core/gables.h"
#include "soc/catalog.h"
#include "soc/usecases.h"
#include "util/logging.h"

namespace gables {
namespace {

TEST(Usecases, CatalogHasSixEntries)
{
    auto all = UsecaseCatalog::all();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0].graph.name(), "HDR+");
    EXPECT_EQ(all[5].graph.name(), "WiFi streaming");
}

TEST(Usecases, EveryEntryCarriesItsCliKey)
{
    std::vector<std::string> keys;
    for (const UsecaseEntry &entry : UsecaseCatalog::extended())
        keys.push_back(entry.key);
    EXPECT_EQ(keys, (std::vector<std::string>{"hdr", "capture", "hfr",
                                              "playback", "lens", "wifi",
                                              "gaming", "call", "ar"}));
    EXPECT_EQ(
        UsecaseCatalog::byKey(UsecaseCatalog::all(), "hfr").graph.name(),
        "Videocapture (HFR)");
    EXPECT_EQ(UsecaseCatalog::byKey(UsecaseCatalog::extended(), "ar")
                  .graph.name(),
              "AR navigation");
}

TEST(Usecases, ByKeySearchesOnlyTheGivenEntries)
{
    // "gaming" is in extended() but not in all().
    EXPECT_THROW(UsecaseCatalog::byKey(UsecaseCatalog::all(), "gaming"),
                 FatalError);
    try {
        UsecaseCatalog::byKey(UsecaseCatalog::extended(), "gamin");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(),
                     "unknown usecase 'gamin' (did you mean 'gaming'?)");
    }
}

TEST(Usecases, TableOneColumnOrder)
{
    const auto &cols = UsecaseCatalog::ipColumns();
    ASSERT_EQ(cols.size(), 10u);
    EXPECT_EQ(cols[kIpAp], "AP");
    EXPECT_EQ(cols[kIpG2ds], "G2DS");
    EXPECT_EQ(cols[kIpVenc], "VENC");
    EXPECT_EQ(cols[kIpDsp], "DSP");
}

TEST(Usecases, TableOneRowActiveCounts)
{
    // Paper Table I: HDR+ exercises 6 IPs, the other four camera
    // usecases 5 each.
    auto matrix = UsecaseCatalog::tableOneMatrix();
    ASSERT_EQ(matrix.size(), 5u);
    std::vector<int> expected = {6, 5, 5, 5, 5};
    for (size_t row = 0; row < matrix.size(); ++row) {
        int active = 0;
        for (bool cell : matrix[row].second)
            active += cell ? 1 : 0;
        EXPECT_EQ(active, expected[row]) << matrix[row].first;
    }
}

TEST(Usecases, EveryCameraUsecaseUsesApConcurrently)
{
    // Section II-B: the AP coordinates every usecase, and multiple
    // IPs are exercised concurrently ("at least half of all IPs" in
    // the camera cases means >= 5 of 10).
    auto matrix = UsecaseCatalog::tableOneMatrix();
    for (const auto &[name, row] : matrix) {
        EXPECT_TRUE(row[kIpAp]) << name;
        int active = 0;
        for (bool cell : row)
            active += cell ? 1 : 0;
        EXPECT_GE(active, 5) << name;
    }
}

TEST(Usecases, DifferentUsecasesUseDifferentIpSets)
{
    auto matrix = UsecaseCatalog::tableOneMatrix();
    for (size_t a = 0; a < matrix.size(); ++a) {
        for (size_t b = a + 1; b < matrix.size(); ++b)
            EXPECT_NE(matrix[a].second, matrix[b].second)
                << matrix[a].first << " vs " << matrix[b].first;
    }
}

TEST(Usecases, SpecificMemberships)
{
    auto matrix = UsecaseCatalog::tableOneMatrix();
    // HDR+ uses the IPU (Pixel Visual Core) and JPEG but no VENC.
    const auto &hdr = matrix[0].second;
    EXPECT_TRUE(hdr[kIpIpu]);
    EXPECT_TRUE(hdr[kIpJpeg]);
    EXPECT_FALSE(hdr[kIpVenc]);
    // Video capture uses VENC but no VDEC.
    const auto &cap = matrix[1].second;
    EXPECT_TRUE(cap[kIpVenc]);
    EXPECT_FALSE(cap[kIpVdec]);
    // Playback uses VDEC and the GPU.
    const auto &play = matrix[3].second;
    EXPECT_TRUE(play[kIpVdec]);
    EXPECT_TRUE(play[kIpGpu]);
    EXPECT_FALSE(play[kIpVenc]);
}

TEST(Usecases, HfrIsMemoryBoundAndMissesTarget)
{
    // The paper's Section II-B example: 4K240 capture overwhelms the
    // ~30 GB/s of DRAM bandwidth.
    SocSpec soc = SocCatalog::snapdragon835Full();
    UsecaseEntry hfr = UsecaseCatalog::videocaptureHfr();
    DataflowAnalysis a = hfr.graph.analyze(soc);
    EXPECT_EQ(a.bottleneck, BottleneckKind::Memory);
    EXPECT_LT(a.maxFps, hfr.targetFps); // 240 fps is not sustainable
    // Demand at 240 fps exceeds Bpeak.
    EXPECT_GT(a.dramBytesPerFrame * hfr.targetFps, soc.bpeak());
}

TEST(Usecases, RegularCaptureMeetsItsTarget)
{
    SocSpec soc = SocCatalog::snapdragon835Full();
    UsecaseEntry cap = UsecaseCatalog::videocapture();
    DataflowAnalysis a = cap.graph.analyze(soc);
    EXPECT_GE(a.maxFps, cap.targetFps);
}

TEST(Usecases, WifiStreamingMatchesFigure4Flow)
{
    DataflowGraph g = UsecaseCatalog::wifiStreaming().graph;
    // The AP feeds both the video decoder and the audio DSP.
    bool ap_to_vdec = false, ap_to_dsp = false, vdec_to_display = false;
    for (const DataflowBuffer &b : g.buffers()) {
        ap_to_vdec |= b.producer == "AP" && b.consumer == "VDEC";
        ap_to_dsp |= b.producer == "AP" && b.consumer == "DSP";
        vdec_to_display |=
            b.producer == "VDEC" && b.consumer == "Display";
    }
    EXPECT_TRUE(ap_to_vdec);
    EXPECT_TRUE(ap_to_dsp);
    EXPECT_TRUE(vdec_to_display);
}

TEST(Usecases, AllLowerToValidGablesUsecases)
{
    SocSpec soc = SocCatalog::snapdragon835Full();
    for (const UsecaseEntry &entry : UsecaseCatalog::all()) {
        Usecase u = entry.graph.toUsecase(soc);
        EXPECT_NO_THROW(u.validate());
        GablesResult r = GablesModel::evaluate(soc, u);
        EXPECT_GT(r.attainable, 0.0) << entry.graph.name();
    }
}

TEST(Usecases, FrameGeometryConstants)
{
    // The paper: a 4K YUV420 frame is ~12 MB (6 bytes per 4 pixels).
    EXPECT_NEAR(UsecaseCatalog::k4kYuvBytes, 12.4e6, 0.1e6);
    EXPECT_NEAR(UsecaseCatalog::k1080pYuvBytes, 3.1e6, 0.05e6);
}

} // namespace
} // namespace gables

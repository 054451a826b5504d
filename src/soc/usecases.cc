#include "soc/usecases.h"

#include "soc/catalog.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/units.h"

namespace gables {

UsecaseEntry
UsecaseCatalog::hdrPlus()
{
    DataflowGraph g("HDR+");
    const double burst = 8.0; // frames merged per shot

    // Sensor streams the burst into DRAM; the ISP consumes it.
    g.addBuffer("", "ISP", burst * kRaw12MpBytes, "RAW burst");
    g.addStage("ISP", burst * 12.0e6 * 30.0); // demosaic/denoise
    g.addBuffer("ISP", "IPU", burst * 12.0e6 * 1.5, "YUV burst");

    // The IPU aligns and merges the burst (the Pixel-Visual-Core
    // job: ~5x faster than the AP at one-tenth the power).
    g.addStage("IPU", 12.0e6 * 250.0);
    g.addBuffer("IPU", "GPU", 12.0e6 * 1.5, "merged YUV");

    // GPU tone-maps and renders the final image.
    g.addStage("GPU", 12.0e6 * 50.0);
    g.addBuffer("GPU", "JPEG", 12.0e6 * 1.5, "tonemapped YUV");

    g.addStage("JPEG", 12.0e6 * 20.0);
    g.addBuffer("JPEG", "AP", 4.0 * kMiB, "JPEG bitstream");

    // AP orchestrates; the Display shows the viewfinder preview.
    g.addStage("AP", 0.1e9);
    g.addBuffer("ISP", "Display", k1080pYuvBytes, "preview");
    g.addStage("Display", 2.0e6);

    return UsecaseEntry{"hdr", std::move(g), 1.0}; // one shot per second
}

UsecaseEntry
UsecaseCatalog::videocapture()
{
    DataflowGraph g("Videocapture");

    g.addBuffer("", "ISP", kRaw12MpBytes, "RAW frame");
    // WNR + TNR with one reference frame at 30 fps.
    g.addStage("ISP", k4kPixels * 40.0);
    g.addBuffer("ISP", "ISP", k4kYuvBytes, "TNR reference");
    g.addBuffer("ISP", "VENC", k4kYuvBytes, "YUV frame");

    g.addStage("VENC", k4kPixels * 60.0);
    g.addBuffer("VENC", "VENC", 2.0 * k4kYuvBytes, "encode refs");
    g.addBuffer("VENC", "AP", 1.0 * kMiB, "bitstream");

    g.addBuffer("ISP", "Display", k1080pYuvBytes, "preview");
    g.addStage("Display", 2.0e6);

    g.addStage("DSP", 0.02e9); // audio + 3A statistics
    g.addBuffer("", "DSP", 0.1 * kMiB, "mic PCM");

    g.addStage("AP", 0.05e9);
    return UsecaseEntry{"capture", std::move(g), 30.0};
}

UsecaseEntry
UsecaseCatalog::videocaptureHfr()
{
    DataflowGraph g("Videocapture (HFR)");

    g.addBuffer("", "ISP", kRaw12MpBytes, "RAW frame");
    // The paper's stress case: WNR + TNR tracking as many as five
    // reference frames at 240 fps.
    g.addStage("ISP", k4kPixels * 40.0);
    g.addBuffer("ISP", "ISP", 5.0 * k4kYuvBytes, "TNR references");
    g.addBuffer("ISP", "G2DS", k4kYuvBytes, "YUV frame");

    // G2D scaler downsizes for preview while the full stream encodes.
    g.addStage("G2DS", k4kPixels * 5.0);
    g.addBuffer("G2DS", "VENC", k4kYuvBytes, "scaled YUV");

    g.addStage("VENC", k4kPixels * 60.0);
    g.addBuffer("VENC", "VENC", 2.0 * k4kYuvBytes, "encode refs");
    g.addBuffer("VENC", "AP", 1.0 * kMiB, "bitstream");

    // Audio work does not scale with the video frame rate; per
    // 240 fps frame slice it is tiny.
    g.addStage("DSP", 0.01e9);
    g.addBuffer("", "DSP", 0.1 * kMiB, "mic PCM");

    g.addStage("AP", 0.05e9);
    return UsecaseEntry{"hfr", std::move(g), 240.0};
}

UsecaseEntry
UsecaseCatalog::videoplaybackUi()
{
    DataflowGraph g("Videoplayback UI");

    g.addBuffer("", "AP", 0.5 * kMiB, "network bitstream");
    g.addStage("AP", 0.02e9); // demux
    g.addBuffer("AP", "VDEC", 0.5 * kMiB, "video ES");

    g.addStage("VDEC", k4kPixels * 50.0);
    g.addBuffer("VDEC", "VDEC", 2.0 * k4kYuvBytes, "decode refs");
    g.addBuffer("VDEC", "GPU", k4kYuvBytes, "decoded frame");

    // GPU composes video with UI layers into an RGBA surface.
    g.addStage("GPU", k4kPixels * 20.0);
    g.addBuffer("GPU", "Display", k1080pPixels * 4.0, "composed UI");
    g.addStage("Display", 2.0e6);

    g.addStage("DSP", 0.02e9); // audio decode
    g.addBuffer("AP", "DSP", 0.05 * kMiB, "audio ES");

    return UsecaseEntry{"playback", std::move(g), 30.0};
}

UsecaseEntry
UsecaseCatalog::googleLens()
{
    DataflowGraph g("Google Lens");

    g.addBuffer("", "ISP", kRaw12MpBytes, "RAW frame");
    g.addStage("ISP", k4kPixels * 40.0);
    g.addBuffer("ISP", "IPU", k1080pYuvBytes, "downscaled YUV");

    // On-device vision inference on the IPU; weights stream from
    // DRAM each frame (no resident weight cache assumed).
    g.addStage("IPU", 2.0e9);
    g.addBuffer("", "IPU", 10.0 * kMiB, "NN weights");
    g.addBuffer("IPU", "AP", 0.1 * kMiB, "detections");

    g.addStage("DSP", 0.3e9); // feature tracking
    g.addBuffer("ISP", "DSP", k1080pYuvBytes, "luma for tracking");

    g.addBuffer("ISP", "Display", k1080pYuvBytes, "preview");
    g.addStage("Display", 2.0e6);

    g.addStage("AP", 0.1e9);
    return UsecaseEntry{"lens", std::move(g), 30.0};
}

UsecaseEntry
UsecaseCatalog::wifiStreaming()
{
    DataflowGraph g("WiFi streaming");

    // IP packets land in insecure memory; the AP separates the
    // streams and decrypts into secure buffers (Figure 4).
    g.addBuffer("", "AP", 0.5 * kMiB, "WiFi packets");
    g.addStage("AP", 0.1e9); // depacketize + decrypt
    g.addBuffer("AP", "VDEC", 0.5 * kMiB, "secure video ES");
    g.addBuffer("AP", "DSP", 0.05 * kMiB, "secure audio ES");

    g.addStage("VDEC", k4kPixels * 50.0);
    g.addBuffer("VDEC", "VDEC", 2.0 * k4kYuvBytes, "decode refs");
    g.addBuffer("VDEC", "Display", k4kYuvBytes, "frame buffer");
    g.addStage("Display", 2.0e6);

    // The audio DSP DMAs the stream into its SRAM and decodes.
    g.addStage("DSP", 0.02e9);

    return UsecaseEntry{"wifi", std::move(g), 30.0};
}

UsecaseEntry
UsecaseCatalog::gaming()
{
    DataflowGraph g("3D gaming");

    // Game logic and scene preparation on the AP.
    g.addStage("AP", 0.1e9);
    g.addBuffer("AP", "GPU", 8.0 * kMiB, "draw commands + uniforms");

    // The GPU renders at 1080p60 with heavy texture traffic.
    g.addStage("GPU", k1080pPixels * 400.0);
    g.addBuffer("", "GPU", 48.0 * kMiB, "texture/geometry stream");
    g.addBuffer("GPU", "GPU", k1080pPixels * 4.0, "depth/G-buffer");
    g.addBuffer("GPU", "Display", k1080pPixels * 4.0, "frame");
    g.addStage("Display", 2.0e6);

    // Audio mixing and sensor fusion on the DSP.
    g.addStage("DSP", 0.05e9);
    g.addBuffer("AP", "DSP", 0.25 * kMiB, "audio commands");

    return UsecaseEntry{"gaming", std::move(g), 60.0};
}

UsecaseEntry
UsecaseCatalog::videoCall()
{
    DataflowGraph g("Video call");

    // Send path: camera -> ISP -> encoder -> network (via AP).
    g.addBuffer("", "ISP", k1080pPixels * 1.25, "RAW frame");
    g.addStage("ISP", k1080pPixels * 40.0);
    g.addBuffer("ISP", "VENC", k1080pYuvBytes, "YUV to encode");
    g.addStage("VENC", k1080pPixels * 60.0);
    g.addBuffer("VENC", "VENC", 2.0 * k1080pYuvBytes, "encode refs");
    g.addBuffer("VENC", "AP", 0.25 * kMiB, "outgoing bitstream");

    // Receive path: network -> decoder -> composition.
    g.addBuffer("", "AP", 0.25 * kMiB, "incoming bitstream");
    g.addStage("AP", 0.15e9); // RTP, jitter buffer, control
    g.addBuffer("AP", "VDEC", 0.25 * kMiB, "video ES");
    g.addStage("VDEC", k1080pPixels * 50.0);
    g.addBuffer("VDEC", "VDEC", 2.0 * k1080pYuvBytes, "decode refs");
    g.addBuffer("VDEC", "GPU", k1080pYuvBytes, "remote frame");

    // The GPU composes remote video plus local self-view.
    g.addStage("GPU", k1080pPixels * 25.0);
    g.addBuffer("ISP", "GPU", 0.25 * k1080pYuvBytes, "self view");
    g.addBuffer("GPU", "Display", k1080pPixels * 4.0, "composed UI");
    g.addStage("Display", 2.0e6);

    // Full-duplex voice with echo cancellation on the DSP.
    g.addStage("DSP", 0.1e9);
    g.addBuffer("", "DSP", 0.1 * kMiB, "mic PCM");

    return UsecaseEntry{"call", std::move(g), 30.0};
}

UsecaseEntry
UsecaseCatalog::arNavigation()
{
    DataflowGraph g("AR navigation");

    g.addBuffer("", "ISP", k1080pPixels * 1.25, "RAW frame");
    g.addStage("ISP", k1080pPixels * 40.0);
    g.addBuffer("ISP", "IPU", k1080pYuvBytes, "camera frame");
    g.addBuffer("ISP", "DSP", 0.25 * k1080pYuvBytes, "luma pyramid");

    // Scene understanding on the IPU; weights resident per frame.
    g.addStage("IPU", 1.5e9);
    g.addBuffer("", "IPU", 8.0 * kMiB, "NN weights");
    g.addBuffer("IPU", "AP", 0.05 * kMiB, "detections");

    // 6-DoF pose tracking on the DSP.
    g.addStage("DSP", 0.08e9);
    g.addBuffer("DSP", "AP", 0.01 * kMiB, "pose");

    // The AP fuses pose + map data and drives the overlay.
    g.addStage("AP", 0.2e9);
    g.addBuffer("AP", "GPU", 2.0 * kMiB, "overlay geometry");

    // The GPU renders camera + overlay.
    g.addStage("GPU", k1080pPixels * 60.0);
    g.addBuffer("ISP", "GPU", k1080pYuvBytes, "camera background");
    g.addBuffer("GPU", "Display", k1080pPixels * 4.0, "AR frame");
    g.addStage("Display", 2.0e6);

    return UsecaseEntry{"ar", std::move(g), 30.0};
}

std::vector<UsecaseEntry>
UsecaseCatalog::all()
{
    std::vector<UsecaseEntry> out;
    out.push_back(hdrPlus());
    out.push_back(videocapture());
    out.push_back(videocaptureHfr());
    out.push_back(videoplaybackUi());
    out.push_back(googleLens());
    out.push_back(wifiStreaming());
    return out;
}

std::vector<UsecaseEntry>
UsecaseCatalog::extended()
{
    std::vector<UsecaseEntry> out = all();
    out.push_back(gaming());
    out.push_back(videoCall());
    out.push_back(arNavigation());
    return out;
}

UsecaseEntry
UsecaseCatalog::byKey(const std::vector<UsecaseEntry> &entries,
                      const std::string &key)
{
    std::vector<std::string> keys;
    for (const UsecaseEntry &entry : entries) {
        if (entry.key == key)
            return entry;
        keys.push_back(entry.key);
    }
    fatal("unknown usecase '" + key + "'" + didYouMean(key, keys));
}

const std::vector<std::string> &
UsecaseCatalog::ipColumns()
{
    static const std::vector<std::string> columns = {
        "AP",  "Display", "G2DS", "GPU",  "ISP",
        "JPEG", "IPU",    "VDEC", "VENC", "DSP",
    };
    return columns;
}

std::vector<std::pair<std::string, std::vector<bool>>>
UsecaseCatalog::tableOneMatrix()
{
    std::vector<std::pair<std::string, std::vector<bool>>> matrix;
    std::vector<UsecaseEntry> camera;
    camera.push_back(hdrPlus());
    camera.push_back(videocapture());
    camera.push_back(videocaptureHfr());
    camera.push_back(videoplaybackUi());
    camera.push_back(googleLens());

    for (const UsecaseEntry &entry : camera) {
        std::vector<bool> active;
        active.reserve(ipColumns().size());
        for (const std::string &ip : ipColumns())
            active.push_back(entry.graph.usesIp(ip));
        matrix.emplace_back(entry.graph.name(), std::move(active));
    }
    return matrix;
}

} // namespace gables

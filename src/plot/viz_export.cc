#include "plot/viz_export.h"

#include <algorithm>

#include "plot/roofline_plot.h"
#include "util/json_writer.h"
#include "util/math_util.h"

namespace gables {

void
writeVisualizationJson(std::ostream &out, const SocSpec &soc,
                       const Usecase &usecase, double x_lo, double x_hi,
                       size_t samples)
{
    const GablesCurves family = gablesCurves(soc, usecase);
    const GablesResult result = GablesModel::evaluate(soc, usecase);
    const std::vector<double> xs = logspace(x_lo, x_hi, samples);

    JsonWriter json(out);
    json.beginObject();
    json.kv("soc", soc.name());
    json.kv("usecase", usecase.name());
    json.numberArray("x", xs);

    json.key("curves");
    json.beginArray();
    std::vector<double> ys(xs.size());
    for (const RooflineCurve &curve : family.curves) {
        json.beginObject();
        json.kv("label", curve.label);
        json.kv("kind", curve.ip >= 0 ? "ip" : "memory");
        if (curve.ip >= 0)
            json.kv("ip", curve.ip);
        std::transform(xs.begin(), xs.end(), ys.begin(),
                       [&](double x) { return curve.at(x); });
        json.numberArray("y", ys);
        json.endObject();
    }
    json.endArray();

    json.key("drops");
    json.beginArray();
    for (const DropPoint &drop : family.drops) {
        json.beginObject();
        json.kv("label", drop.label);
        json.kv("x", drop.x);
        json.kv("y", drop.y);
        json.endObject();
    }
    json.endArray();

    json.kv("attainable", result.attainable);
    json.kv("bottleneck", result.bottleneckLabel(soc));
    json.endObject();
}

} // namespace gables

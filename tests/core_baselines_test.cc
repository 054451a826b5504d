/**
 * @file
 * Unit tests for the MultiAmdahl optimizer the paper positions Gables
 * against.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/multiamdahl.h"
#include "soc/catalog.h"
#include "util/logging.h"

namespace gables {
namespace {

TEST(MultiAmdahl, SymmetricTasksGetEqualAreas)
{
    MultiAmdahlModel model({{"a", 0.5, 1.0, 0.5},
                            {"b", 0.5, 1.0, 0.5}},
                           10.0);
    MultiAmdahlResult r = model.optimize();
    EXPECT_NEAR(r.areas[0], 5.0, 1e-6);
    EXPECT_NEAR(r.areas[1], 5.0, 1e-6);
    EXPECT_NEAR(r.areas[0] + r.areas[1], 10.0, 1e-9);
}

TEST(MultiAmdahl, HeavierTaskGetsMoreArea)
{
    MultiAmdahlModel model({{"light", 0.2, 1.0, 0.5},
                            {"heavy", 0.8, 1.0, 0.5}},
                           10.0);
    MultiAmdahlResult r = model.optimize();
    EXPECT_GT(r.areas[1], r.areas[0]);
    EXPECT_NEAR(r.areas[0] + r.areas[1], 10.0, 1e-9);
}

TEST(MultiAmdahl, KnownClosedForm)
{
    // With perf = a^0.5 and two tasks, a_i is proportional to
    // t_i^(2/3); check against the analytic allocation.
    double t0 = 0.2, t1 = 0.8, budget = 10.0;
    MultiAmdahlModel model({{"a", t0, 1.0, 0.5}, {"b", t1, 1.0, 0.5}},
                           budget);
    MultiAmdahlResult r = model.optimize();
    double w0 = std::pow(t0, 2.0 / 3.0);
    double w1 = std::pow(t1, 2.0 / 3.0);
    EXPECT_NEAR(r.areas[0], budget * w0 / (w0 + w1), 1e-6);
    EXPECT_NEAR(r.areas[1], budget * w1 / (w0 + w1), 1e-6);
}

TEST(MultiAmdahl, OptimumBeatsPerturbations)
{
    MultiAmdahlModel model({{"a", 0.3, 2.0, 0.5},
                            {"b", 0.5, 1.0, 0.4},
                            {"c", 0.2, 0.5, 0.6}},
                           20.0);
    MultiAmdahlResult r = model.optimize();
    double best = model.timeFor(r.areas);
    // Shift 5% of area between every pair: never better.
    for (size_t i = 0; i < 3; ++i) {
        for (size_t j = 0; j < 3; ++j) {
            if (i == j)
                continue;
            auto areas = r.areas;
            double delta = 0.05 * areas[i];
            areas[i] -= delta;
            areas[j] += delta;
            EXPECT_GE(model.timeFor(areas), best * (1.0 - 1e-9));
        }
    }
}

TEST(MultiAmdahl, ZeroWorkTasksGetNoArea)
{
    MultiAmdahlModel model({{"a", 1.0, 1.0, 0.5},
                            {"idle", 0.0, 1.0, 0.5}},
                           8.0);
    MultiAmdahlResult r = model.optimize();
    EXPECT_DOUBLE_EQ(r.areas[1], 0.0);
    EXPECT_NEAR(r.areas[0], 8.0, 1e-9);
    // time = 1 / sqrt(8).
    EXPECT_NEAR(r.time, 1.0 / std::sqrt(8.0), 1e-9);
}

TEST(MultiAmdahl, InvalidInputs)
{
    EXPECT_THROW(MultiAmdahlModel({}, 1.0), FatalError);
    EXPECT_THROW(MultiAmdahlModel({{"a", 1.0, 1.0, 0.5}}, 0.0),
                 FatalError);
    EXPECT_THROW(MultiAmdahlModel({{"a", 0.7, 1.0, 0.5}}, 1.0),
                 FatalError); // shares must sum to 1
    EXPECT_THROW(MultiAmdahlModel({{"a", 1.0, 0.0, 0.5}}, 1.0),
                 FatalError);
    EXPECT_THROW(MultiAmdahlModel({{"a", 1.0, 1.0, 1.5}}, 1.0),
                 FatalError);
}

TEST(MultiAmdahl, FromGablesBridge)
{
    SocSpec soc = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    MultiAmdahlModel model = multiAmdahlFromGables(soc, u, 10.0);
    ASSERT_EQ(model.tasks().size(), 2u);
    EXPECT_DOUBLE_EQ(model.tasks()[0].timeShare, 0.25);
    EXPECT_DOUBLE_EQ(model.tasks()[1].timeShare, 0.75);
    EXPECT_DOUBLE_EQ(model.tasks()[1].efficiency, 5.0);
    MultiAmdahlResult r = model.optimize();
    EXPECT_NEAR(r.areas[0] + r.areas[1], 10.0, 1e-9);
    EXPECT_GT(r.performance, 0.0);
}

} // namespace
} // namespace gables

/**
 * @file
 * Tests for the design-space explorer: enumeration, scoring by the
 * worst usecase, cost model, and Pareto marking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/explorer.h"
#include "soc/catalog.h"
#include "util/logging.h"
#include "util/rng.h"

namespace gables {
namespace {

CostModel
simpleCost()
{
    CostModel cost;
    cost.costPerAcceleration = 1.0;
    cost.costPerBpeak = 1e-9; // one unit per GB/s
    cost.costPerIpBandwidth = 0.0;
    return cost;
}

TEST(CostModel, LinearInComponents)
{
    SocSpec soc = SocCatalog::paperTwoIp(); // A = 1 + 5, Bpeak = 10G
    CostModel cost = simpleCost();
    EXPECT_NEAR(cost.cost(soc), 6.0 + 10.0, 1e-9);
    EXPECT_NEAR(cost.cost(soc.with(Param::bpeak(), 20e9)), 6.0 + 20.0, 1e-9);
}

TEST(Explorer, NoKnobsYieldsBaseOnly)
{
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    DesignExplorer ex(base, {u}, simpleCost());
    auto candidates = ex.explore();
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_TRUE(candidates[0].pareto);
    EXPECT_DOUBLE_EQ(candidates[0].minPerf,
                     GablesModel::evaluate(base, u).attainable);
}

TEST(Explorer, CrossProductSize)
{
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    DesignExplorer ex(base, {u}, simpleCost());
    ex.sweepBpeak({10e9, 20e9, 30e9});
    ex.sweepAcceleration(1, {2.0, 5.0});
    EXPECT_EQ(ex.explore().size(), 6u);
}

TEST(Explorer, ScoreIsWorstUsecase)
{
    SocSpec base = SocCatalog::paperTwoIpBalanced();
    Usecase good = Usecase::twoIp("good", 0.75, 8.0, 8.0); // 160 G
    Usecase bad = Usecase::twoIp("bad", 0.75, 8.0, 0.1);   // ~2.66 G
    DesignExplorer ex(base, {good, bad}, simpleCost());
    auto candidates = ex.explore();
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_DOUBLE_EQ(candidates[0].perUsecase[0], 160e9);
    EXPECT_DOUBLE_EQ(candidates[0].minPerf,
                     candidates[0].perUsecase[1]);
    EXPECT_LT(candidates[0].minPerf, 3e9);
}

TEST(Explorer, DominatedDesignsNotPareto)
{
    // More Bpeak costs more; where it buys no performance the
    // smaller design dominates.
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    DesignExplorer ex(base, {u}, simpleCost());
    ex.sweepBpeak({20e9, 40e9}); // both reach 160 Gops/s
    auto candidates = ex.explore();
    ASSERT_EQ(candidates.size(), 2u);
    int pareto_count = 0;
    for (const Candidate &c : candidates) {
        if (c.pareto) {
            ++pareto_count;
            EXPECT_DOUBLE_EQ(c.soc.bpeak(), 20e9);
        }
    }
    EXPECT_EQ(pareto_count, 1);
}

TEST(Explorer, TiedCostAndPerformanceAreBothPareto)
{
    // Two designs with identical cost AND identical performance tie:
    // neither strictly beats the other on any axis, so domination
    // (>= on both, > on at least one) holds for neither and both
    // must carry the Pareto flag. A free-bandwidth cost model makes
    // the two Bpeak grid points exact ties -- both saturate the same
    // compute roof at 160 Gops/s and cost only their (equal)
    // acceleration budget.
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    CostModel free_bw;
    free_bw.costPerAcceleration = 1.0;
    free_bw.costPerBpeak = 0.0;
    free_bw.costPerIpBandwidth = 0.0;
    DesignExplorer ex(base, {u}, free_bw);
    ex.sweepBpeak({20e9, 40e9}); // both reach 160 Gops/s
    auto candidates = ex.explore();
    ASSERT_EQ(candidates.size(), 2u);
    EXPECT_DOUBLE_EQ(candidates[0].minPerf, candidates[1].minPerf);
    EXPECT_DOUBLE_EQ(candidates[0].cost, candidates[1].cost);
    EXPECT_TRUE(candidates[0].pareto);
    EXPECT_TRUE(candidates[1].pareto);
    // And the frontier keeps both ties rather than dropping one.
    EXPECT_EQ(DesignExplorer::frontier(candidates).size(), 2u);
}

TEST(Explorer, EqualPerfCheaperDesignDominates)
{
    // Same performance tie, but once bandwidth costs money again the
    // cheaper of the two tied designs is the only Pareto point.
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    DesignExplorer ex(base, {u}, simpleCost());
    ex.sweepBpeak({20e9, 40e9});
    auto candidates = ex.explore();
    ASSERT_EQ(candidates.size(), 2u);
    EXPECT_DOUBLE_EQ(candidates[0].minPerf, candidates[1].minPerf);
    for (const Candidate &c : candidates)
        EXPECT_EQ(c.pareto, c.soc.bpeak() == 20e9);
}

TEST(Explorer, FrontierSortedByCost)
{
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.5);
    DesignExplorer ex(base, {u}, simpleCost());
    ex.sweepBpeak({5e9, 10e9, 20e9, 40e9});
    ex.sweepAcceleration(1, {2.0, 5.0, 20.0});
    auto frontier = DesignExplorer::frontier(ex.explore());
    ASSERT_GE(frontier.size(), 2u);
    for (size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GE(frontier[i].cost, frontier[i - 1].cost);
        // Along the frontier, more cost must buy more performance.
        EXPECT_GT(frontier[i].minPerf, frontier[i - 1].minPerf);
    }
}

TEST(Explorer, ResultsSortedByPerformance)
{
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.5);
    DesignExplorer ex(base, {u}, simpleCost());
    ex.sweepBpeak({5e9, 40e9, 10e9});
    auto candidates = ex.explore();
    for (size_t i = 1; i < candidates.size(); ++i)
        EXPECT_LE(candidates[i].minPerf, candidates[i - 1].minPerf);
}

TEST(Explorer, InvalidInputsRejected)
{
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.5, 1.0, 1.0);
    EXPECT_THROW(DesignExplorer(base, {}, simpleCost()), FatalError);

    Usecase three("three", {IpWork{0.5, 1.0}, IpWork{0.25, 1.0},
                            IpWork{0.25, 1.0}});
    EXPECT_THROW(DesignExplorer(base, {three}, simpleCost()),
                 FatalError);

    DesignExplorer ex(base, {u}, simpleCost());
    EXPECT_THROW(ex.sweepBpeak({}), FatalError);
    EXPECT_THROW(ex.sweepAcceleration(0, {2.0}), FatalError);
    EXPECT_THROW(ex.sweep(Param::ipBandwidth(2), {1e9}), FatalError);
    // The bounds and the cost model cover the priced hardware inputs
    // only; nothing is registered by a rejected sweep.
    for (Param p : {Param::ppeak(), Param::fraction(1),
                    Param::intensity(0)}) {
        try {
            ex.sweep(p, {2.0});
            ADD_FAILURE() << p.name() << " sweep accepted";
        } catch (const FatalError &err) {
            EXPECT_EQ(std::string(err.what()),
                      "cannot sweep " + p.name() +
                          ": the explorer's bounds and cost model "
                          "cover Bpeak, A[i] and B[i] only");
        }
    }
    EXPECT_EQ(ex.gridSize(), 1u);
}

// ---------------------------------------------------------------
// exploreFrontier(): the pruned fast path must reproduce
// frontier(explore()) exactly — member set, every field, and order.
// ---------------------------------------------------------------

uint64_t
bitsOf(double v)
{
    return std::bit_cast<uint64_t>(v);
}

void
expectSameFrontier(const std::vector<Candidate> &fast,
                   const std::vector<Candidate> &reference,
                   const std::string &what)
{
    ASSERT_EQ(fast.size(), reference.size()) << what;
    for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(bitsOf(fast[i].minPerf), bitsOf(reference[i].minPerf))
            << what << " member " << i;
        EXPECT_EQ(bitsOf(fast[i].cost), bitsOf(reference[i].cost))
            << what << " member " << i;
        EXPECT_TRUE(fast[i].pareto) << what << " member " << i;
        EXPECT_EQ(bitsOf(fast[i].soc.bpeak()),
                  bitsOf(reference[i].soc.bpeak()))
            << what << " member " << i;
        ASSERT_EQ(fast[i].soc.numIps(), reference[i].soc.numIps());
        for (size_t j = 0; j < fast[i].soc.numIps(); ++j) {
            EXPECT_EQ(bitsOf(fast[i].soc.ip(j).acceleration),
                      bitsOf(reference[i].soc.ip(j).acceleration))
                << what << " member " << i << " ip " << j;
            EXPECT_EQ(bitsOf(fast[i].soc.ip(j).bandwidth),
                      bitsOf(reference[i].soc.ip(j).bandwidth))
                << what << " member " << i << " ip " << j;
        }
        ASSERT_EQ(fast[i].perUsecase.size(),
                  reference[i].perUsecase.size());
        for (size_t u = 0; u < fast[i].perUsecase.size(); ++u)
            EXPECT_EQ(bitsOf(fast[i].perUsecase[u]),
                      bitsOf(reference[i].perUsecase[u]))
                << what << " member " << i << " usecase " << u;
    }
}

/**
 * Every candidate's scores must match a from-scratch
 * GablesModel::evaluate() of its own SocSpec (the oracle), and its
 * cost CostModel::cost(), bit-for-bit.
 */
void
expectMatchesOracle(const std::vector<Candidate> &candidates,
                    const std::vector<Usecase> &usecases,
                    const CostModel &cost, const std::string &what)
{
    for (size_t i = 0; i < candidates.size(); ++i) {
        const Candidate &c = candidates[i];
        ASSERT_EQ(c.perUsecase.size(), usecases.size()) << what;
        double min_perf = std::numeric_limits<double>::infinity();
        for (size_t u = 0; u < usecases.size(); ++u) {
            double p = GablesModel::evaluate(c.soc, usecases[u]).attainable;
            EXPECT_EQ(bitsOf(c.perUsecase[u]), bitsOf(p))
                << what << " candidate " << i << " usecase " << u;
            min_perf = std::min(min_perf, p);
        }
        EXPECT_EQ(bitsOf(c.minPerf), bitsOf(min_perf))
            << what << " candidate " << i;
        EXPECT_EQ(bitsOf(c.cost), bitsOf(cost.cost(c.soc)))
            << what << " candidate " << i;
    }
}

std::vector<Usecase>
gridUsecases()
{
    return {Usecase::twoIp("a", 0.75, 8.0, 0.5),
            Usecase::twoIp("b", 0.25, 2.0, 16.0)};
}

/** A two-knob 64x64 grid over the paper SoC with two usecases. */
DesignExplorer
gridExplorer()
{
    SocSpec base = SocCatalog::paperTwoIp();
    DesignExplorer ex(base, gridUsecases(), simpleCost());
    std::vector<double> bpeaks, accels;
    for (int i = 0; i < 64; ++i) {
        bpeaks.push_back((i + 1) * 1.5e9);
        accels.push_back(1.0 + i * 0.75);
    }
    ex.sweepBpeak(bpeaks);
    ex.sweepAcceleration(1, accels);
    return ex;
}

TEST(ExploreFrontier, PrunedMatchesUnprunedOnLargeGrid)
{
    DesignExplorer ex = gridExplorer();
    auto reference = DesignExplorer::frontier(ex.explore());

    ExploreOptions opts;
    ExploreStats stats;
    auto fast = ex.exploreFrontier(opts, &stats);
    expectSameFrontier(fast, reference, "pruned");

    // The 64x64 grid must actually exercise the pruning machinery.
    EXPECT_GT(stats.subgridsSkipped, 0u);
    EXPECT_GT(stats.evalsPruned, 0u);
    EXPECT_LT(stats.evals,
              static_cast<uint64_t>(ex.gridSize()) * 2);
}

TEST(ExploreFrontier, DisabledPruningAlsoMatches)
{
    DesignExplorer ex = gridExplorer();
    auto reference = DesignExplorer::frontier(ex.explore());

    ExploreOptions opts;
    opts.prune = false;
    ExploreStats stats;
    auto fast = ex.exploreFrontier(opts, &stats);
    expectSameFrontier(fast, reference, "no-prune");
    EXPECT_EQ(stats.subgridsSkipped, 0u);
    EXPECT_EQ(stats.evalsPruned, 0u);
    // All designs evaluated for both usecases, plus the frontier
    // re-materialization.
    EXPECT_EQ(stats.evals,
              static_cast<uint64_t>(ex.gridSize()) * 2 +
                  fast.size() * 2);
}

TEST(ExploreFrontier, JobsInvariance)
{
    DesignExplorer ex = gridExplorer();
    ExploreOptions serial;
    auto one = ex.exploreFrontier(serial);

    ExploreOptions parallel_opts;
    parallel_opts.jobs = 0; // hardware concurrency
    auto many = ex.exploreFrontier(parallel_opts);
    expectSameFrontier(many, one, "jobs");
}

TEST(ExploreFrontier, SubgridSizeInvariance)
{
    DesignExplorer ex = gridExplorer();
    auto reference = DesignExplorer::frontier(ex.explore());
    for (size_t subgrid : {1u, 7u, 64u, 1000u, 100000u}) {
        ExploreOptions opts;
        opts.subgridSize = subgrid;
        auto fast = ex.exploreFrontier(opts);
        expectSameFrontier(fast, reference,
                           "subgrid " + std::to_string(subgrid));
    }
}

TEST(ExploreFrontier, RandomizedGridsMatchUnpruned)
{
    for (uint64_t seed = 0; seed < 12; ++seed) {
        Rng rng(seed);
        SocSpec base = SocCatalog::paperTwoIp();
        Usecase a = Usecase::twoIp("a", rng.uniform(0.05, 0.95),
                                   rng.logUniform(0.1, 64.0),
                                   rng.logUniform(0.1, 64.0));
        Usecase b = Usecase::twoIp("b", rng.uniform(0.05, 0.95),
                                   rng.logUniform(0.1, 64.0),
                                   rng.logUniform(0.1, 64.0));
        CostModel cost;
        cost.costPerAcceleration = rng.logUniform(0.1, 10.0);
        cost.costPerBpeak = rng.logUniform(1e-10, 1e-8);
        cost.costPerIpBandwidth =
            rng.uniformInt(0, 1) ? rng.logUniform(1e-10, 1e-9) : 0.0;
        DesignExplorer ex(base, {a, b}, cost);

        std::vector<double> bpeaks, accels, bands;
        size_t nb = static_cast<size_t>(rng.uniformInt(2, 17));
        size_t na = static_cast<size_t>(rng.uniformInt(2, 17));
        size_t nw = static_cast<size_t>(rng.uniformInt(2, 9));
        for (size_t i = 0; i < nb; ++i)
            bpeaks.push_back(rng.logUniform(1e9, 1e11));
        for (size_t i = 0; i < na; ++i)
            accels.push_back(rng.logUniform(1.0, 50.0));
        for (size_t i = 0; i < nw; ++i)
            bands.push_back(rng.logUniform(1e9, 1e11));
        ex.sweepBpeak(bpeaks);
        ex.sweepAcceleration(1, accels);
        ex.sweepIpBandwidth(0, bands);

        const std::string what = "seed " + std::to_string(seed);
        auto candidates = ex.explore();
        expectMatchesOracle(candidates, {a, b}, cost, what);
        auto reference = DesignExplorer::frontier(candidates);
        ExploreOptions opts;
        opts.subgridSize = static_cast<size_t>(rng.uniformInt(4, 96));
        auto fast = ex.exploreFrontier(opts);
        expectSameFrontier(fast, reference, what);
        expectMatchesOracle(fast, {a, b}, cost, what + " frontier");
    }
}

TEST(ExploreFrontier, DuplicateKnobTargetsFallBack)
{
    // Two sweeps over the same parameter: the later application wins
    // per design, so per-knob bounds are invalid and the explorer
    // must silently disable pruning rather than mis-prune.
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.5);
    DesignExplorer ex(base, {u}, simpleCost());
    std::vector<double> bpeaks;
    for (int i = 0; i < 40; ++i)
        bpeaks.push_back((i + 1) * 2e9);
    ex.sweepBpeak(bpeaks);
    ex.sweepBpeak({5e9, 50e9});

    auto reference = DesignExplorer::frontier(ex.explore());
    ExploreOptions opts;
    opts.subgridSize = 8;
    ExploreStats stats;
    auto fast = ex.exploreFrontier(opts, &stats);
    expectSameFrontier(fast, reference, "duplicate knobs");
    EXPECT_EQ(stats.subgridsSkipped, 0u);
    EXPECT_EQ(stats.evalsPruned, 0u);
}

TEST(ExploreFrontier, CandidatesMatchModelOracle)
{
    // Every design the packed grid scores — all of explore(), and the
    // frontier pruned and unpruned, including the single-point bound
    // probes' decisions and re-materialization — matches the oracle.
    DesignExplorer ex = gridExplorer();
    expectMatchesOracle(ex.explore(), gridUsecases(), simpleCost(),
                        "explore");
    for (bool prune : {true, false}) {
        ExploreOptions opts;
        opts.prune = prune;
        expectMatchesOracle(ex.exploreFrontier(opts), gridUsecases(),
                            simpleCost(), prune ? "pruned" : "unpruned");
    }
}

// ---------------------------------------------------------------
// Ties: a memory-bound usecase priced on Bpeak alone scores every
// design of one Bpeak identically, so the whole grid is the frontier.
// The Pareto merge must stay near-linear in the frontier there.
// ---------------------------------------------------------------

/** Four knobs of @p n values each; only the first (Bpeak) moves the
 * score or the cost, and the IP links never bind. */
DesignExplorer
tieExplorer(int n)
{
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase memory_bound = Usecase::twoIp("mem", 0.5, 1e-3, 1e-3);
    CostModel cost;
    cost.costPerAcceleration = 0.0;
    cost.costPerBpeak = 1e-9;
    cost.costPerIpBandwidth = 0.0;
    DesignExplorer ex(base, {memory_bound}, cost);
    std::vector<double> bpeaks, accels, links;
    for (int i = 0; i < n; ++i) {
        bpeaks.push_back((i + 1) * 1e9);
        accels.push_back(1.0 + i);
        links.push_back((n + 2 + i) * 1e9);
    }
    ex.sweep(Param::bpeak(), bpeaks);
    ex.sweep(Param::acceleration(1), accels);
    ex.sweep(Param::ipBandwidth(0), links);
    ex.sweep(Param::ipBandwidth(1), links);
    return ex;
}

TEST(ExploreFrontier, TieGridMatchesUnpruned)
{
    DesignExplorer ex = tieExplorer(8);
    auto reference = DesignExplorer::frontier(ex.explore());
    ASSERT_EQ(reference.size(), 8u * 8 * 8 * 8);
    expectSameFrontier(ex.exploreFrontier(), reference, "8^4 ties");
}

// ctest runs this binary under a 5 s TIMEOUT; a merge that rescans
// every incumbent per design takes over 10 s here.
TEST(ExploreFrontier, LargeTieGridKeepsEveryDesignInOrder)
{
    const int n = 18;
    DesignExplorer ex = tieExplorer(n);
    auto frontier = ex.exploreFrontier();
    ASSERT_EQ(frontier.size(), 104976u);
    // Recover each member's flat enumeration index from its knob
    // values (knob 0 varies fastest).
    auto digit = [](double v, double first, double step) {
        return static_cast<size_t>((v - first) / step + 0.5);
    };
    size_t prev_flat = 0;
    for (size_t i = 0; i < frontier.size(); ++i) {
        const SocSpec &soc = frontier[i].soc;
        size_t flat = digit(soc.bpeak(), 1e9, 1e9) +
                      n * (digit(soc.ip(1).acceleration, 1.0, 1.0) +
                           n * (digit(soc.ip(0).bandwidth, (n + 2) * 1e9,
                                      1e9) +
                                n * digit(soc.ip(1).bandwidth,
                                          (n + 2) * 1e9, 1e9)));
        if (i > 0) {
            // By cost, then by enumeration order among equal costs.
            ASSERT_LE(frontier[i - 1].cost, frontier[i].cost) << i;
            if (frontier[i - 1].cost == frontier[i].cost) {
                ASSERT_LT(prev_flat, flat) << i;
            }
        }
        prev_flat = flat;
    }
    EXPECT_EQ(frontier.front().soc.bpeak(), 1e9);
    EXPECT_EQ(frontier.back().soc.bpeak(), n * 1e9);
}

TEST(ExploreFrontier, OverflowingCostModelIsRefused)
{
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    CostModel cost;
    cost.costPerBpeak = 1e300;
    cost.costPerIpBandwidth = -1e300;
    DesignExplorer ex(base, {u}, cost);
    ex.sweep(Param::bpeak(), {1e9, 2e9, 3e9});
    ex.sweep(Param::ipBandwidth(1), {1e9, 2e9, 3e9});
    for (int frontier_only = 0; frontier_only < 2; ++frontier_only) {
        try {
            if (frontier_only)
                ex.exploreFrontier();
            else
                ex.explore();
            ADD_FAILURE() << "overflowing cost accepted";
        } catch (const FatalError &err) {
            EXPECT_EQ(std::string(err.what()),
                      "cost model overflows on this grid: the costs of "
                      "its largest designs are not finite");
        }
    }

    // Large but finite everywhere: accepted, every cost finite.
    CostModel big;
    big.costPerAcceleration = 0.0;
    big.costPerBpeak = 1e290;
    big.costPerIpBandwidth = -1e290;
    DesignExplorer ok(base, {u}, big);
    ok.sweep(Param::bpeak(), {1e9, 2e9, 3e9});
    ok.sweep(Param::ipBandwidth(1), {1e9, 2e9, 3e9});
    for (const Candidate &c : ok.exploreFrontier())
        EXPECT_TRUE(std::isfinite(c.cost));
}

TEST(ExploreFrontier, StatsAccounting)
{
    DesignExplorer ex = gridExplorer();
    ExploreStats stats;
    auto frontier = ex.exploreFrontier({}, &stats);
    const uint64_t n_use = 2;
    const uint64_t total = ex.gridSize() * n_use;
    // Every design is either evaluated or pruned; probes and frontier
    // re-materialization come on top of the evaluated share.
    EXPECT_GE(stats.evals + stats.evalsPruned,
              total + frontier.size() * n_use);
    EXPECT_LE(stats.evalsPruned, total);
    EXPECT_GE(stats.forStats.workers, 1);
}

} // namespace
} // namespace gables

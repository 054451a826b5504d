/**
 * @file
 * Tests for the design-space explorer: enumeration, scoring by the
 * worst usecase, cost model, knob rules, and the Pareto frontier,
 * which is checked against a brute-force oracle built from
 * SocSpec::with(), GablesModel::evaluate() and CostModel::cost().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
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
    EXPECT_EQ(ex.gridSize(), 1u);
    auto frontier = ex.exploreFrontier();
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_DOUBLE_EQ(frontier[0].minPerf,
                     GablesModel::evaluate(base, u).attainable);
}

TEST(Explorer, CrossProductSize)
{
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    DesignExplorer ex(base, {u}, simpleCost());
    ex.sweepBpeak({10e9, 20e9, 30e9});
    ex.sweepAcceleration(1, {2.0, 5.0});
    EXPECT_EQ(ex.gridSize(), 6u);
    // Unpruned, every design is evaluated once, and each member once
    // more when the frontier is materialized.
    ExploreOptions opts;
    opts.prune = false;
    ExploreStats stats;
    auto frontier = ex.exploreFrontier(opts, &stats);
    EXPECT_EQ(stats.evals, 6u + frontier.size());
}

TEST(Explorer, ScoreIsWorstUsecase)
{
    SocSpec base = SocCatalog::paperTwoIpBalanced();
    Usecase good = Usecase::twoIp("good", 0.75, 8.0, 8.0); // 160 G
    Usecase bad = Usecase::twoIp("bad", 0.75, 8.0, 0.1);   // ~2.66 G
    DesignExplorer ex(base, {good, bad}, simpleCost());
    auto frontier = ex.exploreFrontier();
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_DOUBLE_EQ(frontier[0].perUsecase[0], 160e9);
    EXPECT_DOUBLE_EQ(frontier[0].minPerf, frontier[0].perUsecase[1]);
    EXPECT_LT(frontier[0].minPerf, 3e9);
}

TEST(Explorer, DominatedDesignsNotPareto)
{
    // More Bpeak costs more; where it buys no performance the
    // smaller design dominates, and the larger is dropped on arrival.
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    DesignExplorer ex(base, {u}, simpleCost());
    ex.sweepBpeak({20e9, 40e9}); // both reach 160 Gops/s
    auto frontier = ex.exploreFrontier();
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_DOUBLE_EQ(frontier[0].soc.bpeak(), 20e9);
}

TEST(Explorer, TiedCostAndPerformanceAreBothPareto)
{
    // Two designs with identical cost AND identical performance tie:
    // neither strictly beats the other on any axis, so domination
    // (>= on both, > on at least one) holds for neither and both
    // stay on the frontier, in enumeration order. A free-bandwidth
    // cost model makes the two Bpeak grid points exact ties -- both
    // saturate the same compute roof at 160 Gops/s and cost only
    // their (equal) acceleration budget.
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    CostModel free_bw;
    free_bw.costPerAcceleration = 1.0;
    free_bw.costPerBpeak = 0.0;
    free_bw.costPerIpBandwidth = 0.0;
    DesignExplorer ex(base, {u}, free_bw);
    ex.sweepBpeak({40e9, 20e9}); // both reach 160 Gops/s
    auto frontier = ex.exploreFrontier();
    ASSERT_EQ(frontier.size(), 2u);
    EXPECT_DOUBLE_EQ(frontier[0].minPerf, frontier[1].minPerf);
    EXPECT_DOUBLE_EQ(frontier[0].cost, frontier[1].cost);
    EXPECT_DOUBLE_EQ(frontier[0].soc.bpeak(), 40e9);
    EXPECT_DOUBLE_EQ(frontier[1].soc.bpeak(), 20e9);
}

TEST(Explorer, EqualPerfCheaperDesignDominates)
{
    // Same performance tie, but once bandwidth costs money again the
    // cheaper of the two tied designs is the only frontier member,
    // even when the costlier one is enumerated, and kept, first.
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 8.0);
    EXPECT_EQ(
        GablesModel::evaluate(base.with(Param::bpeak(), 20e9), u).attainable,
        GablesModel::evaluate(base.with(Param::bpeak(), 40e9), u).attainable);
    DesignExplorer ex(base, {u}, simpleCost());
    ex.sweepBpeak({40e9, 20e9});
    auto frontier = ex.exploreFrontier();
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_DOUBLE_EQ(frontier[0].soc.bpeak(), 20e9);
}

TEST(Explorer, FrontierSortedByCost)
{
    SocSpec base = SocCatalog::paperTwoIp();
    Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.5);
    DesignExplorer ex(base, {u}, simpleCost());
    ex.sweepBpeak({5e9, 10e9, 20e9, 40e9});
    ex.sweepAcceleration(1, {2.0, 5.0, 20.0});
    auto frontier = ex.exploreFrontier();
    ASSERT_GE(frontier.size(), 2u);
    for (size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GE(frontier[i].cost, frontier[i - 1].cost);
        // Along the frontier, more cost must buy more performance.
        EXPECT_GT(frontier[i].minPerf, frontier[i - 1].minPerf);
    }
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

/** @return "prune 1 jobs 2 subgrid 64": @p opts, for messages. */
std::string
describe(const ExploreOptions &opts)
{
    return "prune " + std::to_string(opts.prune) + " jobs " +
           std::to_string(opts.jobs) + " subgrid " +
           std::to_string(opts.subgridSize);
}

TEST(Explorer, KnobValueRefusedWhenRegistered)
{
    // Every knob value must obey its input's rule, and sweep() checks
    // it, so a bad value is refused whatever the run's options. (A
    // check made only when a lane takes the value would let a pruned
    // run that skips the value's subgrid accept it: with Bpeak and
    // the links free, Bpeak {100e9, 50e9, -1, 10e9} at subgrid size 2
    // skips {-1, 10e9}, which the 100e9 design dominates.)
    const SocSpec base = SocCatalog::paperTwoIp();
    const Usecase u = Usecase::twoIp("u", 0.75, 8.0, 0.5);
    struct Case {
        Param param;
        std::vector<double> values;
        std::string message;
    };
    const Case cases[] = {
        {Param::bpeak(),
         {100e9, 50e9, -1.0, 10e9},
         "evaluator: Bpeak must be positive and finite"},
        {Param::acceleration(1),
         {8.0, 4.0, 0.0, 2.0},
         "evaluator: IP[1] acceleration must be positive and finite"},
        {Param::acceleration(1),
         {8.0, 4.0, std::numeric_limits<double>::max(), 2.0},
         "evaluator: IP[1] peak Ai * Ppeak must be finite"},
        {Param::ipBandwidth(1),
         {40e9, 20e9, -1.0, 5e9},
         "evaluator: IP[1] bandwidth must be positive and finite"},
    };
    for (const Case &c : cases) {
        for (bool prune : {true, false}) {
            for (int jobs : {1, 4}) {
                for (size_t subgrid : {1u, 2u, 256u}) {
                    const ExploreOptions opts{jobs, prune, subgrid};
                    DesignExplorer ex(base, {u}, CostModel{});
                    std::string outcome = "accepted";
                    try {
                        ex.sweep(c.param, c.values);
                        ex.exploreFrontier(opts);
                    } catch (const FatalError &err) {
                        outcome = err.what();
                    }
                    EXPECT_EQ(outcome, c.message)
                        << c.param.name() << " " << describe(opts);
                    // Nothing was registered.
                    EXPECT_EQ(ex.gridSize(), 1u);
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// exploreFrontier() against a brute-force oracle: pruned or not, for
// any subgrid size and worker count, the frontier is the oracle's,
// member by member and bit for bit.
// ---------------------------------------------------------------

/** An explorer's inputs, kept so that the oracle can rebuild the
 * grid the explorer enumerates. */
struct Grid {
    SocSpec base;
    std::vector<Usecase> usecases;
    CostModel cost;
    /** The sweeps, in registration order. */
    std::vector<std::pair<Param, std::vector<double>>> knobs;

    DesignExplorer explorer() const
    {
        DesignExplorer ex(base, usecases, cost);
        for (const auto &[param, values] : knobs)
            ex.sweep(param, values);
        return ex;
    }
};

/**
 * The Pareto frontier of @p g by brute force, sharing no code with
 * the explorer's grid: every design of the cross product (knob 0
 * varying fastest) is built with SocSpec::with(), applying the knobs
 * in registration order, scored with GablesModel::evaluate() and
 * priced with CostModel::cost(); a design is on the frontier when no
 * other design dominates it (every pair compared), and the frontier
 * is stable-sorted by cost.
 */
std::vector<Candidate>
oracleFrontier(const Grid &g)
{
    size_t total = 1;
    for (const auto &knob : g.knobs)
        total *= knob.second.size();
    std::vector<Candidate> designs;
    designs.reserve(total);
    for (size_t flat = 0; flat < total; ++flat) {
        SocSpec soc = g.base;
        size_t rest = flat;
        for (const auto &[param, values] : g.knobs) {
            soc = soc.with(param, values[rest % values.size()]);
            rest /= values.size();
        }
        Candidate c{soc, std::numeric_limits<double>::infinity(), {},
                    g.cost.cost(soc)};
        for (const Usecase &u : g.usecases) {
            c.perUsecase.push_back(GablesModel::evaluate(soc, u).attainable);
            c.minPerf = std::min(c.minPerf, c.perUsecase.back());
        }
        designs.push_back(std::move(c));
    }
    auto dominates = [](const Candidate &a, const Candidate &b) {
        return a.minPerf >= b.minPerf && a.cost <= b.cost &&
               (a.minPerf > b.minPerf || a.cost < b.cost);
    };
    std::vector<Candidate> frontier;
    for (const Candidate &c : designs) {
        bool dominated = false;
        for (size_t j = 0; j < designs.size() && !dominated; ++j)
            dominated = dominates(designs[j], c);
        if (!dominated)
            frontier.push_back(c);
    }
    std::stable_sort(frontier.begin(), frontier.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.cost < b.cost;
                     });
    return frontier;
}

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

/** Every frontier of @p g, pruned and unpruned, across @p subgrids
 * and @p jobs, equals the oracle's. */
void
expectOracleFrontier(const Grid &g, std::initializer_list<size_t> subgrids,
                     std::initializer_list<int> jobs,
                     const std::string &what)
{
    const std::vector<Candidate> reference = oracleFrontier(g);
    const DesignExplorer ex = g.explorer();
    for (bool prune : {true, false}) {
        for (size_t subgrid : subgrids) {
            for (int j : jobs) {
                const ExploreOptions opts{j, prune, subgrid};
                expectSameFrontier(ex.exploreFrontier(opts), reference,
                                   what + " " + describe(opts));
            }
        }
    }
}

/** A two-knob 64x64 grid over the paper SoC with two usecases. */
Grid
largeGrid()
{
    std::vector<double> bpeaks, accels;
    for (int i = 0; i < 64; ++i) {
        bpeaks.push_back((i + 1) * 1.5e9);
        accels.push_back(1.0 + i * 0.75);
    }
    return {SocCatalog::paperTwoIp(),
            {Usecase::twoIp("a", 0.75, 8.0, 0.5),
             Usecase::twoIp("b", 0.25, 2.0, 16.0)},
            simpleCost(),
            {{Param::bpeak(), bpeaks}, {Param::acceleration(1), accels}}};
}

TEST(ExploreFrontier, PrunedMatchesUnprunedOnLargeGrid)
{
    const Grid g = largeGrid();
    DesignExplorer ex = g.explorer();
    ExploreStats stats;
    auto pruned = ex.exploreFrontier({}, &stats);
    expectSameFrontier(pruned, oracleFrontier(g), "pruned");
    ExploreOptions unpruned;
    unpruned.prune = false;
    expectSameFrontier(pruned, ex.exploreFrontier(unpruned), "unpruned");

    // The 64x64 grid must actually exercise the pruning machinery.
    EXPECT_GT(stats.subgridsSkipped, 0u);
    EXPECT_GT(stats.evalsPruned, 0u);
    EXPECT_LT(stats.evals,
              static_cast<uint64_t>(ex.gridSize()) * 2);
}

TEST(ExploreFrontier, DisabledPruningAlsoMatches)
{
    const Grid g = largeGrid();
    DesignExplorer ex = g.explorer();
    ExploreOptions opts;
    opts.prune = false;
    ExploreStats stats;
    auto frontier = ex.exploreFrontier(opts, &stats);
    expectSameFrontier(frontier, oracleFrontier(g), "no-prune");
    EXPECT_EQ(stats.subgridsSkipped, 0u);
    EXPECT_EQ(stats.evalsPruned, 0u);
    // All designs evaluated for both usecases, plus the frontier
    // re-materialization.
    EXPECT_EQ(stats.evals,
              static_cast<uint64_t>(ex.gridSize()) * 2 +
                  frontier.size() * 2);
}

TEST(ExploreFrontier, JobsInvariance)
{
    // 0 = hardware concurrency.
    expectOracleFrontier(largeGrid(), {256}, {0, 2, 8}, "jobs");
}

TEST(ExploreFrontier, SubgridSizeInvariance)
{
    expectOracleFrontier(largeGrid(), {1, 7, 64, 1000, 100000}, {1},
                         "subgrid");
}

TEST(ExploreFrontier, RandomizedGridsMatchUnpruned)
{
    for (uint64_t seed = 0; seed < 12; ++seed) {
        Rng rng(seed);
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
        const Grid g{SocCatalog::paperTwoIp(),
                     {a, b},
                     cost,
                     {{Param::bpeak(), bpeaks},
                      {Param::acceleration(1), accels},
                      {Param::ipBandwidth(0), bands}}};
        const size_t subgrid = static_cast<size_t>(rng.uniformInt(4, 96));
        expectOracleFrontier(g, {subgrid}, {1, 3},
                             "seed " + std::to_string(seed));
    }
}

TEST(ExploreFrontier, DuplicateKnobTargetsFallBack)
{
    // Two sweeps over the same parameter: the later application wins
    // per design, so per-knob bounds are invalid and the explorer
    // must silently disable pruning rather than mis-prune.
    std::vector<double> bpeaks;
    for (int i = 0; i < 40; ++i)
        bpeaks.push_back((i + 1) * 2e9);
    const Grid g{SocCatalog::paperTwoIp(),
                 {Usecase::twoIp("u", 0.75, 8.0, 0.5)},
                 simpleCost(),
                 {{Param::bpeak(), bpeaks}, {Param::bpeak(), {5e9, 50e9}}}};
    DesignExplorer ex = g.explorer();
    ExploreOptions opts;
    opts.subgridSize = 8;
    ExploreStats stats;
    auto frontier = ex.exploreFrontier(opts, &stats);
    expectSameFrontier(frontier, oracleFrontier(g), "duplicate knobs");
    EXPECT_EQ(stats.subgridsSkipped, 0u);
    EXPECT_EQ(stats.evalsPruned, 0u);
    expectOracleFrontier(g, {1, 8}, {1, 3}, "duplicate knobs");
}

// ---------------------------------------------------------------
// Ties: a memory-bound usecase priced on Bpeak alone scores every
// design of one Bpeak identically, so the whole grid is the frontier.
// The Pareto merge must stay near-linear in the frontier there.
// ---------------------------------------------------------------

/** Four knobs of @p n values each; only the first (Bpeak) moves the
 * score or the cost, and the IP links never bind. */
Grid
tieGrid(int n)
{
    CostModel cost;
    cost.costPerAcceleration = 0.0;
    cost.costPerBpeak = 1e-9;
    cost.costPerIpBandwidth = 0.0;
    std::vector<double> bpeaks, accels, links;
    for (int i = 0; i < n; ++i) {
        bpeaks.push_back((i + 1) * 1e9);
        accels.push_back(1.0 + i);
        links.push_back((n + 2 + i) * 1e9);
    }
    return {SocCatalog::paperTwoIp(),
            {Usecase::twoIp("mem", 0.5, 1e-3, 1e-3)},
            cost,
            {{Param::bpeak(), bpeaks},
             {Param::acceleration(1), accels},
             {Param::ipBandwidth(0), links},
             {Param::ipBandwidth(1), links}}};
}

TEST(ExploreFrontier, CandidatesMatchModelOracle)
{
    // On the tie grid every design is a frontier member, so every
    // design the packed grid scores, and its re-materialization, is
    // compared with the oracle's, for each option.
    const Grid g = tieGrid(6);
    ASSERT_EQ(oracleFrontier(g).size(), 6u * 6 * 6 * 6);
    expectOracleFrontier(g, {1, 7, 64, 256, 100000}, {1, 3}, "ties");
}

TEST(ExploreFrontier, TieGridMatchesUnpruned)
{
    const Grid g = tieGrid(8);
    auto reference = oracleFrontier(g);
    ASSERT_EQ(reference.size(), 8u * 8 * 8 * 8);
    expectSameFrontier(g.explorer().exploreFrontier(), reference,
                       "8^4 ties");
}

// ctest runs this binary under a 5 s TIMEOUT; a merge that rescans
// every incumbent per design takes over 10 s here.
TEST(ExploreFrontier, LargeTieGridKeepsEveryDesignInOrder)
{
    const int n = 18;
    DesignExplorer ex = tieGrid(n).explorer();
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
    for (bool prune : {true, false}) {
        ExploreOptions opts;
        opts.prune = prune;
        try {
            ex.exploreFrontier(opts);
            ADD_FAILURE() << "overflowing cost accepted, prune " << prune;
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
    DesignExplorer ex = largeGrid().explorer();
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

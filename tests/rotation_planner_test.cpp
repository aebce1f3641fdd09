#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/manycore.hpp"
#include "core/peak_temperature.hpp"
#include "core/rotation_planner.hpp"
#include "linalg/simd.hpp"
#include "perf/interval_model.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"

namespace {

using hp::arch::ManyCore;
using hp::core::PeakTemperatureAnalyzer;
using hp::core::RotationPlan;
using hp::core::RotationPlanner;
using hp::core::ThreadEstimate;

constexpr double kDtm = 70.0;

struct Fixture {
    ManyCore chip = ManyCore::paper_16core();
    hp::thermal::ThermalModel model{chip.plan(), hp::thermal::RcNetworkConfig{}};
    hp::thermal::MatExSolver solver{model};
    hp::perf::IntervalPerformanceModel perf{chip};
    PeakTemperatureAnalyzer analyzer{solver, 45.0, 0.3};
    RotationPlanner planner{chip, perf, analyzer};
};

ThreadEstimate hot(double watts = 6.0) {
    return ThreadEstimate{watts, {.base_cpi = 0.5, .llc_apki = 0.5,
                                  .nominal_power_w = watts}};
}

ThreadEstimate cool() {
    return ThreadEstimate{1.8, {.base_cpi = 1.0, .llc_apki = 12.0,
                                .nominal_power_w = 1.6,
                                .llc_miss_ratio = 0.08}};
}

TEST(Planner, CoolThreadsLandInInnerRingWithoutRotation) {
    Fixture f;
    const RotationPlan plan = f.planner.plan_greedy({cool(), cool()}, kDtm);
    EXPECT_TRUE(plan.thermally_safe);
    EXPECT_FALSE(plan.rotation_on);  // no heat, no rotations (lines 23-27)
    EXPECT_EQ(plan.ring_of_thread[0], 0u);
    EXPECT_EQ(plan.ring_of_thread[1], 0u);
}

TEST(Planner, HotThreadsKeepRotationOn) {
    Fixture f;
    const RotationPlan plan = f.planner.plan_greedy({hot(), hot()}, kDtm);
    EXPECT_TRUE(plan.thermally_safe);
    EXPECT_TRUE(plan.rotation_on);
    EXPECT_LT(plan.predicted_peak_c, kDtm);
}

TEST(Planner, OverCapacityThrows) {
    Fixture f;
    std::vector<ThreadEstimate> too_many(17, cool());
    EXPECT_THROW((void)f.planner.plan_greedy(too_many, kDtm),
                 std::invalid_argument);
}

TEST(Planner, ExhaustiveGuardsInstanceSize) {
    Fixture f;
    std::vector<ThreadEstimate> many(11, cool());
    EXPECT_THROW((void)f.planner.plan_exhaustive(many, kDtm),
                 std::invalid_argument);
}

TEST(Planner, ExhaustiveNeverWorseThanGreedy) {
    Fixture f;
    for (const auto& threads :
         {std::vector<ThreadEstimate>{hot(), hot()},
          std::vector<ThreadEstimate>{hot(), cool(), cool()},
          std::vector<ThreadEstimate>{hot(6.5), hot(5.0), cool(), cool()}}) {
        const RotationPlan greedy = f.planner.plan_greedy(threads, kDtm);
        const RotationPlan optimal = f.planner.plan_exhaustive(threads, kDtm);
        ASSERT_TRUE(optimal.thermally_safe);
        EXPECT_TRUE(greedy.thermally_safe);
        EXPECT_GE(optimal.throughput_score,
                  greedy.throughput_score * (1.0 - 1e-9));
    }
}

TEST(Planner, GreedyNearOptimalOnSmallInstances) {
    // The paper's claim: the heuristic finds a near-optimal solution.
    Fixture f;
    const std::vector<ThreadEstimate> threads = {hot(6.2), hot(5.5), cool(),
                                                 cool(), hot(4.5)};
    const RotationPlan greedy = f.planner.plan_greedy(threads, kDtm);
    const RotationPlan optimal = f.planner.plan_exhaustive(threads, kDtm);
    ASSERT_TRUE(greedy.thermally_safe);
    // Within 15% of the exhaustive optimum (bench_ablation_optimality
    // reports the exact gap distribution).
    EXPECT_GE(greedy.throughput_score, 0.85 * optimal.throughput_score);
}

TEST(Planner, ScoresPreferInnerRings) {
    Fixture f;
    const std::vector<ThreadEstimate> one = {cool()};
    const double inner = f.planner.throughput_score(one, {0}, false, 0.5e-3);
    const double outer = f.planner.throughput_score(one, {2}, false, 0.5e-3);
    EXPECT_GT(inner, outer);  // memory-bound thread is faster at low AMD
}

TEST(Planner, FasterRotationCostsThroughput) {
    Fixture f;
    const std::vector<ThreadEstimate> one = {hot()};
    const double slow = f.planner.throughput_score(one, {0}, true, 4e-3);
    const double fast = f.planner.throughput_score(one, {0}, true, 0.125e-3);
    EXPECT_GT(slow, fast);
}

TEST(Planner, PredictedPeakMonotoneInPower) {
    Fixture f;
    const double low = f.planner.predicted_peak_c({hot(3.0)}, {0}, true, 0.5e-3);
    const double high = f.planner.predicted_peak_c({hot(6.0)}, {0}, true, 0.5e-3);
    EXPECT_GT(high, low);
}

// Golden plans: ring_of_thread, rotation_on, tau_s and the exact bits of
// predicted_peak_c for three fixed thread sets, recorded before the planner
// moved onto per-plan scratch. The scalar SIMD tier is pinned because the
// AVX2 tier reassociates reductions; these values hold on every host.
struct GoldenPlan {
    std::vector<std::size_t> ring_of_thread;
    bool rotation_on;
    double tau_s;
    double predicted_peak_c;
    bool thermally_safe;
};

void expect_plan(const RotationPlan& plan, const GoldenPlan& golden) {
    EXPECT_EQ(plan.ring_of_thread, golden.ring_of_thread);
    EXPECT_EQ(plan.rotation_on, golden.rotation_on);
    EXPECT_EQ(plan.tau_s, golden.tau_s);
    EXPECT_EQ(plan.predicted_peak_c, golden.predicted_peak_c);
    EXPECT_EQ(plan.thermally_safe, golden.thermally_safe);
}

TEST(Planner, GoldenPlansAreBitIdentical) {
    hp::linalg::simd::force_tier_for_testing(hp::linalg::simd::Tier::kScalar);
    Fixture f;
    struct Case {
        std::vector<ThreadEstimate> threads;
        GoldenPlan greedy, exhaustive;
    };
    const std::vector<Case> cases = {
        {{cool(), cool()},
         {{0, 0}, false, 0x1.0624dd2f1a9fcp-8, 0x1.c5c8b97be5ffp+5, true},
         {{0, 0}, false, 0x1.0624dd2f1a9fcp-13, 0x1.c5c8b97be5ffp+5, true}},
        {{hot(6.5), hot(5.0), cool(), cool()},
         {{0, 0, 1, 1}, true, 0x1.0624dd2f1a9fcp-10, 0x1.13581094a3f3dp+6,
          true},
         {{1, 0, 0, 0}, true, 0x1.0624dd2f1a9fcp-8, 0x1.0b6115a1ada62p+6,
          true}},
        {{hot(8.0), hot(8.0), hot(7.5), hot(7.0), cool(), hot(8.0)},
         {{2, 1, 1, 2, 2, 2}, true, 0x1.0624dd2f1a9fcp-13,
          0x1.6bf749a21bc89p+6, false},
         {{0, 2, 1, 1, 2, 1}, true, 0x1.0624dd2f1a9fcp-13,
          0x1.2602d8f5fc6c5p+6, false}},
    };
    for (std::size_t c = 0; c < cases.size(); ++c) {
        SCOPED_TRACE("thread set " + std::to_string(c));
        expect_plan(f.planner.plan_greedy(cases[c].threads, kDtm),
                    cases[c].greedy);
        expect_plan(f.planner.plan_exhaustive(cases[c].threads, kDtm),
                    cases[c].exhaustive);
    }
    hp::linalg::simd::clear_forced_tier_for_testing();
}

}  // namespace

// The shared Algorithm-2 core (core/certify.hpp): the τ ladder's validation
// and its two walks, driven by scripted evaluators so the exact evaluation
// order — the contract HotPotato, the planner and the advice server rely on
// for bit-identical counters, cache lookups and answers — is pinned down.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/certify.hpp"
#include "core/peak_cache.hpp"

namespace {

using hp::core::PeakKey;
using hp::core::PredictionCache;
using hp::core::RotationRingSpec;
using hp::core::RotationSetting;
using hp::core::TauLadder;

/// One evaluated setting: (rotation_on, rung).
using Probe = std::pair<bool, std::size_t>;

/// Evaluator returning scripted peaks and logging every call in order.
/// Unscripted settings evaluate to 100 °C (unsafe under every limit used).
struct Script {
    std::map<Probe, double> peaks;
    std::vector<Probe> calls;

    double operator()(bool rotation_on, std::size_t rung) {
        calls.emplace_back(rotation_on, rung);
        const auto it = peaks.find({rotation_on, rung});
        return it == peaks.end() ? 100.0 : it->second;
    }
};

const TauLadder& ladder4() {
    static const TauLadder ladder({0.25e-3, 0.5e-3, 1e-3, 2e-3}, 2);
    return ladder;
}

bool below_70(double peak) { return peak < 70.0; }

// ---- validation ---------------------------------------------------------

TEST(TauLadder, RejectsInvalidLadders) {
    EXPECT_THROW(TauLadder({}, 2), std::invalid_argument);
    EXPECT_THROW(TauLadder({1e-3, 0.5e-3}, 2), std::invalid_argument);
    EXPECT_THROW(TauLadder({0.0, 1e-3}, 2), std::invalid_argument);
    EXPECT_THROW(TauLadder({-1e-3}, 2), std::invalid_argument);
    EXPECT_THROW(
        TauLadder({1e-3, std::numeric_limits<double>::infinity()}, 2),
        std::invalid_argument);
    EXPECT_THROW(TauLadder({std::nan("")}, 2), std::invalid_argument);
    EXPECT_THROW(TauLadder({1e-3}, 0), std::invalid_argument);
    // Ties are allowed: repeated rungs are a valid (if redundant) ladder.
    EXPECT_NO_THROW(TauLadder({1e-3, 1e-3, 2e-3}, 1));
}

TEST(TauLadder, NearestTakesTheFirstClosestRung) {
    const TauLadder& ladder = ladder4();
    EXPECT_EQ(ladder.nearest(0.5e-3), 1u);
    EXPECT_EQ(ladder.nearest(0.0), 0u);
    EXPECT_EQ(ladder.nearest(1.0), 3u);
    const TauLadder ties({1e-3, 1e-3, 2e-3}, 2);
    EXPECT_EQ(ties.nearest(1e-3), 0u);
}

// ---- descend --------------------------------------------------------------

TEST(TauLadderDescend, StopsAtTheFirstSafeRungGoingDown) {
    Script script;
    script.peaks[{true, 1}] = 65.0;
    script.peaks[{true, 0}] = 60.0;
    const RotationSetting s = ladder4().descend(3, script, below_70);
    EXPECT_TRUE(s.rotation_on);
    EXPECT_EQ(s.rung, 1u);
    EXPECT_EQ(s.peak_c, 65.0);
    const std::vector<Probe> order = {{true, 3}, {true, 2}, {true, 1}};
    EXPECT_EQ(script.calls, order);
}

TEST(TauLadderDescend, FallsBackToTheFastestRungWithItsUnsafePeak) {
    Script script;
    script.peaks[{true, 0}] = 80.0;
    const RotationSetting s = ladder4().descend(2, script, below_70);
    EXPECT_TRUE(s.rotation_on);
    EXPECT_EQ(s.rung, 0u);
    EXPECT_EQ(s.peak_c, 80.0);
    const std::vector<Probe> order = {{true, 2}, {true, 1}, {true, 0}};
    EXPECT_EQ(script.calls, order);
}

TEST(TauLadderDescend, StartingSafeEvaluatesOnce) {
    Script script;
    script.peaks[{true, 3}] = 50.0;
    const RotationSetting s = ladder4().descend(3, script, below_70);
    EXPECT_EQ(s.rung, 3u);
    EXPECT_EQ(script.calls.size(), 1u);
}

TEST(TauLadderDescend, UnprobedFastestRungIsNeverEvaluated) {
    Script script;
    const RotationSetting s =
        ladder4().descend(2, script, below_70, /*probe_fastest=*/false);
    EXPECT_EQ(s.rung, 0u);
    EXPECT_TRUE(std::isnan(s.peak_c));
    const std::vector<Probe> order = {{true, 2}, {true, 1}};
    EXPECT_EQ(script.calls, order);

    // Starting on the fastest rung evaluates nothing at all.
    Script none;
    EXPECT_EQ(ladder4().descend(0, none, below_70, false).rung, 0u);
    EXPECT_TRUE(none.calls.empty());
}

TEST(TauLadderDescend, SafetyTestIsTheCallers) {
    // A caller looping while `peak >= limit` walks past a peak exactly at
    // the limit; one accepting `peak <= limit` stops on it.
    Script script;
    script.peaks[{true, 2}] = 70.0;
    const auto not_above = [](double p) { return !(p >= 70.0); };
    EXPECT_EQ(ladder4().descend(3, script, not_above).rung, 0u);
    const auto at_most = [](double p) { return p <= 70.0; };
    Script again = script;
    again.calls.clear();
    EXPECT_EQ(ladder4().descend(3, again, at_most).rung, 2u);
}

// ---- relax ----------------------------------------------------------------

TEST(TauLadderRelax, SlowsRungByRungThenStopsAboveTheTop) {
    Script script;
    script.peaks[{true, 2}] = 60.0;
    script.peaks[{true, 3}] = 62.0;
    script.peaks[{false, 3}] = 64.0;
    std::vector<RotationSetting> accepted;
    const RotationSetting s = ladder4().relax(
        {true, 1, 55.0}, script, [](double) { return true; },
        [&](const RotationSetting& next) {
            if (!(next.peak_c < 70.0)) return false;
            accepted.push_back(next);
            return true;
        });
    EXPECT_FALSE(s.rotation_on);
    EXPECT_EQ(s.rung, 3u);  // rotation stops where the walk stood
    EXPECT_EQ(s.peak_c, 64.0);
    const std::vector<Probe> order = {{true, 2}, {true, 3}, {false, 3}};
    EXPECT_EQ(script.calls, order);
    ASSERT_EQ(accepted.size(), 3u);
    EXPECT_FALSE(accepted.back().rotation_on);
}

TEST(TauLadderRelax, FirstRefusalStopsTheWalk) {
    Script script;
    script.peaks[{true, 1}] = 60.0;  // rung 2 stays at the 100 °C default
    const RotationSetting s = ladder4().relax(
        {true, 0, 50.0}, script, [](double) { return true; },
        [](const RotationSetting& next) { return next.peak_c < 70.0; });
    EXPECT_TRUE(s.rotation_on);
    EXPECT_EQ(s.rung, 1u);
    EXPECT_EQ(s.peak_c, 60.0);
    const std::vector<Probe> order = {{true, 1}, {true, 2}};
    EXPECT_EQ(script.calls, order);
}

TEST(TauLadderRelax, KeepGuardIsCheckedBeforeEveryProbe) {
    // HotPotato's guard `t_dtm - peak > delta` sits next to its acceptance
    // test `new_peak < t_dtm - delta`: a setting that is accepted but
    // leaves no headroom ends the walk without a further probe.
    Script script;
    script.peaks[{true, 2}] = 69.0;
    const double t_dtm = 70.0, delta = 1.0;
    const RotationSetting s = ladder4().relax(
        {true, 1, 60.0}, script,
        [&](double peak) { return t_dtm - peak > delta; },
        [&](const RotationSetting& next) {
            return next.peak_c < t_dtm - delta + 0.5;
        });
    EXPECT_EQ(s.rung, 2u);
    EXPECT_EQ(script.calls.size(), 1u);

    Script none;
    ladder4().relax(
        {true, 1, 69.5}, none,
        [&](double peak) { return t_dtm - peak > delta; },
        [](const RotationSetting&) { return true; });
    EXPECT_TRUE(none.calls.empty());
}

TEST(TauLadderRelax, RotationOffIsAFixedPoint) {
    Script script;
    const RotationSetting s = ladder4().relax(
        {false, 3, 40.0}, script, [](double) { return true; },
        [](const RotationSetting&) { return true; });
    EXPECT_FALSE(s.rotation_on);
    EXPECT_TRUE(script.calls.empty());
}

TEST(TauLadderRelax, SingleRungLadderGoesStraightToStatic) {
    const TauLadder one({1e-3}, 2);
    Script script;
    script.peaks[{false, 0}] = 50.0;
    const RotationSetting s = one.relax(
        {true, 0, 55.0}, script, [](double) { return true; },
        [](const RotationSetting& next) { return next.peak_c < 70.0; });
    EXPECT_FALSE(s.rotation_on);
    const std::vector<Probe> order = {{false, 0}};
    EXPECT_EQ(script.calls, order);
}

// ---- static scatter, idle specs, memoised evaluation -------------------

TEST(StaticScatter, RingSlotsLandOnTheirCoresIdleElsewhere) {
    std::vector<RotationRingSpec> rings(2);
    rings[0].cores = {4, 1};
    rings[0].slot_power_w = {3.0, 0.5};
    rings[1].cores = {0};
    rings[1].slot_power_w = {2.0};
    std::vector<double> power(6, -1.0);
    hp::core::scatter_static_power(rings, 0.5, power.data(), power.size());
    const std::vector<double> expected = {2.0, 0.5, 0.5, 0.5, 3.0, 0.5};
    EXPECT_EQ(power, expected);
}

TEST(StaticScatter, IdleRingSpecsMirrorTheChipRings) {
    std::vector<hp::arch::AmdRing> rings(2);
    rings[0].cores = {5, 6};
    rings[1].cores = {1, 2, 3};
    std::vector<RotationRingSpec> specs(5);  // shrinks to the ring count
    hp::core::idle_ring_specs(rings, 0.25, specs);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[1].cores, rings[1].cores);
    EXPECT_EQ(specs[1].slot_power_w, std::vector<double>(3, 0.25));
}

TEST(MemoisedPeak, ComputesOnceThenHitsAndSkipsDisabledCaches) {
    PredictionCache<double> cache;
    cache.configure(8, 8);
    PeakKey key;
    key.begin(1, true, 1e-3, 2);
    int computed = 0;
    const auto compute = [&] {
        ++computed;
        return 61.5;
    };
    EXPECT_EQ(hp::core::memoised_peak(&cache, key, compute), 61.5);
    EXPECT_EQ(hp::core::memoised_peak(&cache, key, compute), 61.5);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    PredictionCache<double> off;
    off.configure(0, 0);
    EXPECT_EQ(hp::core::memoised_peak(&off, key, compute), 61.5);
    EXPECT_EQ(off.misses(), 0u) << "a disabled cache counts nothing";
    EXPECT_EQ(hp::core::memoised_peak<PredictionCache<double>>(nullptr, key,
                                                               compute),
              61.5);
    EXPECT_EQ(computed, 3);
}

}  // namespace

#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "arch/manycore.hpp"
#include "core/peak_cache.hpp"
#include "core/peak_temperature.hpp"

namespace hp::core {

// The Algorithm-2 core shared by HotPotato, RotationPlanner and the advice
// server (DESIGN.md §15): the τ ladder and its two walks, the static power
// scatter and the memoised evaluation under a PeakKey (core/peak_cache.hpp).

/// Rotation on at ladder rung `rung`, or off (`rung` is then where the walk
/// stopped rotating), with the Algorithm-1 peak evaluated for it.
struct RotationSetting {
    bool rotation_on = true;
    std::size_t rung = 0;
    double peak_c = 0.0;
};

/// The rotation settings Algorithm 2 walks: ascending τ rungs (rung 0 is the
/// fastest; past the top rotation stops) and the intra-epoch samples every
/// rung is certified with. Both walks call a caller-supplied evaluator
/// `double peak(bool rotation_on, std::size_t rung)` in a fixed order; the
/// safety tests stay with the callers, each with its exact comparison.
class TauLadder {
public:
    /// Throws std::invalid_argument unless @p rungs_s is non-empty, finite,
    /// positive and ascending (ties allowed) and @p samples_per_epoch > 0.
    TauLadder(std::vector<double> rungs_s, std::size_t samples_per_epoch);

    std::size_t size() const { return rungs_s_.size(); }
    std::size_t top() const { return rungs_s_.size() - 1; }
    double operator[](std::size_t rung) const { return rungs_s_[rung]; }
    std::size_t samples_per_epoch() const { return samples_per_epoch_; }
    const std::vector<double>& rungs() const { return rungs_s_; }

    /// The first rung closest to @p tau_s.
    std::size_t nearest(double tau_s) const;

    /// Speeds the rotation up (Algorithm 2 lines 12-14): evaluates
    /// peak(true, r) for r = start, start-1, ... and returns the first rung
    /// whose peak satisfies safe(). When none does, the walk ends on the
    /// fastest rung 0 with its unsafe peak — or, with @p probe_fastest
    /// false, returns rung 0 without evaluating it (peak_c is then NaN).
    template <typename Peak, typename Safe>
    RotationSetting descend(std::size_t start, Peak&& peak, Safe&& safe,
                            bool probe_fastest = true) const {
        for (std::size_t rung = start;; --rung) {
            if (rung == 0 && !probe_fastest)
                return {true, 0, std::numeric_limits<double>::quiet_NaN()};
            const double p = peak(true, rung);
            if (rung == 0 || safe(p)) return {true, rung, p};
        }
    }

    /// Slows the rotation down (Algorithm 2 lines 23-27): while rotation is
    /// on and keep(current peak) holds, evaluates the next slower setting —
    /// peak(true, rung + 1), or past the top rung peak(false, rung) — and
    /// moves there if accept(next) approves (accept may commit the move on
    /// the caller's side). Returns the setting it stopped on.
    template <typename Peak, typename Keep, typename Accept>
    RotationSetting relax(RotationSetting from, Peak&& peak, Keep&& keep,
                          Accept&& accept) const {
        while (from.rotation_on && keep(from.peak_c)) {
            RotationSetting next = from;
            if (from.rung + 1 < size())
                ++next.rung;
            else
                next.rotation_on = false;
            next.peak_c = peak(next.rotation_on, next.rung);
            if (!accept(next)) break;
            from = next;
        }
        return from;
    }

private:
    std::vector<double> rungs_s_;
    std::size_t samples_per_epoch_;
};

/// Resets @p specs to the chip's AMD rings (cycle order) with every slot
/// idle — the blank the planner and the advice server fill threads into.
void idle_ring_specs(const std::vector<arch::AmdRing>& rings, double idle_w,
                     std::vector<RotationRingSpec>& specs);

/// Writes the rotation-off power map of @p rings into @p core_power
/// (@p cores entries): each slot's power on its core, @p idle_w on every
/// core no ring lists.
void scatter_static_power(const std::vector<RotationRingSpec>& rings,
                          double idle_w, double* core_power,
                          std::size_t cores);

/// The value cached under @p key, else compute() inserted under it. A null
/// or disabled cache just computes (and counts nothing). Takes
/// PredictionCache<double> and ConcurrentPeakCache alike.
template <typename Cache, typename Compute>
double memoised_peak(Cache* cache, const PeakKey& key, Compute&& compute) {
    if (!cache || !cache->enabled()) return compute();
    double value;
    if (cache->lookup(key.data(), key.size(), &value)) return value;
    value = compute();
    cache->insert(key.data(), key.size(), value);
    return value;
}

}  // namespace hp::core

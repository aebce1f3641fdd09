#include "core/rotation_planner.hpp"

#include <algorithm>
#include <stdexcept>

namespace hp::core {

RotationPlanner::RotationPlanner(
    const arch::ManyCore& chip,
    const perf::IntervalPerformanceModel& perf_model,
    const PeakTemperatureAnalyzer& analyzer, std::vector<double> tau_ladder_s)
    : chip_(&chip),
      perf_(&perf_model),
      analyzer_(&analyzer),
      // The analyzer's default intra-epoch sampling.
      ladder_(std::move(tau_ladder_s), 2) {}

double RotationPlanner::predicted_peak_c(
    const std::vector<ThreadEstimate>& threads,
    const std::vector<std::size_t>& ring_of_thread, bool rotation_on,
    double tau_s) const {
    Scratch scratch;
    return predicted_peak_c(threads, threads.size(), ring_of_thread,
                            rotation_on, tau_s, scratch);
}

double RotationPlanner::predicted_peak_c(
    const std::vector<ThreadEstimate>& threads, std::size_t thread_count,
    const std::vector<std::size_t>& ring_of_thread, bool rotation_on,
    double tau_s, Scratch& scratch) const {
    // Threads fill their ring's slots in input order.
    std::vector<RotationRingSpec>& specs = scratch.specs;
    idle_ring_specs(chip_->rings(), analyzer_->idle_power_w(), specs);
    scratch.next_slot.assign(specs.size(), 0);
    for (std::size_t i = 0; i < thread_count; ++i) {
        const std::size_t r = ring_of_thread[i];
        if (r >= specs.size())
            throw std::invalid_argument("RotationPlanner: bad ring index");
        if (scratch.next_slot[r] >= specs[r].slot_power_w.size())
            throw std::invalid_argument(
                "RotationPlanner: ring over capacity");
        specs[r].slot_power_w[scratch.next_slot[r]++] = threads[i].power_w;
    }
    if (rotation_on)
        return analyzer_->rotation_peak(specs, tau_s,
                                        ladder_.samples_per_epoch(),
                                        scratch.workspace);
    // Pinned execution: materialise the slot assignment as a static vector.
    if (scratch.static_power.size() != chip_->core_count())
        scratch.static_power.assign(chip_->core_count());
    scatter_static_power(specs, analyzer_->idle_power_w(),
                         scratch.static_power.data(),
                         scratch.static_power.size());
    return analyzer_->static_peak(scratch.static_power, scratch.workspace);
}

double RotationPlanner::throughput_score(
    const std::vector<ThreadEstimate>& threads,
    const std::vector<std::size_t>& ring_of_thread, bool rotation_on,
    double tau_s) const {
    const double f_max = chip_->dvfs().f_max_hz;
    double score = 0.0;
    for (std::size_t i = 0; i < threads.size(); ++i) {
        const auto& ring = chip_->rings()[ring_of_thread[i]];
        // Under rotation the thread visits every core of the ring; cores of
        // a ring share one AMD, so any member is representative.
        const std::size_t core = ring.cores.front();
        double ips = perf_->instructions_per_second(threads[i].perf, core, f_max);
        if (rotation_on && ring.cores.size() > 1) {
            const double stall = perf_->migration_stall_s(core);
            ips *= std::max(0.0, 1.0 - stall / tau_s);
        }
        score += ips;
    }
    return score;
}

RotationPlan RotationPlanner::plan_greedy(
    const std::vector<ThreadEstimate>& threads, double t_dtm_c,
    double headroom_delta_c) const {
    const auto& rings = chip_->rings();
    std::size_t capacity = 0;
    for (const auto& r : rings) capacity += r.cores.size();
    if (threads.size() > capacity)
        throw std::invalid_argument("RotationPlanner: threads do not fit");

    const double limit = t_dtm_c - headroom_delta_c;
    // Both speed-up walks continue while peak >= limit.
    const auto safe = [limit](double p) { return !(p >= limit); };
    std::vector<std::size_t> counts(rings.size(), 0);
    std::vector<std::size_t> assignment;
    // Start at the rung closest to the paper's 0.5 ms default.
    std::size_t tau_idx = ladder_.nearest(0.5e-3);
    Scratch scratch;

    for (std::size_t i = 0; i < threads.size(); ++i) {
        bool placed = false;
        for (std::size_t r = 0; r < rings.size() && !placed; ++r) {
            if (counts[r] >= rings[r].cores.size()) continue;
            assignment.push_back(r);
            ++counts[r];
            if (predicted_peak_c(threads, i + 1, assignment, true,
                                 ladder_[tau_idx], scratch) < limit) {
                placed = true;
            } else {
                assignment.pop_back();
                --counts[r];
            }
        }
        if (!placed) {
            // Lines 7-14: highest-AMD ring with space, then speed rotation.
            for (std::size_t r = rings.size(); r-- > 0;) {
                if (counts[r] >= rings[r].cores.size()) continue;
                assignment.push_back(r);
                ++counts[r];
                placed = true;
                break;
            }
            // The fastest rung is taken unprobed: the repair pass below
            // re-evaluates the final configuration anyway.
            tau_idx = ladder_
                          .descend(
                              tau_idx,
                              [&](bool on, std::size_t rung) {
                                  return predicted_peak_c(threads, i + 1,
                                                          assignment, on,
                                                          ladder_[rung],
                                                          scratch);
                              },
                              safe, /*probe_fastest=*/false)
                          .rung;
        }
    }

    // Lines 8-14 repair pass: if the final configuration is still unsafe,
    // demote the least memory-bound (lowest CPI, least placement-sensitive)
    // threads outward and speed the rotation until headroom appears.
    const double f_max = chip_->dvfs().f_max_hz;
    const auto peak_of = [&](bool on, std::size_t rung) {
        return predicted_peak_c(threads, threads.size(), assignment, on,
                                ladder_[rung], scratch);
    };
    double peak = peak_of(true, tau_idx);
    std::size_t guard = threads.size() * rings.size();
    while (peak >= limit && guard-- > 0) {
        std::size_t victim = threads.size();
        double victim_cpi = 1e300;
        for (std::size_t i = 0; i < threads.size(); ++i) {
            bool outer_space = false;
            for (std::size_t r = assignment[i] + 1; r < rings.size(); ++r)
                if (counts[r] < rings[r].cores.size()) outer_space = true;
            if (!outer_space) continue;
            const double cpi = perf_->effective_cpi(
                threads[i].perf, rings[assignment[i]].cores.front(), f_max);
            if (cpi < victim_cpi) {
                victim_cpi = cpi;
                victim = i;
            }
        }
        if (victim == threads.size()) break;
        for (std::size_t r = assignment[victim] + 1; r < rings.size(); ++r) {
            if (counts[r] >= rings[r].cores.size()) continue;
            --counts[assignment[victim]];
            assignment[victim] = r;
            ++counts[r];
            break;
        }
        peak = peak_of(true, tau_idx);
    }
    RotationSetting setting{true, tau_idx, peak};
    if (peak >= limit && tau_idx > 0)
        setting = ladder_.descend(tau_idx - 1, peak_of, safe);

    // Lines 23-27: relax the rotation while safety holds.
    setting = ladder_.relax(
        setting, peak_of, [](double) { return true; },
        [limit](const RotationSetting& next) { return next.peak_c < limit; });

    RotationPlan plan;
    plan.ring_of_thread = std::move(assignment);
    plan.rotation_on = setting.rotation_on;
    plan.tau_s = ladder_[setting.rung];
    plan.predicted_peak_c =
        predicted_peak_c(threads, threads.size(), plan.ring_of_thread,
                         plan.rotation_on, plan.tau_s, scratch);
    plan.thermally_safe = plan.predicted_peak_c < limit;
    plan.throughput_score = throughput_score(threads, plan.ring_of_thread,
                                             plan.rotation_on, plan.tau_s);
    return plan;
}

RotationPlan RotationPlanner::plan_exhaustive(
    const std::vector<ThreadEstimate>& threads, double t_dtm_c,
    double headroom_delta_c, std::size_t max_threads) const {
    if (threads.size() > max_threads)
        throw std::invalid_argument(
            "RotationPlanner: exhaustive search limited to small instances");
    const auto& rings = chip_->rings();
    const double limit = t_dtm_c - headroom_delta_c;

    RotationPlan best_safe;      // highest throughput among safe plans
    RotationPlan best_fallback;  // lowest peak overall
    best_fallback.predicted_peak_c = 1e300;
    bool have_safe = false, have_any = false;

    std::vector<std::size_t> assignment(threads.size(), 0);
    std::vector<std::size_t> counts(rings.size(), 0);
    Scratch scratch;

    const auto evaluate = [&]() {
        // Rotation settings: pinned, or each ladder rung.
        for (std::size_t setting = 0; setting <= ladder_.size(); ++setting) {
            const bool rotation_on = setting > 0;
            const double tau = rotation_on ? ladder_[setting - 1] : ladder_[0];
            RotationPlan plan;
            plan.ring_of_thread = assignment;
            plan.rotation_on = rotation_on;
            plan.tau_s = tau;
            plan.predicted_peak_c =
                predicted_peak_c(threads, threads.size(), assignment,
                                 rotation_on, tau, scratch);
            plan.thermally_safe = plan.predicted_peak_c < limit;
            plan.throughput_score =
                throughput_score(threads, assignment, rotation_on, tau);
            if (plan.thermally_safe &&
                (!have_safe ||
                 plan.throughput_score > best_safe.throughput_score)) {
                best_safe = plan;
                have_safe = true;
            }
            if (!have_any ||
                plan.predicted_peak_c < best_fallback.predicted_peak_c) {
                best_fallback = plan;
                have_any = true;
            }
        }
    };

    const auto recurse = [&](auto&& self, std::size_t i) -> void {
        if (i == threads.size()) {
            evaluate();
            return;
        }
        for (std::size_t r = 0; r < rings.size(); ++r) {
            if (counts[r] >= rings[r].cores.size()) continue;
            assignment[i] = r;
            ++counts[r];
            self(self, i + 1);
            --counts[r];
        }
    };
    recurse(recurse, 0);

    if (!have_any)
        throw std::invalid_argument("RotationPlanner: threads do not fit");
    return have_safe ? best_safe : best_fallback;
}

}  // namespace hp::core

#include "server/advice.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "arch/manycore.hpp"
#include "core/peak_cache.hpp"
#include "power/power_model.hpp"

namespace hp::server {
namespace {

/// A τ grid as the scan walks it: ascending, duplicates dropped.
std::vector<double> ascending_unique(std::vector<double> taus) {
    std::sort(taus.begin(), taus.end());
    taus.erase(std::unique(taus.begin(), taus.end()), taus.end());
    return taus;
}

}  // namespace

AdviceBundle::AdviceBundle(campaign::StudySetup setup, AdviceDefaults defaults)
    : setup_(std::move(setup)),
      defaults_(std::move(defaults)),
      ladder_(ascending_unique(defaults_.tau_ladder_s),
              defaults_.samples_per_epoch) {
    // Idle power evaluated conservatively at the DTM threshold, matching
    // HotPotato's run-time analyzer construction.
    power::PowerModel power(power::PowerParams{}, setup_.chip().dvfs());
    idle_power_w_ = power.idle_power_w(defaults_.t_dtm_c);
    analyzer_ = std::make_unique<core::PeakTemperatureAnalyzer>(
        setup_.solver(), defaults_.ambient_c, idle_power_w_);
    backend_signature_ = setup_.solver().backend_signature();
}

std::size_t AdviceBundle::core_count() const {
    return setup_.chip().core_count();
}

std::size_t AdviceBundle::max_key_words() const {
    return core::PeakKey::max_words(setup_.chip().rings().size(),
                                    core_count());
}

AdviceBundle AdviceBundle::replicate() const {
    return AdviceBundle(setup_.replicate(), defaults_);
}

AdviceResponse advise(const AdviceBundle& bundle,
                      const AdviceRequest& request, AdviceScratch& scratch,
                      core::ConcurrentPeakCache* cache) {
    const arch::ManyCore& chip = bundle.setup().chip();
    const std::vector<arch::AmdRing>& rings = chip.rings();
    const AdviceDefaults& d = bundle.defaults();
    const std::size_t n = chip.core_count();
    const std::size_t threads = request.thread_power_w.size();

    // --- semantic validation (protocol-level framing was already checked) --
    if (threads > n)
        throw std::invalid_argument(
            "advise: " + std::to_string(threads) + " threads exceed the " +
            std::to_string(n) + " cores of config '" + request.config + "'");
    for (double p : request.thread_power_w)
        if (!std::isfinite(p) || p < 0.0)
            throw std::invalid_argument(
                "advise: thread power must be finite and non-negative");
    for (double t : request.tau_grid_s)
        if (!std::isfinite(t) || t <= 0.0)
            throw std::invalid_argument(
                "advise: tau grid entries must be finite and positive");

    // --- quantise (same grid as the run-time schedulers, which is what
    // makes cache hits bit-identical to fresh evaluations) -----------------
    scratch.qpower_.resize(threads);
    for (std::size_t t = 0; t < threads; ++t)
        scratch.qpower_[t] = core::quantise_power_w(request.thread_power_w[t]);

    // --- τ grid: the request's, else the bundle's default ladder ----------
    std::optional<core::TauLadder> request_ladder;
    if (!request.tau_grid_s.empty())
        request_ladder.emplace(ascending_unique(request.tau_grid_s),
                               d.samples_per_epoch);
    const core::TauLadder& ladder =
        request_ladder ? *request_ladder : bundle.ladder();

    // --- placement: request order into the lowest-AMD rings ----------------
    // The online scheduler places *arriving* threads one at a time
    // (Algorithm 2); the oracle answers for a complete thread set, so it
    // fills the performance-preferred low-AMD rings in request order and
    // certifies the whole assignment per rotation setting below.
    AdviceResponse response;
    response.core_of_thread.resize(threads);
    core::idle_ring_specs(rings, bundle.idle_power_w(), scratch.rings_);
    {
        std::size_t ring = 0, slot = 0;
        for (std::size_t t = 0; t < threads; ++t) {
            while (slot >= rings[ring].cores.size()) {
                ++ring;
                slot = 0;
            }
            scratch.rings_[ring].slot_power_w[slot] = scratch.qpower_[t];
            response.core_of_thread[t] =
                static_cast<std::uint32_t>(rings[ring].cores[slot]);
            ++slot;
        }
    }

    const double limit = d.t_dtm_c - d.headroom_delta_c;
    const core::PeakTemperatureAnalyzer& analyzer = bundle.analyzer();
    response.error_bound_c = bundle.setup().solver().error_bound_c();
    scratch.map_.resize(n);

    // --- static candidate (rotation off) -----------------------------------
    if (scratch.static_power_.size() != n) scratch.static_power_.resize(n);
    core::scatter_static_power(scratch.rings_, bundle.idle_power_w(),
                               scratch.static_power_.data(), n);
    if (cache)
        scratch.key_.assign(bundle.backend_signature(), false, 0.0, 0,
                            scratch.rings_);
    const double static_peak =
        core::memoised_peak(cache, scratch.key_, [&] {
            return analyzer.static_peak(scratch.static_power_,
                                        scratch.workspace_);
        });

    if (static_peak < limit) {
        response.rotation_on = 0;
        response.tau_s = 0.0;
        response.thermally_safe = 1;
        // The chosen setting's map is always evaluated fresh; its scalar is
        // the same deterministic computation the (possibly cached) scan
        // value came from, so the response carries identical bits either
        // way.
        response.predicted_peak_c = analyzer.static_peak(
            scratch.static_power_, scratch.workspace_, scratch.map_.data());
        response.peak_core_c = scratch.map_;
        return response;
    }

    // --- rotation scan: slowest safe τ, else fastest-and-unsafe ------------
    const std::size_t samples = ladder.samples_per_epoch();
    const core::RotationSetting scan = ladder.descend(
        ladder.top(),
        [&](bool, std::size_t rung) {
            if (cache)
                scratch.key_.assign(bundle.backend_signature(), true,
                                    ladder[rung], samples, scratch.rings_);
            return core::memoised_peak(cache, scratch.key_, [&] {
                return analyzer.rotation_peak(scratch.rings_, ladder[rung],
                                              samples, scratch.workspace_);
            });
        },
        [limit](double peak) { return peak < limit; });

    response.rotation_on = 1;
    response.tau_s = ladder[scan.rung];
    response.predicted_peak_c =
        analyzer.rotation_peak(scratch.rings_, response.tau_s, samples,
                               scratch.workspace_, scratch.map_.data());
    response.peak_core_c = scratch.map_;
    response.thermally_safe =
        (scan.peak_c < limit || response.predicted_peak_c < limit) ? 1 : 0;
    return response;
}

std::vector<AdviceResponse> advise_batch(
    const AdviceBundle& bundle, const std::vector<AdviceRequest>& requests) {
    AdviceScratch scratch;
    std::vector<AdviceResponse> responses;
    responses.reserve(requests.size());
    for (const AdviceRequest& request : requests)
        responses.push_back(advise(bundle, request, scratch,
                                   /*cache=*/nullptr));
    return responses;
}

}  // namespace hp::server

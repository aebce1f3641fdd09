#include "sched/pcmig.hpp"

#include <algorithm>

#include "linalg/vector.hpp"

namespace hp::sched {

void PcMigScheduler::initialize(sim::SimContext& ctx) {
    PcGovScheduler::initialize(ctx);
    // Borrow the (arena-backed) prediction workspace from the campaign
    // worker's scratch bag when one exists; the steady cache stays per-run —
    // its hit/miss counters are part of the observable record.
    if (exec::WorkerScratch* scratch = ctx.worker_scratch())
        predict_ws_ = &scratch->slot<thermal::ThermalWorkspace>();
    else
        predict_ws_ = &own_predict_ws_;
    obs::Counter* steady_hits = nullptr;
    obs::Counter* steady_misses = nullptr;
    if (obs::Recorder* obs = ctx.observer()) {
        obs_predictions_ = &obs->counter("pcmig.predictions");
        steady_hits = &obs->counter("pcmig.steady_cache_hits");
        steady_misses = &obs->counter("pcmig.steady_cache_misses");
    }
    steady_cache_.count_into(steady_hits, steady_misses);
    backend_sig_ = ctx.solver().backend_signature();
    if (params_.use_peak_cache)
        steady_cache_.configure(
            128, core::PeakKey::max_words(1, ctx.chip().core_count()));
    else
        steady_cache_.configure(0, 0);
}

void PcMigScheduler::on_core_failure(
    sim::SimContext& ctx, std::size_t core,
    const std::vector<sim::ThreadId>& evicted) {
    steady_cache_.invalidate();
    PcGovScheduler::on_core_failure(ctx, core, evicted);
}

const linalg::Vector& PcMigScheduler::predict(sim::SimContext& ctx) {
    if (obs_predictions_) obs_predictions_->add();
    const std::size_t n = ctx.chip().core_count();
    const thermal::ThermalModel& model = ctx.thermal_model();
    const std::size_t big_n = model.node_count();
    if (predict_power_.size() != n) predict_power_ = linalg::Vector(n);
    // Quantised unconditionally so a cached steady state is bit-identical to
    // the solve it replaces (see core::quantise_power_w).
    for (std::size_t c = 0; c < n; ++c)
        predict_power_[c] = core::quantise_power_w(ctx.core_power(c));
    ctx.thermal_model().pad_power_into(predict_power_, predict_node_power_);

    // Steady-state half: memoised under the static PeakKey of the quantised
    // power vector (one ring of every core; the solver-backend identity word
    // keeps backend or tolerance changes from aliasing cached solves). The
    // rest of the pipeline replicates TransientSolver::transient_into step
    // for step, so the prediction matches a direct transient_into call bit
    // for bit.
    if (predict_steady_.size() != big_n)
        predict_steady_ = linalg::Vector(big_n);
    predict_ws_->resize(big_n);
    bool have_steady = false;
    if (steady_cache_.enabled()) {
        key_.begin(backend_sig_, false, 0.0, 0);
        key_.add_ring(predict_power_.data(), n);
        have_steady =
            steady_cache_.lookup(key_.data(), key_.size(), &predict_steady_);
    }
    if (!have_steady) {
        ctx.solver().steady_state_into(predict_node_power_,
                                       ctx.config().ambient_c, *predict_ws_,
                                       predict_steady_);
        steady_cache_.insert(key_.data(), key_.size(), predict_steady_);
    }
    const linalg::Vector& t_init = ctx.temperatures();
    for (std::size_t i = 0; i < big_n; ++i)
        predict_ws_->offset[i] = t_init[i] - predict_steady_[i];
    ctx.solver().apply_exponential_into(predict_ws_->offset,
                                        params_.prediction_horizon_s,
                                        *predict_ws_, predicted_);
    for (std::size_t i = 0; i < big_n; ++i)
        predicted_[i] = predict_steady_[i] + predicted_[i];
    return predicted_;
}

void PcMigScheduler::on_epoch(sim::SimContext& ctx) {
    // DVFS first (PCGov behaviour), then check whether DVFS alone suffices.
    apply_tsp_dvfs(ctx);

    const double limit = ctx.config().t_dtm_c - params_.migration_margin_c;
    for (std::size_t m = 0; m < params_.max_migrations_per_epoch; ++m) {
        const linalg::Vector& predicted = predict(ctx);
        // Hottest predicted core that actually hosts a thread.
        std::size_t hottest = sim::kNone;
        double hottest_t = limit;
        for (std::size_t c = 0; c < ctx.chip().core_count(); ++c) {
            if (ctx.thread_on(c) == sim::kNone) continue;
            if (predicted[c] > hottest_t) {
                hottest_t = predicted[c];
                hottest = c;
            }
        }
        if (hottest == sim::kNone) break;  // nothing is about to overheat

        // Coolest free core as evacuation target.
        std::size_t coolest = sim::kNone;
        double coolest_t = 1e300;
        for (std::size_t c : ctx.free_cores()) {
            if (predicted[c] < coolest_t) {
                coolest_t = predicted[c];
                coolest = c;
            }
        }
        if (coolest == sim::kNone) break;  // fully loaded: DVFS must cope
        if (coolest_t >= hottest_t) break; // no thermal benefit available

        ctx.migrate(ctx.thread_on(hottest), coolest);
        apply_tsp_dvfs(ctx);  // mapping changed; rebudget
    }
}

}  // namespace hp::sched

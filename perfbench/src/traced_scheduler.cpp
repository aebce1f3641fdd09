#include "traced_scheduler.hpp"

#include "spans.hpp"

namespace perfbench {

TracedScheduler::TracedScheduler(std::unique_ptr<hp::sim::Scheduler> inner,
                                 const std::string& family,
                                 DecisionLog* decisions,
                                 ArrivalLog* arrivals)
    : inner_(std::move(inner)), decisions_(decisions), arrivals_(arrivals) {
    Tracer& t = Tracer::instance();
    init_ = t.intern(family + ".init");
    arrival_ = t.intern(family + ".arrival");
    finish_ = t.intern(family + ".finish");
    failure_ = t.intern(family + ".failure");
    recovery_ = t.intern(family + ".recovery");
    epoch_ = t.intern(family + ".epoch");
    step_ = t.intern(family + ".step");
    t.new_trace();
    run_span_ = t.begin(t.intern("sim.run"));
}

TracedScheduler::~TracedScheduler() {
    if (run_span_ != 0) Tracer::instance().end(run_span_);
    if (decisions_ != nullptr && !latency_ns_.empty()) {
        std::lock_guard<std::mutex> lock(decisions_->mutex);
        decisions_->per_thread_ns.insert(decisions_->per_thread_ns.end(),
                                         latency_ns_.begin(),
                                         latency_ns_.end());
        decisions_->threads_placed += threads_placed_;
    }
    if (arrivals_ != nullptr) {
        std::lock_guard<std::mutex> lock(arrivals_->mutex);
        arrivals_->runs.push_back(std::move(arrival_run_));
    }
}

void TracedScheduler::initialize(hp::sim::SimContext& ctx) {
    Span span(init_);
    arrival_run_.cores = ctx.chip().core_count();
    inner_->initialize(ctx);
}

bool TracedScheduler::on_task_arrival(hp::sim::SimContext& ctx,
                                      hp::sim::TaskId task) {
    Span span(arrival_);
    const std::int64_t start = decisions_ ? now_ns() : 0;
    const bool placed = inner_->on_task_arrival(ctx, task);
    if (decisions_ && placed) {
        const std::size_t threads = ctx.task(task).thread_count;
        latency_ns_.push_back(static_cast<double>(now_ns() - start) /
                              static_cast<double>(threads));
        threads_placed_ += threads;
    }
    if (arrivals_) arrival_run_.calls.push_back({task, placed});
    span.set_arg(placed ? 1.0 : 0.0);
    return placed;
}

void TracedScheduler::on_task_finish(hp::sim::SimContext& ctx,
                                     hp::sim::TaskId task) {
    Span span(finish_);
    inner_->on_task_finish(ctx, task);
}

void TracedScheduler::on_core_failure(
    hp::sim::SimContext& ctx, std::size_t core,
    const std::vector<hp::sim::ThreadId>& evicted) {
    Span span(failure_);
    inner_->on_core_failure(ctx, core, evicted);
}

void TracedScheduler::on_core_recovery(hp::sim::SimContext& ctx,
                                       std::size_t core) {
    Span span(recovery_);
    inner_->on_core_recovery(ctx, core);
}

void TracedScheduler::on_epoch(hp::sim::SimContext& ctx) {
    Span span(epoch_);
    inner_->on_epoch(ctx);
}

void TracedScheduler::on_step(hp::sim::SimContext& ctx) {
    Span span(step_);
    inner_->on_step(ctx);
}

}  // namespace perfbench

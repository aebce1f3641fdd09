#pragma once

// Forwarding sim::Scheduler decorator. Each hook forwards to the wrapped
// scheduler inside a span named "<family>.<hook>" ("core.arrival",
// "sched.pcmig.epoch", ...); the decorator's own lifetime is a "sim.run"
// span, so solver and hook spans of one simulation share a trace. Arrival
// latencies can also be collected with tracing off, for the end-to-end
// decision metrics.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace perfbench {

/// The arrival decisions that placed their task (declined re-offers are
/// left out), gathered across runs and worker threads. Each decision is one
/// sample: its latency divided by the threads it placed, so tasks of 2 and
/// of 16 threads give comparable samples.
struct DecisionLog {
    std::mutex mutex;
    std::vector<double> per_thread_ns;  ///< one sample per decision
    std::uint64_t threads_placed = 0;
};

/// Every on_task_arrival call of one simulation, in order: the traffic a
/// HotPotato that asked an advice server at each arrival would send. A
/// re-offer of a pending task repeats that task's request exactly.
struct ArrivalCall {
    hp::sim::TaskId task;
    bool placed;
};
struct ArrivalRun {
    std::size_t cores = 0;
    std::vector<ArrivalCall> calls;
};
struct ArrivalLog {
    std::mutex mutex;
    std::vector<ArrivalRun> runs;
};

class TracedScheduler final : public hp::sim::Scheduler {
public:
    /// @p decisions (may be null) receives the placing on_task_arrival
    /// calls, and @p arrivals (may be null) every on_task_arrival call,
    /// when the decorator is destroyed; both must outlive the decorator.
    TracedScheduler(std::unique_ptr<hp::sim::Scheduler> inner,
                    const std::string& family, DecisionLog* decisions,
                    ArrivalLog* arrivals = nullptr);
    ~TracedScheduler() override;
    TracedScheduler(const TracedScheduler&) = delete;
    TracedScheduler& operator=(const TracedScheduler&) = delete;

    std::string name() const override { return inner_->name(); }
    void initialize(hp::sim::SimContext& ctx) override;
    bool on_task_arrival(hp::sim::SimContext& ctx,
                         hp::sim::TaskId task) override;
    void on_task_finish(hp::sim::SimContext& ctx,
                        hp::sim::TaskId task) override;
    void on_core_failure(hp::sim::SimContext& ctx, std::size_t core,
                         const std::vector<hp::sim::ThreadId>& evicted)
        override;
    void on_core_recovery(hp::sim::SimContext& ctx,
                          std::size_t core) override;
    void on_epoch(hp::sim::SimContext& ctx) override;
    void on_step(hp::sim::SimContext& ctx) override;

private:
    std::unique_ptr<hp::sim::Scheduler> inner_;
    DecisionLog* decisions_;
    ArrivalLog* arrivals_;
    ArrivalRun arrival_run_;
    std::vector<double> latency_ns_;  ///< per placed thread, per decision
    std::uint64_t threads_placed_ = 0;
    std::uint64_t run_span_ = 0;
    std::uint32_t init_, arrival_, finish_, failure_, recovery_, epoch_,
        step_;
};

}  // namespace perfbench

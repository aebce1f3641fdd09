#include "selftest.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "campaign/study_setup.hpp"
#include "core/hotpotato.hpp"
#include "sched/pcmig.hpp"
#include "spans.hpp"
#include "traced_scheduler.hpp"
#include "traced_solver.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("selftest %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++g_failures;
}

std::unique_ptr<hp::sim::Scheduler> make(const std::string& name) {
    if (name == "hotpotato")
        return std::make_unique<hp::core::HotPotatoScheduler>();
    return std::make_unique<hp::sched::PcMigScheduler>();
}

/// A short simulation run plain and through both decorators (tracing on)
/// must give byte-identical results.
void decorators_are_transparent(const hp::campaign::StudySetup& setup,
                                const std::string& label) {
    const std::size_t cores = setup.chip().core_count();
    hp::sim::SimConfig config;
    config.max_sim_time_s = 0.03;
    config.trace_interval_s = 1e-3;
    const auto tasks =
        hp::workload::poisson_mix(8, 400.0, 2, cores / 4, 11);
    for (const std::string name : {"hotpotato", "pcmig"}) {
        hp::sim::Simulator plain = setup.make_simulator(config);
        plain.add_tasks(tasks);
        const auto scheduler = make(name);
        const std::string expected = serialize(plain.run(*scheduler));

        Tracer::instance().enable(true);
        const TracedSolver solver(setup.solver());
        hp::sim::Simulator traced(setup.chip(), setup.model(), solver,
                                  config);
        traced.add_tasks(tasks);
        std::string actual;
        {
            TracedScheduler decorated(make(name), "selftest", nullptr);
            actual = serialize(traced.run(decorated));
        }
        const std::size_t spans = Tracer::instance().collect().size();
        Tracer::instance().enable(false);
        Tracer::instance().clear();
        expect(actual == expected && spans > 0,
               label + " " + name + " through both decorators is " +
                   "byte-identical (" + std::to_string(spans) + " spans)");
    }
}

void percentile_routine() {
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);
    expect(tail_percentile(v, 99) == 990.0, "p99 of 1..1000 is 990");
    expect(tail_percentile(v, 50) == 500.0, "p50 of 1..1000 is 500");
    v.resize(100);  // values 901..1000
    expect(tail_percentile(v, 99) == 990.0,
           "p99 of 100 samples is capped at rank 90 (10 samples beyond)");
    expect(tail_percentile({3, 1, 2}, 99) == 1.0,
           "fewer than 11 samples report the minimum");
    expect(tail_percentile({}, 50) == 0.0, "empty set reports 0");
}

void self_time_arithmetic() {
    // parent [0,100]; children [10,30] and [20,40] overlap (union 30) and
    // [90,120] is clipped to [90,100]; the grandchild [12,14] belongs to
    // the first child only.
    std::vector<SpanRecord> s(5);
    s[0] = {1, 1, 0, 0, 0, 100, 0};
    s[1] = {1, 2, 1, 0, 10, 30, 0};
    s[2] = {1, 3, 1, 0, 20, 40, 0};
    s[3] = {1, 4, 1, 0, 90, 120, 0};
    s[4] = {1, 5, 2, 0, 12, 14, 0};
    const std::vector<double> self = self_times_ns(s);
    expect(self[0] == 60.0, "parent self time = 100 - union(children) = 60");
    expect(self[1] == 18.0, "child self time excludes its own child");
    expect(self[3] == 30.0, "leaf self time is its duration");
}

}  // namespace

int run_selftest() {
    g_failures = 0;
    decorators_are_transparent(hp::campaign::StudySetup::paper_16core(),
                               "paper_16core");
    decorators_are_transparent(hp::campaign::StudySetup::paper_64core(),
                               "paper_64core");
    percentile_routine();
    self_time_arithmetic();
    std::printf("selftest: %d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench

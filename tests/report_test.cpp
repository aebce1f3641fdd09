#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "campaign/study_setup.hpp"
#include "core/hotpotato.hpp"
#include "sched/pcgov.hpp"
#include "workload/benchmark.hpp"

namespace {

const hp::campaign::StudySetup& setup() {
    static const hp::campaign::StudySetup s =
        hp::campaign::StudySetup::paper_16core();
    return s;
}

hp::campaign::CampaignSpec make_spec() {
    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = 10.0;
    hp::campaign::CampaignSpec spec(setup(), cfg);
    spec.add_scheduler("HotPotato", [] {
        return std::make_unique<hp::core::HotPotatoScheduler>();
    });
    spec.add_scheduler("PCGov", [] {
        return std::make_unique<hp::sched::PcGovScheduler>();
    });
    spec.add_workload(
        "bs2", {{&hp::workload::profile_by_name("blackscholes"), 2, 0.0}});
    spec.add_workload(
        "mix", {{&hp::workload::profile_by_name("canneal"), 4, 0.0},
                {&hp::workload::profile_by_name("x264"), 4, 0.0}});
    return spec;
}

TEST(Report, RunsEveryCombination) {
    hp::campaign::CampaignOptions options;
    options.jobs = 1;
    const auto records =
        hp::campaign::run_campaign(make_spec(), options).records;
    ASSERT_EQ(records.size(), 4u);  // 2 schedulers x 2 workloads
    EXPECT_EQ(records[0].key.workload, "bs2");
    EXPECT_EQ(records[0].key.scheduler, "HotPotato");
    EXPECT_EQ(records[1].key.scheduler, "PCGov");
    EXPECT_EQ(records[2].key.workload, "mix");
    for (const hp::campaign::RunRecord& r : records) {
        EXPECT_FALSE(r.failed) << r.error;
        EXPECT_TRUE(r.result.all_finished);
        EXPECT_GT(r.result.makespan_s, 0.0);
    }
}

TEST(Report, NullFactoryRejected) {
    hp::campaign::CampaignSpec spec(setup(), hp::sim::SimConfig{});
    EXPECT_THROW(spec.add_scheduler("bad", nullptr), std::invalid_argument);
}

}  // namespace

// Tests for post-reproduction extensions: response-time percentile
// statistics.

#include <gtest/gtest.h>

#include "sim/types.hpp"

namespace {

// ---------------------------------------------------------- percentiles ---

hp::sim::SimResult fake_result(std::initializer_list<double> responses) {
    hp::sim::SimResult r;
    std::size_t id = 0;
    for (double resp : responses) {
        hp::sim::TaskResult t;
        t.id = id++;
        t.arrival_s = 0.0;
        t.finish_s = resp;
        r.tasks.push_back(t);
    }
    return r;
}

TEST(Percentiles, NearestRankSemantics) {
    const auto r = fake_result({0.1, 0.2, 0.3, 0.4, 0.5});
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(0.0), 0.1);
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(20.0), 0.1);
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(50.0), 0.3);
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(90.0), 0.5);
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(100.0), 0.5);
}

TEST(Percentiles, UnsortedInputHandled) {
    const auto r = fake_result({0.5, 0.1, 0.3});
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(50.0), 0.3);
    EXPECT_DOUBLE_EQ(r.response_time_percentile_s(100.0), 0.5);
}

TEST(Percentiles, EdgeCases) {
    const hp::sim::SimResult empty;
    EXPECT_DOUBLE_EQ(empty.response_time_percentile_s(50.0), 0.0);
    const auto r = fake_result({0.2});
    EXPECT_THROW((void)r.response_time_percentile_s(-1.0),
                 std::invalid_argument);
    EXPECT_THROW((void)r.response_time_percentile_s(101.0),
                 std::invalid_argument);
}

}  // namespace

// End-to-end integration: generator -> collector -> transport ->
// consolidation -> aggregates, in both pipeline modes, with and without
// packet loss.

#include <gtest/gtest.h>

#include "core/siren.hpp"
#include "util/rng.hpp"

using siren::CampaignResult;
using siren::FrameworkOptions;
namespace sw = siren::workload;

namespace {

FrameworkOptions base_options() {
    FrameworkOptions o;
    o.scale = 1.0;
    o.seed = 11;
    o.threads = 2;
    return o;
}

}  // namespace

TEST(Framework, MiniCampaignInlineMode) {
    const CampaignResult result = run_campaign(sw::mini_campaign(), base_options());

    EXPECT_GT(result.totals.processes, 100u);
    EXPECT_EQ(result.processes_collected, result.totals.processes);
    EXPECT_EQ(result.collection_errors, 0u);
    EXPECT_EQ(result.datagrams_lost, 0u);
    EXPECT_GT(result.datagrams_sent, result.totals.processes);  // several per process

    // All three users appear with jobs.
    EXPECT_EQ(result.aggregates.users.size(), 3u);
    EXPECT_EQ(result.aggregates.all_jobs.size(), result.totals.jobs);
    EXPECT_EQ(result.aggregates.total_processes, result.totals.processes);
}

TEST(Framework, DatabaseModeMatchesInlineMode) {
    auto options = base_options();
    const CampaignResult inline_result = run_campaign(sw::mini_campaign(), options);

    options.use_database = true;
    const CampaignResult db_result = run_campaign(sw::mini_campaign(), options);

    ASSERT_NE(db_result.database, nullptr);
    EXPECT_GT(db_result.records.size(), 0u);

    // Same campaign, same seed: identical aggregate marginals.
    EXPECT_EQ(db_result.aggregates.total_processes, inline_result.aggregates.total_processes);
    EXPECT_EQ(db_result.aggregates.execs.size(), inline_result.aggregates.execs.size());
    for (const auto& [path, exe] : inline_result.aggregates.execs) {
        auto it = db_result.aggregates.execs.find(path);
        ASSERT_NE(it, db_result.aggregates.execs.end()) << path;
        EXPECT_EQ(it->second.processes, exe.processes) << path;
        EXPECT_EQ(it->second.users, exe.users) << path;
        EXPECT_EQ(it->second.object_variants.size(), exe.object_variants.size()) << path;
        EXPECT_EQ(it->second.file_hashes, exe.file_hashes) << path;
    }
}

TEST(Framework, CollectionIsLosslessWithoutLossInjection) {
    const CampaignResult result = run_campaign(sw::mini_campaign(), base_options());
    EXPECT_EQ(result.aggregates.records_with_missing_fields, 0u);
    EXPECT_EQ(result.aggregates.jobs_with_missing_fields.size(), 0u);
}

TEST(Framework, LossInjectionMarksMissingFields) {
    auto options = base_options();
    options.loss_rate = 0.05;
    const CampaignResult result = run_campaign(sw::mini_campaign(), options);

    EXPECT_GT(result.datagrams_lost, 0u);
    // Some records lose fields entirely or partially; the accounting must
    // notice at this loss rate on a campaign this size.
    EXPECT_GT(result.aggregates.records_with_missing_fields +
                  result.aggregates.jobs_with_missing_fields.size(),
              0u);
}

TEST(Framework, LossIsDeterministicPerSeed) {
    auto options = base_options();
    options.loss_rate = 0.03;
    const CampaignResult a = run_campaign(sw::mini_campaign(), options);
    const CampaignResult b = run_campaign(sw::mini_campaign(), options);
    EXPECT_EQ(a.datagrams_lost, b.datagrams_lost);
    EXPECT_EQ(a.aggregates.records_with_missing_fields,
              b.aggregates.records_with_missing_fields);

    options.seed = 999;
    const CampaignResult c = run_campaign(sw::mini_campaign(), options);
    EXPECT_NE(a.datagrams_lost, c.datagrams_lost);  // overwhelmingly likely
}

TEST(Framework, DatabaseModeLossIsDeterministicPerSeed) {
    auto options = base_options();
    options.loss_rate = 0.03;
    options.use_database = true;
    const CampaignResult a = run_campaign(sw::mini_campaign(), options);
    const CampaignResult b = run_campaign(sw::mini_campaign(), options);
    EXPECT_EQ(a.datagrams_lost, b.datagrams_lost);
    EXPECT_EQ(a.aggregates.records_with_missing_fields,
              b.aggregates.records_with_missing_fields);
    EXPECT_EQ(a.aggregates.jobs_with_missing_fields, b.aggregates.jobs_with_missing_fields);

    // Database mode draws once per datagram, in send order, from one
    // Rng(seed): the lost count is exactly the stream's true draws.
    siren::util::Rng rng(options.seed);
    std::uint64_t expected_lost = 0;
    for (std::uint64_t i = 0; i < a.datagrams_sent; ++i) {
        if (rng.chance(options.loss_rate)) ++expected_lost;
    }
    EXPECT_GT(expected_lost, 0u);
    EXPECT_EQ(a.datagrams_lost, expected_lost);
}

TEST(Framework, ThreadCountDoesNotChangeAggregates) {
    auto options = base_options();
    options.threads = 1;
    const CampaignResult serial = run_campaign(sw::mini_campaign(), options);
    options.threads = 8;
    const CampaignResult parallel = run_campaign(sw::mini_campaign(), options);

    EXPECT_EQ(serial.aggregates.total_processes, parallel.aggregates.total_processes);
    EXPECT_EQ(serial.aggregates.execs.size(), parallel.aggregates.execs.size());
    for (const auto& [path, exe] : serial.aggregates.execs) {
        auto it = parallel.aggregates.execs.find(path);
        ASSERT_NE(it, parallel.aggregates.execs.end());
        EXPECT_EQ(it->second.processes, exe.processes);
        EXPECT_EQ(it->second.jobs, exe.jobs);
    }
}

TEST(Framework, EnvOptionsParse) {
    ::setenv("SIREN_SCALE", "0.25", 1);
    ::setenv("SIREN_LOSS", "0.001", 1);
    ::setenv("SIREN_SEED", "77", 1);
    const FrameworkOptions o = FrameworkOptions::from_env();
    EXPECT_DOUBLE_EQ(o.scale, 0.25);
    EXPECT_DOUBLE_EQ(o.loss_rate, 0.001);
    EXPECT_EQ(o.seed, 77u);
    ::unsetenv("SIREN_SCALE");
    ::unsetenv("SIREN_LOSS");
    ::unsetenv("SIREN_SEED");
}

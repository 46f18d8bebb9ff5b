#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analytics/aggregate.hpp"
#include "consolidate/consolidator.hpp"
#include "db/database.hpp"
#include "workload/campaign.hpp"
#include "workload/generator.hpp"

namespace siren {

/// End-to-end pipeline configuration.
struct FrameworkOptions {
    /// Campaign scale; 1.0 = the paper's process counts. Read from the
    /// SIREN_SCALE environment variable by from_env().
    double scale = 1.0;
    /// UDP datagram loss probability (deterministic, seeded).
    double loss_rate = 0.0;
    std::uint64_t seed = 42;
    /// Worker threads for generation+collection; 0 = hardware concurrency.
    std::size_t threads = 0;
    /// Database mode: store every raw message before consolidating (the
    /// paper's receiver->SQLite path) instead of running the O(1)-memory
    /// inline pipeline. Datagrams pass a seeded loss draw into an
    /// in-process ingest::IngestServer whose handler inserts them into the
    /// messages table. Only sensible at small scales; the full campaign
    /// produces ~10M messages.
    bool use_database = false;
    /// Database mode only: non-empty journals every raw datagram to a
    /// durable segment store rooted here before it is decoded. Recover
    /// with db::replay_segments().
    std::string durable_dir;

    /// Defaults overridden by SIREN_SCALE / SIREN_SEED / SIREN_THREADS /
    /// SIREN_LOSS / SIREN_DURABLE_DIR when set.
    static FrameworkOptions from_env();
};

/// Everything a campaign run produces.
struct CampaignResult {
    analytics::Aggregates aggregates;
    workload::CampaignTotals totals;

    // Transport accounting.
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_lost = 0;
    std::uint64_t datagrams_malformed = 0;

    // Collector accounting.
    std::uint64_t processes_collected = 0;
    std::uint64_t collection_errors = 0;

    // Durable-mode accounting (database mode with a segment store).
    std::uint64_t wal_records = 0;  ///< raw datagrams journaled to segments
    std::uint64_t wal_bytes = 0;    ///< framed bytes appended to segments

    /// Populated in database mode only.
    std::unique_ptr<db::Database> database;
    std::vector<consolidate::ProcessRecord> records;

    double wall_seconds = 0.0;
};

/// Run a full SIREN campaign: synthesize the workload, hook every process
/// (collector), ship chunked datagrams through a lossy channel, reassemble
/// and consolidate records, and fold them into analytics aggregates.
///
/// Inline mode (default) runs per-process collection->consolidation with
/// O(#executables) memory and shards jobs across threads; database mode
/// reproduces the paper's receiver/SQLite architecture end to end.
CampaignResult run_campaign(const workload::CampaignSpec& spec, const FrameworkOptions& options);

/// Convenience: the paper's LUMI campaign with environment-driven options.
CampaignResult run_lumi_campaign();

}  // namespace siren

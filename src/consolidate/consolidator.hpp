#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "consolidate/record.hpp"
#include "db/database.hpp"
#include "net/message.hpp"

namespace siren::consolidate {

/// Post-processing outcome plus the loss accounting the paper reports
/// ("approximately 0.02% of the jobs have missing fields that can be
/// attributed to the loss of UDP messages").
struct ConsolidationResult {
    std::vector<ProcessRecord> records;

    std::uint64_t total_jobs = 0;
    std::uint64_t jobs_with_missing_fields = 0;
    std::uint64_t processes_with_missing_fields = 0;
    std::uint64_t incomplete_field_groups = 0;

    double job_missing_ratio() const {
        return total_jobs == 0
                   ? 0.0
                   : static_cast<double>(jobs_with_missing_fields) / static_cast<double>(total_jobs);
    }
};

/// Merge raw UDP messages into one record per process:
///  - chunks of one (process, layer, type) are reassembled in SEQ order;
///  - SCRIPT-layer rows (Python input scripts) are merged into their parent
///    interpreter row;
///  - the process category (system/user/python) is derived from the
///    executable path;
///  - Python package imports are extracted from interpreter memory maps;
///  - fields whose chunks were lost are listed per record, never dropped.
ConsolidationResult consolidate(const std::vector<net::Message>& messages);

/// Same semantics over zero-copy views (the inline campaign path): chunk
/// grouping and reassembly never copy or unescape a byte until a field's
/// content is materialized for its record. The views' backing bytes must
/// stay alive for the duration of the call.
ConsolidationResult consolidate(std::span<const net::MessageView> messages);

/// Same, reading from the raw-message table (db::kMessagesTable) that an
/// ingest handler populated.
ConsolidationResult consolidate(const db::Database& db);

/// Stateful variant of the view overload for steady-state callers (one per
/// campaign shard): grouping and reassembly scratch is retained between
/// calls, so consolidating one process's flush performs no per-message heap
/// allocation once capacities are warm.
class ViewConsolidator {
public:
    ConsolidationResult consolidate(std::span<const net::MessageView> messages);

private:
    /// One (process, layer, type) chunk, tagged for in-place run sorting.
    struct ChunkRef {
        std::uint32_t group = 0;
        net::Layer layer = net::Layer::kSelf;
        net::MsgType type = net::MsgType::kFileMeta;
        std::uint32_t seq = 0;
        std::uint32_t total = 1;
        std::uint32_t arrival = 0;  ///< tie-break so duplicate SEQs keep the first arrival
        std::string_view content;
        bool escaped = false;
    };
    /// Identity of one process (views into the caller's message bytes).
    struct GroupRef {
        std::uint64_t job_id = 0;
        std::uint32_t step_id = 0;
        std::int64_t pid = 0;
        std::string_view exe_hash;
        std::string_view host;
        bool host_escaped = false;
        std::int64_t time = 0;
    };

    std::vector<ChunkRef> chunks_;   // reused across calls
    std::vector<GroupRef> groups_;   // reused across calls
    std::string scratch_;            // reused content-assembly buffer
};

}  // namespace siren::consolidate

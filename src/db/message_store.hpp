#pragma once

#include <cstdint>
#include <string>

#include "db/database.hpp"
#include "net/message.hpp"
#include "storage/segment.hpp"

namespace siren::db {

/// Name of the raw-message table every receive handler writes into.
inline constexpr const char* kMessagesTable = "messages";

/// Create the raw UDP-message table with the paper's column set
/// (JOBID, STEPID, PID, HASH, HOST, TIME, LAYER, TYPE + SEQ/TOTAL/CONTENT).
Table& create_message_table(Database& db);

/// Append one decoded message as a row.
void insert_message(Table& table, const net::Message& m);

/// Reconstruct a net::Message from a stored row (used by consolidation).
net::Message message_from_row(const Table& table, std::size_t row);

/// Outcome of rebuilding the messages table from a segment directory.
struct SegmentReplayResult {
    storage::ReplayStats storage;    ///< segment-level accounting (tears, CRC)
    std::uint64_t inserted = 0;      ///< records decoded and inserted as rows
    std::uint64_t malformed = 0;     ///< records that were not SIREN datagrams
};

/// Crash recovery: decode every complete record under `directory` (see
/// storage::replay_directory) and insert it into `db`'s messages table,
/// creating the table if needed. Torn tails and checksum failures are
/// reported in the result, never thrown.
SegmentReplayResult replay_segments(const std::string& directory, Database& db);

}  // namespace siren::db

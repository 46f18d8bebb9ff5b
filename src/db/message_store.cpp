#include "db/message_store.hpp"

#include "net/codec.hpp"
#include "util/error.hpp"

namespace siren::db {

Table& create_message_table(Database& db) {
    return db.create_table(kMessagesTable, {
                                               {"JOBID", ColumnType::kInt},
                                               {"STEPID", ColumnType::kInt},
                                               {"PID", ColumnType::kInt},
                                               {"HASH", ColumnType::kText},
                                               {"HOST", ColumnType::kText},
                                               {"TIME", ColumnType::kInt},
                                               {"LAYER", ColumnType::kText},
                                               {"TYPE", ColumnType::kText},
                                               {"SEQ", ColumnType::kInt},
                                               {"TOTAL", ColumnType::kInt},
                                               {"CONTENT", ColumnType::kText},
                                           });
}

void insert_message(Table& table, const net::Message& m) {
    table.append({
        static_cast<std::int64_t>(m.job_id),
        static_cast<std::int64_t>(m.step_id),
        m.pid,
        m.exe_hash,
        m.host,
        m.time,
        std::string(net::to_string(m.layer)),
        std::string(net::to_string(m.type)),
        static_cast<std::int64_t>(m.seq),
        static_cast<std::int64_t>(m.total),
        m.content,
    });
}

net::Message message_from_row(const Table& table, std::size_t row) {
    net::Message m;
    m.job_id = static_cast<std::uint64_t>(table.get_int(row, "JOBID"));
    m.step_id = static_cast<std::uint32_t>(table.get_int(row, "STEPID"));
    m.pid = table.get_int(row, "PID");
    m.exe_hash = table.get_text(row, "HASH");
    m.host = table.get_text(row, "HOST");
    m.time = table.get_int(row, "TIME");
    m.layer = net::layer_from_string(table.get_text(row, "LAYER"));
    m.type = net::msg_type_from_string(table.get_text(row, "TYPE"));
    m.seq = static_cast<std::uint32_t>(table.get_int(row, "SEQ"));
    m.total = static_cast<std::uint32_t>(table.get_int(row, "TOTAL"));
    m.content = table.get_text(row, "CONTENT");
    return m;
}

SegmentReplayResult replay_segments(const std::string& directory, Database& db) {
    SegmentReplayResult result;
    Table& table =
        db.has_table(kMessagesTable) ? db.table(kMessagesTable) : create_message_table(db);
    result.storage = storage::replay_directory(directory, [&](std::string_view record) {
        try {
            insert_message(table, net::decode(record));
            ++result.inserted;
        } catch (const util::ParseError&) {
            ++result.malformed;
        }
    });
    return result;
}

}  // namespace siren::db

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/tcp.hpp"

namespace siren::serve {

/// Segment-shipping replication — the scale-out layer of the recognition
/// service. The leader's durable segment directory (the ingest WAL plus
/// the service's own observe WAL) *is* the replicated log: a
/// ReplicationSource streams raw segment bytes over TCP from whatever
/// per-file byte watermark a follower announces, and a ReplicationSink
/// writes those bytes into a local segment directory that the follower's
/// existing SegmentTail -> RecognitionService pipeline consumes unchanged.
/// Nothing is re-framed and nothing is interpreted in flight; the record
/// CRCs written by the leader's SegmentWriter travel with the bytes and
/// are verified by the follower's tail exactly as they would be locally.
///
/// Transport framing is net::append_frame/parse_frame (4-byte little-endian
/// length + payload, at most net::kMaxFrameBytes). Payloads:
///
///   follower -> leader:  "SUBSCRIBE\n" ("have " name ' ' size "\n")*
///   leader -> follower:  "DATA " name ' ' offset ' ' crc32c "\n" bytes
///
/// The watermark is simply the follower's local file sizes, so it is
/// durable by construction (the files are the watermark) and resubscribing
/// after any disconnect, crash, or restart resumes at exactly the first
/// missing byte. Each DATA chunk carries a crc32c over its bytes; a
/// mismatch (or any malformed frame) drops the connection and the follower
/// reconnects and re-requests from its watermark. Full protocol grammar,
/// convergence argument and failure matrix: docs/replication.md.

/// Tuning for one ReplicationSource (leader side).
struct ReplicationSourceOptions {
    /// TCP port; 0 binds an ephemeral port (see port()).
    std::uint16_t port = 0;
    std::string bind_address = "127.0.0.1";
    /// Segment directory to serve (the leader's durable WAL).
    std::string segments_dir;
    /// How often the loop rescans the directory for new bytes when no
    /// socket events arrive.
    std::chrono::milliseconds poll{50};
    /// Bytes per DATA chunk (one frame).
    std::size_t chunk_bytes = 256u << 10;
};

/// Aggregated ReplicationSource counters.
struct ReplicationSourceStats {
    std::uint64_t connections = 0;      ///< accepted
    std::uint64_t rejected = 0;         ///< closed at accept: 64 followers connected
    std::uint64_t subscriptions = 0;    ///< SUBSCRIBE frames handled
    std::uint64_t chunks_sent = 0;      ///< DATA frames queued
    std::uint64_t bytes_shipped = 0;    ///< segment payload bytes queued
    std::uint64_t protocol_errors = 0;  ///< garbage frames (connection dropped)
    std::uint64_t accept_stalls = 0;    ///< listener disarmed: fd exhaustion (EMFILE/ENFILE)
};

/// Leader-side replication server on the shared framed-TCP loop
/// (net::TcpServer). Its frame hook reads SUBSCRIBE frames; its wake hook,
/// on every loop wake-up and at least every `poll`, ships every subscribed
/// follower with buffer room the byte ranges its watermark is missing, in
/// the canonical (stream prefix, numeric sequence) segment order — sealed
/// and live files alike, via storage::read_segment_range. At most 4 MiB
/// per follower wait unsent: a slow follower stalls its own stream, not
/// the leader's memory.
class ReplicationSource {
public:
    /// Binds and starts the loop thread; throws util::SystemError when the
    /// socket cannot be created/bound.
    explicit ReplicationSource(ReplicationSourceOptions options);

    ReplicationSource(const ReplicationSource&) = delete;
    ReplicationSource& operator=(const ReplicationSource&) = delete;

    std::uint16_t port() const { return server_.port(); }

    /// Close the listener and every connection, join the loop; idempotent.
    void stop() { server_.stop(); }

    ReplicationSourceStats stats() const;

private:
    /// A subscribed follower's state: name -> next byte to ship (from its
    /// watermark).
    using Offsets = std::map<std::string, std::uint64_t>;

    /// One segment file's current state, snapshotted once per wake-up and
    /// shared across every follower's pump.
    struct SegmentState {
        std::string path;
        std::string name;
        std::uint64_t size = 0;
    };

    /// Frame hook: parse a SUBSCRIBE; false on anything else.
    bool subscribe(net::TcpServer::Connection& conn, std::string_view payload);
    /// Wake hook: pump every subscribed follower.
    void ship(std::span<net::TcpServer::Connection* const> connections);
    /// Queue missing byte ranges for one follower, up to the buffer cap.
    void pump(net::TcpServer::Connection& conn, Offsets& offsets,
              const std::vector<SegmentState>& segments);

    ReplicationSourceOptions options_;
    std::string chunk_;  ///< reused read buffer
    std::atomic<std::uint64_t> subscriptions_{0};
    std::atomic<std::uint64_t> chunks_sent_{0};
    std::atomic<std::uint64_t> bytes_shipped_{0};
    net::TcpServer server_;  ///< last: its thread uses the members above
};

/// ReplicationSink counters (atomics: the follower thread writes while
/// operators and tests read).
struct ReplicationSinkStats {
    std::atomic<std::uint64_t> chunks{0};           ///< DATA frames applied
    std::atomic<std::uint64_t> bytes{0};            ///< segment bytes appended
    std::atomic<std::uint64_t> duplicate_bytes{0};  ///< re-shipped bytes skipped
    std::atomic<std::uint64_t> crc_failures{0};     ///< chunk crc mismatches (drop)
    std::atomic<std::uint64_t> protocol_errors{0};  ///< malformed/unsafe frames (drop)
    std::atomic<std::uint64_t> io_errors{0};        ///< local append failures (drop)
};

/// Follower-side sink: validates DATA frames and appends their bytes to
/// `<directory>/<name>`. The local files double as the durable replication
/// watermark — subscribe_payload() is just a directory scan. Not
/// thread-safe; owned by the follower thread (stats are atomics so other
/// threads may read them).
class ReplicationSink {
public:
    /// Creates `directory` when missing (throws util::SystemError on
    /// failure — a follower must be loud about an unwritable replica dir).
    explicit ReplicationSink(std::string directory);

    /// The SUBSCRIBE payload for the current local state.
    std::string subscribe_payload() const;

    /// Apply one DATA frame. False = the stream can no longer be trusted
    /// (crc mismatch, malformed header, offset gap, local I/O failure);
    /// the caller must drop the connection and resubscribe from the
    /// watermark. `error` receives the reason.
    bool apply_chunk(std::string_view payload, std::string& error);

    const ReplicationSinkStats& stats() const { return stats_; }
    const std::string& directory() const { return directory_; }

private:
    std::string directory_;
    ReplicationSinkStats stats_;
};

/// Tuning for one ReplicationFollower.
struct ReplicationFollowerOptions {
    std::string leader_host = "127.0.0.1";
    std::uint16_t leader_port = 0;
    /// Local replica segment directory (the sink's target).
    std::string directory;
    std::chrono::milliseconds connect_timeout{5000};
    /// Floor of the reconnect pause. Consecutive failed connects double the
    /// pause from here (with jitter) up to reconnect_backoff_cap; the first
    /// retry after a working session starts back at the floor. Jitter keeps
    /// a fleet of followers from probing a recovering leader in lockstep.
    std::chrono::milliseconds reconnect_backoff{500};
    /// Ceiling of the exponential reconnect backoff.
    std::chrono::milliseconds reconnect_backoff_cap{10000};
};

/// ReplicationFollower counters.
struct ReplicationFollowerStats {
    std::uint64_t connects = 0;     ///< sessions established (SUBSCRIBE sent)
    std::uint64_t disconnects = 0;  ///< sessions ended (error, EOF, or drop)
    std::uint64_t chunks = 0;
    std::uint64_t bytes = 0;             ///< segment bytes appended locally
    std::uint64_t duplicate_bytes = 0;   ///< re-shipped bytes skipped
    std::uint64_t chunk_drops = 0;       ///< connections dropped on a bad chunk
    std::uint64_t backoffs = 0;          ///< reconnect pauses taken
    std::uint64_t last_backoff_ms = 0;   ///< length of the most recent pause
    std::string last_error;
};

/// The follower's replication client: one background thread that connects
/// to the leader, subscribes from the sink's watermark, and streams DATA
/// frames into the sink — reconnecting with backoff after every failure
/// (leader restart, torn chunk, network error). Pair it with a
/// RecognitionService following the same local directory and the follower
/// serves IDENTIFY/IDENTIFYB from replicated state.
class ReplicationFollower {
public:
    /// Starts the thread; throws util::SystemError when the sink directory
    /// cannot be created. An unreachable leader is NOT an error — the
    /// thread keeps retrying, so followers may boot before their leader.
    explicit ReplicationFollower(ReplicationFollowerOptions options);
    ~ReplicationFollower();

    ReplicationFollower(const ReplicationFollower&) = delete;
    ReplicationFollower& operator=(const ReplicationFollower&) = delete;

    /// Disconnect and join the thread; idempotent.
    void stop();

    ReplicationFollowerStats stats() const;
    const std::string& directory() const { return sink_.directory(); }

private:
    void run();
    /// One connect -> subscribe -> stream session; returns when it ends.
    void session();

    ReplicationFollowerOptions options_;
    ReplicationSink sink_;
    int wake_fd_ = -1;  ///< eventfd: stop() interrupts connect/poll/backoff
    std::atomic<bool> stop_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<std::uint64_t> connects_{0};
    std::atomic<std::uint64_t> disconnects_{0};
    std::atomic<std::uint64_t> chunk_drops_{0};
    std::atomic<std::uint64_t> backoffs_{0};
    std::atomic<std::uint64_t> last_backoff_ms_{0};
    mutable std::mutex error_mutex_;
    std::string last_error_;
    std::thread thread_;
};

/// Validate a segment basename received over the wire before using it as a
/// path component: must be a plain `*.seg` basename, no separators, no
/// leading dot. Both ends apply it — the sink before writing, the source
/// before keying its offsets.
bool valid_segment_name(std::string_view name);

}  // namespace siren::serve

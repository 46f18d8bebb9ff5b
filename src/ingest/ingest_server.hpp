#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ingest/spsc_ring.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "storage/segment_store.hpp"

namespace siren::ingest {

/// Tuning for one IngestServer.
struct IngestOptions {
    /// UDP port; 0 binds an ephemeral port on the first socket and the
    /// remaining shards join it via SO_REUSEPORT (see port()).
    std::uint16_t port = 0;
    /// IPv4 address (dotted quad) every shard socket binds. Loopback by
    /// default so tests and single-node benches stay private; a deployed
    /// collector sets "0.0.0.0" (or a specific interface) so remote HPC
    /// nodes can reach the daemon.
    std::string bind_address = "127.0.0.1";
    /// Socket/ring/worker triples. SO_REUSEPORT spreads inbound datagrams
    /// across the sockets in the kernel, so shards scale receive work
    /// without any user-space distribution step.
    std::size_t shards = 2;
    /// Slots per shard ring (rounded up to a power of two).
    std::size_t ring_capacity = 4096;
    /// Max datagrams decoded per worker batch; bounds arena growth and
    /// handler latency.
    std::size_t batch_max = 256;
    /// Requested kernel receive buffer per socket (best-effort).
    int rcvbuf_bytes = 4 << 20;
    /// Durable mode: append every raw datagram to this store (shard k
    /// writes stream k) before it is decoded. The store must have at least
    /// `shards` writer shards. nullptr = in-memory only.
    storage::SegmentStore* store = nullptr;
    /// Group-commit cadence (durable mode): shard workers append at
    /// page-cache speed (inline fsync disabled on the store's writers) and
    /// a background flusher fsyncs every flush_interval — the classic WAL
    /// overlap that keeps the durable path near the in-memory path. Each
    /// worker write()s its buffer once the oldest record in it is ~1 ms
    /// old, so the durability window is about this interval + 1 ms. 0
    /// restores the writers' inline fsync batching, plus an fsync after
    /// ~5 ms without traffic.
    std::chrono::milliseconds flush_interval{10};
    /// When positive (and a store is set), a background thread compacts
    /// consolidated segments at this cadence.
    std::chrono::milliseconds compaction_interval{0};
    /// Background-compaction policy: treat every sealed segment as
    /// consolidated. Correct whenever the handler applies records
    /// synchronously (records are always handled before their segment
    /// seals) *and* the downstream state survives the daemon — otherwise
    /// leave segments for replay and mark/compact explicitly.
    bool compact_sealed = false;
};

/// Aggregated counters (snapshot across all shards).
struct IngestStats {
    std::uint64_t received = 0;        ///< datagrams read off sockets or injected
    std::uint64_t ring_dropped = 0;    ///< ring full: worker fell behind the NIC
    std::uint64_t oversize = 0;        ///< datagram larger than a ring slot
    std::uint64_t decoded = 0;         ///< well-formed messages handed to the handler
    std::uint64_t malformed = 0;       ///< decode_view rejections
    std::uint64_t appended = 0;        ///< raw datagrams journaled to the store
    /// Datagrams the store lost: appends that failed, and accepted records
    /// a later failed buffer write dropped (moved here from `appended`).
    std::uint64_t storage_errors = 0;
    std::uint64_t batches = 0;         ///< handler invocations
    std::uint64_t compactions = 0;     ///< segments removed by the background thread
};

/// The sharded epoll ingest daemon — the production receiver spine.
///
/// N UDP sockets share one port via SO_REUSEPORT; each shard runs its own
/// epoll loop (receiver thread) that drains its socket into a private SPSC
/// ring, and a worker thread that pops ring batches into a reused byte
/// arena, journals the raw datagrams to the segment store (durable mode),
/// batch-decodes them in place with net::decode_view, and hands the view
/// batch to the handler. The hot path — recv, ring push, arena append,
/// decode — takes no lock and performs no steady-state allocation; the
/// only mutexes live in cold paths (segment seal bookkeeping, stats
/// snapshots are atomics). It is the only receiver that buffers datagrams
/// for storage: siren_ingestd, database-mode campaigns and
/// examples/live_capture all run it.
class IngestServer {
public:
    /// Invoked once per drained batch, on that shard's worker thread, with
    /// the shard index as `source`. The views alias a per-shard arena.
    /// Handlers run concurrently across shards (see net::BatchHandler).
    using BatchHandler = net::BatchHandler;

    /// Binds sockets and starts 2*shards threads; throws util::SystemError
    /// when sockets cannot be created/bound.
    IngestServer(IngestOptions options, BatchHandler handler);
    ~IngestServer();

    IngestServer(const IngestServer&) = delete;
    IngestServer& operator=(const IngestServer&) = delete;

    /// The port all shard sockets share (useful with options.port == 0).
    std::uint16_t port() const { return port_; }
    std::size_t shards() const { return shards_.size(); }

    /// Test/bench entry: push one datagram straight into `shard`'s ring —
    /// the exact hot path a socket read takes, minus the kernel. False
    /// when the ring is full or the datagram is oversize (both counted).
    bool inject(std::size_t shard, std::string_view datagram) noexcept;

    /// Block until every datagram accepted into a ring so far has been
    /// journaled, decoded and handed to the handler. (Datagrams still in
    /// kernel socket buffers are not covered — see quiesce().)
    void drain();

    /// Wait until no new datagram has arrived for `idle`, then drain().
    /// The sender-side "I stopped sending, let everything land" barrier.
    void quiesce(std::chrono::milliseconds idle = std::chrono::milliseconds(200));

    /// Stop receivers, drain rings through the workers, sync the store,
    /// join everything; idempotent, called by the destructor.
    void stop();

    IngestStats stats() const;

private:
    struct Shard {
        std::size_t index = 0;
        int fd = -1;
        int epoll_fd = -1;
        int event_fd = -1;
        SpscRing ring;
        std::thread receiver;
        std::thread worker;

        alignas(64) std::atomic<std::uint64_t> received{0};
        std::atomic<std::uint64_t> ring_dropped{0};
        std::atomic<std::uint64_t> oversize{0};
        std::atomic<std::uint64_t> pushed{0};     ///< accepted into the ring
        std::atomic<std::uint64_t> processed{0};  ///< popped + handled
        std::atomic<std::uint64_t> decoded{0};
        std::atomic<std::uint64_t> malformed{0};
        std::atomic<std::uint64_t> appended{0};
        std::atomic<std::uint64_t> storage_errors{0};
        std::atomic<std::uint64_t> batches{0};

        explicit Shard(std::size_t ring_capacity) : ring(ring_capacity) {}
        ~Shard();  ///< closes any fd stop() has not already released
    };

    void receive_loop(Shard& shard);
    void worker_loop(Shard& shard);
    void flusher_loop();
    void compaction_loop();

    IngestOptions options_;
    BatchHandler handler_;
    std::uint16_t port_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;

    std::atomic<bool> stop_receivers_{false};
    std::atomic<bool> stop_workers_{false};
    std::atomic<bool> stopped_{false};
    std::mutex stop_mutex_;

    std::thread flusher_;
    std::thread compactor_;
    std::mutex background_mutex_;
    std::condition_variable background_cv_;
    bool background_stop_ = false;
    std::atomic<std::uint64_t> compactions_{0};
};

}  // namespace siren::ingest

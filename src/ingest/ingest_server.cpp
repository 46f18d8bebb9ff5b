#include "ingest/ingest_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/codec.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace siren::ingest {

namespace {

[[noreturn]] void throw_errno(const char* what) {
    throw util::SystemError(std::string(what) + ": " + std::strerror(errno));
}

/// A shard worker write()s its segment buffer once the oldest record in it
/// is this old, so a journaled record is readable (SegmentTail,
/// replication) about this long after the worker handled it, however far
/// the buffer is from buffer_bytes. At most ~1,000 extra write() calls per
/// shard per second.
constexpr std::chrono::milliseconds kMaxBufferAge{1};

}  // namespace

IngestServer::Shard::~Shard() {
    if (fd >= 0) ::close(fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (event_fd >= 0) ::close(event_fd);
}

IngestServer::IngestServer(IngestOptions options, BatchHandler handler)
    : options_(options), handler_(std::move(handler)) {
    util::require(options_.shards >= 1, "IngestServer needs at least one shard");
    if (options_.store) {
        util::require(options_.store->shards() >= options_.shards,
                      "segment store has fewer writer shards than the ingest server");
    }

    shards_.reserve(options_.shards);
    for (std::size_t i = 0; i < options_.shards; ++i) {
        auto shard = std::make_unique<Shard>(options_.ring_capacity);
        shard->index = i;
        shard->fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (shard->fd < 0) throw_errno("ingest socket()");

        // SO_REUSEPORT must be set before bind(); the kernel then spreads
        // inbound datagrams across all sockets sharing the port.
        int one = 1;
        if (::setsockopt(shard->fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
            throw_errno("ingest setsockopt(SO_REUSEPORT)");
        }
        if (options_.rcvbuf_bytes > 0) {
            // Best-effort: a small rmem_max just caps the burst absorbency.
            ::setsockopt(shard->fd, SOL_SOCKET, SO_RCVBUF, &options_.rcvbuf_bytes,
                         sizeof options_.rcvbuf_bytes);
        }

        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(i == 0 ? options_.port : port_);
        if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
            throw util::SystemError("ingest bind address is not a valid IPv4 address: " +
                                    options_.bind_address);
        }
        if (::bind(shard->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
            throw_errno("ingest bind()");
        }
        if (i == 0) {
            socklen_t len = sizeof addr;
            if (::getsockname(shard->fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
                throw_errno("ingest getsockname()");
            }
            port_ = ntohs(addr.sin_port);
        }

        shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
        if (shard->epoll_fd < 0) throw_errno("epoll_create1()");
        shard->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
        if (shard->event_fd < 0) throw_errno("eventfd()");

        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = shard->fd;
        if (::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->fd, &ev) != 0) {
            throw_errno("epoll_ctl(socket)");
        }
        ev.data.fd = shard->event_fd;
        if (::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->event_fd, &ev) != 0) {
            throw_errno("epoll_ctl(eventfd)");
        }
        shards_.push_back(std::move(shard));
    }

    // Sockets are all bound — only now start the threads, so no shard ever
    // observes a half-constructed server. If any later thread fails to
    // start, unwind through stop(): letting a joinable std::thread reach
    // its destructor would std::terminate the process.
    const bool group_commit = options_.store && options_.flush_interval.count() > 0;
    if (group_commit) {
        // Group commit: workers skip inline fsync; the flusher overlaps
        // fsync with their page-cache-speed appends. Flip the writers'
        // mode BEFORE any worker thread exists — they read the flag on
        // every append, unsynchronized.
        for (std::size_t i = 0; i < options_.shards; ++i) {
            options_.store->writer(i).set_inline_fsync(false);
        }
    }
    try {
        for (auto& shard : shards_) {
            shard->receiver = std::thread([this, s = shard.get()] { receive_loop(*s); });
            shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
        }
        if (group_commit) flusher_ = std::thread([this] { flusher_loop(); });
        if (options_.store && options_.compaction_interval.count() > 0) {
            compactor_ = std::thread([this] { compaction_loop(); });
        }
    } catch (...) {
        stop();
        throw;
    }
}

IngestServer::~IngestServer() { stop(); }

void IngestServer::receive_loop(Shard& shard) {
    char buffer[SpscRing::kSlotBytes];
    epoll_event events[4];
    while (!stop_receivers_.load(std::memory_order_relaxed)) {
        const int ready = ::epoll_wait(shard.epoll_fd, events, 4, 500);
        if (ready < 0) {
            if (errno == EINTR) continue;
            util::log_warn("ingest shard " + std::to_string(shard.index) +
                           ": epoll_wait failed: " + std::strerror(errno));
            break;
        }
        for (int i = 0; i < ready; ++i) {
            if (events[i].data.fd == shard.event_fd) {
                std::uint64_t tick = 0;
                (void)!::read(shard.event_fd, &tick, sizeof tick);
                continue;  // the while condition observes the stop flag
            }
            // Level-triggered socket readable: drain it completely so one
            // epoll wakeup amortizes over a whole burst.
            while (true) {
                const ssize_t n =
                    ::recv(shard.fd, buffer, sizeof buffer, MSG_DONTWAIT | MSG_TRUNC);
                if (n < 0) {
                    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
                    util::log_warn("ingest shard " + std::to_string(shard.index) +
                                   ": recv failed: " + std::strerror(errno));
                    break;
                }
                shard.received.fetch_add(1, std::memory_order_relaxed);
                if (static_cast<std::size_t>(n) > sizeof buffer) {
                    // MSG_TRUNC reports the true datagram size; anything
                    // beyond a slot is not legitimate SIREN traffic.
                    shard.oversize.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                if (shard.ring.push(std::string_view(buffer, static_cast<std::size_t>(n)))) {
                    shard.pushed.fetch_add(1, std::memory_order_relaxed);
                } else {
                    shard.ring_dropped.fetch_add(1, std::memory_order_relaxed);
                }
            }
        }
    }
}

void IngestServer::worker_loop(Shard& shard) {
    // Reused batch scratch: raw bytes arena + (offset, size) spans + decoded
    // views — the same zero-copy shape as the framework's InlineShard, so
    // steady state performs no heap allocation per datagram.
    std::string arena;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::vector<net::MessageView> views;
    storage::SegmentWriter* writer =
        options_.store ? &options_.store->writer(shard.index) : nullptr;
    // When the oldest record still in the writer's buffer was handled.
    constexpr std::chrono::steady_clock::time_point kNothingBuffered{};
    auto buffered_since = kNothingBuffered;
    // Records a failed write dropped after append() accepted them: moved
    // from `appended` to `storage_errors` as the writer reports them.
    std::uint64_t dropped_seen = writer ? writer->dropped_records() : 0;
    const auto count_dropped = [&] {
        const std::uint64_t dropped = writer->dropped_records();
        if (dropped == dropped_seen) return;
        shard.appended.fetch_sub(dropped - dropped_seen, std::memory_order_relaxed);
        shard.storage_errors.fetch_add(dropped - dropped_seen, std::memory_order_relaxed);
        dropped_seen = dropped;
    };
    const auto flush_if_aged = [&](std::chrono::steady_clock::time_point now) {
        if (buffered_since == kNothingBuffered || now - buffered_since < kMaxBufferAge) return;
        writer->flush();
        buffered_since = kNothingBuffered;
        count_dropped();
    };
    // Idle durability barrier, inline-fsync mode only: the group-commit
    // flusher already fsyncs whatever the age bound wrote. Debounced: a
    // momentary ring-empty blip during steady traffic must not fsync (at
    // ~0.5 ms each, per-blip syncs would dwarf the fsync-interval
    // batching); only a real pause syncs the tail.
    const bool idle_sync = writer && options_.flush_interval.count() == 0;
    bool idle_synced = true;
    int empty_polls = 0;
    constexpr int kIdleSyncPolls = 25;  // ~5 ms of consecutive emptiness

    while (true) {
        arena.clear();
        spans.clear();
        const std::size_t drained = shard.ring.drain(
            [&](std::string_view d) {
                spans.emplace_back(arena.size(), d.size());
                arena.append(d);
            },
            options_.batch_max);

        if (drained == 0) {
            // The ring is empty and we are the only consumer: once the
            // receivers are joined and stop_workers_ is set, nothing can
            // arrive anymore.
            if (stop_workers_.load(std::memory_order_acquire)) break;
            if (writer) flush_if_aged(std::chrono::steady_clock::now());
            if (idle_sync && !idle_synced && ++empty_polls >= kIdleSyncPolls) {
                writer->sync();
                count_dropped();
                idle_synced = true;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            continue;
        }
        empty_polls = 0;

        // Journal raw datagrams before decoding: the segment store is a
        // write-ahead log of exactly what hit the wire, malformed or not.
        if (writer) {
            const auto now = std::chrono::steady_clock::now();
            if (buffered_since == kNothingBuffered) buffered_since = now;
            std::uint64_t ok = 0;
            for (const auto& [offset, size] : spans) {
                if (writer->append(std::string_view(arena).substr(offset, size))) ++ok;
            }
            shard.appended.fetch_add(ok, std::memory_order_relaxed);
            if (ok != spans.size()) {
                shard.storage_errors.fetch_add(spans.size() - ok, std::memory_order_relaxed);
            }
            count_dropped();
            flush_if_aged(now);
            idle_synced = false;
        }

        views.clear();
        for (const auto& [offset, size] : spans) {
            net::MessageView view;
            try {
                net::decode_view(std::string_view(arena).substr(offset, size), view);
                views.push_back(view);
            } catch (const util::ParseError&) {
                shard.malformed.fetch_add(1, std::memory_order_relaxed);
            }
        }
        shard.decoded.fetch_add(views.size(), std::memory_order_relaxed);
        if (handler_ && !views.empty()) {
            handler_(shard.index, std::span<const net::MessageView>(views));
        }
        shard.batches.fetch_add(1, std::memory_order_relaxed);
        shard.processed.fetch_add(drained, std::memory_order_release);
    }

    if (writer) {
        writer->sync();
        count_dropped();
    }
}

void IngestServer::flusher_loop() {
    std::unique_lock<std::mutex> lock(background_mutex_);
    while (!background_cv_.wait_for(lock, options_.flush_interval,
                                    [this] { return background_stop_; })) {
        for (std::size_t i = 0; i < options_.shards; ++i) {
            options_.store->writer(i).sync_written();
        }
    }
}

void IngestServer::compaction_loop() {
    std::unique_lock<std::mutex> lock(background_mutex_);
    while (!background_cv_.wait_for(lock, options_.compaction_interval,
                                    [this] { return background_stop_; })) {
        storage::SegmentStore* store = options_.store;
        if (options_.compact_sealed) {
            for (const auto& path : store->sealed_segments()) store->mark_consolidated(path);
        }
        compactions_.fetch_add(store->compact(), std::memory_order_relaxed);
    }
}

bool IngestServer::inject(std::size_t shard_index, std::string_view datagram) noexcept {
    // Same accounting as the socket path. SPSC contract: do not inject into
    // a shard that is simultaneously receiving live socket traffic.
    Shard& shard = *shards_[shard_index % shards_.size()];
    shard.received.fetch_add(1, std::memory_order_relaxed);
    if (datagram.size() > SpscRing::kSlotBytes) {
        shard.oversize.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (shard.ring.push(datagram)) {
        shard.pushed.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    shard.ring_dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void IngestServer::drain() {
    while (true) {
        bool pending = false;
        for (const auto& shard : shards_) {
            if (shard->pushed.load(std::memory_order_acquire) !=
                shard->processed.load(std::memory_order_acquire)) {
                pending = true;
                break;
            }
        }
        if (!pending) return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

void IngestServer::quiesce(std::chrono::milliseconds idle) {
    auto total_received = [this] {
        std::uint64_t total = 0;
        for (const auto& shard : shards_) {
            total += shard->received.load(std::memory_order_acquire);
        }
        return total;
    };
    std::uint64_t last = total_received();
    auto last_change = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - last_change < idle) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const std::uint64_t now = total_received();
        if (now != last) {
            last = now;
            last_change = std::chrono::steady_clock::now();
        }
    }
    drain();
}

void IngestServer::stop() {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_.exchange(true)) return;

    stop_receivers_.store(true, std::memory_order_release);
    for (auto& shard : shards_) {
        if (shard->event_fd >= 0) {
            const std::uint64_t one = 1;
            (void)!::write(shard->event_fd, &one, sizeof one);
        }
    }
    for (auto& shard : shards_) {
        if (shard->receiver.joinable()) shard->receiver.join();
    }

    // Receivers are gone: workers drain what is left in the rings, sync
    // their segment streams and exit.
    stop_workers_.store(true, std::memory_order_release);
    for (auto& shard : shards_) {
        if (shard->worker.joinable()) shard->worker.join();
    }

    if (flusher_.joinable() || compactor_.joinable()) {
        {
            std::lock_guard<std::mutex> background_lock(background_mutex_);
            background_stop_ = true;
        }
        background_cv_.notify_all();
        if (flusher_.joinable()) flusher_.join();
        if (compactor_.joinable()) compactor_.join();
    }

    for (auto& shard : shards_) {
        if (shard->fd >= 0) ::close(shard->fd);
        if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
        if (shard->event_fd >= 0) ::close(shard->event_fd);
        shard->fd = shard->epoll_fd = shard->event_fd = -1;
    }
    if (options_.store) {
        options_.store->sync_all();
        // The store is caller-owned and outlives this server: give the
        // writers back the inline-fsync durability bound the group-commit
        // branch traded away for a flusher that no longer runs (or — on
        // the constructor's unwind path — never started).
        if (options_.flush_interval.count() > 0) {
            for (std::size_t i = 0; i < options_.shards; ++i) {
                options_.store->writer(i).set_inline_fsync(true);
            }
        }
    }
}

IngestStats IngestServer::stats() const {
    IngestStats stats;
    for (const auto& shard : shards_) {
        stats.received += shard->received.load(std::memory_order_acquire);
        stats.ring_dropped += shard->ring_dropped.load(std::memory_order_acquire);
        stats.oversize += shard->oversize.load(std::memory_order_acquire);
        stats.decoded += shard->decoded.load(std::memory_order_acquire);
        stats.malformed += shard->malformed.load(std::memory_order_acquire);
        stats.appended += shard->appended.load(std::memory_order_acquire);
        stats.storage_errors += shard->storage_errors.load(std::memory_order_acquire);
        stats.batches += shard->batches.load(std::memory_order_acquire);
    }
    stats.compactions = compactions_.load(std::memory_order_acquire);
    return stats;
}

}  // namespace siren::ingest

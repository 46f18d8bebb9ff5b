#include "serve/replication.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <vector>

#include "hashing/crc32c.hpp"
#include "net/tcp.hpp"
#include "serve/query_protocol.hpp"
#include "storage/segment.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace siren::serve {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// ReplicationSink

ReplicationSink::ReplicationSink(std::string directory) : directory_(std::move(directory)) {
    std::error_code ec;
    fs::create_directories(directory_, ec);
    if (ec) {
        throw util::SystemError("replication sink: cannot create " + directory_ + ": " +
                                ec.message());
    }
}

std::string ReplicationSink::subscribe_payload() const {
    // The watermark must fit one protocol frame. Past the cap (hundreds of
    // thousands of files — a directory compaction should have culled long
    // before), remaining files are simply omitted: an omitted file ships
    // again from byte 0 and the duplicate-chunk path below skips what is
    // already on disk, so the failure mode is wasted bandwidth on one
    // reconnect, never a wedged subscription.
    constexpr std::size_t kPayloadCap = net::kMaxFrameBytes - 512;
    std::string out = "SUBSCRIBE\n";
    for (const auto& path : storage::list_segments(directory_)) {
        const std::string name = fs::path(path).filename().string();
        if (!valid_segment_name(name)) continue;
        std::error_code ec;
        const std::uint64_t size = fs::file_size(path, ec);
        if (ec) continue;
        if (out.size() + name.size() + 32 > kPayloadCap) break;
        out += "have ";
        out += name;
        out.push_back(' ');
        util::append_number(out, size);
        out.push_back('\n');
    }
    return out;
}

bool ReplicationSink::apply_chunk(std::string_view payload, std::string& error) {
    const auto newline = payload.find('\n');
    if (newline == std::string_view::npos) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        error = "replication frame has no header line";
        return false;
    }
    std::vector<std::string_view> words;
    util::split_view_into(payload.substr(0, newline), ' ', words);
    long offset_value = 0;
    long crc_value = 0;
    if (words.size() != 4 || words[0] != "DATA" || !valid_segment_name(words[1]) ||
        !util::parse_decimal(words[2], offset_value) || offset_value < 0 ||
        !util::parse_decimal(words[3], crc_value) || crc_value < 0 ||
        crc_value > 0xFFFFFFFFL) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        error = "malformed DATA header";
        return false;
    }
    const std::string name(words[1]);
    const auto offset = static_cast<std::uint64_t>(offset_value);
    std::string_view bytes = payload.substr(newline + 1);
    if (bytes.empty()) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        error = "empty DATA chunk";
        return false;
    }
    if (hash::crc32c(bytes) != static_cast<std::uint32_t>(crc_value)) {
        // Torn/corrupted chunk: nothing after it on this stream can be
        // trusted — the caller drops the connection and resubscribes from
        // the local watermark, which this chunk never advanced.
        stats_.crc_failures.fetch_add(1, std::memory_order_relaxed);
        error = "chunk crc mismatch for " + name;
        return false;
    }

    const std::string path = directory_ + "/" + name;
    std::error_code ec;
    std::uint64_t local = fs::file_size(path, ec);
    if (ec) local = 0;  // file does not exist yet

    if (offset > local) {
        // A gap would leave a hole the segment framing can never recover
        // from; only an out-of-sync source produces one.
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        error = "offset gap for " + name + " (local " + std::to_string(local) + ", chunk at " +
                std::to_string(offset) + ")";
        return false;
    }
    if (offset + bytes.size() <= local) {
        // Entirely re-shipped (reconnect race): already on disk.
        stats_.duplicate_bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
        stats_.chunks.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    const std::size_t overlap = static_cast<std::size_t>(local - offset);
    stats_.duplicate_bytes.fetch_add(overlap, std::memory_order_relaxed);
    bytes.remove_prefix(overlap);

    // O_APPEND, not pwrite-at-offset: the file size *is* the watermark, so
    // appending exactly the non-overlapping suffix keeps it consistent
    // even if an earlier run crashed mid-append.
    const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
        stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
        error = "open(" + path + "): " + std::strerror(errno);
        return false;
    }
    const char* p = bytes.data();
    std::size_t remaining = bytes.size();
    while (remaining > 0) {
        ssize_t n;
        if (const auto fp = SIREN_FAILPOINT("replication.sink.write")) {
            if (fp.action == util::failpoint::Action::kShortWrite && remaining > 1) {
                // A real partial append: the landed prefix extends the
                // watermark, the rest is re-requested on resubscribe.
                const ssize_t wrote = ::write(fd, p, remaining / 2);
                if (wrote > 0) {
                    p += wrote;
                    remaining -= static_cast<std::size_t>(wrote);
                }
            }
            errno = fp.err != 0 ? fp.err : ENOSPC;
            n = -1;
        } else {
            n = ::write(fd, p, remaining);
        }
        if (n < 0) {
            if (errno == EINTR) continue;
            // A partial append is safe: the bytes that did land extend the
            // watermark and the rest is re-requested on reconnect.
            stats_.io_errors.fetch_add(1, std::memory_order_relaxed);
            error = "write(" + path + "): " + std::strerror(errno);
            ::close(fd);
            return false;
        }
        p += n;
        remaining -= static_cast<std::size_t>(n);
    }
    ::close(fd);
    stats_.chunks.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
    return true;
}

// ---------------------------------------------------------------------------
// ReplicationFollower

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ReplicationFollower::ReplicationFollower(ReplicationFollowerOptions options)
    : options_(std::move(options)), sink_(options_.directory) {
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
        throw util::SystemError("eventfd(): " + std::string(std::strerror(errno)));
    }
    thread_ = std::thread([this] { run(); });
}

ReplicationFollower::~ReplicationFollower() { stop(); }

void ReplicationFollower::stop() {
    if (stopped_.exchange(true)) {
        if (thread_.joinable()) thread_.join();
        return;
    }
    stop_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
    if (thread_.joinable()) thread_.join();
    ::close(wake_fd_);
    wake_fd_ = -1;
}

ReplicationFollowerStats ReplicationFollower::stats() const {
    ReplicationFollowerStats s;
    s.connects = connects_.load(std::memory_order_relaxed);
    s.disconnects = disconnects_.load(std::memory_order_relaxed);
    s.chunk_drops = chunk_drops_.load(std::memory_order_relaxed);
    s.chunks = sink_.stats().chunks.load(std::memory_order_relaxed);
    s.bytes = sink_.stats().bytes.load(std::memory_order_relaxed);
    s.duplicate_bytes = sink_.stats().duplicate_bytes.load(std::memory_order_relaxed);
    s.backoffs = backoffs_.load(std::memory_order_relaxed);
    s.last_backoff_ms = last_backoff_ms_.load(std::memory_order_relaxed);
    std::lock_guard lock(error_mutex_);
    s.last_error = last_error_;
    return s;
}

void ReplicationFollower::session() {
    std::string error;
    const int fd = net::connect_nonblocking(options_.leader_host, options_.leader_port,
                                            options_.connect_timeout, wake_fd_, error);
    if (fd < 0) {
        std::lock_guard lock(error_mutex_);
        last_error_ = error;
        return;
    }

    std::string frame;
    append_frame(frame, sink_.subscribe_payload());
    const auto deadline = Clock::now() + options_.connect_timeout;
    if (!net::send_all_nonblocking(fd, frame, deadline, error)) {
        ::close(fd);
        std::lock_guard lock(error_mutex_);
        last_error_ = error;
        return;
    }
    connects_.fetch_add(1, std::memory_order_relaxed);

    std::string buffer;
    char buf[64 << 10];
    while (!stop_.load(std::memory_order_acquire)) {
        // Drain complete frames first, then wait for more bytes.
        std::size_t consumed = 0;
        bool drop = false;
        for (;;) {
            std::size_t one = 0;
            std::optional<std::string_view> payload;
            try {
                payload = parse_frame(std::string_view(buffer).substr(consumed), one);
            } catch (const util::ParseError& e) {
                error = e.what();
                drop = true;
                break;
            }
            if (!payload) break;
            consumed += one;
            if (!sink_.apply_chunk(*payload, error)) {
                drop = true;
                break;
            }
        }
        if (consumed > 0) buffer.erase(0, consumed);
        if (drop) {
            chunk_drops_.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard lock(error_mutex_);
            last_error_ = error;
            break;
        }

        pollfd pfds[2] = {{fd, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
        const int ready = ::poll(pfds, 2, 100);
        if (ready < 0 && errno != EINTR) {
            std::lock_guard lock(error_mutex_);
            last_error_ = "poll(): " + std::string(std::strerror(errno));
            break;
        }
        if ((pfds[1].revents & POLLIN) != 0) break;  // stop(): loop check exits
        if (ready <= 0 || (pfds[0].revents & POLLIN) == 0) continue;
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n == 0) {
            std::lock_guard lock(error_mutex_);
            last_error_ = "leader closed the connection";
            break;
        }
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
            std::lock_guard lock(error_mutex_);
            last_error_ = "recv(): " + std::string(std::strerror(errno));
            break;
        }
        buffer.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    disconnects_.fetch_add(1, std::memory_order_relaxed);
}

void ReplicationFollower::run() {
    // Jitter source: per-follower seed (not a shared constant) so a fleet
    // restarted together does not re-probe a dead leader in lockstep.
    util::Rng rng(util::mix64(
        static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()) ^
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this))));
    unsigned failures = 0;
    while (!stop_.load(std::memory_order_acquire)) {
        const std::uint64_t connects_before = connects_.load(std::memory_order_relaxed);
        session();
        if (stop_.load(std::memory_order_acquire)) break;
        if (connects_.load(std::memory_order_relaxed) > connects_before) {
            // The leader answered this session; whatever ended it, the next
            // probe starts back at the floor.
            failures = 0;
        } else if (failures < 31) {
            ++failures;
        }
        // Exponential from the floor with full jitter above it, capped:
        // sleep in [floor, min(cap, floor * 2^(failures-1))]. A session
        // that connected but then dropped sleeps exactly the floor.
        const long floor_ms = std::max<long>(1, options_.reconnect_backoff.count());
        const long cap_ms = std::max(floor_ms, options_.reconnect_backoff_cap.count());
        long ceiling_ms = floor_ms;
        for (unsigned i = 1; i < failures && ceiling_ms < cap_ms; ++i) {
            ceiling_ms = std::min(cap_ms, ceiling_ms * 2);
        }
        const long sleep_ms =
            floor_ms +
            static_cast<long>(rng.below(static_cast<std::uint64_t>(ceiling_ms - floor_ms + 1)));
        backoffs_.fetch_add(1, std::memory_order_relaxed);
        last_backoff_ms_.store(static_cast<std::uint64_t>(sleep_ms),
                               std::memory_order_relaxed);
        // Backoff, interruptible by stop()'s eventfd write.
        pollfd pfd{wake_fd_, POLLIN, 0};
        ::poll(&pfd, 1, static_cast<int>(std::min<long>(sleep_ms, 1 << 30)));
    }
}

}  // namespace siren::serve

#include "serve/replication.hpp"

#include <algorithm>
#include <any>
#include <filesystem>

#include "hashing/crc32c.hpp"
#include "storage/segment.hpp"
#include "util/endian.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/strings.hpp"

namespace siren::serve {

namespace fs = std::filesystem;

bool valid_segment_name(std::string_view name) {
    if (name.size() <= storage::kSegmentSuffix.size() || name.size() > 255) return false;
    if (!name.ends_with(storage::kSegmentSuffix)) return false;
    if (name.front() == '.') return false;
    for (const char c : name) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '/' || c == '\\' || u <= ' ' || u == 0x7F) return false;
    }
    return true;
}

namespace {

/// Connections beyond this are closed at accept (counted).
constexpr std::size_t kMaxFollowers = 64;

/// Per-follower cap on buffered-but-unsent bytes: shipping pauses past it
/// until the follower drains (backpressure), so one slow follower cannot
/// balloon the leader's memory.
constexpr std::size_t kMaxBufferedBytes = 4u << 20;

ReplicationSourceOptions checked(ReplicationSourceOptions options) {
    if (options.segments_dir.empty()) {
        throw util::Error("replication source needs a segment directory");
    }
    // A chunk plus its header line must fit one protocol frame.
    options.chunk_bytes =
        std::clamp<std::size_t>(options.chunk_bytes, 1, net::kMaxFrameBytes - 512);
    return options;
}

}  // namespace

ReplicationSource::ReplicationSource(ReplicationSourceOptions options)
    : options_(checked(std::move(options))),
      server_(
          options_.bind_address, options_.port, kMaxFollowers,
          [this](net::TcpServer::Connection& conn, std::string_view payload) {
              return subscribe(conn, payload);
          },
          [this](std::span<net::TcpServer::Connection* const> connections) { ship(connections); },
          options_.poll) {}

ReplicationSourceStats ReplicationSource::stats() const {
    const net::TcpServerStats loop = server_.stats();
    ReplicationSourceStats s;
    s.connections = loop.connections;
    s.rejected = loop.rejected;
    s.subscriptions = subscriptions_.load(std::memory_order_relaxed);
    s.chunks_sent = chunks_sent_.load(std::memory_order_relaxed);
    s.bytes_shipped = bytes_shipped_.load(std::memory_order_relaxed);
    s.protocol_errors = loop.protocol_errors;
    s.accept_stalls = loop.accept_stalls;
    return s;
}

bool ReplicationSource::subscribe(net::TcpServer::Connection& conn, std::string_view payload) {
    // The only frame a follower sends: SUBSCRIBE with its watermark.
    // A resubscribe on a live connection simply resets the offsets.
    std::vector<std::string_view> lines;
    util::split_view_into(payload, '\n', lines);
    if (lines.empty() || util::trim(lines[0]) != "SUBSCRIBE") return false;
    Offsets offsets;
    std::vector<std::string_view> words;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        if (lines[i].empty()) continue;
        words.clear();
        util::split_view_into(lines[i], ' ', words);
        long size = 0;
        if (words.size() != 3 || words[0] != "have" || !valid_segment_name(words[1]) ||
            !util::parse_decimal(words[2], size) || size < 0) {
            return false;
        }
        offsets[std::string(words[1])] = static_cast<std::uint64_t>(size);
    }
    conn.state = std::move(offsets);
    subscriptions_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void ReplicationSource::ship(std::span<net::TcpServer::Connection* const> connections) {
    // The directory listing and size snapshot are taken once per wake-up
    // and shared — N followers must not mean N directory scans.
    std::vector<SegmentState> segments;
    bool listed = false;
    for (net::TcpServer::Connection* conn : connections) {
        auto* offsets = std::any_cast<Offsets>(&conn->state);
        if (offsets == nullptr) continue;  // not subscribed yet
        if (!listed) {
            listed = true;
            for (const auto& path : storage::list_segments(options_.segments_dir)) {
                SegmentState state;
                state.name = fs::path(path).filename().string();
                if (!valid_segment_name(state.name)) continue;  // foreign file
                std::error_code ec;
                state.size = fs::file_size(path, ec);
                if (ec) continue;  // vanished between listing and stat
                state.path = path;
                segments.push_back(std::move(state));
            }
        }
        pump(*conn, *offsets, segments);
    }
}

void ReplicationSource::pump(net::TcpServer::Connection& conn, Offsets& offsets,
                             const std::vector<SegmentState>& segments) {
    for (const auto& segment : segments) {
        if (conn.unsent() >= kMaxBufferedBytes) return;
        std::uint64_t& offset = offsets[segment.name];
        // The cheap common case: this follower already has every byte the
        // wake-up's size snapshot saw — no open(), no read.
        if (offset >= segment.size) continue;

        // Ship until this file is drained or the buffer cap is reached;
        // read_segment_range never reads past what is on disk right now,
        // and segment files are append-only, so every byte below the
        // current size is final.
        for (;;) {
            if (conn.unsent() >= kMaxBufferedBytes) return;
            // Injected chunk stall: a delay(…) spec sleeps inside eval (the
            // shipping cadence hiccups), an error(…) spec skips this
            // wake-up's pump entirely — the follower's watermark protocol
            // must absorb both without losing bytes.
            if (SIREN_FAILPOINT("replication.source.chunk")) return;
            const std::size_t got =
                storage::read_segment_range(segment.path, offset, options_.chunk_bytes, chunk_);
            if (got == 0) break;
            std::string header = "DATA ";
            header += segment.name;
            header.push_back(' ');
            util::append_number(header, offset);
            header.push_back(' ');
            util::append_number(header, hash::crc32c(chunk_));
            header.push_back('\n');
            if (const auto fp = SIREN_FAILPOINT("replication.source.corrupt");
                fp.action == util::failpoint::Action::kCorrupt) {
                // Flip a payload byte *after* the header's CRC was computed:
                // the follower's apply_chunk must reject it (chunk_drops)
                // and resubscribe from its durable watermark.
                chunk_[0] = static_cast<char>(chunk_[0] ^ 0x01);
            }
            util::append_u32le(conn.out, static_cast<std::uint32_t>(header.size() + got));
            conn.out += header;
            conn.out += chunk_;
            offset += got;
            chunks_sent_.fetch_add(1, std::memory_order_relaxed);
            bytes_shipped_.fetch_add(got, std::memory_order_relaxed);
        }
    }
}

}  // namespace siren::serve

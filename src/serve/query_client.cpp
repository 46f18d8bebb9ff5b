#include "serve/query_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "net/tcp.hpp"
#include "recognize/registry.hpp"  // sanitize_label
#include "serve/query_protocol.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace siren::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Parse an Identified out of "<family> <score> <name...>".
Identified parse_identified(std::istringstream& fields) {
    Identified result;
    std::string name;
    if (!(fields >> result.family >> result.score >> name)) {
        throw util::ParseError("malformed identify reply");
    }
    result.name = std::move(name);
    return result;
}

/// The body lines of a counted reply ("OK n" + n lines). Throws
/// util::Error prefixed with `what` on an ERR reply, a bad header or a
/// truncated body — the error carries the reply, so ReplicaClient can
/// match the protocol markers in it.
std::vector<std::string_view> counted_lines(std::string_view reply, const std::string& what) {
    const auto newline = reply.find('\n');
    const auto header = reply.substr(0, newline);
    unsigned long long count = 0;
    if (!header.starts_with("OK ") || !util::parse_decimal(header.substr(3), count)) {
        throw util::Error(what + ": " + std::string(reply));
    }
    std::vector<std::string_view> lines;
    if (newline != std::string_view::npos) {
        util::split_view_into(reply.substr(newline + 1), '\n', lines);
    }
    if (!lines.empty() && lines.back().empty()) lines.pop_back();  // trailing newline
    if (lines.size() < count) throw util::Error(what + ": truncated reply");
    lines.resize(count);
    return lines;
}

}  // namespace

QueryClient::QueryClient(const std::string& host, std::uint16_t port,
                         std::chrono::milliseconds timeout)
    : timeout_(timeout) {
    // Non-blocking throughout: the documented per-call deadline must bound
    // connect() and send() too, not just the reply wait — a SYN-dropping
    // host or a stalled server otherwise hangs the caller at the kernel's
    // pleasure instead of throwing at timeout_. The connect dance itself
    // is shared with the replication follower (net::connect_nonblocking).
    std::string error;
    fd_ = net::connect_nonblocking(host, port, timeout_, -1, error);
    if (fd_ < 0) throw util::SystemError(error);
}

QueryClient::~QueryClient() {
    if (fd_ >= 0) ::close(fd_);
}

std::string QueryClient::request(std::string_view payload) {
    if (fd_ < 0) throw util::SystemError("query client is disconnected");
    try {
        const auto deadline = Clock::now() + timeout_;
        std::string frame;
        append_frame(frame, payload);
        std::string send_error;
        if (!net::send_all_nonblocking(fd_, frame, deadline, send_error)) {
            throw util::SystemError("query " + send_error);
        }

        char buf[16 << 10];
        for (;;) {
            std::size_t consumed = 0;
            const auto reply = parse_frame(buffer_, consumed);  // ParseError propagates
            if (reply) {
                std::string out(*reply);
                buffer_.erase(0, consumed);
                return out;
            }
            const auto now = Clock::now();
            if (now >= deadline) throw util::SystemError("query reply timed out");
            pollfd pfd{fd_, POLLIN, 0};
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
            const int ready =
                ::poll(&pfd, 1, static_cast<int>(std::min<long>(left.count(), 200)));
            if (ready < 0) {
                if (errno == EINTR) continue;
                throw util::SystemError("poll(): " + std::string(std::strerror(errno)));
            }
            if (ready == 0) continue;
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n == 0) throw util::SystemError("query connection closed by the service");
            if (n < 0) {
                if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
                throw util::SystemError("recv(): " + std::string(std::strerror(errno)));
            }
            buffer_.append(buf, static_cast<std::size_t>(n));
        }
    } catch (...) {
        // An abandoned exchange desynchronizes the request/reply pairing:
        // the reply (or its tail) may still arrive and would be handed to
        // the *next* request. Tear the connection down so later calls fail
        // loudly instead of answering with someone else's reply.
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        buffer_.clear();
        throw;
    }
}

std::vector<FusedIdentified> QueryClient::identify(const Probe& probe) {
    if (probe.content.empty() && probe.behavior.empty()) {
        throw util::Error("identify: a probe needs at least one digest");
    }
    if (probe.k == 0) throw util::Error("identify: k must be positive");

    std::string payload = "IDENTIFY";
    if (!probe.content.empty()) {
        payload += " C ";
        payload += probe.content;
    }
    if (!probe.behavior.empty()) {
        payload += " B ";
        payload += probe.behavior;
    }
    payload.push_back(' ');
    util::append_number(payload, probe.k);
    const std::string reply = request(payload);
    std::vector<FusedIdentified> out;
    for (const auto line : counted_lines(reply, "identify")) {
        std::istringstream fields{std::string(line)};
        std::string kind;
        std::string name;
        FusedIdentified match;
        if (!(fields >> kind >> match.family >> match.score >> match.content_score >>
              match.behavior_score >> name) ||
            kind != "match") {
            throw util::Error("identify: bad line '" + std::string(line) + "'");
        }
        match.name = std::move(name);
        out.push_back(std::move(match));
    }
    return out;
}

std::vector<std::optional<Identified>> QueryClient::identify_many(
    const std::vector<std::string>& digests) {
    if (digests.empty()) return {};
    // IDENTIFYB answers in counted framing even for one digest, so the
    // truncated-reply check covers the single-probe case too.
    std::string payload = "IDENTIFYB";
    for (const auto& digest : digests) {
        payload.push_back(' ');
        payload += digest;
    }
    const std::string reply = request(payload);
    const auto lines = counted_lines(reply, "identify_many");
    if (lines.size() != digests.size()) throw util::Error("identify_many: " + reply);
    std::vector<std::optional<Identified>> out;
    out.reserve(lines.size());
    for (const auto line : lines) {
        if (line == "unknown") {
            out.emplace_back(std::nullopt);
            continue;
        }
        std::istringstream fields{std::string(line)};
        std::string kind;
        fields >> kind;
        if (kind != "match") {
            throw util::Error("identify_many: bad line '" + std::string(line) + "'");
        }
        out.emplace_back(parse_identified(fields));
    }
    return out;
}

Identified QueryClient::observe(std::string_view digest, std::string_view hint) {
    return observe_verb("OBSERVE", digest, hint);
}

Identified QueryClient::observe_behavior(std::string_view digest, std::string_view hint) {
    return observe_verb("OBSERVETS", digest, hint);
}

Identified QueryClient::observe_verb(std::string_view verb, std::string_view digest,
                                     std::string_view hint) {
    std::string payload = std::string(verb) + ' ' + std::string(digest);
    if (!hint.empty()) {
        payload.push_back(' ');
        // Hints are single protocol tokens. Apply the registry's own name
        // mapping so a label like "Open MPI" arrives as the "Open_MPI" the
        // registry would store, instead of tripping an ERR on the extra
        // token.
        payload += recognize::sanitize_label(hint);
    }
    const std::string reply = request(payload);
    std::istringstream fields(reply);
    std::string status;
    fields >> status;
    if (status != "OK") throw util::Error("observe: " + reply);
    Identified result;
    std::string novelty;
    std::string name;
    if (!(fields >> result.family >> result.score >> novelty >> name)) {
        throw util::ParseError("malformed observe reply: " + reply);
    }
    result.new_family = novelty == "new";
    result.name = std::move(name);
    return result;
}

std::string QueryClient::stats_text() {
    const std::string reply = request("STATS");
    if (!reply.starts_with("OK")) throw util::Error("stats: " + reply);
    const auto newline = reply.find('\n');
    return newline == std::string::npos ? std::string() : reply.substr(newline + 1);
}

std::string QueryClient::checkpoint() {
    const std::string reply = request("CHECKPOINT");
    if (!reply.starts_with("OK ")) throw util::Error("checkpoint: " + reply);
    return reply.substr(3);
}

std::string QueryClient::partition_map_text() {
    const std::string reply = request("PARTMAP");
    if (!reply.starts_with("OK\n")) throw util::Error("partmap: " + reply);
    return reply.substr(3);
}

std::uint64_t QueryClient::fingerprint_range(std::uint64_t lo, std::uint64_t hi) {
    const std::string reply =
        request("FPRANGE " + std::to_string(lo) + ' ' + std::to_string(hi));
    if (!reply.starts_with("OK ")) throw util::Error("fprange: " + reply);
    unsigned long long value = 0;
    if (!util::parse_decimal(util::trim(reply).substr(3), value)) {
        throw util::ParseError("malformed fprange reply: " + reply);
    }
    return value;
}

}  // namespace siren::serve

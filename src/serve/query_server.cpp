#include "serve/query_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "serve/query_protocol.hpp"
#include "serve/recognition_service.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"

namespace siren::serve {

namespace {

bool set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

QueryServer::QueryServer(RecognitionService& service, QueryServerOptions options)
    : service_(service), options_(std::move(options)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        throw util::SystemError("socket(): " + std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        throw util::SystemError("inet_pton(" + options_.bind_address + ") failed");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd_, 64) != 0 || !set_nonblocking(listen_fd_)) {
        const std::string reason = std::strerror(errno);
        ::close(listen_fd_);
        throw util::SystemError("bind/listen(" + options_.bind_address + "): " + reason);
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epoll_fd_ < 0 || event_fd_ < 0) {
        const std::string reason = std::strerror(errno);
        ::close(listen_fd_);
        if (epoll_fd_ >= 0) ::close(epoll_fd_);
        if (event_fd_ >= 0) ::close(event_fd_);
        throw util::SystemError("epoll/eventfd: " + reason);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev.data.fd = event_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

    loop_ = std::thread([this] { event_loop(); });
}

QueryServer::~QueryServer() { stop(); }

void QueryServer::stop() {
    if (stopped_.exchange(true)) {
        if (loop_.joinable()) loop_.join();
        return;
    }
    stopping_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(event_fd_, &one, sizeof one);
    if (loop_.joinable()) loop_.join();
    for (auto& [fd, conn] : connections_) ::close(fd);
    connections_.clear();
    ::close(listen_fd_);
    ::close(epoll_fd_);
    ::close(event_fd_);
    listen_fd_ = epoll_fd_ = event_fd_ = -1;
}

QueryServerStats QueryServer::stats() const {
    QueryServerStats s;
    s.connections = connections_total_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.requests = requests_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.accept_stalls = accept_stalls_.load(std::memory_order_relaxed);
    return s;
}

void QueryServer::close_connection(int fd) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    connections_.erase(fd);
}

bool QueryServer::flush_writes(int fd, Connection& conn) {
    while (conn.out_pos < conn.out.size()) {
        const ssize_t n = ::send(fd, conn.out.data() + conn.out_pos,
                                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_pos += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Socket buffer full: park the remainder on EPOLLOUT and stop
            // watching EPOLLIN — backpressure. A client that pipelines
            // requests without reading replies must stall in its own send
            // path, not grow this connection's reply buffer without bound.
            if (!conn.want_write) {
                epoll_event ev{};
                ev.events = EPOLLOUT;
                ev.data.fd = fd;
                ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
                conn.want_write = true;
            }
            return true;
        }
        return false;  // peer went away
    }
    conn.out.clear();
    conn.out_pos = 0;
    if (conn.want_write) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
        conn.want_write = false;
    }
    return true;
}

bool QueryServer::process_frames(int fd, Connection& conn) {
    std::size_t consumed = 0;
    // Stop at the first parked write: requests already read stay buffered
    // in conn.in until the peer drains its replies.
    while (!conn.want_write) {
        std::size_t frame = 0;
        std::optional<std::string_view> payload;
        try {
            payload = parse_frame(std::string_view(conn.in).substr(consumed), frame);
        } catch (const util::ParseError&) {
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            close_connection(fd);
            return false;
        }
        if (!payload) break;
        consumed += frame;
        requests_.fetch_add(1, std::memory_order_relaxed);
        append_frame(conn.out, execute_with_stats(*payload));
        if (!flush_writes(fd, conn)) {
            close_connection(fd);
            return false;
        }
    }
    if (consumed > 0) conn.in.erase(0, consumed);
    return true;
}

std::string QueryServer::execute_with_stats(std::string_view payload) {
    std::string response = execute_query(service_, payload);
    // The service's STATS body is extended with the server-level view:
    // which SIMD tier the similarity scan dispatched to, and how often fd
    // exhaustion stalled the listener.
    if (util::trim(payload) == "STATS" && response.starts_with("OK\n")) {
        response += "simd_level ";
        response += util::simd::level_name(util::simd::active_level());
        response += "\naccept_stalls ";
        util::append_number(response, accept_stalls_.load(std::memory_order_relaxed));
        response.push_back('\n');
    }
    return response;
}

void QueryServer::handle_readable(int fd, Connection& conn) {
    char buf[16 << 10];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn.in.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        close_connection(fd);  // orderly shutdown or error
        return;
    }
    process_frames(fd, conn);
}

void QueryServer::event_loop() {
    std::vector<epoll_event> events(64);
    while (!stopping_.load(std::memory_order_acquire)) {
        const int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                                   200);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        // Clients first, accepts last: a connection closed in this batch
        // frees its fd number, and accepting mid-batch could hand that
        // number to a new client that the batch's remaining (stale) events
        // would then hit.
        bool accept_ready = false;
        for (int i = 0; i < n && !stopping_.load(std::memory_order_acquire); ++i) {
            const int fd = events[i].data.fd;
            if (fd == event_fd_) continue;  // stop signal: loop condition exits
            if (fd == listen_fd_) {
                accept_ready = true;
                continue;
            }

            const auto it = connections_.find(fd);
            if (it == connections_.end()) continue;  // closed earlier this wake-up
            if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
                close_connection(fd);
                continue;
            }
            if ((events[i].events & EPOLLOUT) != 0) {
                if (!flush_writes(fd, it->second)) {
                    close_connection(fd);
                    continue;
                }
                // Writes drained: serve the requests that backpressure
                // left buffered (also re-arms EPOLLIN via flush_writes).
                if (!it->second.want_write && !process_frames(fd, it->second)) continue;
            }
            if ((events[i].events & EPOLLIN) != 0) handle_readable(fd, it->second);
        }

        // Re-arm a listener that fd exhaustion disarmed once the cooldown
        // passed (some fds have likely been released by then; if not, the
        // next accept disarms again).
        if (!listener_armed_ && std::chrono::steady_clock::now() >= accept_rearm_at_ &&
            !stopping_.load(std::memory_order_acquire)) {
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.fd = listen_fd_;
            if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
                listener_armed_ = true;
                accept_ready = true;  // drain whatever queued while disarmed
            }
        }

        if (accept_ready && !stopping_.load(std::memory_order_acquire)) {
            for (;;) {
                const int client = ::accept4(listen_fd_, nullptr, nullptr,
                                             SOCK_NONBLOCK | SOCK_CLOEXEC);
                if (client < 0) {
                    if (errno == EMFILE || errno == ENFILE) {
                        // fd exhaustion: accept4 will keep failing without
                        // consuming the backlog, and the level-triggered
                        // listener would wake every epoll_wait into a hot
                        // spin. Take the listener out of the set briefly;
                        // established connections keep being served.
                        accept_stalls_.fetch_add(1, std::memory_order_relaxed);
                        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
                        listener_armed_ = false;
                        accept_rearm_at_ = std::chrono::steady_clock::now() +
                                           std::chrono::milliseconds(50);
                    }
                    break;  // EAGAIN or transient error
                }
                if (connections_.size() >= options_.max_connections) {
                    rejected_.fetch_add(1, std::memory_order_relaxed);
                    ::close(client);
                    continue;
                }
                const int one = 1;
                ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
                epoll_event ev{};
                ev.events = EPOLLIN;
                ev.data.fd = client;
                ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &ev);
                connections_.emplace(client, Connection{});
                connections_total_.fetch_add(1, std::memory_order_relaxed);
            }
        }
    }
}

}  // namespace siren::serve

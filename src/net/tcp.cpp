#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/codec.hpp"
#include "util/endian.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace siren::net {

int connect_nonblocking(const std::string& host, std::uint16_t port,
                        std::chrono::milliseconds timeout, int wake_fd, std::string& error) {
    if (const auto fp = SIREN_FAILPOINT("net.tcp.connect");
        fp.action == util::failpoint::Action::kError) {
        error = "connect(" + host + "): " + std::strerror(fp.err != 0 ? fp.err : ECONNREFUSED);
        return -1;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (fd < 0) {
        error = "socket(): " + std::string(std::strerror(errno));
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        error = "inet_pton(" + host + ") failed";
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        if (errno != EINPROGRESS) {
            error = "connect(" + host + "): " + std::strerror(errno);
            ::close(fd);
            return -1;
        }
        pollfd pfds[2] = {{fd, POLLOUT, 0}, {wake_fd, POLLIN, 0}};
        const nfds_t nfds = wake_fd >= 0 ? 2 : 1;
        const int ready = ::poll(
            pfds, nfds, static_cast<int>(std::min<long>(timeout.count(), 1 << 30)));
        int so_error = 0;
        socklen_t len = sizeof so_error;
        if (ready <= 0 || (pfds[1].revents & POLLIN) != 0 ||
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 || so_error != 0) {
            error = "connect(" + host + "): " +
                    (ready <= 0 ? "timed out"
                                : (pfds[1].revents & POLLIN) != 0 ? "stopped"
                                                                  : std::strerror(so_error));
            ::close(fd);
            return -1;
        }
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

bool send_all_nonblocking(int fd, std::string_view data,
                          std::chrono::steady_clock::time_point deadline, std::string& error) {
    const char* p = data.data();
    std::size_t remaining = data.size();
    while (remaining > 0) {
        if (std::chrono::steady_clock::now() >= deadline) {
            error = "send timed out";
            return false;
        }
        if (const auto fp = SIREN_FAILPOINT("net.tcp.send")) {
            if (fp.action == util::failpoint::Action::kShortWrite && remaining > 1) {
                // Push a real prefix so the peer sees a half frame, then
                // fail the connection — a mid-send RST, not a clean close.
                (void)::send(fd, p, remaining / 2, MSG_NOSIGNAL);
            }
            error = "send failed: " +
                    std::string(std::strerror(fp.err != 0 ? fp.err : ECONNRESET));
            return false;
        }
        const ssize_t n = ::send(fd, p, remaining, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
                pollfd pfd{fd, POLLOUT, 0};
                ::poll(&pfd, 1, 50);
                continue;
            }
            error = "send failed: " + std::string(std::strerror(errno));
            return false;
        }
        p += n;
        remaining -= static_cast<std::size_t>(n);
    }
    return true;
}

void append_frame(std::string& out, std::string_view payload) {
    util::append_u32le(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
}

std::optional<std::string_view> parse_frame(std::string_view buffer, std::size_t& consumed) {
    consumed = 0;
    if (buffer.size() < 4) return std::nullopt;
    const std::uint32_t length = util::get_u32le(buffer.data());
    if (length > kMaxFrameBytes) {
        throw util::ParseError("frame of " + std::to_string(length) +
                               " bytes exceeds the limit");
    }
    if (buffer.size() < 4u + length) return std::nullopt;
    consumed = 4u + length;
    return buffer.substr(4, length);
}

TcpServer::TcpServer(const std::string& bind_address, std::uint16_t port,
                     std::size_t max_connections, FrameHook on_frame, WakeHook on_wake,
                     std::chrono::milliseconds wake_interval)
    : max_connections_(max_connections),
      on_frame_(std::move(on_frame)),
      on_wake_(std::move(on_wake)),
      wait_ms_(static_cast<int>(std::max<long>(1, static_cast<long>(wake_interval.count())))) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) {
        throw util::SystemError("socket(): " + std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        throw util::SystemError("inet_pton(" + bind_address + ") failed");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(listen_fd_);
        throw util::SystemError("bind/listen(" + bind_address + "): " + reason);
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

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
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

TcpServerStats TcpServer::stats() const {
    TcpServerStats s;
    s.connections = connections_total_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.frames = frames_.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    s.accept_stalls = accept_stalls_.load(std::memory_order_relaxed);
    return s;
}

void TcpServer::close_connection(int fd) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    connections_.erase(fd);
}

bool TcpServer::flush_writes(int fd, Connection& conn) {
    while (conn.out_pos_ < conn.out.size()) {
        const ssize_t n = ::send(fd, conn.out.data() + conn.out_pos_,
                                 conn.out.size() - conn.out_pos_, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_pos_ += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Socket buffer full: park the remainder on EPOLLOUT and stop
            // watching EPOLLIN — backpressure (see the class comment).
            if (!conn.want_write_) {
                epoll_event ev{};
                ev.events = EPOLLOUT;
                ev.data.fd = fd;
                ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
                conn.want_write_ = true;
            }
            return true;
        }
        return false;  // peer went away
    }
    conn.out.clear();
    conn.out_pos_ = 0;
    if (conn.want_write_) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
        conn.want_write_ = false;
    }
    return true;
}

bool TcpServer::process_frames(int fd, Connection& conn) {
    std::size_t consumed = 0;
    // Stop at the first parked write: frames already read stay buffered
    // until the peer drains its replies.
    while (!conn.want_write_) {
        std::size_t frame = 0;
        std::optional<std::string_view> payload;
        try {
            payload = parse_frame(std::string_view(conn.in_).substr(consumed), frame);
        } catch (const util::ParseError&) {
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            close_connection(fd);
            return false;
        }
        if (!payload) break;
        consumed += frame;
        frames_.fetch_add(1, std::memory_order_relaxed);
        if (!on_frame_(conn, *payload)) {
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            close_connection(fd);
            return false;
        }
        if (!flush_writes(fd, conn)) {
            close_connection(fd);
            return false;
        }
    }
    if (consumed > 0) conn.in_.erase(0, consumed);
    return true;
}

void TcpServer::handle_readable(int fd, Connection& conn) {
    char buf[16 << 10];
    // Past one maximal frame of input the buffer holds a whole frame or a
    // garbage length, so cut frames before reading on: input stays bounded
    // however fast the peer writes (the level-triggered EPOLLIN returns).
    while (conn.in_.size() <= kMaxFrameBytes + 4) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn.in_.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        // Orderly shutdown or error: the frames that arrived before it are
        // still served (a sender may close right after its last frame).
        if (process_frames(fd, conn)) close_connection(fd);
        return;
    }
    process_frames(fd, conn);
}

void TcpServer::accept_backlog() {
    for (;;) {
        const int client =
            ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (client < 0) {
            if (errno == EMFILE || errno == ENFILE) {
                // fd exhaustion: accept4 will keep failing without consuming
                // the backlog, and the level-triggered listener would wake
                // every epoll_wait into a hot spin. Take the listener out of
                // the set briefly; established connections keep being served.
                accept_stalls_.fetch_add(1, std::memory_order_relaxed);
                ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
                listener_armed_ = false;
                accept_rearm_at_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
            }
            return;  // EAGAIN or transient error
        }
        if (connections_.size() >= max_connections_) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            ::close(client);
            continue;
        }
        const int one = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        // Keepalive: an idle peer (a caught-up follower, a query client
        // between bursts) that lost power sends no FIN, and nothing is
        // written to it to surface the death; without probes its slot would
        // be held until the cap was leaked.
        ::setsockopt(client, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof one);
        const int idle = 60;
        const int interval = 15;
        const int probes = 4;
        ::setsockopt(client, IPPROTO_TCP, TCP_KEEPIDLE, &idle, sizeof idle);
        ::setsockopt(client, IPPROTO_TCP, TCP_KEEPINTVL, &interval, sizeof interval);
        ::setsockopt(client, IPPROTO_TCP, TCP_KEEPCNT, &probes, sizeof probes);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = client;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &ev);
        connections_.try_emplace(client,
                                 connections_total_.fetch_add(1, std::memory_order_relaxed));
    }
}

void TcpServer::event_loop() {
    std::vector<epoll_event> events(64);
    while (!stopping_.load(std::memory_order_acquire)) {
        const int n =
            ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()), wait_ms_);
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
                // Writes drained: serve the frames that backpressure left
                // buffered (also re-arms EPOLLIN via flush_writes).
                if (!it->second.want_write_ && !process_frames(fd, it->second)) continue;
            }
            if ((events[i].events & EPOLLIN) != 0) handle_readable(fd, it->second);
        }
        if (stopping_.load(std::memory_order_acquire)) break;

        // Re-arm a listener that fd exhaustion disarmed once the cooldown
        // passed (some fds have likely been released by then; if not, the
        // next accept disarms again).
        if (!listener_armed_ && std::chrono::steady_clock::now() >= accept_rearm_at_) {
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.fd = listen_fd_;
            if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
                listener_armed_ = true;
                accept_ready = true;  // drain whatever queued while disarmed
            }
        }
        if (accept_ready) accept_backlog();

        if (on_wake_) {
            awake_.clear();
            for (auto& [fd, conn] : connections_) awake_.push_back(&conn);
            on_wake_(awake_);
            for (auto it = connections_.begin(); it != connections_.end();) {
                const int fd = it->first;
                Connection& conn = (it++)->second;  // advance before a close erases it
                if (conn.unsent() > 0 && !conn.want_write_ && !flush_writes(fd, conn)) {
                    close_connection(fd);
                }
            }
        }
    }
}

TcpSender::TcpSender(const std::string& host, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw util::SystemError("socket(): " + std::string(std::strerror(errno)));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd_);
        fd_ = -1;
        throw util::SystemError("inet_pton(" + host + ") failed");
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd_);
        fd_ = -1;
        throw util::SystemError("connect(): " + std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

TcpSender::~TcpSender() {
    if (fd_ >= 0) ::close(fd_);
}

void TcpSender::send(std::string_view datagram) noexcept {
    if (fd_ < 0) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::string frame;
    append_frame(frame, datagram);
    std::string_view rest = frame;
    while (!rest.empty()) {
        const ssize_t n = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            ::close(fd_);
            fd_ = -1;  // stay broken: a hooked process must not retry-loop
            return;
        }
        rest.remove_prefix(static_cast<std::size_t>(n));
    }
    sent_.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// The query port's connection cap; the ablation opens one connection.
constexpr std::size_t kMaxReceiverConnections = 256;

}  // namespace

TcpReceiver::TcpReceiver(BatchHandler handler, std::uint16_t port)
    : handler_(std::move(handler)),
      server_("127.0.0.1", port, kMaxReceiverConnections,
              [this](TcpServer::Connection& conn, std::string_view payload) {
                  MessageView view;
                  try {
                      decode_view(payload, view);
                  } catch (const util::ParseError&) {
                      malformed_.fetch_add(1, std::memory_order_relaxed);
                      return true;
                  }
                  if (handler_) handler_(conn.id, std::span<const MessageView>(&view, 1));
                  return true;
              }) {}

}  // namespace siren::net

#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/codec.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"

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

namespace {

bool write_all(int fd, const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (size > 0) {
        const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            return false;
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

// Reads exactly `size` bytes, polling in 50 ms slices so `stopping` can
// interrupt a peer that stalls mid-frame. SO_RCVTIMEO is not relied upon:
// sandboxed kernels silently ignore it and recv() then blocks forever.
bool read_all(int fd, void* data, std::size_t size, const std::atomic<bool>& stopping) {
    auto* p = static_cast<std::uint8_t*>(data);
    while (size > 0) {
        if (stopping.load(std::memory_order_relaxed)) return false;
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 50);
        if (ready < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        if (ready == 0) continue;  // timeout: re-check the stop flag
        const ssize_t n = ::recv(fd, p, size, 0);
        if (n <= 0) {
            if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
            return false;
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

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
    const auto len = static_cast<std::uint32_t>(datagram.size());
    if (write_all(fd_, &len, sizeof len) && write_all(fd_, datagram.data(), datagram.size())) {
        sent_.fetch_add(1, std::memory_order_relaxed);
    } else {
        errors_.fetch_add(1, std::memory_order_relaxed);
        ::close(fd_);
        fd_ = -1;  // stay broken: a hooked process must not retry-loop
    }
}

TcpReceiver::TcpReceiver(BatchHandler handler, std::uint16_t port)
    : handler_(std::move(handler)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw util::SystemError("socket(): " + std::string(std::strerror(errno)));

    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw util::SystemError("bind/listen(): " + std::string(std::strerror(errno)));
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    acceptor_ = std::thread([this] { accept_loop(); });
}

TcpReceiver::~TcpReceiver() { stop(); }

void TcpReceiver::stop() {
    if (!stopping_.exchange(true)) {
        if (acceptor_.joinable()) acceptor_.join();
        std::lock_guard lock(readers_mutex_);
        for (auto& r : readers_) {
            if (r.joinable()) r.join();
        }
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
    } else if (acceptor_.joinable()) {
        acceptor_.join();
    }
}

void TcpReceiver::accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 50);
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (ready == 0) continue;  // timeout: re-check the stop flag
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
            break;
        }
        std::lock_guard lock(readers_mutex_);
        readers_.emplace_back(
            [this, client, connection = readers_.size()] { read_loop(client, connection); });
    }
}

void TcpReceiver::read_loop(int client_fd, std::size_t connection) {
    std::string payload;
    MessageView view;
    while (!stopping_.load(std::memory_order_relaxed)) {
        // Wait for the header with poll() so stop() can interrupt idle
        // connections, then peek to distinguish orderly shutdown.
        pollfd pfd{client_fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 50);
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (ready == 0) continue;  // timeout: re-check the stop flag
        std::uint32_t len = 0;
        const ssize_t peeked = ::recv(client_fd, &len, sizeof len, MSG_PEEK);
        if (peeked == 0) break;  // orderly shutdown
        if (peeked < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
            break;
        }
        if (!read_all(client_fd, &len, sizeof len, stopping_)) break;
        if (len > (1u << 20)) break;  // corrupt frame
        payload.resize(len);
        if (!read_all(client_fd, payload.data(), len, stopping_)) break;
        try {
            decode_view(payload, view);
        } catch (const util::ParseError&) {
            malformed_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        if (handler_) handler_(connection, std::span<const MessageView>(&view, 1));
    }
    ::close(client_fd);
}

}  // namespace siren::net

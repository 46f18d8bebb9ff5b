// Checks shared by the suites of the TCP listeners that run on
// net::TcpServer (test_serve: QueryServer, test_replication:
// ReplicationSource, test_tcp: TcpReceiver): raw loopback sockets and the
// fd-exhaustion drill every listener must survive.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "net/tcp.hpp"

namespace listener_checks {

/// Blocking loopback socket connected to `port`, or -1.
inline int raw_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// Send one framed payload; false when the socket refuses it.
inline bool send_frame(int fd, std::string_view payload) {
    std::string frame;
    siren::net::append_frame(frame, payload);
    return ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(frame.size());
}

/// The first frame's payload on `fd`, or nullopt when the peer closes or
/// 5 s pass without one.
inline std::optional<std::string> read_frame(int fd) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::string buffer;
    char buf[4096];
    for (;;) {
        std::size_t consumed = 0;
        if (const auto payload = siren::net::parse_frame(buffer, consumed)) {
            return std::string(*payload);
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        pollfd pfd{fd, POLLIN, 0};
        if (left.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
            return std::nullopt;
        }
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) return std::nullopt;
        buffer.append(buf, static_cast<std::size_t>(n));
    }
}

/// Whether the server closed `fd` (EOF or reset) within 5 s.
inline bool closed_by_server(int fd) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return false;
    char byte = 0;
    return ::recv(fd, &byte, 1, 0) <= 0;
}

/// What one listener shows the fd-exhaustion drill.
struct Listener {
    std::uint16_t port = 0;
    /// Accepted-connection and accept-stall counters; empty when the
    /// listener keeps no stats.
    std::function<std::uint64_t()> accepted;
    std::function<std::uint64_t()> accept_stalls;
    /// Run after the limit is restored: assert that the listener serves
    /// again. `pending` connected while the squeeze was on.
    std::function<void(int pending)> serves;
};

/// Process CPU time (user + system) so far.
inline std::chrono::microseconds cpu_time() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return std::chrono::seconds(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           std::chrono::microseconds(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/// The fd-exhaustion drill: denies the whole process new fds
/// (RLIMIT_NOFILE 0) while three connections wait in the listener's
/// backlog, so every accept fails with EMFILE. Over a 500 ms window the
/// process must burn less than 250 ms of CPU — a listener that retries
/// the level-triggered accept spins a core for the whole window — and a
/// listener with stats must accept nothing and count a stall. Once the
/// limit is restored the listener must drain its backlog and serve.
inline void fd_exhaustion_drill(const Listener& listener) {
    // Client sockets created while fds are plentiful: connect() only needs
    // the listen backlog, so they establish even while the server cannot
    // accept4 them.
    struct Pending {
        std::array<int, 3> fds{-1, -1, -1};
        ~Pending() {
            for (const int fd : fds) {
                if (fd >= 0) ::close(fd);
            }
        }
    } pending;
    for (int& s : pending.fds) {
        s = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        ASSERT_GE(s, 0);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    const std::uint64_t accepted_before = listener.accepted ? listener.accepted() : 0;

    // RAII restore so a failing assertion cannot starve the rest of the
    // binary.
    struct Restore {
        rlimit saved{};
        bool armed = false;
        void now() {
            if (armed) {
                ::setrlimit(RLIMIT_NOFILE, &saved);
                armed = false;
            }
        }
        ~Restore() { now(); }
    } restore;
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &restore.saved), 0);
    restore.armed = true;
    rlimit tight = restore.saved;
    tight.rlim_cur = 0;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

    for (const int s : pending.fds) {
        ASSERT_EQ(::connect(s, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    }
    const auto cpu_before = cpu_time();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const auto burned = cpu_time() - cpu_before;
    EXPECT_LT(burned.count(), 250'000)
        << "the process burned " << burned.count() / 1000
        << " ms of CPU in a 500 ms squeeze: the listener spins on EMFILE";

    if (listener.accept_stalls) {
        // The listener must disarm (counted) instead of hot-spinning the
        // event loop or wedging it.
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (listener.accept_stalls() == 0 && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        ASSERT_GE(listener.accept_stalls(), 1u)
            << "EMFILE on accept must disarm the listener and count the stall";
        EXPECT_EQ(listener.accepted(), accepted_before)
            << "nothing can be accepted while fds are exhausted";
    }

    // fds come back: the re-armed listener drains the backlog it never
    // dropped.
    restore.now();
    if (listener.accepted) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (listener.accepted() < accepted_before + 3 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        EXPECT_EQ(listener.accepted(), accepted_before + 3);
    }
    listener.serves(pending.fds[0]);
}

}  // namespace listener_checks

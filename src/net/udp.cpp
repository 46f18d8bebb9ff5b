#include "net/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace siren::net {

UdpSender::UdpSender(const std::string& host, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
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
}

UdpSender::~UdpSender() {
    if (fd_ >= 0) ::close(fd_);
}

void UdpSender::send(std::string_view datagram) noexcept {
    if (fd_ < 0) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const ssize_t n = ::send(fd_, datagram.data(), datagram.size(), 0);
    if (n == static_cast<ssize_t>(datagram.size())) {
        sent_.fetch_add(1, std::memory_order_relaxed);
    } else {
        errors_.fetch_add(1, std::memory_order_relaxed);
    }
}

}  // namespace siren::net

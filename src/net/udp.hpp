#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/channel.hpp"

namespace siren::net {

/// Real UDP datagram sender (IPv4). The constructor resolves and connects
/// the socket; send() is sendto-and-forget and never throws or blocks on
/// the receiver — errors are counted, not raised, so a hooked user process
/// is never disturbed (paper §3.1 "Data Transmission").
class UdpSender : public Transport {
public:
    UdpSender(const std::string& host, std::uint16_t port);
    ~UdpSender() override;

    UdpSender(const UdpSender&) = delete;
    UdpSender& operator=(const UdpSender&) = delete;

    void send(std::string_view datagram) noexcept override;

    std::uint64_t sent() const { return sent_.load(); }
    std::uint64_t errors() const { return errors_.load(); }

private:
    int fd_ = -1;
    std::atomic<std::uint64_t> sent_{0};
    std::atomic<std::uint64_t> errors_{0};
};

}  // namespace siren::net

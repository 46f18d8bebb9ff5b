#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string_view>

#include "net/message.hpp"

namespace siren::net {

/// Abstract datagram transport: the collector's only dependency on the
/// outside world. Implementations: UdpSender (real sockets), the inline
/// and database campaign pipelines (core/framework.cpp), and the TCP and
/// spool-file ablation baselines. send() must never throw — "fire and
/// forget" (paper §3.1): collection failures must not disturb the hooked
/// user process.
class Transport {
public:
    virtual ~Transport() = default;
    virtual void send(std::string_view datagram) noexcept = 0;
};

/// The receive end's one contract: every receiver (ingest::IngestServer,
/// TcpReceiver, drain_spool) hands decoded views to a handler of this type.
/// `source` is the shard, connection or sweep that produced the batch. The
/// views alias receiver-owned bytes and are valid only during the call.
/// Receivers with several threads call it concurrently — synchronize
/// shared sinks (db::Table::append already is).
using BatchHandler =
    std::function<void(std::size_t source, std::span<const MessageView> batch)>;

}  // namespace siren::net

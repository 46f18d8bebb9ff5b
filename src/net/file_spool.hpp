#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/channel.hpp"

namespace siren::net {

/// File-based collection — the XALT-style design SIREN rejected.
///
/// XALT (paper §5) writes a .json file per hooked process into a spool
/// directory and consolidates them periodically; the paper argues this
/// burdens the shared filesystem ("excessive open file handles ...
/// aggregating excessive amounts of small files"). This transport exists
/// as the third arm of the transport ablation: each datagram becomes one
/// small file, so the bench can measure the metadata cost and the failure
/// mode (spool unwritable) next to UDP, TCP and the fourth durability arm
/// — the storage::SegmentStore behind the ingest daemon, which also
/// persists every datagram but amortizes it into a few append-only,
/// fsync-batched segment files instead of N tiny files (see
/// bench_ablation_transport and docs/storage_format.md).
///
/// Naming: `<seq>-<pid>.msg`, seq monotone per sender — unique within a
/// process and collision-free across processes, like XALT's per-process
/// files. Writes are create+write+close per datagram; like every SIREN
/// transport, send() never throws (graceful failure: an unwritable spool
/// only increments the error counter).
class FileSpoolSender : public Transport {
public:
    /// The directory is created if missing; creation failure is deferred
    /// to send() (counted, not thrown) — a hooked process must survive a
    /// read-only filesystem.
    explicit FileSpoolSender(std::string spool_dir);

    void send(std::string_view datagram) noexcept override;

    std::uint64_t sent() const { return sent_.load(); }
    std::uint64_t errors() const { return errors_.load(); }
    const std::string& spool_dir() const { return spool_dir_; }

private:
    std::string spool_dir_;
    std::atomic<std::uint64_t> seq_{0};
    std::atomic<std::uint64_t> sent_{0};
    std::atomic<std::uint64_t> errors_{0};
};

/// Result of one spool sweep.
struct SpoolDrainStats {
    std::uint64_t files_seen = 0;
    std::uint64_t delivered = 0;   ///< decoded and handed to the handler
    std::uint64_t malformed = 0;   ///< decode failures (file still removed)
};

/// Consume every `*.msg` file in `spool_dir` (the periodic consolidation
/// sweep of the file-based design), deleting consumed files. Each decoded
/// file reaches `handler` as a one-view batch with `source` 0, on the
/// calling thread. Files are processed in name order, so seq ordering is
/// preserved per sender. Missing directory = empty sweep, not an error.
SpoolDrainStats drain_spool(const std::string& spool_dir, const BatchHandler& handler);

}  // namespace siren::net

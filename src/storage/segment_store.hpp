#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "storage/segment.hpp"

namespace siren::storage {

/// A directory of segment files shared by N writer shards — the durable
/// landing zone of the ingest daemon (ingest::IngestServer).
///
/// Each shard owns a private SegmentWriter with a shard-tagged filename
/// prefix (`shard<k>-<seq>.seg`), so concurrent appends never contend on a
/// lock; cross-shard record order is not preserved, which is fine — SIREN
/// messages are unordered by design (the consolidator keys on header
/// fields, not arrival order). Sealed segments become compaction
/// candidates once marked consolidated; replay walks every `*.seg` in the
/// directory, including segments a previous (crashed) process left behind.
class SegmentStore {
public:
    /// Throws util::SystemError when the directory cannot be created.
    explicit SegmentStore(std::string directory, std::size_t shards = 1,
                          SegmentOptions options = {});

    SegmentStore(const SegmentStore&) = delete;
    SegmentStore& operator=(const SegmentStore&) = delete;

    const std::string& directory() const { return directory_; }
    std::size_t shards() const { return writers_.size(); }

    /// Append one record to `shard`'s stream. Each shard must be fed by at
    /// most one thread at a time (the writers are single-threaded by
    /// design); distinct shards are safe concurrently.
    bool append(std::size_t shard, std::string_view record) noexcept;

    /// Direct writer access for per-shard idle syncs and stats.
    SegmentWriter& writer(std::size_t shard) { return *writers_[shard]; }

    /// Durability barrier across every shard.
    void sync_all() noexcept;

    /// Seal every active segment and close the writers (clean shutdown).
    void close() noexcept;

    /// Replay every complete record currently in the directory (all
    /// shards, plus leftovers from earlier runs). Flushes writers first so
    /// the replay sees everything appended so far.
    ReplayStats replay(const RecordFn& fn);

    /// Sealed (rotated-out) segments not yet compacted, in seal order.
    std::vector<std::string> sealed_segments() const;

    /// Mark a sealed segment as fully consolidated — its records have been
    /// applied downstream (database rows, aggregates) and the segment is
    /// no longer needed for crash recovery.
    void mark_consolidated(const std::string& path);

    /// Delete every sealed segment that has been marked consolidated;
    /// returns how many files were removed. The active segments are never
    /// touched. Safe to call from a background thread.
    std::size_t compact() noexcept;

    // Aggregated counters across shards.
    std::uint64_t appended() const;
    std::uint64_t appended_bytes() const;
    std::uint64_t errors() const;
    std::uint64_t segments_sealed() const;
    std::uint64_t segments_compacted() const { return compacted_; }

private:
    struct Sealed {
        std::string path;
        bool consolidated = false;
    };

    std::string directory_;
    std::vector<std::unique_ptr<SegmentWriter>> writers_;

    mutable std::mutex sealed_mutex_;
    std::vector<Sealed> sealed_;
    std::uint64_t sealed_count_ = 0;
    std::uint64_t compacted_ = 0;
};

}  // namespace siren::storage

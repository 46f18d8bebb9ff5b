#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace siren::storage {

/// Durable append-only segment files — the on-disk spine of the ingest
/// daemon. Full byte-level layout in docs/storage_format.md; in short:
///
///   segment  := header record*
///   header   := "SIRENSG1" u32(version) u32(reserved)
///   record   := u32(kind<<24 | payload length) u32(crc32c of payload) payload
///
/// All integers little-endian. The top byte of the length word is the
/// *record kind*: kind 0 is a raw wire datagram (every record written
/// before the field existed reads back as kind 0, since lengths never
/// reached 2^24). Readers skip-and-count records whose kind they do not
/// understand — forward compatibility for mixed-version fleets where a
/// newer leader ships record kinds an older follower cannot parse yet.
/// A segment may end in a *torn* record (the writer crashed mid-append);
/// replay recovers every complete record and reports the tear instead of
/// throwing.

inline constexpr std::string_view kSegmentMagic = "SIRENSG1";
inline constexpr std::uint32_t kSegmentVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 16;
inline constexpr std::size_t kRecordHeaderBytes = 8;
/// Sanity bound on one record's payload: the length must fit the low 24
/// bits of the frame word so the kind byte above it is unambiguous.
inline constexpr std::uint32_t kMaxRecordBytes = (1u << 24) - 1;
/// Record kinds this version understands. Raw wire datagrams are the only
/// kind delivered to replay/tail callbacks; anything else is counted as
/// unknown and skipped.
inline constexpr std::uint8_t kRecordKindRaw = 0;
inline constexpr unsigned kRecordKindShift = 24;
inline constexpr std::uint32_t kRecordLengthMask = (1u << kRecordKindShift) - 1;
/// Every segment file carries this suffix; replay scans for it.
inline constexpr std::string_view kSegmentSuffix = ".seg";

/// Durability and rotation policy for one writer.
struct SegmentOptions {
    std::size_t max_segment_bytes = 64u << 20;  ///< seal + rotate past this size
    std::size_t buffer_bytes = 256u << 10;      ///< user-space write coalescing
    /// fsync once this many bytes have been appended since the last sync —
    /// the "fsync-batched" knob: durability lags at most this many bytes.
    std::size_t fsync_interval_bytes = 1u << 20;
    bool fsync_enabled = true;  ///< off = page cache only (benches, tmpfs)
};

/// Single-threaded append-only writer for one stream of segments
/// (`<dir>/<prefix><seq>.seg`). The ingest daemon gives each shard its own
/// writer, so the hot path needs no locking; all I/O failures after
/// construction are counted, never thrown — a full disk must not kill the
/// collector spine, only its durability.
class SegmentWriter {
public:
    /// Invoked (from the writing thread) each time a segment is sealed,
    /// with its path; the SegmentStore uses this to track compaction
    /// candidates.
    using SealFn = std::function<void(const std::string& path)>;

    /// resume_seq value meaning "scan the directory for the resume point".
    static constexpr std::uint64_t kResumeByScan = ~0ull;

    /// Creates `directory` if missing (throws util::SystemError when that
    /// fails — a misconfigured store should be loud). Resumes the segment
    /// sequence *after* any `<prefix><seq>.seg` a previous run left behind
    /// — a restarted process appends new segments next to the old data it
    /// will later replay, never over it. The resume point is found by
    /// scanning the directory, unless the caller already knows it
    /// (SegmentStore scans once for all shards — see
    /// scan_resume_sequences) and passes `resume_seq` explicitly. The
    /// first segment file is opened lazily on first append.
    SegmentWriter(std::string directory, std::string prefix, SegmentOptions options = {},
                  SealFn on_seal = nullptr, std::uint64_t resume_seq = kResumeByScan);
    ~SegmentWriter();

    SegmentWriter(const SegmentWriter&) = delete;
    SegmentWriter& operator=(const SegmentWriter&) = delete;

    /// Append one record (typically one raw wire datagram). Buffered;
    /// false only on I/O failure (also counted in errors()). `kind` tags
    /// the frame's record kind; today's writers only emit kRecordKindRaw,
    /// but readers already skip-and-count unknown kinds, so a future
    /// writer can introduce new kinds without wedging older replicas.
    bool append(std::string_view record, std::uint8_t kind = kRecordKindRaw) noexcept;

    /// Write the user-space buffer to the active segment without fsync:
    /// every record appended so far becomes readable (SegmentTail,
    /// replication) at page-cache speed. False when the write failed; the
    /// records it lost are counted in dropped_records().
    bool flush() noexcept;

    /// Durability barrier: write out the user-space buffer and fsync.
    /// No-op when nothing is pending.
    void sync() noexcept;

    /// Group commit, caller = a background flusher thread: fsync whatever
    /// has already been write()n, via a dup'd fd, *without* touching the
    /// user-space buffer — safe concurrently with the appending thread,
    /// which keeps writing at page-cache speed while the disk catches up.
    void sync_written() noexcept;

    /// Disable the append-path fsync-at-interval (buffer flushes at
    /// interval instead); pair with a background thread calling
    /// sync_written(). Durability lag becomes flush cadence + whatever the
    /// appender has not yet write()n (at most one buffer; ingest shard
    /// workers flush() theirs once its oldest record is ~1 ms old).
    void set_inline_fsync(bool inline_fsync) { inline_fsync_ = inline_fsync; }

    /// Seal the active segment (sync + close + on_seal) — the next append
    /// opens a fresh file. No-op when no segment is open.
    void rotate() noexcept;

    /// sync + close without sealing the active segment as rotation would;
    /// the file stays replayable (close() is what clean shutdown calls).
    void close() noexcept;

    std::uint64_t appended() const { return appended_; }
    /// Records append() accepted (returned true for) that a later failed
    /// write dropped — in flush(), sync(), rotate() or a later append's
    /// buffer write. With append()'s false returns, this accounts for
    /// every record that never reached the file. Appender thread only.
    std::uint64_t dropped_records() const { return dropped_records_; }
    std::uint64_t appended_bytes() const { return appended_bytes_; }
    std::uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }
    std::uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
    std::uint64_t segments_opened() const { return segments_opened_; }
    /// Bytes appended but not yet fsync'ed (the durability lag). Retired
    /// by sync() and — in group-commit mode — by each successful
    /// sync_written(), so it stays bounded under steady traffic.
    std::uint64_t unsynced_bytes() const {
        const std::uint64_t p = pending_bytes_.load(std::memory_order_relaxed);
        const std::uint64_t s = synced_bytes_.load(std::memory_order_relaxed);
        return p > s ? p - s : 0;
    }
    const std::string& active_path() const { return active_path_; }
    /// Sequence number the next opened segment file will carry. Right
    /// after construction this is the resume point — strictly greater
    /// than every segment a previous run left behind, which makes it
    /// usable as a per-incarnation epoch (the observe WAL derives
    /// restart-unique job ids from it; see RecognitionService).
    std::uint64_t next_segment_seq() const { return next_seq_; }

private:
    bool open_next() noexcept;
    /// Empty the buffer after a failed or impossible write: its records
    /// are lost (counted), and `unwritten` of its bytes never reached the
    /// file.
    void drop_buffer(std::size_t unwritten) noexcept;
    /// Raise the durable watermark to `watermark` (CAS-max: the appender's
    /// sync() and the flusher's sync_written() race benignly).
    void advance_synced(std::uint64_t watermark) noexcept;
    /// A write() failed mid-buffer: the active file may end in a partial
    /// record that would misalign the length framing for everything after
    /// it. Close and seal the damaged segment so the next append opens a
    /// fresh one — replay then sees the damage as one torn tail instead of
    /// silently losing every later record.
    void abandon_segment() noexcept;

    std::string directory_;
    std::string prefix_;
    SegmentOptions options_;
    SealFn on_seal_;

    int fd_ = -1;
    int dir_fd_ = -1;  ///< fsync'ed after create/seal so renames survive a crash
    /// Guards fd_ *transitions* (open/rotate/close) against sync_written()'s
    /// dup(); the append/write fast path never takes it.
    std::mutex fd_mutex_;
    bool inline_fsync_ = true;
    std::string active_path_;
    std::string buffer_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t segment_bytes_ = 0;  ///< written + buffered bytes of the active file
    /// Durability-lag accounting as monotonic byte watermarks: pending_ =
    /// bytes that entered the user-space buffer, flushed_ = bytes write()n
    /// to a segment fd (both advanced by the appending thread only),
    /// synced_ = the durable high-water mark, raised by whichever of
    /// sync()/sync_written() fsyncs. unsynced_bytes() = pending - synced.
    std::atomic<std::uint64_t> pending_bytes_{0};
    std::atomic<std::uint64_t> flushed_bytes_{0};
    std::atomic<std::uint64_t> synced_bytes_{0};

    std::uint64_t appended_ = 0;
    std::uint64_t appended_bytes_ = 0;
    /// Buffer-drop events (appender thread only). append() uses the delta
    /// across its own flush/sync/rotate calls to report whether *this*
    /// record was dropped — errors_ won't do, since the flusher thread
    /// also counts fsync failures there, which are not record drops.
    std::uint64_t flush_drops_ = 0;
    std::uint64_t buffered_records_ = 0;  ///< records in buffer_ (appender thread only)
    std::uint64_t dropped_records_ = 0;   ///< see dropped_records()
    /// After a failed interval fsync, no retry until pending_bytes_ passes
    /// this mark — one failing fsync per interval, not one per append
    /// (appender thread only).
    std::uint64_t inline_sync_backoff_until_ = 0;
    /// Atomic because the flusher thread's sync_written() counts failed
    /// fsyncs here too; everything else increments from the appender.
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> syncs_{0};  ///< bumped by appender and flusher
    std::uint64_t segments_opened_ = 0;
};

/// Accounting for one replay pass. A "tear" is an incomplete record at the
/// end of a segment (crashed writer); a "crc failure" is a complete record
/// whose payload no longer matches its checksum (bit rot) — the record is
/// skipped but scanning continues, since the length framing is intact.
struct ReplayStats {
    std::uint64_t segments = 0;       ///< files with a valid header
    std::uint64_t records = 0;        ///< complete, checksummed records delivered
    std::uint64_t bytes = 0;          ///< payload bytes delivered
    std::uint64_t torn_tails = 0;     ///< segments ending mid-record
    std::uint64_t torn_bytes = 0;     ///< bytes abandoned in torn tails
    std::uint64_t crc_failures = 0;   ///< records dropped on checksum mismatch
    std::uint64_t bad_segments = 0;   ///< files skipped: unreadable/bad magic/version
    std::uint64_t unknown_kinds = 0;  ///< valid records of a kind this version cannot parse
    std::uint64_t filtered = 0;       ///< valid records a replay predicate excluded

    void merge(const ReplayStats& o);
};

using RecordFn = std::function<void(std::string_view record)>;

/// Keep-predicate for filtered replay: return true to deliver the record.
/// The partition rebalance uses this to export only the records whose
/// digest block size falls in the moving key range (serve::record_in_range).
using RecordPredicate = std::function<bool(std::string_view record)>;

/// One directory pass computing, for each prefix, the sequence a restarted
/// writer should resume at (highest existing `<prefix><seq>.seg` + 1, or 0
/// when none). SegmentStore uses this so an N-shard restart scans the
/// shared directory once instead of N times. A missing directory yields
/// all zeros.
std::vector<std::uint64_t> scan_resume_sequences(const std::string& directory,
                                                 const std::vector<std::string>& prefixes);

/// Every `*.seg` file under `directory`, ordered by (stream prefix, numeric
/// sequence) — the canonical replay order, shared by replay_directory and
/// the serving layer's segment tailer. A missing directory yields an empty
/// list. When `error` is non-null it receives the directory iteration's
/// error code (cleared on success) — callers tracking per-file state (the
/// segment tail) must not mistake a transiently unreadable directory for
/// "every file vanished".
std::vector<std::string> list_segments(const std::string& directory,
                                       std::error_code* error = nullptr);

/// Read up to `max_bytes` of `path` starting at byte `offset` into `out`
/// (replacing its contents), via pread — safe against a writer appending
/// to the same file concurrently, since segment files are strictly
/// append-only and bytes below the current size never change. Returns the
/// number of bytes read: 0 on error, a missing file, or offset at/past the
/// end. This is the byte-level read the replication source uses to stream
/// sealed *and live* segments from a follower-supplied watermark.
std::size_t read_segment_range(const std::string& path, std::uint64_t offset,
                               std::size_t max_bytes, std::string& out);

/// Replay every complete record of one segment file, in append order.
/// Never throws: unreadable files and bad headers count as bad_segments,
/// torn tails and checksum mismatches are counted and skipped.
ReplayStats replay_segment(const std::string& path, const RecordFn& fn);

/// Filtered replay: records failing `keep` are counted (ReplayStats::
/// filtered) and not delivered; everything else is replay_segment above.
/// A null predicate keeps everything.
ReplayStats replay_segment(const std::string& path, const RecordFn& fn,
                           const RecordPredicate& keep);

/// Replay every `*.seg` file under `directory`, ordered by (stream
/// prefix, numeric sequence) — append order per shard stream, even when a
/// sequence outgrows its zero padding. A missing directory is an empty
/// replay, not an error.
ReplayStats replay_directory(const std::string& directory, const RecordFn& fn);

/// Filtered directory replay, same predicate contract as the single-file
/// overload.
ReplayStats replay_directory(const std::string& directory, const RecordFn& fn,
                             const RecordPredicate& keep);

}  // namespace siren::storage

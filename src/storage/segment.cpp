#include "storage/segment.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "hashing/crc32c.hpp"
#include "util/endian.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace siren::storage {

namespace fs = std::filesystem;

using util::get_u32le;
using util::put_u32le;

namespace {

/// Split `<head><digits>.seg` so segments can be matched to a stream and
/// ordered by numeric sequence: plain lexicographic order breaks once a
/// sequence outgrows its zero padding ("…-100000000.seg" would sort before
/// "…-11111112.seg" despite being appended later). The caller guarantees
/// `path` ends with kSegmentSuffix.
std::pair<std::string_view, std::string_view> split_segment_name(std::string_view path) {
    path.remove_suffix(kSegmentSuffix.size());
    std::size_t digits_at = path.size();
    while (digits_at > 0 && path[digits_at - 1] >= '0' && path[digits_at - 1] <= '9') {
        --digits_at;
    }
    return {path.substr(0, digits_at), path.substr(digits_at)};
}

}  // namespace

SegmentWriter::SegmentWriter(std::string directory, std::string prefix, SegmentOptions options,
                             SealFn on_seal, std::uint64_t resume_seq)
    : directory_(std::move(directory)),
      prefix_(std::move(prefix)),
      options_(options),
      on_seal_(std::move(on_seal)) {
    std::error_code ec;
    fs::create_directories(directory_, ec);
    if (ec) {
        throw util::SystemError("segment store: cannot create " + directory_ + ": " +
                                ec.message());
    }
    dir_fd_ = ::open(directory_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    buffer_.reserve(options_.buffer_bytes + 4096);

    // Resume the sequence after whatever segments an earlier process left
    // here: a restart on the same durable directory (the documented crash
    // recovery workflow) must append *next to* the surviving data it will
    // later replay, never truncate over it.
    next_seq_ = resume_seq != kResumeByScan
                    ? resume_seq
                    : scan_resume_sequences(directory_, {prefix_}).front();
}

std::vector<std::uint64_t> scan_resume_sequences(const std::string& directory,
                                                 const std::vector<std::string>& prefixes) {
    std::vector<std::uint64_t> next(prefixes.size(), 0);
    std::error_code ec;
    for (fs::directory_iterator it(directory, ec), end; !ec && it != end; it.increment(ec)) {
        std::error_code file_ec;
        if (!it->is_regular_file(file_ec)) continue;
        const std::string name = it->path().filename().string();
        if (name.size() <= kSegmentSuffix.size() || !name.ends_with(kSegmentSuffix)) continue;
        // Match each prefix literally (not via split_segment_name's
        // trailing-digit heuristic): a prefix that itself ends in a digit
        // would otherwise never match and restart its stream at 0. No
        // early break — overlapping prefixes ("t-" and "t-1") each take
        // the conservative, higher resume point.
        for (std::size_t i = 0; i < prefixes.size(); ++i) {
            const std::string& prefix = prefixes[i];
            if (name.size() <= prefix.size() + kSegmentSuffix.size()) continue;
            if (!name.starts_with(prefix)) continue;
            const std::string_view digits(name.data() + prefix.size(),
                                          name.size() - prefix.size() - kSegmentSuffix.size());
            if (digits.empty() || digits.size() > 18) continue;
            std::uint64_t seq = 0;
            bool numeric = true;
            for (const char c : digits) {
                if (c < '0' || c > '9') {
                    numeric = false;
                    break;
                }
                seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
            }
            if (numeric && seq >= next[i]) next[i] = seq + 1;
        }
    }
    return next;
}

SegmentWriter::~SegmentWriter() {
    close();
    if (dir_fd_ >= 0) ::close(dir_fd_);
}

bool SegmentWriter::open_next() noexcept {
    if (const auto fp = SIREN_FAILPOINT("storage.segment.open");
        fp.action == util::failpoint::Action::kError) {
        // Injected open failure (ENOSPC, EMFILE, ...): same accounting as a
        // real one — counted, no active segment, the caller's append drops.
        ++errors_;
        active_path_.clear();
        return false;
    }
    // O_EXCL is belt-and-braces on top of the constructor's directory scan:
    // a name collision (another writer, a segment created since the scan)
    // advances the sequence instead of truncating someone else's data.
    int fd = -1;
    for (int attempt = 0; attempt < 65536; ++attempt) {
        char name[32];
        std::snprintf(name, sizeof name, "%08llu", static_cast<unsigned long long>(next_seq_));
        active_path_ = directory_ + "/" + prefix_ + name + std::string(kSegmentSuffix);
        fd = ::open(active_path_.c_str(), O_CREAT | O_WRONLY | O_EXCL | O_CLOEXEC, 0644);
        if (fd >= 0 || errno != EEXIST) break;
        ++next_seq_;
    }
    {
        std::lock_guard<std::mutex> lock(fd_mutex_);
        fd_ = fd;
    }
    if (fd_ < 0) {
        ++errors_;
        active_path_.clear();
        return false;
    }
    ++next_seq_;
    ++segments_opened_;
    // Make the new directory entry itself durable before data lands in it.
    if (options_.fsync_enabled && dir_fd_ >= 0) ::fsync(dir_fd_);
    buffer_.append(kSegmentMagic);
    util::append_u32le(buffer_, kSegmentVersion);
    util::append_u32le(buffer_, 0);  // reserved
    segment_bytes_ = kSegmentHeaderBytes;
    pending_bytes_.fetch_add(kSegmentHeaderBytes, std::memory_order_relaxed);
    return true;
}

void SegmentWriter::drop_buffer(std::size_t unwritten) noexcept {
    ++errors_;
    ++flush_drops_;
    dropped_records_ += buffered_records_;
    buffered_records_ = 0;
    pending_bytes_.fetch_sub(unwritten, std::memory_order_relaxed);
    buffer_.clear();
}

bool SegmentWriter::flush() noexcept {
    if (buffer_.empty()) return true;
    if (fd_ < 0) {
        // Nothing to write into: drop the buffered bytes, count the loss.
        drop_buffer(buffer_.size());
        return false;
    }
    const char* p = buffer_.data();
    std::size_t remaining = buffer_.size();
    while (remaining > 0) {
        ssize_t n;
        if (const auto fp = SIREN_FAILPOINT("storage.segment.write")) {
            if (fp.action == util::failpoint::Action::kShortWrite && remaining > 1) {
                // Land a real prefix before failing: the file ends mid-frame,
                // exactly the torn tail a crash between the two write()s
                // leaves, so replay-side torn_tails accounting is exercised
                // against genuine on-disk truncation.
                const ssize_t wrote = ::write(fd_, p, remaining / 2);
                if (wrote > 0) {
                    flushed_bytes_.fetch_add(static_cast<std::uint64_t>(wrote),
                                             std::memory_order_relaxed);
                    p += wrote;
                    remaining -= static_cast<std::size_t>(wrote);
                }
            }
            errno = fp.err != 0 ? fp.err : ENOSPC;
            n = -1;
        } else {
            n = ::write(fd_, p, remaining);
        }
        if (n < 0) {
            if (errno == EINTR) continue;
            // Disk trouble: drop what we could not write (counted) rather
            // than grow the buffer without bound — and since an earlier
            // partial write() may have left a truncated record mid-file,
            // abandon this segment so the misaligned framing cannot poison
            // records appended after it.
            drop_buffer(remaining);
            abandon_segment();
            return false;
        }
        flushed_bytes_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
        p += n;
        remaining -= static_cast<std::size_t>(n);
    }
    buffer_.clear();
    buffered_records_ = 0;
    return true;
}

void SegmentWriter::advance_synced(std::uint64_t watermark) noexcept {
    std::uint64_t cur = synced_bytes_.load(std::memory_order_relaxed);
    while (cur < watermark &&
           !synced_bytes_.compare_exchange_weak(cur, watermark, std::memory_order_relaxed)) {
    }
}

void SegmentWriter::abandon_segment() noexcept {
    {
        std::lock_guard<std::mutex> lock(fd_mutex_);
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }
    // The damaged file's written-but-unsynced bytes will never be fsynced;
    // they are lost (errors_), not lagging — stop reporting them.
    advance_synced(flushed_bytes_.load(std::memory_order_relaxed));
    if (on_seal_) on_seal_(active_path_);
    active_path_.clear();
    segment_bytes_ = 0;
}

bool SegmentWriter::append(std::string_view record, std::uint8_t kind) noexcept {
    if (record.size() > kMaxRecordBytes) {
        ++errors_;
        return false;
    }
    // A buffer drop while this record is in flight — in append's own
    // flush, in the interval sync() or inside rotate() — means the record
    // (possibly with earlier buffered ones) was lost: the caller must not
    // see it reported as journaled. Durability-only failures (a failed
    // fsync of bytes that did reach the file) are deliberately excluded;
    // those records exist and will replay.
    const std::uint64_t drops_before = flush_drops_;
    if (fd_ < 0 && !open_next()) return false;

    // One append for the frame header, one for the payload — the framing
    // cost must stay invisible next to the record memcpy.
    char frame[kRecordHeaderBytes];
    put_u32le(frame, static_cast<std::uint32_t>(record.size()) |
                         (static_cast<std::uint32_t>(kind) << kRecordKindShift));
    put_u32le(frame + 4, hash::crc32c(record));
    buffer_.append(frame, kRecordHeaderBytes);
    buffer_.append(record);
    if (const auto fp = SIREN_FAILPOINT("storage.segment.corrupt");
        fp.action == util::failpoint::Action::kCorrupt && !record.empty()) {
        // Flip a payload byte *after* the CRC was framed: replay sees a
        // complete record whose checksum lies — the bit-rot path.
        buffer_.back() = static_cast<char>(buffer_.back() ^ 0x01);
    }

    const std::uint64_t framed = kRecordHeaderBytes + record.size();
    ++buffered_records_;
    ++appended_;
    appended_bytes_ += framed;
    segment_bytes_ += framed;
    pending_bytes_.fetch_add(framed, std::memory_order_relaxed);

    if (buffer_.size() >= options_.buffer_bytes) flush();
    // Group-commit mode skips the interval fsync entirely: the buffer_bytes
    // flush above keeps bytes flowing to the page cache and the flusher
    // thread's sync_written() makes them durable — the unsynced watermark
    // then only bounds the *idle* sync, it must not trigger per-append work.
    if (inline_fsync_ && unsynced_bytes() >= options_.fsync_interval_bytes &&
        pending_bytes_.load(std::memory_order_relaxed) >= inline_sync_backoff_until_) {
        sync();
        if (unsynced_bytes() >= options_.fsync_interval_bytes) {
            // fsync failed and left the lag in place (only that path can:
            // a flush drop zeroes the lag). Don't hammer an ailing disk
            // with one fsync per append — retry after another interval's
            // worth of appends.
            inline_sync_backoff_until_ =
                pending_bytes_.load(std::memory_order_relaxed) + options_.fsync_interval_bytes;
        }
    }
    if (segment_bytes_ >= options_.max_segment_bytes) rotate();
    if (flush_drops_ == drops_before) return true;
    // The first drop above took this record with it: it is reported here,
    // not among the accepted records dropped_records() counts.
    --dropped_records_;
    return false;
}

void SegmentWriter::sync_written() noexcept {
    if (!options_.fsync_enabled) return;
    // Compare against *flushed*, not pending: bytes still in the appender's
    // user-space buffer cannot be fsynced from here, so when nothing new
    // has been write()n since the last sync the fsync would be a no-op.
    if (flushed_bytes_.load(std::memory_order_relaxed) <=
        synced_bytes_.load(std::memory_order_relaxed)) {
        return;
    }
    int dup_fd = -1;
    std::uint64_t watermark = 0;
    {
        std::lock_guard<std::mutex> lock(fd_mutex_);
        if (fd_ < 0) return;
        dup_fd = ::dup(fd_);
        // Snapshot under the lock: the fd cannot rotate away before the
        // load, so every byte counted here went to this fd or to an
        // already-synced predecessor — the fsync below makes all of them
        // durable even while the appender keeps writing past the mark.
        watermark = flushed_bytes_.load(std::memory_order_relaxed);
    }
    if (dup_fd < 0) {
        // fd exhaustion: nothing was fsynced, the lag stays visible and
        // the failure is counted — not a silent skip.
        ++errors_;
        return;
    }
    // fsync outside the lock: the appender can open/rotate freely while
    // the disk catches up; a rotation mid-fsync just means this dup keeps
    // the sealed file alive until its bytes are safe.
    int rc;
    if (const auto fp = SIREN_FAILPOINT("storage.segment.fsync");
        fp.action == util::failpoint::Action::kError) {
        errno = fp.err != 0 ? fp.err : EIO;
        rc = -1;
    } else {
        rc = ::fsync(dup_fd);
    }
    ::close(dup_fd);
    if (rc != 0) {
        // Not durable: leave the watermark where it was so the lag stays
        // visible and the next interval retries the fsync.
        ++errors_;
        return;
    }
    syncs_.fetch_add(1, std::memory_order_relaxed);
    advance_synced(watermark);
}

void SegmentWriter::sync() noexcept {
    flush();
    if (fd_ >= 0 && options_.fsync_enabled && unsynced_bytes() > 0) {
        const bool injected = SIREN_FAILPOINT("storage.segment.fsync").action ==
                              util::failpoint::Action::kError;
        if (injected || ::fsync(fd_) != 0) {
            // Not durable: keep the lag visible, retry on the next sync.
            ++errors_;
            return;
        }
        syncs_.fetch_add(1, std::memory_order_relaxed);
    }
    advance_synced(flushed_bytes_.load(std::memory_order_relaxed));
}

void SegmentWriter::rotate() noexcept {
    if (fd_ < 0) return;
    sync();
    // sync()'s flush may have hit a write failure and already abandoned
    // (closed + sealed) the segment — nothing left to rotate.
    if (fd_ < 0) return;
    {
        std::lock_guard<std::mutex> lock(fd_mutex_);
        ::close(fd_);
        fd_ = -1;
    }
    // If sync()'s fsync failed (counted in errors_), the fd it could have
    // retried against is now gone — reconcile the watermark so the sealed
    // segment's bytes stop reporting as retriable lag.
    advance_synced(flushed_bytes_.load(std::memory_order_relaxed));
    if (options_.fsync_enabled && dir_fd_ >= 0) ::fsync(dir_fd_);
    if (on_seal_) on_seal_(active_path_);
    active_path_.clear();
    segment_bytes_ = 0;
}

void SegmentWriter::close() noexcept {
    if (fd_ < 0) {
        pending_bytes_.fetch_sub(buffer_.size(), std::memory_order_relaxed);
        buffer_.clear();
        return;
    }
    sync();
    if (fd_ < 0) return;  // abandoned by a failed flush inside sync()
    {
        std::lock_guard<std::mutex> lock(fd_mutex_);
        ::close(fd_);
        fd_ = -1;
    }
    // As in rotate(): a failed final fsync has no fd left to retry against.
    advance_synced(flushed_bytes_.load(std::memory_order_relaxed));
    segment_bytes_ = 0;
}

void ReplayStats::merge(const ReplayStats& o) {
    segments += o.segments;
    records += o.records;
    bytes += o.bytes;
    torn_tails += o.torn_tails;
    torn_bytes += o.torn_bytes;
    crc_failures += o.crc_failures;
    bad_segments += o.bad_segments;
    unknown_kinds += o.unknown_kinds;
    filtered += o.filtered;
}

std::size_t read_segment_range(const std::string& path, std::uint64_t offset,
                               std::size_t max_bytes, std::string& out) {
    out.clear();
    if (max_bytes == 0) return 0;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return 0;
    out.resize(max_bytes);
    std::size_t total = 0;
    while (total < max_bytes) {
        const ssize_t n = ::pread(fd, out.data() + total, max_bytes - total,
                                  static_cast<off_t>(offset + total));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        total += static_cast<std::size_t>(n);
    }
    ::close(fd);
    out.resize(total);
    return total;
}

ReplayStats replay_segment(const std::string& path, const RecordFn& fn) {
    ReplayStats stats;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ++stats.bad_segments;
        return stats;
    }
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    if (end < 0) {
        ++stats.bad_segments;
        return stats;
    }
    const auto size = static_cast<std::uint64_t>(end);
    in.seekg(0);

    char header[kSegmentHeaderBytes];
    if (size < kSegmentHeaderBytes || !in.read(header, kSegmentHeaderBytes) ||
        std::memcmp(header, kSegmentMagic.data(), kSegmentMagic.size()) != 0 ||
        get_u32le(header + 8) != kSegmentVersion) {
        ++stats.bad_segments;
        return stats;
    }
    ++stats.segments;

    std::string payload;
    char rec[kRecordHeaderBytes];
    std::uint64_t pos = kSegmentHeaderBytes;
    while (pos < size) {
        if (size - pos < kRecordHeaderBytes) {
            // Partial record header: the writer died between the two
            // write()s (or mid-header) — classic torn tail.
            ++stats.torn_tails;
            stats.torn_bytes += size - pos;
            break;
        }
        if (!in.read(rec, kRecordHeaderBytes)) {
            ++stats.torn_tails;
            stats.torn_bytes += size - pos;
            break;
        }
        const std::uint32_t word = get_u32le(rec);
        const std::uint8_t kind = static_cast<std::uint8_t>(word >> kRecordKindShift);
        const std::uint32_t length = word & kRecordLengthMask;
        const std::uint32_t crc = get_u32le(rec + 4);
        if (size - pos - kRecordHeaderBytes < length) {
            // Length field points past the end of the file: torn payload.
            ++stats.torn_tails;
            stats.torn_bytes += size - pos;
            break;
        }
        payload.resize(length);
        if (length > 0 && !in.read(payload.data(), length)) {
            ++stats.torn_tails;
            stats.torn_bytes += size - pos;
            break;
        }
        pos += kRecordHeaderBytes + length;
        if (hash::crc32c(payload) != crc) {
            // Complete record, wrong checksum: bit rot in the payload (or a
            // corrupt frame word that mis-framed this read). The framing as
            // parsed is intact, so skip this record and keep scanning.
            ++stats.crc_failures;
            continue;
        }
        if (kind != kRecordKindRaw) {
            // A well-formed record of a kind this version does not speak —
            // written by a newer process sharing the directory. Count and
            // skip; treating it as corruption would wedge mixed-version
            // fleets on the first future-format record.
            ++stats.unknown_kinds;
            continue;
        }
        ++stats.records;
        stats.bytes += length;
        if (fn) fn(payload);
    }
    return stats;
}

namespace {

bool segment_order(const std::string& a, const std::string& b) {
    const auto [head_a, seq_a] = split_segment_name(a);
    const auto [head_b, seq_b] = split_segment_name(b);
    if (head_a != head_b) return head_a < head_b;
    std::string_view na = seq_a.substr(std::min(seq_a.find_first_not_of('0'), seq_a.size()));
    std::string_view nb = seq_b.substr(std::min(seq_b.find_first_not_of('0'), seq_b.size()));
    if (na.size() != nb.size()) return na.size() < nb.size();  // shorter number = smaller
    if (na != nb) return na < nb;
    return a < b;  // numeric tie (padding difference): keep the order total
}

}  // namespace

std::vector<std::string> list_segments(const std::string& directory, std::error_code* error) {
    std::error_code ec;
    std::vector<std::string> paths;
    for (fs::directory_iterator it(directory, ec), end; !ec && it != end; it.increment(ec)) {
        std::error_code file_ec;
        if (!it->is_regular_file(file_ec)) continue;
        const std::string name = it->path().filename().string();
        if (name.size() > kSegmentSuffix.size() && name.ends_with(kSegmentSuffix)) {
            paths.push_back(it->path().string());
        }
    }
    if (error != nullptr) *error = ec;
    std::sort(paths.begin(), paths.end(), segment_order);
    return paths;
}

ReplayStats replay_segment(const std::string& path, const RecordFn& fn,
                           const RecordPredicate& keep) {
    if (!keep) return replay_segment(path, fn);
    std::uint64_t filtered = 0;
    ReplayStats stats = replay_segment(path, [&](std::string_view record) {
        if (!keep(record)) {
            ++filtered;
            return;
        }
        if (fn) fn(record);
    });
    stats.filtered = filtered;
    return stats;
}

ReplayStats replay_directory(const std::string& directory, const RecordFn& fn) {
    ReplayStats stats;
    for (const auto& path : list_segments(directory)) {
        stats.merge(replay_segment(path, fn));
    }
    return stats;
}

ReplayStats replay_directory(const std::string& directory, const RecordFn& fn,
                             const RecordPredicate& keep) {
    ReplayStats stats;
    for (const auto& path : list_segments(directory)) {
        stats.merge(replay_segment(path, fn, keep));
    }
    return stats;
}

}  // namespace siren::storage

// siren_bench — the end-to-end benchmark of the SIREN pipeline, from a
// collector datagram to an identifiable family (bench/e2e/README.md).
//
// One process builds the production pipeline from public classes:
//
//   1024 net::UdpSender sockets --loopback--> ingest::IngestServer (4 shards)
//     --> storage::SegmentStore --> serve::RecognitionService (segment tail,
//     single writer, COW snapshots) --> serve::QueryServer <-- QueryClient
//
// and drives one named workload against it from a seed:
//
//   siren_bench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end metrics; with --trace 1 they are the per-layer metrics, taken
// by timing calls into each layer's public functions from this file only.
// Exit status: 0 = every correctness check held, 1 = a check failed (the
// JSON line is still printed), 2 = usage or set-up error (no JSON).

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <malloc.h>

#include "collect/collector.hpp"
#include "fuzzy/compare.hpp"
#include "fuzzy/ctph.hpp"
#include "hashing/fnv.hpp"
#include "ingest/ingest_server.hpp"
#include "net/codec.hpp"
#include "net/udp.hpp"
#include "recognize/registry.hpp"
#include "serve/query_client.hpp"
#include "serve/query_protocol.hpp"
#include "serve/query_server.hpp"
#include "serve/recognition_service.hpp"
#include "serve/segment_tail.hpp"
#include "storage/segment.hpp"
#include "storage/segment_store.hpp"
#include "util/base64.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "workload/generator.hpp"

namespace {

namespace fs = std::filesystem;
using siren::fuzzy::FuzzyDigest;

// ---- fixed settings -------------------------------------------------------

// Daemon defaults (`siren_ingestd --shards 4`, `siren_recognized` with
// --poll-ms 20 --publish-ms 5 --threshold 60 --checkpoint-secs 30), so the
// benchmark measures what an operator runs.
constexpr std::size_t kShards = 4;
constexpr auto kFeedPoll = std::chrono::milliseconds(20);
constexpr auto kPublishInterval = std::chrono::milliseconds(5);
constexpr int kMatchThreshold = 60;
constexpr auto kCheckpointInterval = std::chrono::seconds(30);

/// UDP source sockets, driven round-robin by one thread. The kernel's
/// SO_REUSEPORT hash spreads them over the ingest shards the way 1024
/// compute nodes would; with few sockets the per-shard split (and with it
/// marker visibility) varies from run to run.
constexpr std::size_t kSources = 1024;
constexpr double kWarmupSeconds = 2.0;
/// The window is cut into sub-windows and each end-to-end metric is the
/// median of its per-sub-window values, so a host hiccup of a second or so
/// moves one sub-window, not the result.
constexpr std::size_t kSubWindows = 5;
/// Set-up is repeated and its median reported: a single set-up time is too
/// noisy to gate on (on a shared host, set-up runs 30-90% slower for
/// seconds at a time).
constexpr int kSetupReps = 11;
constexpr double kGraceSeconds = 10.0;
constexpr std::size_t kOracleSample = 256;
constexpr std::size_t kProbePool = 4096;
/// An open-loop operation sent this long after it was due counts as
/// failed: the generator stalled and the run no longer offers its rate.
constexpr std::int64_t kLateLimitNs = 1'000'000'000;
/// Segments, checkpoints and traces, relative to the checkout root.
constexpr const char* kOutDir = "build/bench-e2e";

/// Markers live at a block size outside every workload ladder, so probing
/// for one scans only marker buckets and costs the same on every workload.
constexpr std::uint64_t kMarkerBlockSize = 3ull << 20;
constexpr std::uint64_t kMarkerJobBase = 1ull << 48;
constexpr std::uint64_t kHashJobBase = 1ull << 40;
constexpr std::uint64_t kLadder[] = {1536, 3072, 6144};
constexpr std::size_t kVariantsPerFamily = 8;
constexpr double kCampaignScale = 0.02;

// ---- workloads ------------------------------------------------------------

/// One traffic mix. Every workload runs both sides of SIREN — datagrams
/// with markers on the write side, IDENTIFY on the read side — in different
/// proportions, so every metric is measured on every workload.
struct Workload {
    const char* name;
    std::size_t registry;      ///< checkpoint-booted digests
    double slot_rate;          ///< datagrams/s, open loop
    std::size_t marker_every;  ///< every k-th datagram is a marker (1 = all)
    /// Of the other datagrams, every k-th is a FILE_H of the hash mix
    /// (1 = all of them, 0 = none: the campaign stream only).
    std::size_t hash_every;
    std::size_t connections;   ///< IDENTIFY connections
    double read_rate;          ///< open-loop IDENTIFY/s in total; 0 = closed loop
};

constexpr Workload kWorkloads[] = {
    // A campaign datagram burst: net decode, ingest, storage and the segment
    // tail do the work; the writer applies few FILE_H. (At 100k/s the ingest
    // threads crowd the 4 cores, and the read side's latency then amplifies
    // every slowdown of the host.)
    {"campaign_peak", 10000, 50000, 250, 0, 1, 100},
    // A FILE_H-only backfill at a fixed 400/s, about half of what the single
    // writer applies per second, plus 100 markers/s: its similarity observe
    // + publish is the busiest stage, ingest idles. (Offered faster than the
    // writer applies, a backlog builds and visibility depends on where a
    // marker sits in it.)
    {"hash_backfill", 10000, 500, 5, 1, 1, 100},
    // Analysts saturating IDENTIFY (closed loop) on a 20k-digest registry
    // while markers trickle in: serve.query and the recognize scan work.
    {"identify_mix", 20000, 100, 1, 0, 2, 0},
    // A steady write load beside a fixed read load, the same on both
    // commits: shows a change that speeds one side at the other's cost.
    {"site_mixed", 10000, 600, 10, 20, 2, 200},
};

const Workload* find_workload(std::string_view name) {
    for (const auto& w : kWorkloads) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

// ---- small utilities --------------------------------------------------------

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void sleep_until_ns(std::int64_t t) {
    const std::int64_t d = t - now_ns();
    if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

std::uint64_t rss_bytes() {
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0;
    std::uint64_t resident = 0;
    statm >> size >> resident;
    return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

std::int64_t cpu_ns() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval& t) {
        return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
               static_cast<std::int64_t>(t.tv_usec) * 1000;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

std::string fs_type(const std::string& path) {
    struct statfs info{};
    if (::statfs(path.c_str(), &info) != 0) return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
        case 0x01021994: return "tmpfs";
        case 0xEF53: return "ext4";
        case 0x794C7630: return "overlayfs";
        default: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(info.f_type));
            return buf;
        }
    }
}

template <typename T>
double as_double(T v) {
    return static_cast<double>(v);
}

/// Nearest-rank quantile of an ascending vector; 0 when empty.
double quantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(std::ceil(q * as_double(sorted.size())));
    return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return quantile(v, 0.5);
}

/// Log-linear histogram of nanosecond values (16 sub-buckets per power of
/// two, ~6% resolution) — for the per-datagram schedule lateness, where
/// keeping every sample would itself grow the memory being measured.
class LogHistogram {
public:
    void record(std::int64_t ns) {
        const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)) + 1;
        const int log = 63 - __builtin_clzll(v);
        const std::size_t sub = log >= 4 ? (v >> (log - 4)) & 15 : v & 15;
        const std::size_t bucket = static_cast<std::size_t>(log) * 16 + sub;
        ++counts_[std::min(bucket, counts_.size() - 1)];
        ++total_;
        max_ = std::max(max_, ns);
    }
    double quantile_ns(double q) const {
        const auto target = static_cast<std::uint64_t>(std::ceil(q * as_double(total_)));
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < counts_.size(); ++b) {
            seen += counts_[b];
            if (seen >= target && counts_[b] > 0) {
                const std::size_t log = b / 16;
                const std::uint64_t sub = b % 16;
                const std::uint64_t lo = log >= 4 ? ((16 + sub) << (log - 4)) : sub;
                return as_double(lo);
            }
        }
        return as_double(max_);
    }
    std::int64_t max_ns() const { return max_; }

private:
    std::array<std::uint64_t, 64 * 16> counts_{};
    std::uint64_t total_ = 0;
    std::int64_t max_ = 0;
};

std::string random_part(siren::util::Rng& rng, std::size_t len) {
    std::string s(len, ' ');
    for (auto& c : s) c = siren::util::kBase64Alphabet[rng.index(64)];
    return s;
}

FuzzyDigest random_digest(siren::util::Rng& rng, std::uint64_t block_size) {
    FuzzyDigest d;
    d.block_size = block_size;
    d.digest1 = random_part(rng, 48 + rng.index(16));
    d.digest2 = random_part(rng, 24 + rng.index(8));
    return d;
}

FuzzyDigest mutate(siren::util::Rng& rng, FuzzyDigest d, std::size_t edits) {
    for (std::size_t e = 0; e < edits; ++e) {
        std::string& part = rng.below(3) == 0 ? d.digest2 : d.digest1;
        part[rng.index(part.size())] = siren::util::kBase64Alphabet[rng.index(64)];
    }
    return d;
}

/// Independent generator for item `i` of stream `tag`: any item can be
/// rebuilt on its own, so the stream is the same however fast it is consumed.
siren::util::Rng item_rng(std::uint64_t seed, std::uint64_t tag, std::uint64_t i) {
    return siren::util::Rng(siren::util::mix64(seed * 0x9E3779B97F4A7C15ull ^ tag) ^
                            siren::util::mix64(i + 1));
}

// ---- inputs -----------------------------------------------------------------

/// The paper's three outcomes for a sighting: a repeat of a known
/// executable, a drifted variant of one, or an unseen executable.
enum class Draw { kExact, kDrifted, kUnseen };

struct Drawn {
    FuzzyDigest digest;
    Draw kind = Draw::kExact;
    std::size_t corpus_index = 0;
};

/// 50% exact re-sightings, 30% variants with 1-4 edits, 20% unseen.
Drawn draw_mix(const std::vector<FuzzyDigest>& corpus, siren::util::Rng& rng) {
    Drawn out;
    const auto roll = rng.below(10);
    if (roll < 8) {
        out.corpus_index = rng.index(corpus.size());
        out.kind = roll < 5 ? Draw::kExact : Draw::kDrifted;
        out.digest = roll < 5 ? corpus[out.corpus_index]
                              : mutate(rng, corpus[out.corpus_index], 1 + rng.index(4));
    } else {
        out.kind = Draw::kUnseen;
        out.digest = random_digest(rng, kLadder[rng.index(3)]);
    }
    return out;
}

std::string family_name(std::size_t corpus_index) {
    return "fam-" + std::to_string(corpus_index / kVariantsPerFamily);
}

struct ProbeInput {
    std::string digest;
    Draw kind = Draw::kExact;
    std::string expected;  ///< exact probes: the family they must resolve to
};

/// Collector transport that keeps every datagram in one arena.
class CaptureTransport : public siren::net::Transport {
public:
    void send(std::string_view datagram) noexcept override {
        spans.emplace_back(arena.size(), datagram.size());
        arena.append(datagram);
    }
    std::string arena;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
};

/// Everything a run is made of, generated from the seed at set-up.
struct Inputs {
    std::vector<FuzzyDigest> corpus;  ///< registry digests, 8 variants per family
    std::string checkpoint;           ///< SIRENCKPT text booting that registry
    CaptureTransport campaign;        ///< LUMI campaign datagrams (when used)
    std::vector<ProbeInput> probes;   ///< IDENTIFY pool, cycled by the readers

    std::uint64_t fingerprint() const {
        std::uint64_t h = siren::hash::fnv1a64(checkpoint);
        h = siren::hash::fnv1a64(campaign.arena, h);
        for (const auto& p : probes) h = siren::hash::fnv1a64(p.digest, h);
        return h;
    }
};

bool uses_campaign(const Workload& w) { return w.marker_every != 1 && w.hash_every != 1; }

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
    Inputs in;
    // Families of drifted variants on the {1536, 3072, 6144} ladder, as in
    // bench_serve_qps: the registry a long-running site accumulates.
    siren::util::Rng rng = item_rng(seed, 1, 0);
    while (in.corpus.size() < w.registry) {
        const FuzzyDigest base = random_digest(rng, kLadder[rng.index(3)]);
        for (std::size_t v = 0; v < kVariantsPerFamily && in.corpus.size() < w.registry; ++v) {
            in.corpus.push_back(v == 0 ? base : mutate(rng, base, 1 + rng.index(5)));
        }
    }
    const std::size_t families = (in.corpus.size() + kVariantsPerFamily - 1) / kVariantsPerFamily;
    std::string& ck = in.checkpoint;
    ck = "SIRENCKPT 1\napplied 0\nregistry\n";
    for (std::size_t f = 0; f < families; ++f) {
        const std::size_t members =
            std::min(kVariantsPerFamily, in.corpus.size() - f * kVariantsPerFamily);
        ck += "family " + std::to_string(f) + ' ' + std::to_string(members) + " fam-" +
              std::to_string(f) + '\n';
    }
    for (std::size_t i = 0; i < in.corpus.size(); ++i) {
        ck += "exemplar " + std::to_string(i / kVariantsPerFamily) + ' ' +
              in.corpus[i].to_string() + '\n';
    }

    if (uses_campaign(w)) {
        siren::workload::GeneratorOptions options;
        options.scale = kCampaignScale;
        options.seed = seed;
        const siren::workload::Generator generator(siren::workload::lumi_campaign(), options);
        siren::collect::FileStore store;
        generator.populate_store(store);
        siren::collect::Collector collector(store, in.campaign);
        generator.run([&](const siren::sim::SimProcess& p) { collector.collect(p); });
    }

    siren::util::Rng probe_rng = item_rng(seed, 2, 0);
    in.probes.reserve(kProbePool);
    for (std::size_t i = 0; i < kProbePool; ++i) {
        Drawn d = draw_mix(in.corpus, probe_rng);
        ProbeInput p;
        p.digest = d.digest.to_string();
        p.kind = d.kind;
        if (d.kind == Draw::kExact) p.expected = family_name(d.corpus_index);
        in.probes.push_back(std::move(p));
    }
    return in;
}

// ---- the datagram stream ----------------------------------------------------

enum class SlotKind { kCampaign, kHash, kMarker };

struct Slot {
    SlotKind kind = SlotKind::kCampaign;
    std::uint64_t index = 0;  ///< marker / hash / campaign ordinal
    std::string_view bytes;
};

/// Slot s of a workload's datagram stream. Stateless: markers sit at every
/// marker_every-th slot, hash-mix records at every hash_every-th of the
/// rest, the campaign stream (replayed cyclically) fills the others.
class StreamSource {
public:
    StreamSource(const Workload& w, const Inputs& in, std::uint64_t seed)
        : w_(w), in_(in), seed_(seed) {}

    Slot at(std::uint64_t s, std::string& scratch, FuzzyDigest* marker_digest = nullptr) const {
        Slot slot;
        if ((s + 1) % w_.marker_every == 0) {
            slot.kind = SlotKind::kMarker;
            slot.index = s / w_.marker_every;
            siren::util::Rng rng = item_rng(seed_, 3, slot.index);
            FuzzyDigest digest = random_digest(rng, kMarkerBlockSize);
            encode(kMarkerJobBase + slot.index, digest, scratch);
            if (marker_digest != nullptr) *marker_digest = std::move(digest);
            slot.bytes = scratch;
            return slot;
        }
        const std::uint64_t n = s - s / w_.marker_every;  // ordinal among non-markers
        if (w_.hash_every != 0 && (n + 1) % w_.hash_every == 0) {
            slot.kind = SlotKind::kHash;
            slot.index = n / w_.hash_every;
            siren::util::Rng rng = item_rng(seed_, 4, slot.index);
            encode(kHashJobBase + slot.index, draw_mix(in_.corpus, rng).digest, scratch);
            slot.bytes = scratch;
            return slot;
        }
        slot.kind = SlotKind::kCampaign;
        slot.index = w_.hash_every != 0 ? n - n / w_.hash_every : n;
        const auto& spans = in_.campaign.spans;
        const auto [offset, size] = spans[slot.index % spans.size()];
        slot.bytes = std::string_view(in_.campaign.arena).substr(offset, size);
        return slot;
    }

private:
    /// One FILE_H datagram as a collector on compute node `job % 1024`
    /// would send it.
    static void encode(std::uint64_t job, const FuzzyDigest& digest, std::string& out) {
        siren::net::Message m;
        m.job_id = job;
        m.pid = static_cast<std::int64_t>(1000 + job % 30000);
        m.exe_hash = "00112233445566778899aabbccddeeff";
        char host[16];
        std::snprintf(host, sizeof host, "nid%06u", static_cast<unsigned>(job % 1024));
        m.host = host;
        m.time = 1733875200;
        m.type = siren::net::MsgType::kFileHash;
        m.content = digest.to_string();
        siren::net::encode_into(m, out);
    }

    const Workload& w_;
    const Inputs& in_;
    std::uint64_t seed_;
};

// ---- markers ------------------------------------------------------------------

/// One marker's life. The sender fills digest/sent_ns before publishing the
/// marker count; later stages stamp their first sighting.
struct Marker {
    FuzzyDigest digest;
    std::int64_t sent_ns = 0;
    std::atomic<std::int64_t> handled_ns{0};   ///< ingest handler saw it (trace)
    std::atomic<std::int64_t> readable_ns{0};  ///< passive tail read it (trace)
    std::atomic<std::int64_t> visible_ns{0};   ///< identify returned score 100
};

void stamp_first(std::atomic<std::int64_t>& slot, std::int64_t t) {
    std::int64_t expected = 0;
    slot.compare_exchange_strong(expected, t, std::memory_order_relaxed);
}

class MarkerTable {
public:
    explicit MarkerTable(std::size_t capacity)
        : markers_(std::make_unique<Marker[]>(capacity)), capacity_(capacity) {}

    std::size_t capacity() const { return capacity_; }
    Marker& operator[](std::size_t i) { return markers_[i]; }
    const Marker& operator[](std::size_t i) const { return markers_[i]; }
    std::size_t sent() const { return sent_.load(std::memory_order_acquire); }
    void publish_sent(std::size_t n) { sent_.store(n, std::memory_order_release); }

    /// Marker index of a decoded datagram, or nullopt.
    std::optional<std::size_t> marker_of(const siren::net::MessageView& v) const {
        if (v.type != siren::net::MsgType::kFileHash || v.job_id < kMarkerJobBase) {
            return std::nullopt;
        }
        const std::uint64_t idx = v.job_id - kMarkerJobBase;
        if (idx >= capacity_) return std::nullopt;
        return static_cast<std::size_t>(idx);
    }

private:
    std::unique_ptr<Marker[]> markers_;
    std::size_t capacity_;
    std::atomic<std::size_t> sent_{0};
};

// ---- the system under test --------------------------------------------------

void write_checkpoint(const std::string& dir, const std::string& text) {
    const std::string path = dir + "/registry.ckpt";
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + path);
}

siren::serve::ServeOptions serve_options(const std::string& dir) {
    siren::serve::ServeOptions o;
    o.segments_dir = dir + "/segments";
    o.checkpoint_path = dir + "/registry.ckpt";
    o.feed_poll = kFeedPoll;
    o.publish_interval = kPublishInterval;
    o.checkpoint_interval = kCheckpointInterval;
    o.registry.match_threshold = kMatchThreshold;
    return o;
}

siren::storage::SegmentOptions segment_options() {
    siren::storage::SegmentOptions o;
    // Segments live inside the checkout, which may be a disk: fsync is off
    // so the storage layer costs what it costs on tmpfs, and a neighbour's
    // disk traffic does not enter the measurement.
    o.fsync_enabled = false;
    return o;
}

siren::ingest::IngestOptions ingest_options(siren::storage::SegmentStore* store) {
    siren::ingest::IngestOptions o;
    o.shards = kShards;
    o.store = store;
    return o;
}

/// ingest -> storage -> serve -> query, in construction order (and torn
/// down in reverse).
struct Pipeline {
    Pipeline(const std::string& dir, siren::ingest::IngestServer::BatchHandler handler)
        : store(dir + "/segments", kShards, segment_options()),
          service(serve_options(dir)),
          ingest(ingest_options(&store), std::move(handler)),
          server(service) {}

    siren::storage::SegmentStore store;
    siren::serve::RecognitionService service;
    siren::ingest::IngestServer ingest;
    siren::serve::QueryServer server;
};

// ---- the read side ------------------------------------------------------------

/// A singleton content IDENTIFY, the verb analysts and tools send.
siren::serve::Probe content_probe(const std::string& digest) {
    siren::serve::Probe probe;
    probe.content = digest;
    return probe;
}

struct ReadSample {
    std::int64_t due_ns = 0;   ///< open loop: the schedule; closed loop: the send
    std::int64_t sent_ns = 0;
    std::int64_t done_ns = 0;
    bool failed = false;
};

/// One IDENTIFY connection and the thread that drives it.
class Reader {
public:
    Reader(std::uint16_t port, std::size_t index, const Workload& w,
           const std::vector<ProbeInput>& probes)
        : port_(port), index_(index), w_(w), probes_(probes),
          client_(std::make_unique<siren::serve::QueryClient>("127.0.0.1", port)) {}

    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;
    ~Reader() { join(); }

    void start(std::int64_t t0, std::int64_t t_end) {
        thread_ = std::thread([this, t0, t_end] { loop(t0, t_end); });
    }
    void join() {
        if (thread_.joinable()) thread_.join();
    }

    std::vector<ReadSample> samples;
    std::uint64_t errors = 0;      ///< transport failures, timeouts, ERR replies
    std::uint64_t overloaded = 0;  ///< of which "ERR overloaded"
    std::uint64_t wrong = 0;       ///< exact probes not resolved to their family at 100
    std::uint64_t late = 0;        ///< sent more than kLateLimitNs after due

private:
    void loop(std::int64_t t0, std::int64_t t_end) {
        const bool open = w_.read_rate > 0;
        for (std::uint64_t k = 0;; ++k) {
            const std::uint64_t g = k * w_.connections + index_;
            ReadSample s;
            if (open) {
                s.due_ns = t0 + static_cast<std::int64_t>(as_double(g) * 1e9 / w_.read_rate);
                if (s.due_ns >= t_end) break;
                sleep_until_ns(s.due_ns);
                s.sent_ns = now_ns();
            } else {
                s.sent_ns = s.due_ns = now_ns();
                if (s.sent_ns >= t_end) break;
            }
            if (s.sent_ns - s.due_ns > kLateLimitNs) ++late;
            const ProbeInput& probe = probes_[g % probes_.size()];
            try {
                if (!client_) {
                    client_ = std::make_unique<siren::serve::QueryClient>("127.0.0.1", port_);
                }
                const auto reply = client_->identify(content_probe(probe.digest));
                s.done_ns = now_ns();
                if (probe.kind == Draw::kExact &&
                    (reply.empty() || reply.front().score != 100 ||
                     reply.front().name != probe.expected)) {
                    ++wrong;
                    s.failed = true;
                }
            } catch (const std::exception& e) {
                s.done_ns = now_ns();
                s.failed = true;
                ++errors;
                if (std::strstr(e.what(), siren::serve::kOverloadedError.data()) != nullptr) {
                    ++overloaded;
                }
                client_.reset();  // reconnect on the next request
            }
            samples.push_back(s);
        }
    }

    std::uint16_t port_;
    std::size_t index_;
    const Workload& w_;
    const std::vector<ProbeInput>& probes_;
    std::unique_ptr<siren::serve::QueryClient> client_;
    std::thread thread_;
};

// ---- the watcher ----------------------------------------------------------------

/// Probes every outstanding marker with an in-process identify after each
/// snapshot publish; the first score-100 answer is the marker's visibility.
/// In a traced run it also drives a passive SegmentTail on the segment
/// directory, stamping when each marker first becomes readable — on this
/// thread, so the generator stays within four threads.
class Watcher {
public:
    Watcher(const siren::serve::RecognitionService& service, MarkerTable& markers,
            std::string segments_dir, bool trace)
        : service_(service), markers_(markers), segments_dir_(std::move(segments_dir)),
          trace_(trace) {}

    Watcher(const Watcher&) = delete;
    Watcher& operator=(const Watcher&) = delete;
    ~Watcher() { stop(); }

    void start() { thread_ = std::thread([this] { loop(); }); }
    void stop() {
        stop_.store(true, std::memory_order_relaxed);
        if (thread_.joinable()) thread_.join();
    }
    /// Markers sent so far that are not yet visible.
    std::size_t outstanding() const { return outstanding_.load(std::memory_order_acquire); }

private:
    void loop() {
        std::optional<siren::serve::SegmentTail> tail;
        if (trace_) tail.emplace(segments_dir_);
        std::shared_ptr<const siren::serve::RegistrySnapshot> last;
        std::vector<std::size_t> pending;
        std::size_t seen = 0;
        while (!stop_.load(std::memory_order_relaxed)) {
            if (tail) {
                siren::net::MessageView view;
                tail->poll(
                    [&](std::string_view record) {
                        try {
                            siren::net::decode_view(record, view);
                        } catch (const siren::util::ParseError&) {
                            return;
                        }
                        if (const auto m = markers_.marker_of(view)) {
                            stamp_first(markers_[*m].readable_ns, now_ns());
                        }
                    },
                    4096);
            }
            const std::size_t sent = markers_.sent();
            for (; seen < sent; ++seen) pending.push_back(seen);
            auto snap = service_.snapshot();
            if (snap != last) {
                last = std::move(snap);
                std::erase_if(pending, [&](std::size_t m) {
                    const auto hit = service_.identify(markers_[m].digest);
                    if (!hit || hit->score != 100) return false;
                    markers_[m].visible_ns.store(now_ns(), std::memory_order_relaxed);
                    return true;
                });
            }
            outstanding_.store(pending.size() + (markers_.sent() - seen),
                               std::memory_order_release);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    const siren::serve::RecognitionService& service_;
    MarkerTable& markers_;
    std::string segments_dir_;
    bool trace_;
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> outstanding_{0};
    std::thread thread_;
};

// ---- the brute-force oracle -----------------------------------------------------

std::uint64_t pack_gram(std::string_view s, std::size_t i) {
    std::uint64_t key = 0;
    std::memcpy(&key, s.data() + i, siren::fuzzy::kCommonSubstringLength);
    return key;
}

/// Checks identify replies against a brute-force fuzzy::compare scan of
/// the registry they were answered from. compare() scores 0 unless two
/// digests share a 7-gram of their sequence-eliminated parts or are equal,
/// so scanning only the exemplars that share a gram with a probe (plus
/// every exemplar too short to have one) is exact; any family at the best
/// score is accepted.
using Reply = std::vector<siren::serve::FusedIdentified>;

std::size_t oracle_mismatches(const siren::recognize::Registry& registry,
                              const std::vector<std::string>& probes,
                              const std::vector<Reply>& replies, std::string& detail) {
    std::ostringstream saved;
    registry.save(saved);
    std::vector<FuzzyDigest> exemplars;
    std::vector<std::uint32_t> owner;
    {
        std::istringstream lines(saved.str());
        std::string kind;
        std::string line;
        while (std::getline(lines, line)) {
            std::istringstream fields(line);
            fields >> kind;
            if (kind != "exemplar") continue;
            std::uint32_t family = 0;
            std::string digest;
            fields >> family >> digest;
            owner.push_back(family);
            exemplars.push_back(FuzzyDigest::parse(digest));
        }
    }

    const std::size_t gram = siren::fuzzy::kCommonSubstringLength;
    std::vector<FuzzyDigest> parsed;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> probe_grams;
    for (std::uint32_t p = 0; p < probes.size(); ++p) {
        parsed.push_back(FuzzyDigest::parse(probes[p]));
        for (const auto& part : {parsed[p].digest1, parsed[p].digest2}) {
            const std::string e = siren::fuzzy::eliminate_sequences(part);
            for (std::size_t i = 0; i + gram <= e.size(); ++i) {
                probe_grams[pack_gram(e, i)].push_back(p);
            }
        }
    }
    std::vector<std::vector<std::uint32_t>> candidates(probes.size());
    std::vector<std::uint32_t> short_exemplars;
    for (std::uint32_t x = 0; x < exemplars.size(); ++x) {
        const std::string e1 = siren::fuzzy::eliminate_sequences(exemplars[x].digest1);
        const std::string e2 = siren::fuzzy::eliminate_sequences(exemplars[x].digest2);
        if (e1.size() < gram || e2.size() < gram) short_exemplars.push_back(x);
        for (const auto* e : {&e1, &e2}) {
            for (std::size_t i = 0; i + gram <= e->size(); ++i) {
                const auto it = probe_grams.find(pack_gram(*e, i));
                if (it == probe_grams.end()) continue;
                for (const auto p : it->second) candidates[p].push_back(x);
            }
        }
    }

    std::size_t mismatches = 0;
    for (std::size_t p = 0; p < probes.size(); ++p) {
        auto& cand = candidates[p];
        cand.insert(cand.end(), short_exemplars.begin(), short_exemplars.end());
        std::sort(cand.begin(), cand.end());
        cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
        int best = 0;
        std::vector<std::uint32_t> best_families;
        for (const auto x : cand) {
            const int score = siren::fuzzy::compare(parsed[p], exemplars[x]);
            if (score > best) {
                best = score;
                best_families.assign(1, owner[x]);
            } else if (score == best && score > 0) {
                best_families.push_back(owner[x]);
            }
        }
        const auto& reply = replies[p];
        const bool ok =
            best < kMatchThreshold
                ? reply.empty()
                : (!reply.empty() && reply.front().score == best &&
                   std::find(best_families.begin(), best_families.end(), reply.front().family) !=
                       best_families.end());
        if (!ok) {
            if (mismatches == 0) {
                detail = "probe " + probes[p] + ": brute force best " + std::to_string(best) +
                         ", reply " +
                         (reply.empty() ? std::string("UNKNOWN")
                                        : reply.front().name + " at " +
                                              std::to_string(reply.front().score));
            }
            ++mismatches;
        }
    }
    return mismatches;
}

// ---- stage replay -------------------------------------------------------------

/// Single-threaded baseline: the workload's own inputs through the public
/// call of each layer, one layer at a time.
struct StageTimes {
    double decode_view_ns = 0;
    double append_ns = 0;
    double tail_poll_ns = 0;
    double parse_ns = 0;
    double observe_us = 0;
    double publish_copy_us = 0;
    double identify_us = 0;
    double fileh_share = 0;  ///< FILE_H records among the replayed datagrams
    std::uint64_t sink = 0;  ///< keeps the timed calls' results alive
};

StageTimes replay_stages(const Inputs& in, const StreamSource& source, const std::string& dir,
                         double records_per_publish) {
    constexpr std::size_t kRecords = 20000;
    constexpr std::int64_t kStageBudgetNs = 500'000'000;
    StageTimes t;

    std::string arena;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::string scratch;
    for (std::uint64_t s = 0; s < kRecords; ++s) {
        const Slot slot = source.at(s, scratch);
        spans.emplace_back(arena.size(), slot.bytes.size());
        arena.append(slot.bytes);
    }
    const auto datagram = [&](std::size_t i) {
        return std::string_view(arena).substr(spans[i].first, spans[i].second);
    };

    std::vector<std::string> contents;  // FILE_H digests of the sample
    std::uint64_t sink = 0;  // results feed it, so no timed call is optimised away
    std::int64_t t0 = now_ns();
    siren::net::MessageView view;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        siren::net::decode_view(datagram(i), view);
        sink += view.job_id;
    }
    t.decode_view_ns = as_double(now_ns() - t0) / as_double(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        siren::net::decode_view(datagram(i), view);
        if (view.type == siren::net::MsgType::kFileHash) contents.push_back(view.content_str());
    }
    t.fileh_share = as_double(contents.size()) / as_double(spans.size());

    const std::string seg_dir = dir + "/replay";
    {
        siren::storage::SegmentWriter writer(seg_dir, "replay-", segment_options());
        t0 = now_ns();
        for (std::size_t i = 0; i < spans.size(); ++i) writer.append(datagram(i));
        writer.sync();
        t.append_ns = as_double(now_ns() - t0) / as_double(spans.size());
    }
    {
        siren::serve::SegmentTail tail(seg_dir);
        std::size_t delivered = 0;
        t0 = now_ns();
        while (true) {
            const std::size_t n = tail.poll([&](std::string_view r) { sink += r.size(); });
            if (n == 0) break;
            delivered += n;
        }
        t.tail_poll_ns = as_double(now_ns() - t0) /
                         as_double(std::max<std::size_t>(delivered, 1));
    }

    std::vector<std::string_view> to_parse;
    for (const auto& c : contents) to_parse.push_back(c);
    for (const auto& p : in.probes) to_parse.push_back(p.digest);
    t0 = now_ns();
    for (const auto s : to_parse) sink += FuzzyDigest::parse(s).block_size;
    t.parse_ns = as_double(now_ns() - t0) / as_double(to_parse.size());

    siren::recognize::RegistryOptions options;
    options.match_threshold = kMatchThreshold;
    std::istringstream ck(in.checkpoint.substr(in.checkpoint.find("registry\n") + 9));
    siren::recognize::Registry registry = siren::recognize::Registry::load(ck, options);

    std::vector<FuzzyDigest> probes;
    for (const auto& p : in.probes) probes.push_back(FuzzyDigest::parse(p.digest));
    std::size_t identified = 0;
    t0 = now_ns();
    while (identified < probes.size() && now_ns() - t0 < kStageBudgetNs) {
        const auto match = registry.best_match(probes[identified++]);
        sink += match ? static_cast<std::uint64_t>(match->best_score) : 0;
    }
    t.identify_us = as_double(now_ns() - t0) / 1e3 / as_double(identified);

    // Observe in publish-sized batches; after each batch copy the registry
    // and keep the copy alive, as RecognitionService::publish does, so the
    // next batch pays the copy-on-write clones a live snapshot forces.
    const auto batch =
        std::max<std::size_t>(1, static_cast<std::size_t>(records_per_publish * t.fileh_share));
    std::vector<FuzzyDigest> sightings;
    for (const auto& c : contents) sightings.push_back(FuzzyDigest::parse(c));
    std::optional<siren::recognize::Registry> published;
    std::int64_t observe_ns = 0;
    std::int64_t copy_ns = 0;
    std::size_t observed = 0;
    std::size_t copies = 0;
    const std::int64_t start = now_ns();
    while (observed < sightings.size() && now_ns() - start < 2 * kStageBudgetNs) {
        t0 = now_ns();
        for (std::size_t i = 0; i < batch && observed < sightings.size(); ++i) {
            registry.observe(sightings[observed++]);
        }
        observe_ns += now_ns() - t0;
        std::optional<siren::recognize::Registry> previous;
        previous.swap(published);  // released after the timed copy, as readers do
        t0 = now_ns();
        published.emplace(registry);
        copy_ns += now_ns() - t0;
        ++copies;
    }
    t.observe_us = as_double(observe_ns) / 1e3 / as_double(std::max<std::size_t>(observed, 1));
    t.publish_copy_us = as_double(copy_ns) / 1e3 / as_double(std::max<std::size_t>(copies, 1));
    t.sink = sink + (published ? published->family_count() : 0);
    return t;
}

// ---- the run ------------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15;
    bool trace = false;
};

/// Counters read at each sub-window boundary.
struct Edge {
    std::int64_t t_ns = 0;
    siren::serve::ServeCounters serve;
    siren::ingest::IngestStats ingest;
    std::int64_t cpu = 0;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What a run produced, before it is printed.
struct Outcome {
    std::vector<Metric> e2e;     ///< printed and reported with --trace 0
    std::vector<Metric> layers;  ///< reported with --trace 1
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = false;
    std::string checks;  ///< one human-readable line of check results
    double records_per_publish = 0;  ///< sizes the stage replay's observe batches
};

class Run {
public:
    Run(const Workload& w, const Args& args)
        : w_(w), args_(args), root_(std::string(kOutDir) + "/run-" + std::to_string(::getpid())),
          markers_(static_cast<std::size_t>(w.slot_rate * (kWarmupSeconds + args.seconds) /
                                            as_double(w.marker_every)) +
                   2) {}

    /// Stops everything this run started and removes its segment files,
    /// on the error path too.
    ~Run() {
        watcher_.reset();
        readers_.clear();
        sources_.clear();
        pipe_.reset();
        std::error_code ignored;
        fs::remove_all(root_, ignored);
    }

    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    int execute();

private:
    void set_up();
    void drive();
    void drain();
    void check();
    void report();
    Outcome measure() const;
    void write_trace(const Outcome& out, const std::string& provenance) const;
    Edge edge() const;
    /// Start of sub-window k (k == kSubWindows: the window's end).
    std::int64_t sub_window_start(std::size_t k) const {
        return window_start_ + (window_end_ - window_start_) * static_cast<std::int64_t>(k) /
                                   static_cast<std::int64_t>(kSubWindows);
    }

    const Workload& w_;
    const Args& args_;
    std::string root_;  ///< everything this run writes
    std::string dir_;   ///< the current set-up repetition
    MarkerTable markers_;
    std::unique_ptr<Inputs> in_;
    std::unique_ptr<StreamSource> source_;
    std::unique_ptr<Pipeline> pipe_;
    std::vector<std::unique_ptr<siren::net::UdpSender>> sources_;
    std::vector<std::unique_ptr<Reader>> readers_;
    std::unique_ptr<Watcher> watcher_;

    std::vector<double> setup_s_;
    std::uint64_t rss_base_ = 0;
    std::size_t boot_families_ = 0;
    std::int64_t t0_ = 0, window_start_ = 0, window_end_ = 0;
    std::vector<Edge> edges_;  ///< at each sub-window boundary
    std::uint64_t rss_end_ = 0;
    LogHistogram lateness_;
    std::uint64_t sent_ = 0;
    std::uint64_t late_sends_ = 0;

    // Correctness and failure accounting.
    bool inputs_deterministic_ = true;
    std::uint64_t unapplied_ = 0;
    std::uint64_t markers_unseen_ = 0;
    std::size_t oracle_checked_ = 0;
    std::size_t oracle_mismatches_ = 0;
    std::uint64_t oracle_errors_ = 0;
    std::string oracle_detail_;
    std::uint64_t storage_bytes_ = 0;
    std::uint64_t storage_records_ = 0;
    std::size_t families_end_ = 0;
    int exit_code_ = 0;
};

Edge Run::edge() const {
    Edge e;
    e.t_ns = now_ns();
    e.serve = pipe_->service.counters();
    e.ingest = pipe_->ingest.stats();
    e.cpu = cpu_ns();
    return e;
}

void Run::set_up() {
    std::uint64_t first_fingerprint = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const bool last = rep == kSetupReps - 1;
        // Tear the previous repetition down first; its time is not set-up.
        // The freed heap stays mapped, so the repetitions after the first
        // do not pay a page fault per allocation — on a virtual machine
        // those cost more when the host is busy, and set-up time would
        // follow the neighbours instead of the code.
        sources_.clear();
        readers_.clear();
        pipe_.reset();
        source_.reset();
        in_.reset();
        fs::remove_all(root_);

        const std::int64_t t0 = now_ns();
        dir_ = root_ + "/rep" + std::to_string(rep);
        fs::create_directories(dir_);
        in_ = std::make_unique<Inputs>(make_inputs(w_, args_.seed));
        // The memory baseline: inputs generated, the generator's scratch
        // returned to the system (untimed).
        const std::int64_t pause = now_ns();
        if (last) {
            ::malloc_trim(0);
            rss_base_ = rss_bytes();
        }
        const std::int64_t paused = now_ns() - pause;
        source_ = std::make_unique<StreamSource>(w_, *in_, args_.seed);
        write_checkpoint(dir_, in_->checkpoint);

        siren::ingest::IngestServer::BatchHandler handler;
        if (args_.trace) {
            handler = [this](std::size_t, std::span<const siren::net::MessageView> batch) {
                const std::int64_t t = now_ns();
                for (const auto& v : batch) {
                    if (const auto m = markers_.marker_of(v)) {
                        stamp_first(markers_[*m].handled_ns, t);
                    }
                }
            };
        }
        pipe_ = std::make_unique<Pipeline>(dir_, std::move(handler));
        for (std::size_t i = 0; i < kSources; ++i) {
            sources_.push_back(
                std::make_unique<siren::net::UdpSender>("127.0.0.1", pipe_->ingest.port()));
        }
        for (std::size_t c = 0; c < w_.connections; ++c) {
            readers_.push_back(std::make_unique<Reader>(pipe_->server.port(), c, w_, in_->probes));
        }
        setup_s_.push_back(as_double(now_ns() - t0 - paused) / 1e9);

        const std::uint64_t fp = in_->fingerprint();
        if (rep == 0) first_fingerprint = fp;
        if (fp != first_fingerprint) inputs_deterministic_ = false;
    }
    boot_families_ = pipe_->service.snapshot()->registry.family_count();
}

void Run::drive() {
    watcher_ = std::make_unique<Watcher>(pipe_->service, markers_, dir_ + "/segments", args_.trace);
    watcher_->start();
    t0_ = now_ns();
    window_start_ = t0_ + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
    window_end_ = window_start_ + static_cast<std::int64_t>(args_.seconds * 1e9);
    for (auto& r : readers_) r->start(t0_, window_end_);

    std::string scratch;
    std::uint64_t slot = 0;
    const auto mark_edges = [&](std::int64_t now) {
        while (edges_.size() <= kSubWindows && now >= sub_window_start(edges_.size())) {
            edges_.push_back(edge());
        }
    };
    const auto send = [&] {
        FuzzyDigest digest;
        const Slot s = source_->at(slot, scratch, &digest);
        if (s.kind == SlotKind::kMarker) {
            if (s.index >= markers_.capacity()) throw std::runtime_error("marker table full");
            Marker& m = markers_[s.index];
            m.digest = std::move(digest);
            m.sent_ns = now_ns();
        }
        sources_[slot % kSources]->send(s.bytes);
        if (s.kind == SlotKind::kMarker) markers_.publish_sent(s.index + 1);
        ++slot;
    };

    // Open loop: slot k is due at t0 + k / rate, whatever the system does.
    const double period_ns = 1e9 / w_.slot_rate;
    while (true) {
        const std::int64_t now = now_ns();
        mark_edges(now);
        if (now >= window_end_) break;
        const std::int64_t due = t0_ + static_cast<std::int64_t>(as_double(slot) * period_ns);
        if (due > now) {
            sleep_until_ns(std::min(due, window_end_));
            continue;
        }
        send();
        lateness_.record(now - due);
        if (now - due > kLateLimitNs) ++late_sends_;
    }
    sent_ = slot;
    for (auto& r : readers_) r->join();
}

void Run::drain() {
    // Every marker sent must become visible within the grace period.
    const std::int64_t grace_end = now_ns() + static_cast<std::int64_t>(kGraceSeconds * 1e9);
    while (watcher_->outstanding() > 0 && now_ns() < grace_end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    watcher_->stop();
    for (std::size_t m = 0; m < markers_.sent(); ++m) {
        if (markers_[m].visible_ns.load(std::memory_order_relaxed) == 0) ++markers_unseen_;
    }

    // Let everything sent land, then wait until the service applied it all.
    pipe_->ingest.quiesce();
    const std::uint64_t journaled = pipe_->ingest.stats().appended;
    const std::int64_t drain_end = now_ns() + static_cast<std::int64_t>(kGraceSeconds * 1e9);
    while (pipe_->service.counters().feed_records < journaled && now_ns() < drain_end) {
        pipe_->service.flush();
    }
    const auto applied = pipe_->service.counters().feed_records;
    unapplied_ = journaled - std::min(journaled, applied);
    storage_bytes_ = pipe_->store.appended_bytes();
    storage_records_ = pipe_->store.appended();
    // Memory the pipeline holds, not what the allocator kept around: free
    // heap pages go back before reading, as they did for the baseline.
    ::malloc_trim(0);
    rss_end_ = rss_bytes();
}

void Run::check() {
    // A fixed sample of identify replies against a brute-force scan of the
    // same (quiesced) snapshot.
    std::vector<std::string> sample;
    for (std::size_t i = 0; i < std::min(kOracleSample, in_->probes.size()); ++i) {
        sample.push_back(in_->probes[i].digest);
    }
    siren::serve::QueryClient client("127.0.0.1", pipe_->server.port());
    for (int attempt = 0; attempt < 3; ++attempt) {
        const auto snap = pipe_->service.snapshot();
        std::vector<std::vector<siren::serve::FusedIdentified>> replies;
        oracle_errors_ = 0;
        for (const auto& digest : sample) {
            try {
                replies.push_back(client.identify(content_probe(digest)));
            } catch (const std::exception&) {
                replies.emplace_back();
                ++oracle_errors_;
            }
        }
        if (pipe_->service.snapshot() != snap) continue;  // a late publish: ask again
        oracle_checked_ = sample.size();
        oracle_mismatches_ = oracle_mismatches(snap->registry, sample, replies, oracle_detail_);
        families_end_ = snap->registry.family_count();
        return;
    }
    oracle_detail_ = "snapshot kept changing after the drain";
    oracle_checked_ = sample.size();
    oracle_mismatches_ = sample.size();
}

// ---- reporting -----------------------------------------------------------------

void print_json_string(std::FILE* f, std::string_view s) {
    std::fputc('"', f);
    for (const char c : s) {
        if (c == '"' || c == '\\') std::fputc('\\', f);
        std::fputc(c, f);
    }
    std::fputc('"', f);
}

std::string provenance_json(const std::string& segments_dir) {
    const char* git = std::getenv("SIREN_BENCH_GIT");
    std::ostringstream o;
    o << "{\"git\": \"" << (git != nullptr && *git != '\0' ? git : "unknown") << "\""
      << ", \"compiler\": \"" << SIREN_BENCH_COMPILER << "\""
      << ", \"siren_build_type\": \"" << SIREN_BENCH_BUILD_TYPE << "\""
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd_level\": \""
      << siren::util::simd::level_name(siren::util::simd::active_level()) << "\""
      << ", \"segments_dir\": \"" << segments_dir << "\""
      << ", \"segments_fs\": \"" << fs_type(segments_dir) << "\""
      << ", \"segment_fsync\": false}";
    return o.str();
}

Outcome Run::measure() const {
    Outcome out;
    const Edge& begin = edges_.front();
    const Edge& end = edges_.back();
    const double window_s = as_double(end.t_ns - begin.t_ns) / 1e9;
    const auto in_window = [&](std::int64_t t) { return t >= window_start_ && t < window_end_; };
    const auto sub_of = [&](std::int64_t t) {
        return static_cast<std::size_t>((t - window_start_) *
                                        static_cast<std::int64_t>(kSubWindows) /
                                        (window_end_ - window_start_));
    };
    const auto sorted = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v;
    };
    /// Median over the sub-windows of the median of each.
    const auto median_of_p50s = [&](const std::vector<std::vector<double>>& subs) {
        std::vector<double> p50s;
        for (const auto& v : subs) {
            if (!v.empty()) p50s.push_back(quantile(sorted(v), 0.5));
        }
        return median_of(p50s);
    };
    const auto ms = [](std::int64_t a, std::int64_t b) { return as_double(b - a) / 1e6; };

    // Marker visibility and its split over the layers (the split only in a
    // traced run). An unseen marker missed every latency limit.
    std::vector<double> visible_ms, ingest_ms, storage_ms, serve_ms;
    std::vector<std::vector<double>> visible_sub(kSubWindows);
    for (std::size_t m = 0; m < markers_.sent(); ++m) {
        const Marker& mk = markers_[m];
        if (!in_window(mk.sent_ns)) continue;
        const std::int64_t visible = mk.visible_ns.load(std::memory_order_relaxed);
        const std::int64_t handled = mk.handled_ns.load(std::memory_order_relaxed);
        const std::int64_t readable = mk.readable_ns.load(std::memory_order_relaxed);
        visible_ms.push_back(visible != 0 ? ms(mk.sent_ns, visible) : 1e12);
        visible_sub[sub_of(mk.sent_ns)].push_back(visible_ms.back());
        if (handled != 0) ingest_ms.push_back(ms(mk.sent_ns, handled));
        if (handled != 0 && readable != 0) storage_ms.push_back(ms(handled, readable));
        if (readable != 0 && visible != 0) serve_ms.push_back(ms(readable, visible));
    }

    // IDENTIFY latency (open loop: from the due time; a failed request
    // missed every limit) and the bare round trips.
    std::vector<double> identify_us, rtt_us;
    std::vector<std::vector<double>> identify_sub(kSubWindows);
    std::vector<std::vector<double>> done_sub(kSubWindows);  ///< completion times
    std::uint64_t read_attempted = 0, read_errors = 0, overloaded = 0, wrong = 0, read_late = 0;
    for (const auto& r : readers_) {
        read_attempted += r->samples.size();
        read_errors += r->errors;
        overloaded += r->overloaded;
        wrong += r->wrong;
        read_late += r->late;
        for (const auto& s : r->samples) {
            if (in_window(s.done_ns)) done_sub[sub_of(s.done_ns)].push_back(as_double(s.done_ns));
            if (!in_window(s.due_ns)) continue;
            identify_us.push_back(s.failed ? 1e15 : as_double(s.done_ns - s.due_ns) / 1e3);
            identify_sub[sub_of(s.due_ns)].push_back(identify_us.back());
            if (!s.failed) rtt_us.push_back(as_double(s.done_ns - s.sent_ns) / 1e3);
        }
    }
    std::vector<double> applied_sub, qps_sub;
    for (std::size_t k = 0; k < kSubWindows; ++k) {
        const double dt = as_double(edges_[k + 1].t_ns - edges_[k].t_ns) / 1e9;
        applied_sub.push_back(
            as_double(edges_[k + 1].serve.feed_records - edges_[k].serve.feed_records) / dt);
        // Completions per second between the sub-window's first and last
        // reply, so the rate is measured rather than a count over a fixed span.
        const auto [first, last] = std::minmax_element(done_sub[k].begin(), done_sub[k].end());
        if (done_sub[k].size() >= 2) {
            qps_sub.push_back(as_double(done_sub[k].size() - 1) / ((*last - *first) / 1e9));
        }
    }

    // Failure accounting over the whole run. Sent but never applied covers
    // send errors, kernel drops, ring drops and storage errors alike.
    std::uint64_t send_errors = 0;
    for (const auto& s : sources_) send_errors += s->errors();
    const auto final_ingest = pipe_->ingest.stats();
    const auto final_serve = pipe_->service.counters();
    const std::uint64_t lost = sent_ - std::min<std::uint64_t>(sent_, final_serve.feed_records);
    const std::uint64_t malformed = final_ingest.malformed + final_serve.feed_malformed;
    out.attempted = sent_ + read_attempted + oracle_checked_;
    out.failed = lost + malformed + markers_unseen_ + late_sends_ + read_errors + wrong +
                 read_late + oracle_mismatches_ + oracle_errors_;
    out.correct = inputs_deterministic_ && markers_unseen_ == 0 && wrong == 0 &&
                  oracle_mismatches_ == 0 && unapplied_ == 0;
    char checks[256];
    std::snprintf(checks, sizeof checks,
                  "inputs_deterministic=%d markers_unseen=%" PRIu64 " wrong=%" PRIu64
                  " oracle=%zu/%zu unapplied=%" PRIu64 " lost=%" PRIu64 " late=%" PRIu64,
                  inputs_deterministic_ ? 1 : 0, markers_unseen_, wrong,
                  oracle_checked_ - oracle_mismatches_, oracle_checked_, unapplied_, lost,
                  late_sends_ + read_late);
    out.checks = checks;

    const auto add = [](std::vector<Metric>& list, const char* name, double value,
                        const char* unit) { list.push_back({name, value, unit}); };
    auto& e = out.e2e;
    add(e, "setup_s", median_of(setup_s_), "s");
    add(e, "visible_p50_ms", median_of_p50s(visible_sub), "ms");
    add(e, "applied_per_s", median_of(applied_sub), "records/s");
    add(e, "rss_mb", (as_double(rss_end_) - as_double(rss_base_)) / (1024.0 * 1024.0), "MiB");

    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const std::uint64_t applied = end.serve.feed_records - begin.serve.feed_records;
    const std::uint64_t publishes = end.serve.publishes - begin.serve.publishes;
    const double cpu_s = as_double(end.cpu - begin.cpu) / 1e9;
    const auto p = [&](const std::vector<double>& v, double q) { return quantile(sorted(v), q); };
    auto& l = out.layers;
    add(l, "visible_p99_ms", p(visible_ms, 0.99), "ms");
    add(l, "visible_samples", as_double(visible_ms.size()), "count");
    // The read side is CPU-bound: on a shared host its run-to-run spread
    // exceeds 10% even over 30 s windows, so it is reported, not gated.
    add(l, "identify_p50_us", median_of_p50s(identify_sub), "us");
    add(l, "identify_qps", median_of(qps_sub), "probes/s");
    add(l, "identify_p99_us", p(identify_us, 0.99), "us");
    add(l, "identify_samples", as_double(identify_us.size()), "count");
    add(l, "failed_ratio", ratio(as_double(out.failed), as_double(out.attempted)), "fraction");
    add(l, "ingest.sent_to_handled_ms.p50", p(ingest_ms, 0.5), "ms");
    add(l, "ingest.sent_to_handled_ms.p99", p(ingest_ms, 0.99), "ms");
    add(l, "ingest.ring_dropped", as_double(final_ingest.ring_dropped), "count");
    add(l, "ingest.malformed", as_double(final_ingest.malformed), "count");
    add(l, "ingest.storage_errors", as_double(final_ingest.storage_errors), "count");
    add(l, "ingest.records_per_batch",
        ratio(as_double(end.ingest.decoded - begin.ingest.decoded),
              as_double(end.ingest.batches - begin.ingest.batches)),
        "records");
    add(l, "storage.handled_to_readable_ms.p50", p(storage_ms, 0.5), "ms");
    add(l, "storage.handled_to_readable_ms.p99", p(storage_ms, 0.99), "ms");
    add(l, "storage.bytes_per_record",
        ratio(as_double(storage_bytes_), as_double(storage_records_)), "bytes");
    add(l, "serve.readable_to_visible_ms.p50", p(serve_ms, 0.5), "ms");
    add(l, "serve.readable_to_visible_ms.p99", p(serve_ms, 0.99), "ms");
    out.records_per_publish = ratio(as_double(applied), as_double(publishes));
    add(l, "serve.records_per_publish", out.records_per_publish, "records");
    add(l, "serve.publish_us_avg",
        ratio(as_double(end.serve.publish_ns - begin.serve.publish_ns) / 1e3,
              as_double(publishes)),
        "us");
    add(l, "serve.shared_chunk_fraction",
        ratio(as_double(final_serve.shared_chunks), as_double(final_serve.total_chunks)),
        "fraction");
    add(l, "query.rtt_us.p50", p(rtt_us, 0.5), "us");
    add(l, "query.rtt_us.p99", p(rtt_us, 0.99), "us");
    add(l, "query.errors", as_double(read_errors), "count");
    add(l, "query.overloaded", as_double(overloaded), "count");
    add(l, "recognize.families_end", as_double(families_end_), "count");
    add(l, "recognize.new_families", as_double(families_end_ - boot_families_), "count");
    add(l, "gen.late_p99_ms", lateness_.quantile_ns(0.99) / 1e6, "ms");
    add(l, "gen.late_max_ms", as_double(lateness_.max_ns()) / 1e6, "ms");
    add(l, "gen.send_errors", as_double(send_errors), "count");
    add(l, "proc.cpu_util",
        ratio(cpu_s, window_s * as_double(std::max(1u, std::thread::hardware_concurrency()))),
        "fraction");
    add(l, "proc.cpu_us_per_record", ratio(cpu_s * 1e6, as_double(applied)), "us");
    return out;
}

/// Per-layer costs of the stage replay, and their sum per record beside
/// the process CPU per applied record — an ungated reconciliation.
void add_stages(Outcome& out, const StageTimes& st, double records_per_publish) {
    const auto add = [&](const char* name, double value, const char* unit) {
        out.layers.push_back({name, value, unit});
    };
    add("stage.net.decode_view_ns", st.decode_view_ns, "ns");
    add("stage.storage.append_ns", st.append_ns, "ns");
    add("stage.serve.tail_poll_ns", st.tail_poll_ns, "ns");
    add("stage.fuzzy.parse_ns", st.parse_ns, "ns");
    add("stage.recognize.observe_us", st.observe_us, "us");
    add("stage.serve.publish_copy_us", st.publish_copy_us, "us");
    add("stage.recognize.identify_us", st.identify_us, "us");
    add("stage.sum_us_per_record",
        (st.decode_view_ns + st.append_ns + st.tail_poll_ns) / 1e3 +
            st.fileh_share * (st.parse_ns / 1e3 + st.observe_us) +
            (records_per_publish > 0 ? st.publish_copy_us / records_per_publish : 0.0),
        "us");
}

void print_metrics_json(std::FILE* f, const std::vector<const std::vector<Metric>*>& lists,
                        const char* separator) {
    bool first = true;
    for (const auto* list : lists) {
        for (const auto& m : *list) {
            std::fprintf(f, "%s", first ? "" : separator);
            print_json_string(f, m.name);
            std::fprintf(f, ": {\"value\": %.10g, \"unit\": \"%s\"}", m.value, m.unit.c_str());
            first = false;
        }
    }
}

/// Spans as JSON: one tree per marker (ingest, storage and serve under the
/// marker's own span) and one span per IDENTIFY; times in µs from the start
/// of the run, ids are marker / request sequence numbers.
void Run::write_trace(const Outcome& out, const std::string& provenance) const {
    const std::string dir = std::string(kOutDir) + "/traces";
    fs::create_directories(dir);
    const std::string path = dir + "/" + w_.name + "-seed" + std::to_string(args_.seed) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const auto us = [&](std::int64_t t) { return as_double(t - t0_) / 1e3; };
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"provenance\": %s,\n", w_.name,
                 args_.seed, provenance.c_str());
    std::fprintf(f, " \"window_us\": [%.3f, %.3f],\n \"metrics\": {\n  ", us(window_start_),
                 us(window_end_));
    print_metrics_json(f, {&out.e2e, &out.layers}, ",\n  ");
    std::fprintf(f, "},\n \"spans\": [");
    bool first = true;
    const auto span = [&](const char* name, const char* parent, std::uint64_t id, std::int64_t a,
                          std::int64_t b) {
        if (a == 0 || b == 0) return;
        std::fprintf(f, "%s\n  {\"name\": \"%s\", \"parent\": %s%s%s, \"id\": %" PRIu64
                        ", \"start_us\": %.3f, \"end_us\": %.3f}",
                     first ? "" : ",", name, parent ? "\"" : "", parent ? parent : "null",
                     parent ? "\"" : "", id, us(a), us(b));
        first = false;
    };
    for (std::size_t m = 0; m < markers_.sent(); ++m) {
        const Marker& mk = markers_[m];
        const auto handled = mk.handled_ns.load(std::memory_order_relaxed);
        const auto readable = mk.readable_ns.load(std::memory_order_relaxed);
        const auto visible = mk.visible_ns.load(std::memory_order_relaxed);
        span("marker", nullptr, m, mk.sent_ns, visible);
        span("ingest", "marker", m, mk.sent_ns, handled);
        span("storage", "marker", m, handled, readable);
        span("serve", "marker", m, readable, visible);
    }
    std::uint64_t request = 0;
    for (const auto& r : readers_) {
        for (const auto& s : r->samples) span("identify", nullptr, request++, s.due_ns, s.done_ns);
    }
    std::fprintf(f, "\n ]}\n");
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
    std::printf("# trace %s\n", path.c_str());
}

void Run::report() {
    Outcome out = measure();
    const std::string provenance = provenance_json(dir_ + "/segments");

    // The stage replay runs alone, with the pipeline gone. (The readers
    // stay: their samples feed the trace.)
    sources_.clear();
    pipe_.reset();
    if (args_.trace) {
        add_stages(out, replay_stages(*in_, *source_, dir_, out.records_per_publish),
                   out.records_per_publish);
    }

    std::printf("# workload %s seed %" PRIu64 " seconds %g trace %d\n", w_.name, args_.seed,
                args_.seconds, args_.trace ? 1 : 0);
    std::printf("# provenance %s\n", provenance.c_str());
    std::printf("# checks: %s\n", out.checks.c_str());
    if (!oracle_detail_.empty()) std::printf("# oracle: %s\n", oracle_detail_.c_str());
    std::printf("# setup_s runs:");
    for (const double s : setup_s_) std::printf(" %.4f", s);
    std::printf("\n");
    // Traced runs print the end-to-end metrics too (measured under
    // tracing), so run.sh --overhead can subtract the untraced run.
    for (const auto* list : {&out.e2e, &out.layers}) {
        if (list == &out.layers && !args_.trace) break;
        for (const auto& m : *list) {
            std::printf("metric %s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        }
    }
    if (args_.trace) write_trace(out, provenance);

    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                out.correct ? "true" : "false", out.attempted, out.failed);
    print_metrics_json(stdout, {args_.trace ? &out.layers : &out.e2e}, ", ");
    std::printf("}}\n");
    std::fflush(stdout);
    exit_code_ = out.correct ? 0 : 1;
}

int Run::execute() {
    set_up();
    drive();
    drain();
    check();
    report();
    return exit_code_;
}

int usage() {
    std::fprintf(stderr,
                 "usage: siren_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
                 "workloads:");
    for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0') return false;
    out = v;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    std::signal(SIGPIPE, SIG_IGN);
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) return usage();
        const char* value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            if (!parse_u64(value, args.seed)) return usage();
        } else if (flag == "--seconds") {
            if (!parse_u64(value, n) || n == 0 || n > 600) return usage();
            args.seconds = as_double(n);
        } else if (flag == "--trace") {
            if (!parse_u64(value, n) || n > 1) return usage();
            args.trace = n == 1;
        } else {
            return usage();
        }
    }
    const Workload* workload = find_workload(args.workload);
    if (workload == nullptr) return usage();

    // 1024 source sockets plus the pipeline's own descriptors.
    rlimit files{};
    if (::getrlimit(RLIMIT_NOFILE, &files) == 0 && files.rlim_cur < 4096) {
        files.rlim_cur = std::min<rlim_t>(files.rlim_max, 4096);
        ::setrlimit(RLIMIT_NOFILE, &files);
    }

    try {
        Run run(*workload, args);
        return run.execute();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "siren_bench: %s\n", e.what());
        return 2;
    }
}

#include "core/framework.hpp"

#include <algorithm>
#include <span>
#include <thread>

#include "collect/collector.hpp"
#include "db/message_store.hpp"
#include "ingest/ingest_server.hpp"
#include "net/channel.hpp"
#include "net/codec.hpp"
#include "storage/segment_store.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace siren {

FrameworkOptions FrameworkOptions::from_env() {
    FrameworkOptions o;
    o.scale = util::get_env_double("SIREN_SCALE", o.scale);
    o.loss_rate = util::get_env_double("SIREN_LOSS", o.loss_rate);
    o.seed = static_cast<std::uint64_t>(util::get_env_int("SIREN_SEED", static_cast<std::int64_t>(o.seed)));
    o.threads = static_cast<std::size_t>(util::get_env_int("SIREN_THREADS", 0));
    o.durable_dir = util::get_env_or("SIREN_DURABLE_DIR", o.durable_dir);
    return o;
}

namespace {

/// Transport that buffers the datagrams of the in-flight process and, on
/// flush, applies Bernoulli loss and feeds the survivors straight into a
/// per-shard consolidator — the O(1)-memory rendition of
/// send -> receive -> store -> consolidate.
///
/// Zero-copy steady state: surviving datagram bytes are appended to a
/// per-shard arena (send() must copy — the collector reuses its wire buffer
/// as soon as send() returns), decoded in place as MessageViews at flush
/// time, and consolidated through a reused ViewConsolidator. The arena,
/// span list, view list and consolidator scratch all keep their capacity
/// across flushes, so after warm-up a process's messages cause no heap
/// allocation anywhere on the transport path.
class InlineShard : public net::Transport {
public:
    InlineShard(double loss_rate, std::uint64_t seed) : loss_rate_(loss_rate), rng_(seed) {}

    void send(std::string_view datagram) noexcept override {
        ++sent_;
        if (loss_rate_ > 0.0 && rng_.chance(loss_rate_)) {
            ++lost_;
            return;
        }
        try {
            const std::size_t offset = arena_.size();
            arena_.append(datagram);
            spans_.push_back({offset, datagram.size()});
        } catch (...) {
            // Allocation failure: account the datagram as lost, like a full
            // socket buffer would. (Appending before recording the span
            // means a failed append leaves no stale span behind; orphaned
            // arena bytes are reclaimed by the next flush.)
            ++lost_;
        }
    }

    /// Consolidate everything buffered since the last flush (exactly one
    /// process worth of messages) into the aggregates.
    void flush(analytics::Aggregates& agg) {
        if (spans_.empty()) return;
        views_.clear();
        for (const auto& [offset, size] : spans_) {
            net::MessageView view;
            try {
                net::decode_view(std::string_view(arena_).substr(offset, size), view);
                views_.push_back(view);
            } catch (...) {
                ++malformed_;
            }
        }
        if (!views_.empty()) {
            auto result = consolidator_.consolidate(views_);
            for (const auto& record : result.records) agg.add(record);
        }
        arena_.clear();
        spans_.clear();
    }

    std::uint64_t sent() const { return sent_; }
    std::uint64_t lost() const { return lost_; }
    std::uint64_t malformed() const { return malformed_; }

private:
    double loss_rate_;
    util::Rng rng_;
    std::string arena_;  ///< raw datagram bytes of the in-flight process
    std::vector<std::pair<std::size_t, std::size_t>> spans_;  ///< (offset, size) into arena_
    std::vector<net::MessageView> views_;
    consolidate::ViewConsolidator consolidator_;
    std::uint64_t sent_ = 0;
    std::uint64_t lost_ = 0;
    std::uint64_t malformed_ = 0;
};

CampaignResult run_inline(const workload::Generator& generator,
                          const collect::FileStore& store, const FrameworkOptions& options) {
    const std::size_t threads =
        options.threads != 0
            ? options.threads
            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t shards = std::min<std::size_t>(
        std::max<std::size_t>(1, threads), std::max<std::size_t>(1, generator.job_count()));

    std::vector<analytics::Aggregates> shard_aggs(shards);
    std::vector<std::uint64_t> sent(shards, 0), lost(shards, 0), malformed(shards, 0);
    std::vector<std::uint64_t> collected(shards, 0), errors(shards, 0);

    util::parallel_for(
        shards,
        [&](std::size_t s) {
            InlineShard shard(options.loss_rate, util::mix64(options.seed ^ (s * 7717 + 1)));
            collect::Collector collector(store, shard);
            const std::size_t begin = s * generator.job_count() / shards;
            const std::size_t end = (s + 1) * generator.job_count() / shards;
            generator.run_jobs(begin, end, [&](const sim::SimProcess& p) {
                collector.collect(p);
                shard.flush(shard_aggs[s]);
            });
            sent[s] = shard.sent();
            lost[s] = shard.lost();
            malformed[s] = shard.malformed();
            collected[s] = collector.stats().processes_collected.load();
            errors[s] = collector.stats().collection_errors.load();
        },
        shards);

    CampaignResult result;
    result.aggregates = std::move(shard_aggs[0]);
    for (std::size_t s = 1; s < shards; ++s) result.aggregates.merge(shard_aggs[s]);
    for (std::size_t s = 0; s < shards; ++s) {
        result.datagrams_sent += sent[s];
        result.datagrams_lost += lost[s];
        result.datagrams_malformed += malformed[s];
        result.processes_collected += collected[s];
        result.collection_errors += errors[s];
    }
    return result;
}

/// Transport that applies the seeded Bernoulli loss model and injects the
/// surviving datagrams into an ingest server, spread round-robin over its
/// shards. One Rng draw per datagram in send order, and none at loss 0, so
/// a seed loses the same datagrams on every run.
class IngestFeed : public net::Transport {
public:
    IngestFeed(ingest::IngestServer& server, double loss_rate, std::uint64_t seed)
        : server_(server), loss_rate_(loss_rate), rng_(seed) {}

    void send(std::string_view datagram) noexcept override {
        const std::size_t shard = sent_++ % server_.shards();
        if (loss_rate_ > 0.0 && rng_.chance(loss_rate_)) {
            ++lost_;
            return;
        }
        // A full ring is backpressure, not loss: wait for the shard worker.
        // Only an oversize datagram is refused for good (the server counts it).
        while (!server_.inject(shard, datagram) &&
               datagram.size() <= ingest::SpscRing::kSlotBytes) {
            std::this_thread::yield();
        }
    }

    std::uint64_t sent() const { return sent_; }
    std::uint64_t lost() const { return lost_; }

private:
    ingest::IngestServer& server_;
    double loss_rate_;
    util::Rng rng_;
    std::uint64_t sent_ = 0;
    std::uint64_t lost_ = 0;
};

/// Database mode: the paper's receiver -> raw-message table architecture.
/// The collector's datagrams pass the seeded loss model into an in-process
/// ingest server, whose shard workers journal them to the (optional)
/// segment store and insert each decoded message into the messages table;
/// consolidation then reads the table back.
CampaignResult run_database(const workload::Generator& generator,
                            const collect::FileStore& store, const FrameworkOptions& options) {
    CampaignResult result;
    result.database = std::make_unique<db::Database>();
    db::Table& table = db::create_message_table(*result.database);

    ingest::IngestOptions ingest_options;
    std::unique_ptr<storage::SegmentStore> wal;
    if (!options.durable_dir.empty()) {
        wal = std::make_unique<storage::SegmentStore>(options.durable_dir, ingest_options.shards);
        ingest_options.store = wal.get();
    }
    ingest::IngestServer server(
        ingest_options, [&table](std::size_t, std::span<const net::MessageView> batch) {
            for (const auto& view : batch) db::insert_message(table, view.to_message());
        });

    // The generator thread is the feed's only caller, so every shard ring
    // keeps the single producer inject() requires.
    IngestFeed feed(server, options.loss_rate, options.seed);
    collect::Collector collector(store, feed);
    generator.run([&](const sim::SimProcess& p) { collector.collect(p); });
    server.drain();
    server.stop();

    const ingest::IngestStats stats = server.stats();
    result.processes_collected = collector.stats().processes_collected.load();
    result.collection_errors = collector.stats().collection_errors.load();
    result.datagrams_sent = feed.sent();
    result.datagrams_lost = feed.lost() + stats.oversize;
    result.datagrams_malformed = stats.malformed;
    if (wal) {
        result.wal_records = wal->appended();
        result.wal_bytes = wal->appended_bytes();
    }

    auto consolidated = consolidate::consolidate(*result.database);
    for (const auto& record : consolidated.records) result.aggregates.add(record);
    result.records = std::move(consolidated.records);
    return result;
}

}  // namespace

CampaignResult run_campaign(const workload::CampaignSpec& spec, const FrameworkOptions& options) {
    util::init_log_from_env();
    util::Stopwatch watch;

    workload::GeneratorOptions gen_options;
    gen_options.scale = options.scale;
    gen_options.seed = options.seed;
    workload::Generator generator(spec, gen_options);

    collect::FileStore store;
    generator.populate_store(store);
    util::log_info("campaign: " + std::to_string(generator.job_count()) + " jobs, " +
                   std::to_string(generator.totals().processes) + " processes, " +
                   std::to_string(store.size()) + " unique executables");

    CampaignResult result = options.use_database ? run_database(generator, store, options)
                                                 : run_inline(generator, store, options);
    result.totals = generator.totals();
    result.wall_seconds = watch.seconds();
    return result;
}

CampaignResult run_lumi_campaign() {
    return run_campaign(workload::lumi_campaign(), FrameworkOptions::from_env());
}

}  // namespace siren

#include "serve/query_protocol.hpp"

#include <charconv>
#include <vector>

#include "fuzzy/ctph.hpp"
#include "serve/recognition_service.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/strings.hpp"

namespace siren::serve {

namespace {

/// A response must itself fit the frame limit — the server must never emit
/// a frame its own protocol (and QueryClient::parse_frame) declares
/// invalid. A huge-but-legal IDENTIFYB batch or IDENTIFY k gets a clear
/// error instead of a torn connection on the client side.
std::string cap_response(std::string response) {
    if (response.size() > kMaxQueryFrameBytes) {
        return "ERR response of " + std::to_string(response.size()) +
               " bytes exceeds the frame limit; lower the batch size or k";
    }
    return response;
}

QueryVerb verb_of(std::string_view verb) {
    if (verb == "IDENTIFY") return QueryVerb::kIdentify;
    if (verb == "IDENTIFYB") return QueryVerb::kIdentifyB;
    if (verb == "OBSERVE") return QueryVerb::kObserve;
    if (verb == "OBSERVETS") return QueryVerb::kObserveTs;
    if (verb == "STATS") return QueryVerb::kStats;
    if (verb == "CHECKPOINT") return QueryVerb::kCheckpoint;
    if (verb == "PARTMAP") return QueryVerb::kPartMap;
    if (verb == "FPRANGE") return QueryVerb::kFpRange;
    return QueryVerb::kUnknown;
}

}  // namespace

std::string execute_query(RecognitionService& service, std::string_view request) {
    std::vector<std::string_view> words;
    util::split_view_into(util::trim(request), ' ', words);
    std::erase(words, std::string_view{});  // tolerate doubled spaces
    if (words.empty()) {
        service.count_verb(QueryVerb::kUnknown);
        return "ERR empty request";
    }
    const std::string_view verb = words[0];
    service.count_verb(verb_of(verb));

    try {
        if (verb == "IDENTIFY") {
            // IDENTIFY [C digest] [B digest] [k] — at least one channel.
            DigestProbe probe;
            std::size_t i = 1;
            if (i + 1 < words.size() && words[i] == "C") {
                probe.content = fuzzy::FuzzyDigest::parse(words[i + 1]);
                i += 2;
            }
            if (i + 1 < words.size() && words[i] == "B") {
                probe.behavior = fuzzy::FuzzyDigest::parse(words[i + 1]);
                i += 2;
            }
            if (i < words.size()) {
                const auto [ptr, ec] = std::from_chars(
                    words[i].data(), words[i].data() + words[i].size(), probe.k);
                if (ec != std::errc{} || ptr != words[i].data() + words[i].size() ||
                    probe.k == 0) {
                    return "ERR IDENTIFY k must be a positive integer";
                }
                ++i;
            }
            if (i != words.size() || (!probe.content && !probe.behavior)) {
                return "ERR usage: IDENTIFY [C digest] [B digest] [k]";
            }
            const auto matches = service.identify(probe);
            std::string out = "OK ";
            util::append_number(out, matches.size());
            out.push_back('\n');
            for (const auto& match : matches) {
                out += "match ";
                util::append_number(out, match.family);
                out.push_back(' ');
                util::append_number(out, match.score);
                out.push_back(' ');
                util::append_number(out, match.content_score);
                out.push_back(' ');
                util::append_number(out, match.behavior_score);
                out.push_back(' ');
                out += match.name;
                out.push_back('\n');
            }
            return cap_response(std::move(out));
        }

        if (verb == "IDENTIFYB") {
            if (words.size() < 2) return "ERR IDENTIFYB needs at least one digest";
            std::vector<fuzzy::FuzzyDigest> digests;
            digests.reserve(words.size() - 1);
            for (std::size_t i = 1; i < words.size(); ++i) {
                digests.push_back(fuzzy::FuzzyDigest::parse(words[i]));
            }
            const auto matches = service.identify_many(digests, service.batch_pool());
            std::string out = "OK ";
            util::append_number(out, matches.size());
            out.push_back('\n');
            for (const auto& match : matches) {
                if (!match) {
                    out += "unknown\n";
                    continue;
                }
                out += "match ";
                util::append_number(out, match->family);
                out.push_back(' ');
                util::append_number(out, match->score);
                out.push_back(' ');
                out += match->name;
                out.push_back('\n');
            }
            return cap_response(std::move(out));
        }

        if (verb == "OBSERVE" || verb == "OBSERVETS") {
            if (service.options().replication.read_only) {
                return std::string("ERR ") + std::string(kReadOnlyError) + ": route " +
                       std::string(verb) + " to the leader";
            }
            if (words.size() < 2 || words.size() > 3) {
                return "ERR usage: " + std::string(verb) + " digest [hint]";
            }
            const auto digest = fuzzy::FuzzyDigest::parse(words[1]);
            // Partition enforcement: a sighting must land on the one shard
            // owning its block size, or cross-shard identify would see the
            // same family seeded independently on two shards. The typed
            // reply names the owner and map version so a stale client can
            // re-route without an extra PARTMAP round trip.
            if (const auto map = service.partition_map();
                map && !map->owns(service.shard_id(), digest.block_size)) {
                service.count_wrong_shard();
                std::string out = "ERR ";
                out += kWrongShardError;
                out += " owner=";
                util::append_number(out, map->owner_of(digest.block_size));
                out += " version=";
                util::append_number(out, map->version());
                out += ": shard ";
                util::append_number(out, service.shard_id());
                out += " does not own block size ";
                util::append_number(out, digest.block_size);
                return out;
            }
            // Admission control: a full writer queue means observe_sync
            // would block this event-loop thread (and every connection it
            // serves) behind the backlog. Shed with the typed marker so
            // clients back off or try another replica instead of hanging.
            if (service.queue_depth() >= service.shed_threshold()) {
                service.count_observe_shed();
                return std::string("ERR ") + std::string(kOverloadedError) +
                       ": observe queue is full, retry later";
            }
            const std::string hint = words.size() == 3 ? std::string(words[2]) : std::string();
            const auto result = verb == "OBSERVETS"
                                    ? service.observe_behavior_sync(digest, hint)
                                    : service.observe_sync(digest, hint);
            std::string out = "OK ";
            util::append_number(out, result.family);
            out.push_back(' ');
            util::append_number(out, result.score);
            out.push_back(' ');
            out += result.new_family ? "new" : "known";
            out.push_back(' ');
            out += result.name;
            return cap_response(std::move(out));
        }

        if (verb == "STATS") {
            if (words.size() != 1) return "ERR STATS takes no arguments";
            const auto snap = service.snapshot();
            const auto counters = service.counters();
            std::string out = "OK\n";
            const auto line = [&out](std::string_view key, std::uint64_t value) {
                out += key;
                out.push_back(' ');
                util::append_number(out, value);
                out.push_back('\n');
            };
            // Schema header first (docs/recognition_service.md, "STATS
            // schema"): parsers key on stats_version, ignore unknown keys.
            line("stats_version", kStatsVersion);
            out += service.options().replication.read_only ? "role follower\n" : "role leader\n";
            line("families", snap->registry.family_count());
            line("sightings", snap->registry.total_sightings());
            // Channel sizes: retained exemplars per recognition channel and
            // how many families carry signatures in both (the fused set).
            line("content_digests", snap->registry.content_digest_count());
            line("behavior_digests", snap->registry.behavior_digest_count());
            line("fused_families", snap->registry.fused_family_count());
            // The convergence audit: identical fingerprints = identical
            // registry state, so "did this follower converge" is a
            // leader-vs-follower STATS compare (docs/replication.md).
            // Memoized per snapshot — polling STATS stays cheap.
            line("fingerprint", snap->fingerprint());
            line("snapshot_version", snap->version);
            line("applied", snap->applied);
            line("identifies", counters.identifies);
            line("observes_enqueued", counters.observes_enqueued);
            line("observes_applied", counters.observes_applied);
            line("observes_dropped", counters.observes_dropped);
            line("feed_records", counters.feed_records);
            line("feed_file_hashes", counters.feed_file_hashes);
            line("feed_ts_hashes", counters.feed_ts_hashes);
            line("feed_malformed", counters.feed_malformed);
            line("publishes", counters.publishes);
            line("checkpoints", counters.checkpoints);
            line("checkpoint_errors", counters.checkpoint_errors);
            line("observes_journaled", counters.observes_journaled);
            line("wal_fallbacks", counters.wal_fallbacks);
            line("observes_shed", counters.observes_shed);
            // Publish-cost telemetry: O(delta) publication means
            // publish_ns tracks batch size, and shared_*/total_* report
            // how much of the latest snapshot is structurally shared with
            // its predecessor (docs/recognition_service.md).
            line("publish_ns", counters.publish_ns);
            line("publish_ns_last", counters.publish_ns_last);
            line("publish_errors", counters.publish_errors);
            line("shared_buckets", counters.shared_buckets);
            line("total_buckets", counters.total_buckets);
            line("shared_chunks", counters.shared_chunks);
            line("total_chunks", counters.total_chunks);
            // Partition membership (partitioned fleets only): which shard
            // this is, which map version it enforces, and how many observes
            // it bounced as wrong_shard (docs/sharding.md).
            if (const auto map = service.partition_map()) {
                line("shard_id", service.shard_id());
                line("partition_version", map->version());
                line("wrong_shard_rejects", service.wrong_shard_rejects());
            }
            // Armed failpoints (fault-injection builds only): one
            // "failpoint.<name> <fires>" line per armed point, so a chaos
            // driver can confirm over the wire that its faults landed.
            if (util::failpoint::compiled_in()) {
                for (const auto& fp : util::failpoint::counters()) {
                    out += "failpoint.";
                    out += fp.name;
                    out.push_back(' ');
                    util::append_number(out, fp.fires);
                    out.push_back('\n');
                }
            }
            // Per-verb request counters (this STATS included).
            for (std::size_t v = 0; v < static_cast<std::size_t>(QueryVerb::kCount); ++v) {
                const auto verb_id = static_cast<QueryVerb>(v);
                line(query_verb_name(verb_id), service.verb_count(verb_id));
            }
            return out;
        }

        if (verb == "CHECKPOINT") {
            if (words.size() != 1) return "ERR CHECKPOINT takes no arguments";
            std::string error;
            if (!service.checkpoint_now(&error)) {
                return "ERR checkpoint failed: " + error;
            }
            return "OK " + service.options().checkpoint_path;
        }

        if (verb == "PARTMAP") {
            if (words.size() != 1) return "ERR PARTMAP takes no arguments";
            const auto map = service.partition_map();
            if (!map) return "ERR not partitioned: this service has no partition map";
            return cap_response("OK\n" + map->serialize());
        }

        if (verb == "FPRANGE") {
            // Range-scoped registry fingerprint: the rebalance convergence
            // check ("has the new owner's copy of [lo, hi] caught up to
            // mine?") without shipping either registry (docs/sharding.md).
            if (words.size() != 3) return "ERR usage: FPRANGE lo hi";
            unsigned long long lo = 0;
            unsigned long long hi = 0;
            if (!util::parse_decimal(words[1], lo) || !util::parse_decimal(words[2], hi) ||
                lo > hi) {
                return "ERR FPRANGE needs a non-inverted decimal block-size range";
            }
            std::string out = "OK ";
            util::append_number(out, service.snapshot()->registry.fingerprint_range(lo, hi));
            return out;
        }

        return "ERR unknown verb '" + std::string(verb) + "'";
    } catch (const util::Error& e) {
        return std::string("ERR ") + e.what();
    }
}

std::optional<std::uint64_t> StatsSnapshot::get(std::string_view key) const {
    for (const auto& [k, v] : values) {
        if (k == key) return v;
    }
    return std::nullopt;
}

StatsSnapshot parse_stats(std::string_view text) {
    if (!util::starts_with(text, "OK")) {
        throw util::ParseError("not a STATS reply: " + std::string(text.substr(0, 40)));
    }
    StatsSnapshot stats;
    for (const auto raw : util::split_view(text, '\n')) {
        const auto line = util::trim(raw);
        if (line.empty() || line == "OK") continue;
        const auto space = line.find(' ');
        if (space == std::string_view::npos) continue;
        const auto key = line.substr(0, space);
        const auto value = util::trim(line.substr(space + 1));
        if (key == "role") {
            stats.role = std::string(value);
            continue;
        }
        // Unknown keys are fine (forward compat); non-numeric values are
        // skipped rather than rejected for the same reason.
        unsigned long long parsed = 0;
        if (!util::parse_decimal(value, parsed)) continue;
        stats.values.emplace_back(std::string(key), parsed);
    }
    return stats;
}

}  // namespace siren::serve

// siren_shard — partition-map authoring and rebalance driving for a
// sharded recognition fleet (docs/sharding.md). The map file it reads and
// writes is the serve::PartitionMap text form — the same payload PARTMAP
// serves and siren_recognized --partition-map loads.
//
//   siren_shard split OUT VERSION LEADERS [CUT...]
//       Author a map: LEADERS is "host:port[,host:port...]" naming N shard
//       leaders (ids 0..N-1); the N-1 ascending CUTs carve the 64-bit
//       block-size key space, shard i owning [CUT_{i-1}, CUT_i - 1] (with
//       CUT_{-1} = 0 and CUT_{N-1} = 2^64 - 1). Written atomically to OUT.
//
//   siren_shard move MAP OUT LO HI NEW_OWNER
//       The rebalance map step: reassign the key range [LO, HI] to shard
//       NEW_OWNER, splitting any range it bites into, and bump the version
//       by one. The input MAP is untouched; cut over by distributing OUT.
//
//   siren_shard check MAP
//       Parse + validate MAP and print a per-shard summary. Exit 2 when
//       the file violates an invariant (gap, overlap, missing leader...).
//
//   siren_shard owner MAP BLOCK_SIZE
//       Print the shard owning BLOCK_SIZE and the probe fan-out set (the
//       owners of the bs/2 - 2bs ladder) — the routing a ShardedClient
//       performs, answerable offline.
//
//   siren_shard export SEGMENTS_DIR EXPORT_DIR LO HI VERSION
//       The rebalance data step: replay every segment under SEGMENTS_DIR
//       and journal the observes whose block size lies in [LO, HI] into an
//       "obs-xfer<VERSION>-" stream under EXPORT_DIR, ready to ship to the
//       range's new owner over the replication machinery. Prints the
//       replay accounting. Converges under repetition — see
//       serve::export_range.
//
// Exit codes: 0 success, 1 usage, 2 runtime/validation failure.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "serve/partition_map.hpp"
#include "serve/rebalance.hpp"
#include "util/strings.hpp"

namespace {

namespace sv = siren::serve;

int usage() {
    std::fprintf(stderr,
                 "usage: siren_shard split OUT VERSION LEADERS [CUT...]\n"
                 "       siren_shard move MAP OUT LO HI NEW_OWNER\n"
                 "       siren_shard check MAP\n"
                 "       siren_shard owner MAP BLOCK_SIZE\n"
                 "       siren_shard export SEGMENTS_DIR EXPORT_DIR LO HI VERSION\n"
                 "       (LEADERS = HOST:PORT[,HOST:PORT...]; CUTs ascending,\n"
                 "        one fewer than leaders)\n");
    return 1;
}

bool parse_u64(const std::string& arg, unsigned long long& out) {
    return siren::util::parse_decimal(arg, out);
}

int split(const std::vector<std::string>& args) {
    if (args.size() < 3) return usage();
    unsigned long long version = 0;
    if (!parse_u64(args[1], version)) return usage();
    const auto leaders = sv::parse_replica_list(args[2]);
    if (args.size() != 3 + leaders.size() - 1) {
        std::fprintf(stderr, "siren_shard: %zu leaders need %zu cuts, got %zu\n",
                     leaders.size(), leaders.size() - 1, args.size() - 3);
        return usage();
    }
    std::vector<unsigned long long> cuts;
    for (std::size_t i = 3; i < args.size(); ++i) {
        unsigned long long cut = 0;
        if (!parse_u64(args[i], cut)) return usage();
        cuts.push_back(cut);
    }
    std::vector<sv::ShardInfo> shards;
    std::uint64_t lo = 0;
    for (std::size_t i = 0; i < leaders.size(); ++i) {
        sv::ShardInfo shard;
        shard.id = static_cast<std::uint32_t>(i);
        shard.leader = leaders[i];
        const std::uint64_t hi = i < cuts.size() ? cuts[i] - 1 : ~0ull;
        shard.ranges.push_back({lo, hi});
        lo = hi + 1;
        shards.push_back(std::move(shard));
    }
    const sv::PartitionMap map(version, std::move(shards));
    sv::save_partition_map(map, args[0]);
    std::printf("siren_shard: wrote %s (v%llu, %zu shards)\n", args[0].c_str(), version,
                map.shard_count());
    return 0;
}

int move_range(const std::vector<std::string>& args) {
    if (args.size() != 5) return usage();
    unsigned long long lo = 0, hi = 0;
    std::uint32_t new_owner = 0;
    if (!parse_u64(args[2], lo) || !parse_u64(args[3], hi) || lo > hi ||
        !sv::parse_shard_id(args[4], new_owner)) {
        return usage();
    }
    const auto old_map = sv::load_partition_map(args[0]);
    if (old_map.shard(new_owner) == nullptr) {
        std::fprintf(stderr, "siren_shard: map has no shard %u\n", new_owner);
        return 2;
    }
    std::vector<sv::ShardInfo> shards = old_map.shards();
    for (auto& shard : shards) {
        // Carve [lo, hi] out of every shard, keeping the pieces either side.
        std::vector<sv::KeyRange> kept;
        for (const auto& range : shard.ranges) {
            if (range.hi < lo || range.lo > hi) {
                kept.push_back(range);
                continue;
            }
            if (range.lo < lo) kept.push_back({range.lo, lo - 1});
            if (range.hi > hi) kept.push_back({hi + 1, range.hi});
        }
        if (shard.id == new_owner) kept.push_back({lo, hi});
        shard.ranges = std::move(kept);
    }
    const sv::PartitionMap map(old_map.version() + 1, std::move(shards));
    sv::save_partition_map(map, args[1]);
    std::printf("siren_shard: [%llu, %llu] -> shard %u, wrote %s (v%llu)\n", lo, hi,
                new_owner, args[1].c_str(),
                static_cast<unsigned long long>(map.version()));
    return 0;
}

int check(const std::vector<std::string>& args) {
    if (args.size() != 1) return usage();
    const auto map = sv::load_partition_map(args[0]);
    std::printf("partition map v%llu: %zu shards\n",
                static_cast<unsigned long long>(map.version()), map.shard_count());
    for (const auto& shard : map.shards()) {
        std::printf("  shard %u leader %s:%u followers %zu ranges", shard.id,
                    shard.leader.host.c_str(), shard.leader.port, shard.followers.size());
        for (const auto& range : shard.ranges) {
            std::printf(" [%llu, %llu]", static_cast<unsigned long long>(range.lo),
                        static_cast<unsigned long long>(range.hi));
        }
        std::printf("\n");
    }
    return 0;
}

int owner(const std::vector<std::string>& args) {
    if (args.size() != 2) return usage();
    unsigned long long block_size = 0;
    if (!parse_u64(args[1], block_size)) return usage();
    const auto map = sv::load_partition_map(args[0]);
    std::printf("owner %u fanout", map.owner_of(block_size));
    for (const auto shard : map.shards_for_probe(block_size)) std::printf(" %u", shard);
    std::printf("\n");
    return 0;
}

int export_segments(const std::vector<std::string>& args) {
    if (args.size() != 5) return usage();
    unsigned long long lo = 0, hi = 0, version = 0;
    if (!parse_u64(args[2], lo) || !parse_u64(args[3], hi) || lo > hi ||
        !parse_u64(args[4], version)) {
        return usage();
    }
    const auto stats = sv::export_range(args[0], args[1], lo, hi, version);
    std::printf("siren_shard: exported %llu records (%llu filtered, %llu crc failures) "
                "to %s/%sNNNNNN.seg\n",
                static_cast<unsigned long long>(stats.records - stats.filtered),
                static_cast<unsigned long long>(stats.filtered),
                static_cast<unsigned long long>(stats.crc_failures), args[1].c_str(),
                sv::transfer_prefix(version).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    const std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "split") return split(args);
        if (command == "move") return move_range(args);
        if (command == "check") return check(args);
        if (command == "owner") return owner(args);
        if (command == "export") return export_segments(args);
        std::fprintf(stderr, "siren_shard: unknown command '%s'\n", command.c_str());
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "siren_shard: %s\n", e.what());
        return 2;
    }
}

// Replication layer: segment shipping from a leader's durable directory
// into follower replicas — watermark resume, torn-chunk rejection and
// re-request, leader restart with a fresh segment sequence, multi-follower
// convergence against a direct-apply oracle, leader-kill survival, and the
// replica-aware client's round-robin/failover behavior. This is the
// acceptance path of the scale-out recognition deployment
// (docs/replication.md).

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hashing/crc32c.hpp"

#include "behavior/shapelet.hpp"
#include "fuzzy/fuzzy.hpp"
#include "listener_checks.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"
#include "serve/serve.hpp"
#include "sim/traces.hpp"
#include "storage/segment_store.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
namespace sf = siren::fuzzy;
namespace sv = siren::serve;
namespace ss = siren::storage;

namespace {

/// Unique scratch directory, removed on scope exit.
class ScratchDir {
public:
    explicit ScratchDir(const std::string& tag) {
        static std::atomic<int> counter{0};
        path_ = (fs::temp_directory_path() /
                 ("siren_repl_" + tag + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1))))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string& path() const { return path_; }
    std::string sub(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

/// The wire datagram an ingest daemon journals for one FILE_H sighting.
std::string file_hash_datagram(const sf::FuzzyDigest& digest, std::uint64_t job = 7) {
    siren::net::Message m;
    m.job_id = job;
    m.pid = 4242;
    m.exe_hash = "00112233445566778899aabbccddeeff";
    m.host = "nid000012";
    m.time = 1753660800;
    m.type = siren::net::MsgType::kFileHash;
    m.content = digest.to_string();
    return siren::net::encode(m);
}

sv::ServeOptions fast_options() {
    sv::ServeOptions options;
    options.feed_poll = std::chrono::milliseconds(2);
    options.checkpoint_interval = std::chrono::milliseconds(0);
    return options;
}

/// Poll `done` until it holds or ~5s elapse; returns whether it held.
bool eventually(const std::function<bool()>& done,
                std::chrono::milliseconds limit = std::chrono::milliseconds(5000)) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
        if (done()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return done();
}

/// Total bytes of every segment file under `dir`.
std::uint64_t dir_bytes(const std::string& dir) {
    std::uint64_t total = 0;
    for (const auto& path : ss::list_segments(dir)) {
        std::error_code ec;
        const auto size = fs::file_size(path, ec);
        if (!ec) total += size;
    }
    return total;
}

/// Replay a directory into a flat record list (canonical order).
std::vector<std::string> records_of(const std::string& dir) {
    std::vector<std::string> out;
    ss::replay_directory(dir, [&out](std::string_view r) { out.emplace_back(r); });
    return out;
}

sv::ReplicationFollowerOptions follow_options(std::uint16_t port, const std::string& dir) {
    sv::ReplicationFollowerOptions options;
    options.leader_port = port;
    options.directory = dir;
    options.reconnect_backoff = std::chrono::milliseconds(20);
    return options;
}

sv::ReplicationSourceOptions source_options(const std::string& dir) {
    sv::ReplicationSourceOptions options;
    options.segments_dir = dir;
    options.poll = std::chrono::milliseconds(2);
    return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// Byte shipping

TEST(Replication, ShipsExistingAndLiveAppends) {
    ScratchDir dir("ship");
    const auto leader_dir = dir.sub("leader");
    const auto replica_dir = dir.sub("replica");
    ss::SegmentStore store(leader_dir, 2);
    store.append(0, "alpha");
    store.append(1, "beta");
    store.sync_all();

    sv::ReplicationSource source(source_options(leader_dir));
    sv::ReplicationFollower follower(follow_options(source.port(), replica_dir));

    ASSERT_TRUE(eventually([&] { return dir_bytes(replica_dir) == dir_bytes(leader_dir); }))
        << "catch-up never completed";
    EXPECT_EQ(records_of(replica_dir), records_of(leader_dir));

    // Live appends keep flowing — including a third stream born later.
    store.append(0, "gamma");
    store.append(1, "delta");
    store.sync_all();
    ASSERT_TRUE(eventually([&] { return dir_bytes(replica_dir) == dir_bytes(leader_dir); }));
    const auto leader_records = records_of(leader_dir);
    EXPECT_EQ(records_of(replica_dir), leader_records);
    EXPECT_EQ(leader_records.size(), 4u);
    EXPECT_GE(follower.stats().connects, 1u);
    EXPECT_EQ(follower.stats().chunk_drops, 0u);
}

TEST(Replication, WatermarkResumeAfterFollowerRestart) {
    ScratchDir dir("resume");
    const auto leader_dir = dir.sub("leader");
    const auto replica_dir = dir.sub("replica");
    ss::SegmentStore store(leader_dir, 1);
    for (int i = 0; i < 32; ++i) store.append(0, "first-" + std::to_string(i));
    store.sync_all();

    sv::ReplicationSource source(source_options(leader_dir));
    {
        sv::ReplicationFollower follower(follow_options(source.port(), replica_dir));
        ASSERT_TRUE(
            eventually([&] { return dir_bytes(replica_dir) == dir_bytes(leader_dir); }));
    }  // follower gone; its local files are the durable watermark

    const std::uint64_t already = dir_bytes(replica_dir);
    for (int i = 0; i < 8; ++i) store.append(0, "second-" + std::to_string(i));
    store.sync_all();

    sv::ReplicationFollower restarted(follow_options(source.port(), replica_dir));
    ASSERT_TRUE(eventually([&] { return dir_bytes(replica_dir) == dir_bytes(leader_dir); }));
    EXPECT_EQ(records_of(replica_dir), records_of(leader_dir));
    // Only the suffix crossed the wire after the restart: the resubscribe
    // announced the local sizes and the source shipped from there.
    EXPECT_EQ(restarted.stats().bytes, dir_bytes(leader_dir) - already);
    EXPECT_EQ(restarted.stats().duplicate_bytes, 0u);
}

TEST(Replication, LeaderRestartWithFreshSegmentSequence) {
    ScratchDir dir("leader_restart");
    const auto leader_dir = dir.sub("leader");
    const auto replica_dir = dir.sub("replica");
    {
        ss::SegmentStore store(leader_dir, 1);
        store.append(0, "run1-a");
        store.append(0, "run1-b");
        store.sync_all();
    }

    sv::ReplicationSource source(source_options(leader_dir));
    sv::ReplicationFollower follower(follow_options(source.port(), replica_dir));
    ASSERT_TRUE(eventually([&] { return dir_bytes(replica_dir) == dir_bytes(leader_dir); }));

    // "Restarted" leader process: a new store resumes the sequence after
    // the survivors, so its appends land in new files next to the old.
    ss::SegmentStore restarted(leader_dir, 1);
    restarted.append(0, "run2-a");
    restarted.sync_all();
    ASSERT_TRUE(eventually([&] { return dir_bytes(replica_dir) == dir_bytes(leader_dir); }));
    EXPECT_EQ(records_of(replica_dir), records_of(leader_dir));
    EXPECT_EQ(ss::list_segments(replica_dir).size(), 2u) << "fresh sequence = second file";
}

// ---------------------------------------------------------------------------
// Admission: the follower cap, SUBSCRIBE validation, fd exhaustion

TEST(Replication, FollowerCapClosesTheNextConnection) {
    ScratchDir dir("cap");
    const auto leader_dir = dir.sub("leader");
    ss::SegmentStore store(leader_dir, 1);
    store.append(0, "alpha");
    store.sync_all();
    sv::ReplicationSource source(source_options(leader_dir));

    std::vector<int> followers;
    for (int i = 0; i < 64; ++i) {
        followers.push_back(listener_checks::raw_connect(source.port()));
        ASSERT_GE(followers.back(), 0);
    }
    ASSERT_TRUE(eventually([&] { return source.stats().connections == 64; }));
    const int extra = listener_checks::raw_connect(source.port());
    ASSERT_GE(extra, 0);
    EXPECT_TRUE(listener_checks::closed_by_server(extra))
        << "the 65th follower must be closed at accept";
    ::close(extra);
    EXPECT_EQ(source.stats().rejected, 1u);
    for (const int fd : followers) ::close(fd);
}

TEST(Replication, TraversalSubscribeDropsOnlyThatConnection) {
    ScratchDir dir("traversal");
    const auto leader_dir = dir.sub("leader");
    const auto replica_dir = dir.sub("replica");
    ss::SegmentStore store(leader_dir, 1);
    store.append(0, "alpha");
    store.sync_all();
    sv::ReplicationSource source(source_options(leader_dir));
    sv::ReplicationFollower follower(follow_options(source.port(), replica_dir));
    ASSERT_TRUE(eventually([&] { return dir_bytes(replica_dir) == dir_bytes(leader_dir); }));

    const int rogue = listener_checks::raw_connect(source.port());
    ASSERT_GE(rogue, 0);
    ASSERT_TRUE(listener_checks::send_frame(rogue, "SUBSCRIBE\nhave ../etc/passwd.seg 1\n"));
    EXPECT_TRUE(listener_checks::closed_by_server(rogue))
        << "a SUBSCRIBE naming a path outside the segment directory must drop the connection";
    ::close(rogue);

    store.append(0, "beta");
    store.sync_all();
    ASSERT_TRUE(eventually([&] { return dir_bytes(replica_dir) == dir_bytes(leader_dir); }))
        << "the well-formed follower must keep converging";
    EXPECT_EQ(records_of(replica_dir), records_of(leader_dir));
    EXPECT_EQ(source.stats().protocol_errors, 1u);
    EXPECT_EQ(follower.stats().disconnects, 0u);
}

TEST(Replication, FdExhaustionStallsAcceptThenRecovers) {
    ScratchDir dir("emfile");
    const auto leader_dir = dir.sub("leader");
    ss::SegmentStore store(leader_dir, 1);
    store.append(0, "alpha");
    store.sync_all();
    sv::ReplicationSource source(source_options(leader_dir));

    listener_checks::fd_exhaustion_drill({
        .port = source.port(),
        .accepted = [&] { return source.stats().connections; },
        .accept_stalls = [&] { return source.stats().accept_stalls; },
        .serves =
            [](int pending) {
                ASSERT_TRUE(listener_checks::send_frame(pending, "SUBSCRIBE\n"));
                const auto chunk = listener_checks::read_frame(pending);
                ASSERT_TRUE(chunk.has_value())
                    << "a follower accepted after the stall must be shipped";
                EXPECT_TRUE(chunk->starts_with("DATA ")) << *chunk;
            },
    });
}

// ---------------------------------------------------------------------------
// Torn chunks: a corrupted frame mid-stream drops the connection and the
// follower re-requests from its watermark.

TEST(ReplicationSink, RejectsCorruptMalformedAndGappedChunks) {
    ScratchDir dir("sink");
    sv::ReplicationSink sink(dir.sub("replica"));
    std::string error;

    const auto frame = [](std::string_view name, std::uint64_t offset, std::string_view bytes,
                          std::uint32_t crc) {
        std::string payload = "DATA ";
        payload += name;
        payload += ' ' + std::to_string(offset) + ' ' + std::to_string(crc) + '\n';
        payload += bytes;
        return payload;
    };
    const std::string bytes = "0123456789abcdef";
    const std::uint32_t good = siren::hash::crc32c(bytes);

    EXPECT_TRUE(sink.apply_chunk(frame("a-0.seg", 0, bytes, good), error)) << error;
    EXPECT_FALSE(sink.apply_chunk(frame("a-0.seg", 16, bytes, good ^ 1), error))
        << "crc mismatch must drop the stream";
    EXPECT_EQ(sink.stats().crc_failures.load(), 1u);
    EXPECT_FALSE(sink.apply_chunk(frame("a-0.seg", 99, bytes, good), error))
        << "offset gap must drop the stream";
    EXPECT_FALSE(sink.apply_chunk(frame("../evil.seg", 0, bytes, good), error))
        << "path traversal must be rejected";
    EXPECT_FALSE(sink.apply_chunk(frame("nested/evil.seg", 0, bytes, good), error));
    EXPECT_FALSE(sink.apply_chunk("garbage frame", error));

    // Duplicate and overlapping chunks (reconnect races) are idempotent.
    EXPECT_TRUE(sink.apply_chunk(frame("a-0.seg", 0, bytes, good), error)) << error;
    EXPECT_EQ(sink.stats().duplicate_bytes.load(), bytes.size());
    const std::string tail = bytes.substr(8) + "XY";
    EXPECT_TRUE(sink.apply_chunk(frame("a-0.seg", 8, tail, siren::hash::crc32c(tail)), error))
        << error;
    std::ifstream in(dir.sub("replica") + "/a-0.seg", std::ios::binary);
    std::stringstream got;
    got << in.rdbuf();
    EXPECT_EQ(got.str(), bytes + "XY");
}

TEST(Replication, TornChunkMidStreamReRequestsFromWatermark) {
    // A rogue "leader" sends one good chunk, then a corrupted one, then —
    // on the reconnect — the honest remainder. The follower must land
    // exactly the leader's bytes, re-requesting from its watermark.
    ScratchDir dir("torn");
    const auto replica_dir = dir.sub("replica");
    const std::string name = "evil-00000000.seg";
    std::string body = "SIRENSG1";  // fake segment bytes; the sink ships, not parses
    body += std::string(8, '\0');
    for (int i = 0; i < 64; ++i) body += "payload-" + std::to_string(i);

    const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ASSERT_EQ(::listen(listen_fd, 4), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    const std::uint16_t port = ntohs(addr.sin_port);

    const auto chunk_frame = [&](std::uint64_t offset, std::string_view bytes,
                                 bool corrupt) {
        std::string header = "DATA " + name + ' ' + std::to_string(offset) + ' ' +
                             std::to_string(siren::hash::crc32c(bytes) ^ (corrupt ? 1u : 0u)) +
                             '\n';
        std::string out;
        sv::append_frame(out, header + std::string(bytes));
        return out;
    };
    const auto read_subscribe = [](int fd) {
        // Read until the SUBSCRIBE frame is complete (length prefix + body).
        std::string in;
        char buf[4096];
        for (;;) {
            std::size_t consumed = 0;
            if (sv::parse_frame(in, consumed).has_value()) return true;
            const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n <= 0) return false;
            in.append(buf, static_cast<std::size_t>(n));
        }
    };

    std::atomic<bool> served_second{false};
    std::thread rogue([&] {
        // Session 1: half the body, then a corrupted chunk.
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) return;
        if (read_subscribe(fd)) {
            const auto good = chunk_frame(0, std::string_view(body).substr(0, 100), false);
            const auto bad = chunk_frame(100, std::string_view(body).substr(100, 50), true);
            (void)!::send(fd, good.data(), good.size(), MSG_NOSIGNAL);
            (void)!::send(fd, bad.data(), bad.size(), MSG_NOSIGNAL);
        }
        // The follower drops the connection on the bad chunk; wait for it.
        char sink_buf[256];
        while (::recv(fd, sink_buf, sizeof sink_buf, 0) > 0) {
        }
        ::close(fd);

        // Session 2 (the reconnect): honest remainder from the announced
        // watermark — which must be 100, not 150.
        fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) return;
        if (read_subscribe(fd)) {
            const auto rest = chunk_frame(100, std::string_view(body).substr(100), false);
            (void)!::send(fd, rest.data(), rest.size(), MSG_NOSIGNAL);
            served_second.store(true);
        }
        // Hold the session open until the test finishes shipping.
        char sink_buf2[256];
        while (::recv(fd, sink_buf2, sizeof sink_buf2, 0) > 0) {
        }
        ::close(fd);
    });

    {
        sv::ReplicationFollower follower(follow_options(port, replica_dir));
        ASSERT_TRUE(eventually([&] { return dir_bytes(replica_dir) == body.size(); }))
            << "shipped " << dir_bytes(replica_dir) << " of " << body.size();
        EXPECT_GE(follower.stats().chunk_drops, 1u);
        EXPECT_EQ(follower.stats().connects, 2u) << "one reconnect after the torn chunk";
        follower.stop();
    }
    ::close(listen_fd);
    rogue.join();
    EXPECT_TRUE(served_second.load());

    std::ifstream in(replica_dir + "/" + name, std::ios::binary);
    std::stringstream got;
    got << in.rdbuf();
    EXPECT_EQ(got.str(), body) << "corrupted bytes must never land";
}

// ---------------------------------------------------------------------------
// End-to-end: leader service + followers converge; leader death tolerated.

TEST(Replication, FollowersConvergeToLeaderAndOracle) {
    ScratchDir dir("converge");
    const auto leader_dir = dir.sub("leader");

    auto leader_options = fast_options();
    leader_options.segments_dir = leader_dir;
    leader_options.replication.observe_wal = true;
    leader_options.replication.wal_fsync = false;
    sv::RecognitionService leader(leader_options);
    sv::ReplicationSource source(source_options(leader_dir));

    // A corpus with hinted and anonymous sightings, plus drifted variants
    // that exercise family joining.
    siren::util::Rng rng(97);
    std::vector<sf::FuzzyDigest> corpus;
    for (int fam = 0; fam < 6; ++fam) {
        auto base = rng.bytes(8192);
        corpus.push_back(sf::fuzzy_hash(base));
        for (std::size_t i = 3000; i < 3400; ++i) {
            base[i] = static_cast<std::uint8_t>(rng.below(256));
        }
        corpus.push_back(sf::fuzzy_hash(base));
    }
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const std::string hint = i % 3 == 0 ? "app-" + std::to_string(i / 2) : std::string();
        leader.observe_sync(corpus[i], hint);
    }

    // Direct-apply oracle: the same stream applied to a bare registry in
    // the same order must equal what every replica converges to.
    siren::recognize::Registry oracle(leader_options.registry);
    ss::replay_directory(leader_dir, [&oracle](std::string_view record) {
        siren::net::MessageView view;
        siren::net::decode_view(record, view);
        const std::string content = view.content_str();
        const auto space = content.find(' ');
        oracle.observe(
            sf::FuzzyDigest::parse(std::string_view(content).substr(0, space)),
            space == std::string::npos ? std::string_view{}
                                       : std::string_view(content).substr(space + 1));
    });
    ASSERT_EQ(oracle.fingerprint(), leader.snapshot()->registry.fingerprint())
        << "leader must equal its own WAL replayed (single apply path)";

    auto follower_service_options = [&](const std::string& replica_dir) {
        auto o = fast_options();
        o.segments_dir = replica_dir;
        o.replication.read_only = true;
        return o;
    };
    sv::ReplicationFollower ship_a(follow_options(source.port(), dir.sub("replica_a")));
    sv::ReplicationFollower ship_b(follow_options(source.port(), dir.sub("replica_b")));
    sv::RecognitionService follower_a(follower_service_options(dir.sub("replica_a")));
    sv::RecognitionService follower_b(follower_service_options(dir.sub("replica_b")));

    const auto target = oracle.fingerprint();
    const auto converged = [&](sv::RecognitionService& s) {
        return s.snapshot()->registry.fingerprint() == target;
    };
    ASSERT_TRUE(eventually([&] { return converged(follower_a) && converged(follower_b); }))
        << "followers a/b fingerprints "
        << follower_a.snapshot()->registry.fingerprint() << '/'
        << follower_b.snapshot()->registry.fingerprint() << " vs oracle " << target;

    // families() agree member-by-member, not just by fingerprint.
    const auto expect = oracle.families();
    for (auto* service : {&follower_a, &follower_b}) {
        const auto got = service->snapshot()->registry.families();
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got[i].name, expect[i].name) << i;
            EXPECT_EQ(got[i].sightings, expect[i].sightings) << i;
            EXPECT_EQ(got[i].exemplars, expect[i].exemplars) << i;
        }
    }

    // Leader dies; the follower keeps answering from its own snapshots and
    // converges again after the leader returns.
    source.stop();
    leader.stop();
    const auto probe = leader.identify(corpus.front());
    ASSERT_TRUE(probe.has_value());
    const auto match = follower_a.identify(corpus.front());
    ASSERT_TRUE(match.has_value()) << "follower must survive leader death";
    EXPECT_EQ(match->name, probe->name);
}

TEST(Replication, FollowerServiceResumesFromCheckpointAndReplicaFiles) {
    // Follower-side crash recovery: service checkpoint watermark + the
    // replica files themselves resume cleanly, then keep following.
    ScratchDir dir("follower_ckpt");
    const auto leader_dir = dir.sub("leader");
    const auto replica_dir = dir.sub("replica");
    const auto ckpt = dir.sub("replica.ckpt");
    ss::SegmentStore store(leader_dir, 1);
    siren::util::Rng rng(101);
    const auto first = sf::fuzzy_hash(rng.bytes(8192));
    const auto second = sf::fuzzy_hash(rng.bytes(8192));
    store.append(0, file_hash_datagram(first));
    store.sync_all();

    sv::ReplicationSource source(source_options(leader_dir));
    sv::ReplicationFollower follower(follow_options(source.port(), replica_dir));
    {
        auto options = fast_options();
        options.segments_dir = replica_dir;
        options.replication.read_only = true;
        options.checkpoint_path = ckpt;
        sv::RecognitionService service(options);
        ASSERT_TRUE(
            eventually([&] { return service.identify(first).has_value(); }));
        service.stop();  // final checkpoint carries the tail watermark
    }

    store.append(0, file_hash_datagram(second));
    store.sync_all();

    auto options = fast_options();
    options.segments_dir = replica_dir;
    options.replication.read_only = true;
    options.checkpoint_path = ckpt;
    sv::RecognitionService restarted(options);
    EXPECT_TRUE(restarted.identify(first).has_value()) << "checkpointed state lost";
    ASSERT_TRUE(eventually([&] { return restarted.identify(second).has_value(); }))
        << "restarted follower stopped following";
    EXPECT_EQ(restarted.snapshot()->registry.total_sightings(), 2u)
        << "watermark resume must not re-observe";
}

// ---------------------------------------------------------------------------
// Protocol face: read-only followers and the replica-aware client.

TEST(ReplicaClient, ParsesListsAndRejectsGarbage) {
    const auto list = sv::parse_replica_list("10.0.0.1:9743,10.0.0.2:9743, 10.0.0.3:17 ,");
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0].host, "10.0.0.1");
    EXPECT_EQ(list[2].port, 17);
    EXPECT_THROW(sv::parse_replica_list(""), siren::util::ParseError);
    EXPECT_THROW(sv::parse_replica_list("nohost"), siren::util::ParseError);
    EXPECT_THROW(sv::parse_replica_list(":123"), siren::util::ParseError);
    EXPECT_THROW(sv::parse_replica_list("h:0"), siren::util::ParseError);
    EXPECT_THROW(sv::parse_replica_list("h:99999"), siren::util::ParseError);
    EXPECT_THROW(sv::parse_replica_list("h:12x"), siren::util::ParseError);
}

TEST(ReplicaClient, ReadOnlyFollowerBouncesObserveToLeader) {
    sv::RecognitionService leader(fast_options());
    auto follower_options = fast_options();
    follower_options.replication.read_only = true;
    sv::RecognitionService follower(follower_options);
    sv::QueryServer leader_server(leader);
    sv::QueryServer follower_server(follower);

    siren::util::Rng rng(103);
    const auto digest = sf::fuzzy_hash(rng.bytes(8192)).to_string();

    // Follower first in the list: the observe must bounce to the leader.
    sv::ReplicaClient client({{"127.0.0.1", follower_server.port()},
                              {"127.0.0.1", leader_server.port()}});
    const auto observed = client.observe(digest, "icon");
    EXPECT_TRUE(observed.new_family);
    EXPECT_EQ(observed.name, "icon");
    EXPECT_GE(client.stats().read_only_redirects, 1u);
    EXPECT_EQ(leader.snapshot()->registry.family_count(), 1u);
    EXPECT_EQ(follower.snapshot()->registry.family_count(), 0u);

    // Direct protocol check too: the rejection carries the marker.
    sv::QueryClient raw("127.0.0.1", follower_server.port());
    const auto reply = raw.request("OBSERVE " + digest);
    EXPECT_TRUE(reply.starts_with("ERR")) << reply;
    EXPECT_NE(reply.find(sv::kReadOnlyError), std::string::npos) << reply;
    EXPECT_NE(raw.request("STATS").find("role follower"), std::string::npos);
}

TEST(ReplicaClient, SpreadsReadsAndFailsOverOnDeadReplica) {
    auto options = fast_options();
    sv::RecognitionService service_a(options);
    sv::RecognitionService service_b(options);
    siren::util::Rng rng(107);
    const auto digest = sf::fuzzy_hash(rng.bytes(8192));
    service_a.observe_sync(digest, "icon");
    service_b.observe_sync(digest, "icon");

    auto server_a = std::make_unique<sv::QueryServer>(service_a);
    auto server_b = std::make_unique<sv::QueryServer>(service_b);
    sv::ReplicaClient client({{"127.0.0.1", server_a->port()},
                              {"127.0.0.1", server_b->port()}},
                             std::chrono::milliseconds(500));

    const sv::Probe probe{.content = digest.to_string(), .behavior = {}, .k = 1};
    for (int i = 0; i < 4; ++i) {
        const auto match = client.identify(probe);
        ASSERT_EQ(match.size(), 1u);
        EXPECT_EQ(match.front().name, "icon");
    }
    // Round-robin touched both servers.
    EXPECT_GE(service_a.counters().identifies, 2u);
    EXPECT_GE(service_b.counters().identifies, 2u);

    // Kill one replica: every read still answers, with failovers counted.
    server_a.reset();
    for (int i = 0; i < 4; ++i) {
        const auto match = client.identify(probe);
        ASSERT_EQ(match.size(), 1u);
        EXPECT_EQ(match.front().name, "icon");
    }
    EXPECT_GE(client.stats().failovers, 1u);

    // Both replicas gone: the transport error finally surfaces.
    server_b.reset();
    EXPECT_THROW((void)client.identify(probe), siren::util::SystemError);
}

// ---------------------------------------------------------------------------
// Leader observe WAL details.

TEST(RecognitionService, ObserveWalJournalsAndRecoversClientObserves) {
    ScratchDir dir("wal");
    const auto segments = dir.sub("segments");
    siren::util::Rng rng(109);
    const auto digest = sf::fuzzy_hash(rng.bytes(8192));
    std::string observed_name;
    {
        auto options = fast_options();
        options.segments_dir = segments;
        options.replication.observe_wal = true;
        options.replication.wal_fsync = false;
        sv::RecognitionService leader(options);
        const auto applied = leader.observe_sync(digest, "icon");
        EXPECT_TRUE(applied.new_family);
        observed_name = applied.name;
        EXPECT_EQ(leader.counters().observes_journaled, 1u);
        EXPECT_EQ(leader.counters().wal_fallbacks, 0u);
        EXPECT_EQ(leader.counters().feed_file_hashes, 1u)
            << "the observe must come back through the feed";
        leader.stop();
    }
    // No checkpoint at all: a restarted leader recovers the TCP observe
    // from its own WAL — the durability hole the WAL closes.
    auto options = fast_options();
    options.segments_dir = segments;
    options.replication.observe_wal = true;
    options.replication.wal_fsync = false;
    sv::RecognitionService restarted(options);
    const auto match = restarted.identify(digest);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->name, observed_name);
    EXPECT_EQ(match->name, "icon");
}

TEST(RecognitionService, SpoofedHintOnIngestStreamNeverNamesAFamily) {
    // "digest hint" content is an obs- stream privilege: the same bytes
    // arriving through a (spoofable, UDP-fed) ingest shard stream are
    // treated as one digest string — the attacker's label is never split
    // off and can never name a family.
    ScratchDir dir("spoof");
    siren::util::Rng rng(113);
    const auto digest = sf::fuzzy_hash(rng.bytes(8192));
    siren::net::Message m;
    m.job_id = 1;  // a job id that could collide with an observe seq
    m.type = siren::net::MsgType::kFileHash;
    m.content = digest.to_string() + " EvilName";
    ss::SegmentStore store(dir.path(), 1);
    store.append(0, siren::net::encode(m));
    store.sync_all();

    auto options = fast_options();
    options.segments_dir = dir.path();
    options.replication.observe_wal = true;
    options.replication.wal_fsync = false;
    sv::RecognitionService service(options);
    service.flush();
    for (const auto& fam : service.snapshot()->registry.families()) {
        EXPECT_NE(fam.name.find("family-"), std::string::npos)
            << "spoofed hint '" << fam.name << "' named a family";
    }

    // The same digest through the legitimate observe WAL does label.
    const auto applied = service.observe_sync(digest, "GoodName");
    EXPECT_EQ(applied.name, "GoodName");
    const auto match = service.identify(digest);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->name, "GoodName");
}

TEST(RecognitionService, ObserveWalRequiresSegmentsDir) {
    auto options = fast_options();
    options.replication.observe_wal = true;
    EXPECT_THROW(sv::RecognitionService{options}, siren::util::Error);
}

// ---------------------------------------------------------------------------
// Behavioral channel replication

namespace {

std::vector<double> repl_family_trace(std::size_t family, std::uint64_t run_seed) {
    siren::sim::TraceRecipe recipe;
    recipe.lineage = "repl/" + std::to_string(family);
    recipe.samples = 256;
    recipe.run_seed = run_seed;
    return siren::sim::synthesize_trace(recipe);
}

}  // namespace

TEST(Replication, BehavioralRecordsShipAndFingerprintDetectsDivergence) {
    // The behavior channel must ride the same segment-shipping path as
    // content sightings, and Registry::fingerprint() must cover it — a
    // replica whose behavior channel silently drifted has to show up in
    // the one-integer convergence audit, not only in a family-by-family
    // diff of the content channel.
    ScratchDir dir("behavior");
    const auto leader_dir = dir.sub("leader");
    const auto replica_dir = dir.sub("replica");

    auto leader_options = fast_options();
    leader_options.segments_dir = leader_dir;
    leader_options.replication.observe_wal = true;
    leader_options.replication.wal_fsync = false;
    sv::RecognitionService leader(leader_options);

    siren::util::Rng rng(113);
    const auto content = sf::fuzzy_hash(rng.bytes(8192));
    leader.observe_sync(content, "chroma");
    leader.observe_behavior_sync(
        siren::behavior::shapelet_digest(repl_family_trace(1, 1)), "chroma");
    leader.flush();
    const auto leader_fp = leader.snapshot()->registry.fingerprint();

    sv::ReplicationSource source(source_options(leader_dir));
    sv::ReplicationFollower ship(follow_options(source.port(), replica_dir));
    auto follower_options = fast_options();
    follower_options.segments_dir = replica_dir;
    follower_options.replication.read_only = true;
    sv::RecognitionService follower(follower_options);

    ASSERT_TRUE(eventually(
        [&] { return follower.snapshot()->registry.fingerprint() == leader_fp; }))
        << "follower fingerprint " << follower.snapshot()->registry.fingerprint()
        << " never converged to leader " << leader_fp;
    EXPECT_EQ(follower.snapshot()->registry.behavior_digest_count(), 1u);

    // A fresh run of the workload is recognizable on the follower.
    const auto match = follower.identify(sv::DigestProbe{
        .content = std::nullopt,
        .behavior = siren::behavior::shapelet_digest(repl_family_trace(1, 2)),
        .k = 1});
    ASSERT_EQ(match.size(), 1u);
    EXPECT_EQ(match.front().name, "chroma");

    // Divergence: a behavioral record applied on the follower but not the
    // leader (in-process observe bypasses the read-only network guard —
    // the simulated fault). Content channels still agree; only the
    // fingerprint exposes the drift.
    follower.observe_behavior_sync(
        siren::behavior::shapelet_digest(repl_family_trace(2, 1)), "rogue");
    const auto diverged = follower.snapshot()->registry;
    EXPECT_EQ(diverged.content_digest_count(),
              leader.snapshot()->registry.content_digest_count());
    EXPECT_NE(diverged.fingerprint(), leader.snapshot()->registry.fingerprint())
        << "behavior-channel divergence must break the fingerprint";
}

// ---------------------------------------------------------------------------
// Degraded-path behavior: reconnect backoff and injected corruption

TEST(Replication, ReconnectBackoffGrowsWithJitterOnDeadLeader) {
    ScratchDir dir("backoff");

    // Grab a port nothing listens on: bind, read it back, close.
    int probe = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(probe, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    const auto dead_port = ntohs(addr.sin_port);
    ::close(probe);

    auto options = follow_options(dead_port, dir.sub("replica"));
    options.reconnect_backoff = std::chrono::milliseconds(10);
    options.reconnect_backoff_cap = std::chrono::milliseconds(80);
    sv::ReplicationFollower follower(options);

    // Every connect fails, so pauses are taken and the jittered pause
    // eventually exceeds the floor (the ceiling doubles per failure). All
    // pauses stay within [floor, cap].
    std::uint64_t max_pause = 0;
    ASSERT_TRUE(eventually([&] {
        const auto stats = follower.stats();
        if (stats.last_backoff_ms > 0) {
            EXPECT_GE(stats.last_backoff_ms, 10u);
            EXPECT_LE(stats.last_backoff_ms, 80u);
            max_pause = std::max(max_pause, stats.last_backoff_ms);
        }
        return stats.backoffs >= 6 && max_pause > 10;
    })) << "backoffs=" << follower.stats().backoffs << " max_pause=" << max_pause;
    EXPECT_EQ(follower.stats().connects, 0u);
    EXPECT_NE(follower.stats().last_error, "");
}

TEST(ReplicationFailpoints, CorruptedChunksDropConnectionsButConverge) {
    namespace fp = siren::util::failpoint;
    if (!fp::compiled_in()) {
        GTEST_SKIP() << "needs -DSIREN_FAILPOINTS=ON";
    }
    fp::clear();
    ScratchDir dir("corrupt");
    const auto leader_dir = dir.sub("leader");
    const auto replica_dir = dir.sub("replica");
    ss::SegmentStore store(leader_dir, 2);
    for (int i = 0; i < 16; ++i) {
        store.append(i % 2, "record-" + std::to_string(i));
    }
    store.sync_all();

    // Every other shipped chunk arrives with a flipped byte: the sink's
    // CRC must catch each one, the follower drops and resubscribes from
    // its watermark, and the replica still converges byte-for-byte. Tiny
    // chunks make the backlog ship in many pieces so the cadence gets
    // plenty of hits.
    fp::activate("replication.source.corrupt", "corrupt-byte%2");
    auto src_options = source_options(leader_dir);
    src_options.chunk_bytes = 64;
    sv::ReplicationSource source(src_options);
    auto options = follow_options(source.port(), replica_dir);
    options.reconnect_backoff = std::chrono::milliseconds(5);
    sv::ReplicationFollower follower(options);

    ASSERT_TRUE(eventually([&] { return follower.stats().chunk_drops >= 2; }))
        << "injected corruption must surface as counted chunk drops";
    EXPECT_GE(fp::fire_count("replication.source.corrupt"), 2u);

    // Disarmed, every retry ships clean: the watermark protocol recovers
    // the replica byte-for-byte and pays a counted pause per drop taken.
    fp::clear();
    ASSERT_TRUE(eventually([&] { return dir_bytes(replica_dir) == dir_bytes(leader_dir); }))
        << "resubscribes from the watermark must drain the backlog";
    EXPECT_EQ(records_of(replica_dir), records_of(leader_dir));
    EXPECT_GE(follower.stats().backoffs, 1u) << "each drop pays a reconnect pause";

    store.append(0, "epilogue");
    store.sync_all();
    ASSERT_TRUE(eventually([&] { return dir_bytes(replica_dir) == dir_bytes(leader_dir); }));
    EXPECT_EQ(records_of(replica_dir), records_of(leader_dir));
}

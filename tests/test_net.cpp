// Wire protocol: codec round trips, chunk/reassembly, and the UDP
// sender's fire-and-forget contract. (The receive end is tested in
// test_ingest.cpp.)

#include <gtest/gtest.h>

#include "net/chunker.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"
#include "net/udp.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sn = siren::net;
namespace su = siren::util;

namespace {

sn::Message sample_message() {
    sn::Message m;
    m.job_id = 1000042;
    m.step_id = 3;
    m.pid = 4242;
    m.exe_hash = "00ff00ff00ff00ff00ff00ff00ff00ff";
    m.host = "nid000123";
    m.time = 1733900000;
    m.layer = sn::Layer::kSelf;
    m.type = sn::MsgType::kObjects;
    m.content = "/lib64/libc.so.6\n/opt/siren/lib/siren.so";
    return m;
}

}  // namespace

TEST(Codec, RoundTrip) {
    const sn::Message m = sample_message();
    EXPECT_EQ(sn::decode(sn::encode(m)), m);
}

TEST(Codec, RoundTripWithNastyContent) {
    sn::Message m = sample_message();
    m.content = "pipes| and \\ slashes \n newlines \t tabs ||";
    m.host = "host|with|pipes";
    EXPECT_EQ(sn::decode(sn::encode(m)), m);
}

TEST(Codec, AllTypesAndLayersRoundTrip) {
    for (int t = 0; t <= static_cast<int>(sn::MsgType::kMemMapHash); ++t) {
        sn::Message m = sample_message();
        m.type = static_cast<sn::MsgType>(t);
        m.layer = t % 2 == 0 ? sn::Layer::kSelf : sn::Layer::kScript;
        EXPECT_EQ(sn::decode(sn::encode(m)), m);
    }
}

TEST(Codec, RejectsMalformedDatagrams) {
    EXPECT_THROW(sn::decode(""), su::ParseError);
    EXPECT_THROW(sn::decode("GARBAGE|JOBID=1"), su::ParseError);
    EXPECT_THROW(sn::decode("SIREN1|JOBID=1"), su::ParseError);  // missing fields
    EXPECT_THROW(sn::decode("SIREN1|JOBID=x|STEPID=0|PID=1|HASH=h|HOST=h|TIME=0|LAYER=SELF|"
                            "TYPE=IDS|CONTENT=c"),
                 su::ParseError);
    EXPECT_THROW(sn::decode("SIREN1|JOBID=1|STEPID=0|PID=1|HASH=h|HOST=h|TIME=0|LAYER=BAD|"
                            "TYPE=IDS|CONTENT=c"),
                 su::ParseError);
}

TEST(Codec, IgnoresUnknownFieldsForForwardCompat) {
    const std::string wire = sn::encode(sample_message()) + "|FUTURE=stuff";
    EXPECT_EQ(sn::decode(wire), sample_message());
}

// ---------------------------------------------------------------------------
// Zero-copy path: encode_into / decode_view must agree with the owned codec
// byte for byte and message for message (docs/wire_format.md).

namespace {

std::vector<sn::Message> view_path_corpus() {
    std::vector<sn::Message> corpus;
    corpus.push_back(sample_message());

    sn::Message nasty = sample_message();
    nasty.content = "pipes| and \\ slashes \n newlines \t tabs ||";
    nasty.host = "host|with|pipes";
    corpus.push_back(nasty);

    sn::Message escaped_host = sample_message();
    escaped_host.host = "nid\\0001\t2";
    corpus.push_back(escaped_host);

    sn::Message embedded = sample_message();
    embedded.content = std::string("a|b\nc") + '\x01' + "d\\e";
    corpus.push_back(embedded);

    sn::Message empty = sample_message();
    empty.content.clear();
    corpus.push_back(empty);
    return corpus;
}

}  // namespace

TEST(CodecView, EncodeIntoMatchesEncodeAcrossReuse) {
    std::string wire;  // reused across all messages
    for (const auto& m : view_path_corpus()) {
        sn::encode_into(m, wire);
        EXPECT_EQ(wire, sn::encode(m));
    }
}

TEST(CodecView, DecodeViewAgreesWithOwnedDecode) {
    for (const auto& m : view_path_corpus()) {
        const std::string wire = sn::encode(m);
        sn::MessageView view;
        sn::decode_view(wire, view);
        EXPECT_EQ(view.to_message(), sn::decode(wire));
        EXPECT_EQ(view.to_message(), m);
        EXPECT_EQ(view.host_str(), m.host);
        EXPECT_EQ(view.content_str(), m.content);
    }
}

TEST(CodecView, ViewsAliasTheDatagram) {
    sn::Message m = sample_message();
    m.content = "/lib64/libc.so.6";  // no escapable bytes anywhere
    const std::string wire = sn::encode(m);
    sn::MessageView view;
    sn::decode_view(wire, view);
    for (const auto field : {view.exe_hash, view.host, view.content}) {
        EXPECT_GE(field.data(), wire.data());
        EXPECT_LE(field.data() + field.size(), wire.data() + wire.size());
    }
    EXPECT_FALSE(view.host_escaped);
    EXPECT_FALSE(view.content_escaped);
}

TEST(CodecView, EscapedFieldsStayRawUntilAsked) {
    sn::Message m = sample_message();
    m.content = "a|b";
    m.host = "h\tx";
    const std::string wire = sn::encode(m);
    sn::MessageView view;
    sn::decode_view(wire, view);
    EXPECT_TRUE(view.content_escaped);
    EXPECT_TRUE(view.host_escaped);
    EXPECT_EQ(view.content, "a\\pb");  // raw wire bytes, untouched
    EXPECT_EQ(view.content_str(), "a|b");
    EXPECT_EQ(view.host_str(), "h\tx");

    std::string assembled;
    view.append_content(assembled);
    EXPECT_EQ(assembled, "a|b");
}

TEST(CodecView, ReencodeIsByteIdentical) {
    for (const auto& m : view_path_corpus()) {
        const std::string wire = sn::encode(m);
        sn::MessageView view;
        sn::decode_view(wire, view);
        std::string reencoded;
        sn::encode_into(view, reencoded);
        EXPECT_EQ(reencoded, wire);
    }
}

TEST(CodecView, ProcessKeyIntoMatchesOwnedKey) {
    for (const auto& m : view_path_corpus()) {
        const std::string wire = sn::encode(m);
        sn::MessageView view;
        sn::decode_view(wire, view);
        std::string key;
        view.process_key_into(key);
        EXPECT_EQ(key, m.process_key());
    }
}

// ---------------------------------------------------------------------------
// Decode hardening: the wire never legitimately repeats, drops or reorders
// mandatory fields silently — sweep permutations of all three corruptions.

TEST(Codec, RejectsDuplicateFieldsNamingTheOffender) {
    const std::string wire = sn::encode(sample_message());
    const auto fields = su::split(wire, '|');
    ASSERT_GT(fields.size(), 1u);
    // Duplicate each field (skip the magic) somewhere in the datagram.
    for (std::size_t dup = 1; dup < fields.size(); ++dup) {
        const std::string corrupted = wire + "|" + fields[dup];
        const std::string key = fields[dup].substr(0, fields[dup].find('='));
        try {
            sn::decode(corrupted);
            FAIL() << "duplicated " << key << " accepted";
        } catch (const su::ParseError& e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << "error should name the duplicated field: " << e.what();
        }
    }
}

TEST(Codec, FieldPermutationSweep) {
    const sn::Message m = sample_message();
    const std::string wire = sn::encode(m);
    auto fields = su::split(wire, '|');
    ASSERT_EQ(fields[0], std::string(sn::kWireMagic));

    siren::util::Rng rng(20260728);
    const auto rebuild = [](const std::vector<std::string>& parts) {
        std::string out;
        for (std::size_t i = 0; i < parts.size(); ++i) {
            if (i != 0) out += '|';
            out += parts[i];
        }
        return out;
    };

    // Reordered (magic stays first): any permutation of the key=value
    // fields must decode to the same message.
    for (int round = 0; round < 32; ++round) {
        std::vector<std::string> shuffled(fields.begin() + 1, fields.end());
        for (std::size_t i = shuffled.size(); i > 1; --i) {
            std::swap(shuffled[i - 1], shuffled[rng.index(i)]);
        }
        std::vector<std::string> parts = {fields[0]};
        parts.insert(parts.end(), shuffled.begin(), shuffled.end());
        EXPECT_EQ(sn::decode(rebuild(parts)), m) << rebuild(parts);
    }

    // Truncated: dropping any mandatory field must throw; dropping the
    // optional SEQ/TOTAL pair must not.
    for (std::size_t drop = 1; drop < fields.size(); ++drop) {
        std::vector<std::string> parts;
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (i != drop) parts.push_back(fields[i]);
        }
        const std::string key = fields[drop].substr(0, fields[drop].find('='));
        if (key == "SEQ" || key == "TOTAL") {
            EXPECT_EQ(sn::decode(rebuild(parts)), m) << key << " is optional";
        } else {
            EXPECT_THROW(sn::decode(rebuild(parts)), su::ParseError) << key << " is mandatory";
        }
    }

    // Duplicated at a random position (not just appended): must throw.
    for (std::size_t dup = 1; dup < fields.size(); ++dup) {
        std::vector<std::string> parts = fields;
        const std::size_t at = 1 + rng.index(parts.size() - 1);
        parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(at), fields[dup]);
        EXPECT_THROW(sn::decode(rebuild(parts)), su::ParseError) << rebuild(parts);
    }
}

TEST(Chunker, SmallContentSingleChunk) {
    const auto chunks = sn::chunk_content(sample_message(), "tiny");
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].seq, 0u);
    EXPECT_EQ(chunks[0].total, 1u);
    EXPECT_EQ(chunks[0].content, "tiny");
}

TEST(Chunker, EmptyContentStillSendsOneChunk) {
    const auto chunks = sn::chunk_content(sample_message(), "");
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].content, "");
}

TEST(Chunker, LargeContentSplitsAndFits) {
    const std::string content(20000, 'x');
    const auto chunks = sn::chunk_content(sample_message(), content, 1400);
    EXPECT_GT(chunks.size(), 10u);
    std::string reassembled;
    for (const auto& c : chunks) {
        EXPECT_LE(sn::encode(c).size(), 1400u);
        reassembled += c.content;
    }
    EXPECT_EQ(reassembled, content);
}

TEST(Chunker, ReassemblerMergesInOrder) {
    const std::string content(5000, 'a');
    auto chunks = sn::chunk_content(sample_message(), content, 1400);
    // Deliver out of order.
    std::rotate(chunks.begin(), chunks.begin() + 1, chunks.end());

    sn::Reassembler reassembler;
    for (const auto& c : chunks) reassembler.add(c);
    const auto assembled = reassembler.assemble();
    ASSERT_EQ(assembled.size(), 1u);
    EXPECT_TRUE(assembled[0].complete());
    EXPECT_EQ(assembled[0].merged.content, content);
}

TEST(Chunker, ReassemblerReportsMissingChunks) {
    const std::string content(5000, 'b');
    auto chunks = sn::chunk_content(sample_message(), content, 1400);
    ASSERT_GT(chunks.size(), 2u);
    chunks.erase(chunks.begin() + 1);  // drop one

    sn::Reassembler reassembler;
    for (const auto& c : chunks) reassembler.add(c);
    const auto assembled = reassembler.assemble();
    ASSERT_EQ(assembled.size(), 1u);
    EXPECT_FALSE(assembled[0].complete());
    EXPECT_LT(assembled[0].merged.content.size(), content.size());
}

TEST(Chunker, DuplicateChunksTolerated) {
    const auto chunks = sn::chunk_content(sample_message(), "abc");
    sn::Reassembler reassembler;
    reassembler.add(chunks[0]);
    reassembler.add(chunks[0]);
    const auto assembled = reassembler.assemble();
    ASSERT_EQ(assembled.size(), 1u);
    EXPECT_EQ(assembled[0].merged.content, "abc");
}

TEST(Chunker, DistinctTypesReassembleIndependently) {
    sn::Message a = sample_message();
    a.type = sn::MsgType::kModules;
    sn::Message b = sample_message();
    b.type = sn::MsgType::kObjects;

    sn::Reassembler reassembler;
    for (const auto& c : sn::chunk_content(a, "modules")) reassembler.add(c);
    for (const auto& c : sn::chunk_content(b, "objects")) reassembler.add(c);
    EXPECT_EQ(reassembler.assemble().size(), 2u);
}

TEST(Udp, SenderNeverThrowsOnSend) {
    // Sending to a port nobody listens on must not throw (fire and forget).
    sn::UdpSender sender("127.0.0.1", 1);  // almost certainly closed
    EXPECT_NO_THROW(sender.send("SIREN1|whatever"));
}

TEST(Message, ProcessKeyDistinguishesExecChains) {
    sn::Message a = sample_message();
    sn::Message b = sample_message();
    b.exe_hash = "11111111111111111111111111111111";  // same PID, new exe
    EXPECT_NE(a.process_key(), b.process_key());
}

// ---------------------------------------------------------------------------
// Randomized round-trip property sweep: arbitrary binary-ish content must
// survive encode -> decode and chunk -> shuffle -> reassemble unchanged.

class WireFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzSweep, EncodeDecodeAndChunkReassembleRoundTrip) {
    siren::util::Rng rng(GetParam());

    for (int round = 0; round < 25; ++round) {
        sn::Message m;
        m.job_id = rng.next();
        m.step_id = static_cast<std::uint32_t>(rng.below(1 << 20));
        m.pid = static_cast<std::int64_t>(rng.below(1 << 22));
        m.exe_hash = rng.ident(32);
        m.host = "nid" + rng.ident(6);
        m.time = static_cast<std::int64_t>(1733900000 + rng.below(1000000));
        m.layer = rng.chance(0.5) ? sn::Layer::kSelf : sn::Layer::kScript;
        m.type = static_cast<sn::MsgType>(rng.below(14));

        // Content with every byte class the collector actually emits:
        // newlines (object lists), separators, and high/low bytes from
        // binary-derived strings.
        std::string content;
        const std::size_t len = rng.below(6000);
        for (std::size_t i = 0; i < len; ++i) {
            content += static_cast<char>(1 + rng.below(255));  // no NUL
        }
        m.content = content;

        // Property 1: codec round trip.
        ASSERT_EQ(sn::decode(sn::encode(m)), m) << "seed " << GetParam();

        // Property 2: chunk -> shuffle -> reassemble, random chunk budget.
        const std::size_t budget = 600 + rng.below(1400);
        auto chunks = sn::chunk_content(m, m.content, budget);
        for (const auto& c : chunks) {
            ASSERT_LE(sn::encode(c).size(), budget) << "chunk exceeds datagram budget";
        }
        for (std::size_t i = chunks.size(); i > 1; --i) {
            std::swap(chunks[i - 1], chunks[rng.index(i)]);
        }
        sn::Reassembler reassembler;
        for (const auto& c : chunks) reassembler.add(c);
        const auto assembled = reassembler.assemble();
        ASSERT_EQ(assembled.size(), 1u);
        ASSERT_TRUE(assembled[0].complete());
        EXPECT_EQ(assembled[0].merged.content, m.content);
        EXPECT_EQ(assembled[0].merged.job_id, m.job_id);
        EXPECT_EQ(assembled[0].merged.type, m.type);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzSweep,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u));

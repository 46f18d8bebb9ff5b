// Embedded store: schema validation, queries, persistence round trip and
// its write-failure reporting, message table.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <thread>
#include <utility>

#include "db/database.hpp"
#include "db/message_store.hpp"
#include "net/message.hpp"
#include "util/error.hpp"

namespace sd = siren::db;
namespace sn = siren::net;
namespace su = siren::util;

namespace {

void fill_people(sd::Table& t) {
    t.append({std::string("alice"), std::int64_t{30}, 1.5});
    t.append({std::string("bob"), std::int64_t{40}, 2.5});
    t.append({std::string("alice"), std::int64_t{31}, 3.5});
}

#define MAKE_PEOPLE(t)                                             \
    sd::Table t("people", {{"name", sd::ColumnType::kText},        \
                           {"age", sd::ColumnType::kInt},          \
                           {"score", sd::ColumnType::kReal}});     \
    fill_people(t)

}  // namespace

TEST(Table, AppendAndTypedAccess) {
    MAKE_PEOPLE(t);
    EXPECT_EQ(t.row_count(), 3u);
    EXPECT_EQ(t.get_text(0, "name"), "alice");
    EXPECT_EQ(t.get_int(1, "age"), 40);
    EXPECT_DOUBLE_EQ(t.get_real(2, "score"), 3.5);
}

TEST(Table, RejectsSchemaViolations) {
    sd::Table t("x", {{"a", sd::ColumnType::kInt}});
    EXPECT_THROW(t.append({std::string("not-int")}), su::Error);
    EXPECT_THROW(t.append({std::int64_t{1}, std::int64_t{2}}), su::Error);
    t.append({std::int64_t{1}});
    EXPECT_THROW(t.get_text(0, "a"), su::Error);
    EXPECT_THROW(t.get_int(0, "nope"), su::Error);
}

TEST(Table, FilterAndDistinctAndGroupBy) {
    MAKE_PEOPLE(t);
    const auto alices =
        t.filter([&](const sd::Table::Row& row) { return std::get<std::string>(row[0]) == "alice"; });
    EXPECT_EQ(alices.size(), 2u);

    EXPECT_EQ(t.distinct_text("name"), (std::vector<std::string>{"alice", "bob"}));

    const auto groups = t.group_by_text("name");
    EXPECT_EQ(groups.at("alice").size(), 2u);
    EXPECT_EQ(groups.at("bob").size(), 1u);
}

TEST(Table, SortStable) {
    MAKE_PEOPLE(t);
    t.sort([](const sd::Table::Row& a, const sd::Table::Row& b) {
        return std::get<std::int64_t>(a[1]) > std::get<std::int64_t>(b[1]);
    });
    EXPECT_EQ(t.get_int(0, "age"), 40);
}

TEST(Table, EmptyTableQueriesAreWellDefined) {
    sd::Table t("empty", {{"name", sd::ColumnType::kText}});
    EXPECT_EQ(t.row_count(), 0u);
    EXPECT_TRUE(t.filter([](const sd::Table::Row&) { return true; }).empty());
    EXPECT_TRUE(t.distinct_text("name").empty());
    EXPECT_TRUE(t.group_by_text("name").empty());
    EXPECT_NO_THROW(t.sort([](const sd::Table::Row&, const sd::Table::Row&) { return false; }));
}

TEST(Table, ColumnIndexThrowsOnUnknownColumn) {
    MAKE_PEOPLE(t);
    EXPECT_THROW(t.column_index("salary"), su::Error);
    EXPECT_THROW(t.get_int(0, "salary"), su::Error);
}

TEST(Table, TypedAccessorsRejectWrongTypes) {
    MAKE_PEOPLE(t);
    EXPECT_THROW(t.get_int(0, "name"), su::Error) << "text column read as int";
    EXPECT_THROW(t.get_text(0, "age"), su::Error) << "int column read as text";
    EXPECT_THROW(t.get_real(0, "name"), su::Error) << "text column read as real";
}

TEST(Table, ConcurrentAppendsAllLand) {
    sd::Table t("hits", {{"worker", sd::ColumnType::kInt}, {"i", sd::ColumnType::kInt}});
    constexpr int kWorkers = 8;
    constexpr int kPer = 500;
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&t, w] {
            for (int i = 0; i < kPer; ++i) {
                t.append({std::int64_t{w}, std::int64_t{i}});
            }
        });
    }
    for (auto& w : workers) w.join();
    ASSERT_EQ(t.row_count(), static_cast<std::size_t>(kWorkers * kPer));
    // Every (worker, i) pair exactly once.
    std::set<std::pair<std::int64_t, std::int64_t>> seen;
    for (std::size_t r = 0; r < t.row_count(); ++r) {
        seen.insert({t.get_int(r, "worker"), t.get_int(r, "i")});
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kWorkers * kPer));
}

TEST(Database, CreateAndLookup) {
    sd::Database db;
    db.create_table("t", {{"a", sd::ColumnType::kInt}});
    EXPECT_TRUE(db.has_table("t"));
    EXPECT_FALSE(db.has_table("u"));
    EXPECT_THROW(db.create_table("t", {{"a", sd::ColumnType::kInt}}), su::Error);
    EXPECT_THROW(db.table("missing"), su::Error);
}

TEST(Database, SaveLoadRoundTrip) {
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "siren_db_test";
    fs::remove_all(dir);

    sd::Database db;
    auto& t = db.create_table("people", {{"name", sd::ColumnType::kText},
                                         {"age", sd::ColumnType::kInt},
                                         {"score", sd::ColumnType::kReal}});
    t.append({std::string("tab\tand|pipe"), std::int64_t{-5}, 0.25});
    db.save(dir.string());

    const sd::Database loaded = sd::Database::load(dir.string());
    const auto& lt = loaded.table("people");
    ASSERT_EQ(lt.row_count(), 1u);
    EXPECT_EQ(lt.get_text(0, "name"), "tab\tand|pipe");
    EXPECT_EQ(lt.get_int(0, "age"), -5);
    EXPECT_DOUBLE_EQ(lt.get_real(0, "score"), 0.25);
    fs::remove_all(dir);
}

TEST(Database, SaveReportsWriteFailure) {
    // messages.tsv is a symlink to /dev/full: every write hits ENOSPC, and
    // save() must say so instead of returning as if the rows were stored.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / ("siren_db_full_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::error_code ec;
    fs::create_symlink("/dev/full", dir / "messages.tsv", ec);
    if (ec) GTEST_SKIP() << "cannot symlink /dev/full here: " << ec.message();

    sd::Database db;
    auto& table = sd::create_message_table(db);
    sn::Message m;
    m.exe_hash = "h";
    m.host = "n";
    m.content = std::string(100 * 1024, 'x');
    for (int i = 0; i < 100; ++i) sd::insert_message(table, m);

    EXPECT_THROW(db.save(dir.string()), su::SystemError);
    fs::remove_all(dir, ec);
}

TEST(MessageStore, InsertAndReadBack) {
    sd::Database db;
    auto& table = sd::create_message_table(db);

    sn::Message m;
    m.job_id = 7;
    m.step_id = 1;
    m.pid = 99;
    m.exe_hash = "cafe";
    m.host = "nid01";
    m.time = 1234567;
    m.layer = sn::Layer::kScript;
    m.type = sn::MsgType::kScriptHash;
    m.seq = 2;
    m.total = 3;
    m.content = "3:abc:de";

    sd::insert_message(table, m);
    ASSERT_EQ(table.row_count(), 1u);
    EXPECT_EQ(sd::message_from_row(table, 0), m);
}

#include "db/database.hpp"

#include <filesystem>
#include <fstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace siren::db {

namespace fs = std::filesystem;

Table& Database::create_table(const std::string& name, std::vector<Column> columns) {
    auto [it, inserted] =
        tables_.emplace(name, std::make_unique<Table>(name, std::move(columns)));
    util::require(inserted, "table '" + name + "' already exists");
    return *it->second;
}

Table& Database::table(const std::string& name) {
    auto it = tables_.find(name);
    util::require(it != tables_.end(), "no table '" + name + "'");
    return *it->second;
}

const Table& Database::table(const std::string& name) const {
    auto it = tables_.find(name);
    util::require(it != tables_.end(), "no table '" + name + "'");
    return *it->second;
}

bool Database::has_table(const std::string& name) const {
    return tables_.find(name) != tables_.end();
}

std::vector<std::string> Database::table_names() const {
    std::vector<std::string> out;
    out.reserve(tables_.size());
    for (const auto& [name, table] : tables_) out.push_back(name);
    return out;
}

void Database::save(const std::string& directory) const {
    fs::create_directories(directory);
    for (const auto& [name, table] : tables_) {
        std::ofstream out(fs::path(directory) / (name + ".tsv"));
        if (!out) throw util::SystemError("cannot write table file for '" + name + "'");

        std::vector<std::string> header;
        header.reserve(table->columns().size());
        for (const auto& col : table->columns()) {
            header.push_back(col.name + ":" + to_string(col.type));
        }
        out << util::join(header, "\t") << '\n';

        for (std::size_t r = 0; r < table->row_count(); ++r) {
            const auto& row = table->row(r);
            for (std::size_t c = 0; c < row.size(); ++c) {
                if (c != 0) out << '\t';
                out << util::escape_field(Table::render(row[c]));
            }
            out << '\n';
        }
        // A full disk or an I/O error only shows once the buffer reaches
        // the file: a save that lost rows must not look like success.
        out.flush();
        if (!out) throw util::SystemError("write failed for table file of '" + name + "'");
    }
}

Database Database::load(const std::string& directory) {
    Database db;
    for (const auto& entry : fs::directory_iterator(directory)) {
        if (entry.path().extension() != ".tsv") continue;
        const std::string name = entry.path().stem().string();

        std::ifstream in(entry.path());
        if (!in) throw util::SystemError("cannot read " + entry.path().string());

        std::string line;
        if (!std::getline(in, line)) throw util::ParseError("empty table file: " + name);

        std::vector<Column> columns;
        for (const auto& decl : util::split(line, '\t')) {
            const auto parts = util::split(decl, ':');
            if (parts.size() != 2) throw util::ParseError("bad column declaration: " + decl);
            Column col;
            col.name = parts[0];
            if (parts[1] == "INT") col.type = ColumnType::kInt;
            else if (parts[1] == "REAL") col.type = ColumnType::kReal;
            else if (parts[1] == "TEXT") col.type = ColumnType::kText;
            else throw util::ParseError("bad column type: " + parts[1]);
            columns.push_back(std::move(col));
        }

        Table& table = db.create_table(name, std::move(columns));
        while (std::getline(in, line)) {
            const auto cells = util::split(line, '\t');
            if (cells.size() != table.columns().size()) {
                throw util::ParseError("row arity mismatch in " + name);
            }
            Table::Row row;
            row.reserve(cells.size());
            for (std::size_t c = 0; c < cells.size(); ++c) {
                const std::string text = util::unescape_field(cells[c]);
                switch (table.columns()[c].type) {
                    case ColumnType::kInt: row.emplace_back(static_cast<std::int64_t>(std::stoll(text))); break;
                    case ColumnType::kReal: row.emplace_back(std::stod(text)); break;
                    case ColumnType::kText: row.emplace_back(text); break;
                }
            }
            table.append(std::move(row));
        }
    }
    return db;
}

}  // namespace siren::db
